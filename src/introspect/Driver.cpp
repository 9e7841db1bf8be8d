//===- introspect/Driver.cpp - Two-pass introspective analysis ------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "introspect/Driver.h"

#include "cache/ResultCache.h"
#include "ir/Program.h"
#include "support/Timer.h"
#include "support/Trace.h"

using namespace intro;

PassAOutcome intro::runPassA(const Program &Prog, const SolverOptions &Solver,
                             cache::ResultCache *Cache,
                             const cache::Fingerprint *CacheKey,
                             const char *SolveSpan) {
  PassAOutcome Out;
  bool UseCache = Cache && CacheKey && !Solver.Faults.armed();
  if (UseCache) {
    Timer Clock;
    cache::CachedPassA Entry;
    if (Cache->lookup(*CacheKey, Entry)) {
      Out.Insens = std::move(Entry.Insens);
      Out.Metrics = std::move(Entry.Metrics);
      Out.Seconds = Clock.seconds();
      Out.Summary = true;
      return Out;
    }
  }

  // SITETOREFINE/OBJECTTOREFINE empty: plain context-insensitive analysis.
  {
    trace::ScopedSpan Span(SolveSpan);
    auto Insensitive = makeInsensitivePolicy();
    ContextTable Table;
    Timer Clock;
    Out.Insens = solvePointsTo(Prog, *Insensitive, Table, Solver);
    Out.Seconds = Clock.seconds();
  }
  Timer Clock;
  Out.Metrics = computeIntrospectionMetrics(Prog, Out.Insens);
  Out.MetricSeconds = Clock.seconds();

  // A completed miss hands back the summary it stores, exactly what the
  // next run's hit returns.
  if (UseCache && isCompleted(Out.Insens.Status)) {
    cache::CachedPassA Entry{cache::passASummary(std::move(Out.Insens)),
                             std::move(Out.Metrics)};
    Cache->store(*CacheKey, Entry);
    Out.Insens = std::move(Entry.Insens);
    Out.Metrics = std::move(Entry.Metrics);
    Out.Summary = true;
  }
  return Out;
}

IntrospectiveOutcome
intro::runIntrospective(const Program &Prog,
                        const ContextPolicy &RefinedPolicy,
                        const IntrospectiveOptions &Options) {
  IntrospectiveOutcome Out;
  SolverOptions FirstPassOpts;
  FirstPassOpts.Budget = Options.FirstPassBudget;
  FirstPassOpts.Faults = Options.FirstPassFaults;
  PassAOutcome PassA =
      runPassA(Prog, FirstPassOpts, Options.Cache, Options.CacheKey);
  Out.FirstPass = std::move(PassA.Insens);
  Out.Metrics = std::move(PassA.Metrics);
  Out.FirstPassSeconds = PassA.Seconds;

  // Introspection: query the first pass for the elements to not refine.
  {
    TRACE_SPAN("introspect.metrics");
    Timer Clock;
    Out.Exceptions =
        Options.Heuristic == HeuristicKind::A
            ? applyHeuristicA(Prog, Out.FirstPass, Out.Metrics,
                              Options.ParamsA)
            : applyHeuristicB(Prog, Out.FirstPass, Out.Metrics,
                              Options.ParamsB);
    Out.Stats = computeRefinementStats(Prog, Out.FirstPass, Out.Exceptions);
    Out.MetricSeconds = PassA.MetricSeconds + Clock.seconds();
  }

  // Pass 2: identical analysis code, refinement exceptions installed.
  {
    TRACE_SPAN("introspect.main_pass");
    std::string Name = RefinedPolicy.name();
    Name += Options.Heuristic == HeuristicKind::A ? "-IntroA" : "-IntroB";
    auto Insensitive = makeInsensitivePolicy();
    auto Policy = makeIntrospectivePolicy(std::move(Name), *Insensitive,
                                          RefinedPolicy, Out.Exceptions);
    Timer Clock;
    ContextTable Table;
    SolverOptions SolverOpts;
    SolverOpts.Budget = Options.SecondPassBudget;
    Out.SecondPass = solvePointsTo(Prog, *Policy, Table, SolverOpts);
    Out.SecondPassSeconds = Clock.seconds();
  }
  return Out;
}
