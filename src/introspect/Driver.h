//===- introspect/Driver.h - Two-pass introspective analysis ----*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end introspective analysis of the paper: run the program
/// context-insensitively, query the result with a heuristic to find the
/// elements whose refinement would explode, then re-run the *identical*
/// analysis with the refinement exceptions installed in the context policy.
///
/// This is the library's flagship entry point:
/// \code
///   IntrospectiveOptions Options;
///   Options.Heuristic = HeuristicKind::A;
///   auto Refined = makeObjectPolicy(Prog, 2, 1);
///   IntrospectiveOutcome Out = runIntrospective(Prog, *Refined, Options);
///   // Out.SecondPass is a scalable 2objH-IntroA result.
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef INTROSPECT_DRIVER_H
#define INTROSPECT_DRIVER_H

#include "analysis/Solver.h"
#include "introspect/Heuristics.h"

namespace intro {

namespace cache {
class ResultCache;
struct Fingerprint;
} // namespace cache

/// Options for an introspective run.
struct IntrospectiveOptions {
  HeuristicKind Heuristic = HeuristicKind::A;
  HeuristicAParams ParamsA;
  HeuristicBParams ParamsB;
  /// Budget for the cheap context-insensitive first pass.
  SolveBudget FirstPassBudget;
  /// Budget for the refined second pass (the paper's 90-min timeout).
  SolveBudget SecondPassBudget;
  /// Deterministic fault injection into the first pass (tests only; inert
  /// by default).
  FaultPlan FirstPassFaults;
  /// Optional content-addressed Pass-A store (runtime-only: never
  /// serialized with options), handed to runPassA.  When both Cache
  /// and CacheKey are set, the first pass probes the cache — a hit
  /// restores the stored summary and metrics without solving; a completed
  /// miss is stored for the next run.  FirstPass is then the summary
  /// (cache::passASummary) either way.  CacheKey must be
  /// fingerprintProgram(Prog) of the program being analyzed, and both
  /// pointers must outlive the run.  Ignored while FirstPassFaults is
  /// armed, so fault injection is never masked by a warm cache.
  cache::ResultCache *Cache = nullptr;
  const cache::Fingerprint *CacheKey = nullptr;
};

/// Everything an introspective run produces.
struct IntrospectiveOutcome {
  PointsToResult FirstPass;  ///< The pre-analysis (summary if cached).
  PointsToResult SecondPass; ///< The introspectively refined analysis.
  IntrospectionMetrics Metrics;
  RefinementExceptions Exceptions;
  RefinementStats Stats;      ///< Figure 4-style exclusion shares.
  double FirstPassSeconds = 0;
  double MetricSeconds = 0;   ///< Cost of computing metrics + heuristics.
  double SecondPassSeconds = 0;
};

/// Pass A of the paper: the context-insensitive pre-analysis and the §3
/// metrics queried from it, shared by every introspective pass built on it.
struct PassAOutcome {
  PointsToResult Insens;
  IntrospectionMetrics Metrics;
  /// Insens is cache::passASummary of the solve (a hit or a stored miss).
  bool Summary = false;
  /// Wall-clock of the solve, or of the cache load on a hit.
  double Seconds = 0;
  /// Wall-clock of the metric computation; 0 on a hit.
  double MetricSeconds = 0;
};

/// Runs Pass A of \p Prog under \p Solver (its Budget and Faults), or
/// reloads it from \p Cache.  This is the only code that probes or fills
/// the Pass-A cache:
///  - the cache is used only when both \p Cache and \p CacheKey are set
///    (CacheKey must be fingerprintProgram(Prog)), and is bypassed — not
///    even probed — while Solver.Faults is armed, so a warm entry never
///    masks an injected failure;
///  - a hit returns the stored summary (with its stored solver stats) and
///    metrics, and the load wall-clock as Seconds;
///  - a miss solves inside a \p SolveSpan trace span, computes the metrics
///    (also of a partial result), and stores the entry only if the solve
///    completed, so a retry with more headroom re-solves.  A stored miss
///    returns the summary it stored, as a hit would.
/// \p SolveSpan must have static storage (support/Trace.h).
PassAOutcome runPassA(const Program &Prog,
                      const SolverOptions &Solver = SolverOptions(),
                      cache::ResultCache *Cache = nullptr,
                      const cache::Fingerprint *CacheKey = nullptr,
                      const char *SolveSpan = "introspect.first_pass");

/// Runs the full two-pass introspective analysis of \p Prog, refining with
/// \p RefinedPolicy (e.g. 2objH) everywhere except at the heuristic-selected
/// exceptions, which stay context-insensitive.
///
/// The second pass's analysis name is "<refined>-IntroA" or "-IntroB".
IntrospectiveOutcome
runIntrospective(const Program &Prog, const ContextPolicy &RefinedPolicy,
                 const IntrospectiveOptions &Options = IntrospectiveOptions());

} // namespace intro

#endif // INTROSPECT_DRIVER_H
