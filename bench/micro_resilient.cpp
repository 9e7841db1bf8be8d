//===- bench/micro_resilient.cpp - Degradation-ladder overhead ------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the resilience layer.  The contract
/// is that the ladder's bookkeeping is free when nothing goes wrong: a
/// runResilient call whose first attempted rung succeeds must cost < 1%
/// over the equivalent non-resilient driver.  Three comparisons:
///
///   - runIntrospective(A)  vs  runResilient starting at the IntroA rung
///     (identical analysis work; the delta is pure ladder bookkeeping);
///   - plain deep solve     vs  runResilient whose deep rung succeeds (the
///     ladder also runs Pass A first, whose size caps the deep rung, so
///     this delta is Pass A plus its metrics);
///   - the full forced ladder (every rung faulted) to price the worst case.
///
/// The two comparisons opt in to Assembly::Projections, which the
/// baselines assemble: the ladder's default skips the projections.
///
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/Solver.h"
#include "introspect/Driver.h"
#include "introspect/Resilient.h"
#include "workload/DaCapo.h"

#include <benchmark/benchmark.h>

using namespace intro;

namespace {

Program chartProgram() { return generateWorkload(dacapoProfile("chart")); }

} // namespace

/// Baseline: the two-pass introspective driver with Heuristic A.
static void BM_IntrospectiveA(benchmark::State &State) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  IntrospectiveOptions Options;
  Options.Heuristic = HeuristicKind::A;
  for (auto _ : State) {
    IntrospectiveOutcome Out = runIntrospective(Prog, *Refined, Options);
    benchmark::DoNotOptimize(Out.SecondPass.Stats.VarPointsToTuples);
  }
}
BENCHMARK(BM_IntrospectiveA);

/// The ladder doing the same work: deep and IntroB rungs skipped, IntroA
/// succeeds first try.  Identical solver+metric work as BM_IntrospectiveA;
/// any delta is the ladder's bookkeeping (must stay < 1%).
static void BM_ResilientHappyIntroA(benchmark::State &State) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options;
  Options.AttemptDeep = false;
  Options.AttemptIntroB = false;
  Options.Assemble = Assembly::Projections;
  for (auto _ : State) {
    ResilientOutcome Out = runResilient(Prog, *Refined, Options);
    benchmark::DoNotOptimize(Out.Result.Stats.VarPointsToTuples);
  }
}
BENCHMARK(BM_ResilientHappyIntroA);

/// Baseline: one plain deep solve.
static void BM_PlainDeep(benchmark::State &State) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  for (auto _ : State) {
    ContextTable Table;
    PointsToResult R = solvePointsTo(Prog, *Refined, Table);
    benchmark::DoNotOptimize(R.Stats.VarPointsToTuples);
  }
}
BENCHMARK(BM_PlainDeep);

/// The ladder whose deep rung succeeds outright: Pass A and its metrics,
/// then the capped deep rung; two trace entries.
static void BM_ResilientHappyDeep(benchmark::State &State) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options;
  Options.Assemble = Assembly::Projections;
  for (auto _ : State) {
    ResilientOutcome Out = runResilient(Prog, *Refined, Options);
    benchmark::DoNotOptimize(Out.Result.Stats.VarPointsToTuples);
  }
}
BENCHMARK(BM_ResilientHappyDeep);

/// Worst case: every refined rung is forced to fail at its first worklist
/// pop, so the run prices the whole ladder walk down to insensitive.
static void BM_ResilientFullLadder(benchmark::State &State) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options;
  for (DegradationLevel Level :
       {DegradationLevel::Deep, DegradationLevel::IntroB,
        DegradationLevel::IntroA, DegradationLevel::TightenedIntroA})
    Options.faultsFor(Level).FailAtPop = 1;
  for (auto _ : State) {
    ResilientOutcome Out = runResilient(Prog, *Refined, Options);
    benchmark::DoNotOptimize(Out.Trace.size());
  }
}
BENCHMARK(BM_ResilientFullLadder);

BENCHMARK_MAIN();
