//===- tests/ResilientTests.cpp - Degradation ladder and budgets ----------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the resilience layer: the runResilient degradation ladder
/// (exercised rung by rung via deterministic fault injection), the
/// approximate memory budget, the time budget's stop latency, and the
/// sound-prefix consistency of budget-exhausted results in both passes of
/// runIntrospective.
///
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/Solver.h"
#include "introspect/Driver.h"
#include "introspect/Resilient.h"
#include "ir/Program.h"
#include "support/Json.h"
#include "support/Timer.h"
#include "workload/DaCapo.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <vector>

using namespace intro;

namespace {

Program chartProgram() { return generateWorkload(dacapoProfile("chart")); }

/// A fault plan that fails deterministically early with \p Status.
FaultPlan failFast(SolveStatus Status = SolveStatus::TupleBudgetExceeded) {
  FaultPlan Plan;
  Plan.FailAtPop = 1;
  Plan.FailStatus = Status;
  return Plan;
}

/// Asserts that a (possibly budget-truncated) result is an internally
/// consistent sound prefix: all projection tables have program-shaped
/// sizes, every set is sorted and duplicate-free, every id is in range,
/// and the call graph only touches reachable methods.
void expectConsistent(const Program &Prog, const PointsToResult &R) {
  ASSERT_EQ(R.VarHeaps.size(), Prog.numVars());
  ASSERT_EQ(R.SiteTargets.size(), Prog.numSites());
  ASSERT_EQ(R.MethodThrows.size(), Prog.numMethods());
  ASSERT_EQ(R.MethodReachable.size(), Prog.numMethods());

  auto ExpectSortedSet = [](const SortedIdSet &Set, size_t Limit) {
    for (size_t Index = 0; Index < Set.size(); ++Index) {
      EXPECT_LT(Set[Index], Limit);
      if (Index > 0) {
        EXPECT_LT(Set[Index - 1], Set[Index]) << "not sorted/unique";
      }
    }
  };
  for (const SharedIdSet &Heaps : R.VarHeaps)
    ExpectSortedSet(Heaps.get(), Prog.numHeaps());
  for (const FieldCell &Cell : R.FieldHeaps)
    ExpectSortedSet(Cell.Heaps.get(), Prog.numHeaps());
  for (const SharedIdSet &Heaps : R.StaticFieldHeaps)
    ExpectSortedSet(Heaps.get(), Prog.numHeaps());
  for (const SharedIdSet &Heaps : R.MethodThrows)
    ExpectSortedSet(Heaps.get(), Prog.numHeaps());
  for (const SortedIdSet &Targets : R.SiteTargets)
    ExpectSortedSet(Targets, Prog.numMethods());

  // Entry methods are enqueued before the first iteration, so they stay
  // reachable in any prefix.
  for (MethodId Entry : Prog.entries())
    EXPECT_TRUE(R.isReachable(Entry));

  // Call-graph edges only leave reachable callers and only enter
  // reachable callees (both are recorded before any budget stop).
  for (uint32_t SiteRaw = 0; SiteRaw < Prog.numSites(); ++SiteRaw) {
    if (R.SiteTargets[SiteRaw].empty())
      continue;
    EXPECT_TRUE(R.isReachable(Prog.site(SiteId(SiteRaw)).InMethod));
    for (uint32_t MethodRaw : R.SiteTargets[SiteRaw])
      EXPECT_TRUE(R.isReachable(MethodId(MethodRaw)));
  }
}

} // namespace

// --- Fault injection in the solver ------------------------------------------

TEST(FaultInjection, FailAtPopStopsWithInjectedStatus) {
  Program Prog = chartProgram();
  auto Policy = makeInsensitivePolicy();
  for (SolveStatus Injected :
       {SolveStatus::TupleBudgetExceeded, SolveStatus::TimeBudgetExceeded,
        SolveStatus::MemoryBudgetExceeded}) {
    ContextTable Table;
    SolverOptions Options;
    Options.Faults.FailAtPop = 100;
    Options.Faults.FailStatus = Injected;
    PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
    EXPECT_EQ(R.Status, Injected);
    EXPECT_EQ(R.Stats.WorklistPops, 100u);
    expectConsistent(Prog, R);
  }
}

TEST(FaultInjection, InertPlanChangesNothing) {
  Program Prog = chartProgram();
  auto Policy = makeInsensitivePolicy();
  ContextTable TableA, TableB;
  PointsToResult Plain = solvePointsTo(Prog, *Policy, TableA);
  SolverOptions Options; // Default FaultPlan is inert.
  EXPECT_FALSE(Options.Faults.armed());
  PointsToResult Faulted = solvePointsTo(Prog, *Policy, TableB, Options);
  EXPECT_EQ(Faulted.Status, SolveStatus::Completed);
  EXPECT_EQ(Faulted.Stats.VarPointsToTuples, Plain.Stats.VarPointsToTuples);
  EXPECT_EQ(Faulted.Stats.WorklistPops, Plain.Stats.WorklistPops);
}

TEST(FaultInjection, TupleInflationTripsTheBudgetEarly) {
  Program Prog = chartProgram();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  SolverOptions Options;
  // The real run stays far below the default budget; a pathological
  // inflation factor makes the very same run look like an explosion.
  Options.Faults.TupleInflation = 1'000'000'000;
  EXPECT_TRUE(Options.Faults.armed());
  PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
  EXPECT_EQ(R.Status, SolveStatus::TupleBudgetExceeded);
  // Reported statistics stay honest: only budget enforcement is inflated.
  EXPECT_LT(R.Stats.VarPointsToTuples + R.Stats.FieldPointsToTuples,
            Options.Budget.MaxTuples);
  expectConsistent(Prog, R);
}

// --- Memory budget ----------------------------------------------------------

TEST(MemoryBudget, TinyBudgetExhaustsWithDistinctStatus) {
  Program Prog = chartProgram();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  SolverOptions Options;
  Options.Budget.MaxBytes = 10'000;
  PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
  EXPECT_EQ(R.Status, SolveStatus::MemoryBudgetExceeded);
  EXPECT_FALSE(isCompleted(R.Status));
  EXPECT_GT(R.Stats.ApproxBytes, Options.Budget.MaxBytes);
  expectConsistent(Prog, R);
}

TEST(MemoryBudget, CompletedRunReportsFootprintAndRespectsRoomyBudget) {
  Program Prog = chartProgram();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  SolverOptions Options;
  Options.Budget.MaxBytes = 4ull << 30;
  PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
  EXPECT_EQ(R.Status, SolveStatus::Completed);
  EXPECT_GT(R.Stats.ApproxBytes, 0u);
  EXPECT_LT(R.Stats.ApproxBytes, Options.Budget.MaxBytes);
}

// --- The degradation ladder ---------------------------------------------------

TEST(Resilient, HappyPathStopsAtDeepRung) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOutcome Out = runResilient(Prog, *Refined);
  EXPECT_TRUE(Out.completed());
  EXPECT_EQ(Out.Level, DegradationLevel::Deep);
  EXPECT_EQ(Out.Result.AnalysisName, "2objH");
  // Pass A runs first (its size caps the deep rung), then the deep rung.
  ASSERT_EQ(Out.Trace.size(), 2u);
  EXPECT_EQ(Out.Trace[0].Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Trace[0].Status, SolveStatus::Completed);
  EXPECT_EQ(Out.Trace[1].Level, DegradationLevel::Deep);
  EXPECT_EQ(Out.Trace[1].Status, SolveStatus::Completed);
  // The completed Pass A's metrics are reported on a deep win too.
  EXPECT_FALSE(Out.Metrics.InFlow.empty());
  EXPECT_GT(Out.MetricSeconds, 0.0);
}

TEST(Resilient, EveryRungIsForcedDownToInsensitive) {
  // Force all four refined rungs to fail; the ladder must degrade to the
  // context-insensitive result and record the full trace in rung order.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options;
  Options.Assemble = Assembly::Projections; // expectConsistent reads them.
  Options.TightenedRounds = 2;
  Options.faultsFor(DegradationLevel::Deep) =
      failFast(SolveStatus::TupleBudgetExceeded);
  Options.faultsFor(DegradationLevel::IntroB) =
      failFast(SolveStatus::TimeBudgetExceeded);
  Options.faultsFor(DegradationLevel::IntroA) =
      failFast(SolveStatus::MemoryBudgetExceeded);
  Options.faultsFor(DegradationLevel::TightenedIntroA) =
      failFast(SolveStatus::TupleBudgetExceeded);

  ResilientOutcome Out = runResilient(Prog, *Refined, Options);

  EXPECT_TRUE(Out.completed());
  EXPECT_EQ(Out.Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Result.AnalysisName, "insens");
  expectConsistent(Prog, Out.Result);

  // Full trace: the insensitive pre-analysis, deep, introB, introA, and
  // both tightened rounds — six attempts, statuses as injected.
  ASSERT_EQ(Out.Trace.size(), 6u);
  EXPECT_EQ(Out.Trace[0].Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Trace[0].Status, SolveStatus::Completed);
  EXPECT_EQ(Out.Trace[1].Level, DegradationLevel::Deep);
  EXPECT_EQ(Out.Trace[1].Status, SolveStatus::TupleBudgetExceeded);
  EXPECT_EQ(Out.Trace[2].Level, DegradationLevel::IntroB);
  EXPECT_EQ(Out.Trace[2].Status, SolveStatus::TimeBudgetExceeded);
  EXPECT_EQ(Out.Trace[2].AnalysisName, "2objH-IntroB");
  EXPECT_EQ(Out.Trace[3].Level, DegradationLevel::IntroA);
  EXPECT_EQ(Out.Trace[3].Status, SolveStatus::MemoryBudgetExceeded);
  EXPECT_EQ(Out.Trace[3].AnalysisName, "2objH-IntroA");
  EXPECT_EQ(Out.Trace[4].Level, DegradationLevel::TightenedIntroA);
  EXPECT_EQ(Out.Trace[4].TightenedRound, 1u);
  EXPECT_EQ(Out.Trace[4].AnalysisName, "2objH-IntroA-tight1");
  EXPECT_EQ(Out.Trace[5].Level, DegradationLevel::TightenedIntroA);
  EXPECT_EQ(Out.Trace[5].TightenedRound, 2u);
  for (const Attempt &A : Out.Trace)
    EXPECT_GE(A.Seconds, 0.0);
}

TEST(Resilient, ReturnsDeepestRungThatCompletes) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);

  struct Case {
    std::vector<DegradationLevel> Failing;
    DegradationLevel Expected;
    const char *ExpectedName;
  };
  const Case Cases[] = {
      {{DegradationLevel::Deep}, DegradationLevel::IntroB, "2objH-IntroB"},
      {{DegradationLevel::Deep, DegradationLevel::IntroB},
       DegradationLevel::IntroA,
       "2objH-IntroA"},
      {{DegradationLevel::Deep, DegradationLevel::IntroB,
        DegradationLevel::IntroA},
       DegradationLevel::TightenedIntroA,
       "2objH-IntroA-tight1"},
  };
  for (const Case &C : Cases) {
    ResilientOptions Options;
    Options.Assemble = Assembly::Projections; // expectConsistent reads them.
    for (DegradationLevel Level : C.Failing)
      Options.faultsFor(Level) = failFast();
    ResilientOutcome Out = runResilient(Prog, *Refined, Options);
    EXPECT_TRUE(Out.completed());
    EXPECT_EQ(Out.Level, C.Expected);
    EXPECT_EQ(Out.Result.AnalysisName, C.ExpectedName);
    expectConsistent(Prog, Out.Result);
    // Earlier rungs appear in the trace as failed attempts.
    ASSERT_GE(Out.Trace.size(), C.Failing.size() + 1);
    EXPECT_EQ(Out.Trace.back().Status, SolveStatus::Completed);
  }
}

TEST(Resilient, DefaultLadderAssemblesStatsOnly) {
  // The default ladder returns the same outcome as one that opts in to the
  // projections, rung for rung, minus the four heap projections.  Asking
  // for Tuples gives the opt-in outcome: the ladder dumps no tuples.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  // Deep wins; IntroB wins; every refined rung fails (Insensitive wins).
  std::vector<std::vector<DegradationLevel>> FailingSets = {
      {},
      {DegradationLevel::Deep},
      {DegradationLevel::Deep, DegradationLevel::IntroB,
       DegradationLevel::IntroA, DegradationLevel::TightenedIntroA}};
  for (const auto &Failing : FailingSets) {
    ResilientOptions Options;
    for (DegradationLevel Level : Failing)
      Options.faultsFor(Level) = failFast();
    ResilientOutcome Default = runResilient(Prog, *Refined, Options);
    Options.Assemble = Assembly::Projections;
    ResilientOutcome OptIn = runResilient(Prog, *Refined, Options);
    SCOPED_TRACE(degradationLevelName(OptIn.Level));
    Options.Assemble = Assembly::Tuples;
    ResilientOutcome Dumped = runResilient(Prog, *Refined, Options);
    EXPECT_EQ(Dumped.Level, OptIn.Level);
    EXPECT_EQ(Dumped.Result.VarHeaps, OptIn.Result.VarHeaps);
    EXPECT_EQ(Dumped.Result.FieldHeaps, OptIn.Result.FieldHeaps);
    EXPECT_EQ(Dumped.Result.StaticFieldHeaps, OptIn.Result.StaticFieldHeaps);
    EXPECT_EQ(Dumped.Result.MethodThrows, OptIn.Result.MethodThrows);
    EXPECT_TRUE(Dumped.Result.Reachable.empty());
    EXPECT_TRUE(Dumped.Result.VarPointsTo.empty());
    EXPECT_TRUE(Dumped.Result.CallGraph.empty());

    EXPECT_TRUE(Default.completed());
    EXPECT_EQ(Default.Level, OptIn.Level);
    EXPECT_EQ(Default.Result.AnalysisName, OptIn.Result.AnalysisName);
    EXPECT_EQ(Default.Result.Status, OptIn.Result.Status);
    for (auto [Name, Counter] : SolverStatsFields)
      EXPECT_EQ(Default.Result.Stats.*Counter, OptIn.Result.Stats.*Counter)
          << Name;
    EXPECT_EQ(Default.Result.MethodReachable, OptIn.Result.MethodReachable);
    EXPECT_EQ(Default.Result.SiteTargets, OptIn.Result.SiteTargets);
    EXPECT_TRUE(Default.Result.VarHeaps.empty());
    EXPECT_TRUE(Default.Result.FieldHeaps.empty());
    EXPECT_TRUE(Default.Result.StaticFieldHeaps.empty());
    EXPECT_TRUE(Default.Result.MethodThrows.empty());
    EXPECT_FALSE(OptIn.Result.VarHeaps.empty());

    ASSERT_EQ(Default.Trace.size(), OptIn.Trace.size());
    for (size_t Row = 0; Row < Default.Trace.size(); ++Row) {
      const Attempt &A = Default.Trace[Row];
      const Attempt &B = OptIn.Trace[Row];
      EXPECT_EQ(A.Level, B.Level);
      EXPECT_EQ(A.AnalysisName, B.AnalysisName);
      EXPECT_EQ(A.Status, B.Status);
      EXPECT_EQ(A.TightenedRound, B.TightenedRound);
      for (auto [Name, Counter] : SolverStatsFields)
        EXPECT_EQ(A.Stats.*Counter, B.Stats.*Counter) << Row << " " << Name;
    }
    EXPECT_EQ(Default.Metrics.DeepTuplesEstimate,
              OptIn.Metrics.DeepTuplesEstimate);
    EXPECT_EQ(Default.Exceptions, OptIn.Exceptions);
  }
}

TEST(Resilient, SkippingRungsStartsTheLadderLower) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options;
  Options.AttemptDeep = false;
  Options.AttemptIntroB = false;
  ResilientOutcome Out = runResilient(Prog, *Refined, Options);
  EXPECT_TRUE(Out.completed());
  EXPECT_EQ(Out.Level, DegradationLevel::IntroA);
  EXPECT_EQ(Out.Result.AnalysisName, "2objH-IntroA");
  // Trace: the pre-analysis, then the IntroA rung.
  ASSERT_EQ(Out.Trace.size(), 2u);
  EXPECT_EQ(Out.Trace[0].Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Trace[1].Level, DegradationLevel::IntroA);
  EXPECT_FALSE(Out.Metrics.InFlow.empty());
  // The winning rung's exceptions are reported.
  EXPECT_FALSE(Out.Exceptions == RefinementExceptions());
}

TEST(Resilient, TightenedRoundsExcludeMoreEachTime) {
  // With absurdly tight backoff the tightened rungs must exclude at least
  // as many elements as plain IntroA does (monotone thresholds).
  Program Prog = chartProgram();
  PointsToResult Insens = [&] {
    auto Policy = makeInsensitivePolicy();
    ContextTable Table;
    return solvePointsTo(Prog, *Policy, Table);
  }();
  IntrospectionMetrics M = computeIntrospectionMetrics(Prog, Insens);
  HeuristicAParams Base;
  RefinementExceptions Loose = applyHeuristicA(Prog, Insens, M, Base);
  HeuristicAParams Tight;
  Tight.K = Base.K / 16;
  Tight.L = Base.L / 16;
  Tight.M = Base.M / 16;
  RefinementExceptions Tightened = applyHeuristicA(Prog, Insens, M, Tight);
  auto Heaps = [](const RefinementExceptions &E) {
    return std::count(E.NoRefineHeaps.begin(), E.NoRefineHeaps.end(), true);
  };
  auto Pairs = [](const RefinementExceptions &E) {
    size_t Count = 0;
    for (const SortedIdSet &Targets : E.NoRefineSites)
      Count += Targets.size();
    return Count;
  };
  EXPECT_GE(Heaps(Tightened), Heaps(Loose));
  EXPECT_GE(Pairs(Tightened), Pairs(Loose));
}

TEST(Resilient, TightenedRoundRDividesParamsAByFourToTheR) {
  // Round r of the tightened rung solves with ParamsA's K/L/M divided by
  // 4^r.  Plain IntroA is faulted, so the ladder reaches the tightened
  // rounds; in the second run the tightened rung's fault plan stops at a
  // pop between the two rounds' pop counts (on chart round 2 pops fewer
  // nodes), so round 1 fails and round 2 wins.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  PassAOutcome PassA = runPassA(Prog, SolverOptions());
  ASSERT_TRUE(isCompleted(PassA.Insens.Status));
  auto ExceptionsAt = [&](uint64_t Divisor) {
    HeuristicAParams Params;
    Params.K /= Divisor;
    Params.L /= Divisor;
    Params.M /= Divisor;
    return applyHeuristicA(Prog, PassA.Insens, PassA.Metrics, Params);
  };
  auto PopsUnder = [&](const RefinementExceptions &Exceptions) {
    auto Insensitive = makeInsensitivePolicy();
    auto Policy =
        makeIntrospectivePolicy("probe", *Insensitive, *Refined, Exceptions);
    ContextTable Table;
    PointsToResult R = solvePointsTo(Prog, *Policy, Table);
    EXPECT_TRUE(isCompleted(R.Status));
    return R.Stats.WorklistPops;
  };
  RefinementExceptions Round1 = ExceptionsAt(4);
  RefinementExceptions Round2 = ExceptionsAt(16);
  uint64_t Pops1 = PopsUnder(Round1);
  uint64_t Pops2 = PopsUnder(Round2);
  ASSERT_LT(Pops2, Pops1) << "chart must tell the two rounds apart";

  ResilientOptions Options;
  Options.AttemptDeep = false;
  Options.AttemptIntroB = false;
  Options.faultsFor(DegradationLevel::IntroA) = failFast();
  ResilientOutcome First = runResilient(Prog, *Refined, Options);
  ASSERT_TRUE(First.completed());
  EXPECT_EQ(First.Level, DegradationLevel::TightenedIntroA);
  EXPECT_EQ(First.Trace.back().TightenedRound, 1u);
  EXPECT_TRUE(First.Exceptions == Round1);

  FaultPlan &Between = Options.faultsFor(DegradationLevel::TightenedIntroA);
  Between = failFast();
  Between.FailAtPop = Pops2 + (Pops1 - Pops2 + 1) / 2;
  ResilientOutcome Second = runResilient(Prog, *Refined, Options);
  ASSERT_TRUE(Second.completed());
  EXPECT_EQ(Second.Level, DegradationLevel::TightenedIntroA);
  ASSERT_EQ(Second.Trace.size(), 4u); // insensitive, introA, two rounds.
  EXPECT_EQ(Second.Trace[2].Status, SolveStatus::TupleBudgetExceeded);
  EXPECT_EQ(Second.Trace[3].TightenedRound, 2u);
  EXPECT_TRUE(Second.Exceptions == Round2);
}

// --- The Pass-A cap on the deep rung ----------------------------------------

TEST(DeepTupleCap, FloorRatioClampAndSaturation) {
  SolveBudget Absolute; // 100M tuples.
  // Small programs keep the floor: the deep rung is cheap there.
  EXPECT_EQ(deepTupleCap(Absolute, 0), DeepCapFloorTuples);
  EXPECT_EQ(deepTupleCap(Absolute, 199'999), DeepCapFloorTuples);
  EXPECT_EQ(deepTupleCap(Absolute, 200'000), DeepCapFloorTuples);
  // Above it, the cap is DeepCapRatio times the Pass-A tuples.
  EXPECT_EQ(deepTupleCap(Absolute, 200'001), 2'000'010u);
  EXPECT_EQ(deepTupleCap(Absolute, 2'294'371), 22'943'710u);
  // It never exceeds the absolute budget...
  EXPECT_EQ(deepTupleCap(Absolute, 10'000'001), Absolute.MaxTuples);
  SolveBudget Tight;
  Tight.MaxTuples = 500;
  EXPECT_EQ(deepTupleCap(Tight, 0), 500u);
  // ...and a Pass-A count whose product overflows saturates, not wraps.
  const uint64_t Huge = std::numeric_limits<uint64_t>::max() / 4;
  EXPECT_EQ(deepTupleCap(Absolute, Huge), Absolute.MaxTuples);
  SolveBudget Unbounded;
  Unbounded.MaxTuples = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(deepTupleCap(Unbounded, Huge),
            std::numeric_limits<uint64_t>::max());
}

TEST(DeepTupleCap, LadderCapsTheDeepRungOnlyAfterACompletedPassA) {
  // Inflating the deep rung's tuple count 100x puts chart's 2objH (about
  // 0.3M tuples, so 30M inflated) above 10x its Pass A (about 0.7M) but
  // below the absolute 100M budget.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options;
  Options.faultsFor(DegradationLevel::Deep).TupleInflation = 100;
  ResilientOutcome Capped = runResilient(Prog, *Refined, Options);
  ASSERT_GE(Capped.Trace.size(), 2u);
  const Attempt &PassA = Capped.Trace[0];
  const Attempt &Deep = Capped.Trace[1];
  ASSERT_EQ(Deep.Level, DegradationLevel::Deep);
  EXPECT_EQ(Deep.Status, SolveStatus::TupleBudgetExceeded);
  EXPECT_GE(100 * (Deep.Stats.VarPointsToTuples +
                   Deep.Stats.FieldPointsToTuples),
            deepTupleCap(Options.DeepBudget,
                         PassA.Stats.VarPointsToTuples +
                             PassA.Stats.FieldPointsToTuples));
  EXPECT_EQ(Capped.Level, DegradationLevel::IntroB);

  // Without a completed Pass A the deep rung keeps the absolute budget,
  // completes, and still wins.
  Options.faultsFor(DegradationLevel::Insensitive) = failFast();
  ResilientOutcome Absolute = runResilient(Prog, *Refined, Options);
  EXPECT_TRUE(Absolute.completed());
  EXPECT_EQ(Absolute.Level, DegradationLevel::Deep);
  ASSERT_EQ(Absolute.Trace.size(), 2u);
  EXPECT_EQ(Absolute.Trace[0].Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Absolute.Trace[0].Status, SolveStatus::TupleBudgetExceeded);
  EXPECT_TRUE(Absolute.Metrics.InFlow.empty());

  // If the deep rung fails too, the partial Pass A is the answer.
  Options.faultsFor(DegradationLevel::Deep) = failFast();
  ResilientOutcome Floor = runResilient(Prog, *Refined, Options);
  EXPECT_FALSE(Floor.completed());
  EXPECT_EQ(Floor.Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Floor.Result.Status, SolveStatus::TupleBudgetExceeded);
  EXPECT_EQ(Floor.Trace.size(), 2u);
}

// --- Budget-exhausted runs stay consistent (both introspective passes) ------

TEST(BudgetExhaustion, FirstPassTupleBudgetYieldsSoundPrefix) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  IntrospectiveOptions Options;
  Options.FirstPassBudget.MaxTuples = 500;
  IntrospectiveOutcome Out = runIntrospective(Prog, *Refined, Options);
  EXPECT_EQ(Out.FirstPass.Status, SolveStatus::TupleBudgetExceeded);
  expectConsistent(Prog, Out.FirstPass);
  // The second pass still runs (with junk exceptions) and stays consistent.
  expectConsistent(Prog, Out.SecondPass);
}

TEST(BudgetExhaustion, SecondPassTupleBudgetYieldsSoundPrefix) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  IntrospectiveOptions Options;
  Options.SecondPassBudget.MaxTuples = 500;
  IntrospectiveOutcome Out = runIntrospective(Prog, *Refined, Options);
  EXPECT_EQ(Out.FirstPass.Status, SolveStatus::Completed);
  EXPECT_EQ(Out.SecondPass.Status, SolveStatus::TupleBudgetExceeded);
  expectConsistent(Prog, Out.SecondPass);
}

TEST(BudgetExhaustion, TimeBudgetYieldsSoundPrefixInBothPasses) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  for (bool FirstPass : {true, false}) {
    IntrospectiveOptions Options;
    // A zero wall-clock budget trips at the first 1024-iteration clock
    // checkpoint: deterministic without being machine-dependent.
    (FirstPass ? Options.FirstPassBudget : Options.SecondPassBudget)
        .MaxSeconds = 0.0;
    IntrospectiveOutcome Out = runIntrospective(Prog, *Refined, Options);
    const PointsToResult &Truncated =
        FirstPass ? Out.FirstPass : Out.SecondPass;
    EXPECT_EQ(Truncated.Status, SolveStatus::TimeBudgetExceeded);
    expectConsistent(Prog, Truncated);
  }
}

TEST(BudgetExhaustion, TimeBudgetStopsExplodingSolvePromptly) {
  // hsqldb under 2objH is a genuine blow-up (Figure 5): with the tuple
  // budget disabled it would run for minutes.  The time budget is the only
  // in-process wall-clock stop, so the whole call — the clock checkpoint
  // every 1024 iterations plus result assembly over the exploded state —
  // must return within 500 ms of the 50 ms deadline.
  Program Prog = generateWorkload(dacapoProfile("hsqldb"));
  auto Policy = makeObjectPolicy(Prog, 2, 1);
  ContextTable Table;
  SolverOptions Options;
  Options.Budget.MaxTuples = ~0ull;
  Options.Budget.MaxSeconds = 0.05;
  Timer Clock;
  PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
  EXPECT_LT(Clock.millis(), 1000 * Options.Budget.MaxSeconds + 500);
  EXPECT_EQ(R.Status, SolveStatus::TimeBudgetExceeded);
  expectConsistent(Prog, R);
}

TEST(FaultInjection, TupleInflationSaturatesInsteadOfWrapping) {
  // A pathological inflation factor whose product with the tuple count
  // overflows uint64 must saturate and trip the budget — wrapping would
  // make the product tiny and silently disarm the check.
  Program Prog = chartProgram();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  SolverOptions Options;
  Options.Faults.TupleInflation = std::numeric_limits<uint64_t>::max();
  Options.Budget.MaxTuples = std::numeric_limits<uint64_t>::max() - 1;
  PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
  EXPECT_EQ(R.Status, SolveStatus::TupleBudgetExceeded);
  expectConsistent(Prog, R);
}

TEST(Resilient, AllRungsFaultedLeavesNoWonFlag) {
  // When even the floor faults, nothing completes and no attempt of the
  // outcome JSON may be marked as the winner.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options;
  Options.Assemble = Assembly::Projections; // expectConsistent reads them.
  for (DegradationLevel Level :
       {DegradationLevel::Deep, DegradationLevel::Insensitive,
        DegradationLevel::IntroB, DegradationLevel::IntroA,
        DegradationLevel::TightenedIntroA})
    Options.faultsFor(Level) = failFast();
  ResilientOutcome Out = runResilient(Prog, *Refined, Options);
  EXPECT_FALSE(Out.completed());
  EXPECT_EQ(Out.Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Result.Status, SolveStatus::TupleBudgetExceeded);
  expectConsistent(Prog, Out.Result);

  std::ostringstream Text;
  JsonWriter J(Text);
  writeResilientOutcomeJson(J, Out);
  JsonParseResult Parsed = parseJson(Text.str());
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  const JsonValue *Attempts = Parsed.Value.get("attempts");
  ASSERT_NE(Attempts, nullptr);
  ASSERT_TRUE(Attempts->isArray());
  EXPECT_EQ(Attempts->elements().size(), Out.Trace.size());
  for (const JsonValue &A : Attempts->elements()) {
    bool Won = true;
    ASSERT_TRUE(A.getBool("won", Won));
    EXPECT_FALSE(Won);
  }
}

// --- Skipping the deep rung Pass A predicts to explode ----------------------

namespace {

/// chart under a 100k-tuple deep budget: its DeepTuplesEstimate (about
/// 1.3M) is more than DeepSkipFactor times that cap, so the deep rung is
/// skipped; the refined rungs keep their default budget.
ResilientOptions skippingDeepOptions() {
  ResilientOptions Options;
  Options.DeepBudget.MaxTuples = 100'000;
  return Options;
}

/// The rungs whose OnRungStart fired, in order.
std::vector<DegradationLevel> startedRungs(const Program &Prog,
                                           const ContextPolicy &Refined,
                                           ResilientOptions Options,
                                           ResilientOutcome &Out) {
  std::vector<DegradationLevel> Started;
  Options.OnRungStart = [&Started](DegradationLevel Level, uint32_t) {
    Started.push_back(Level);
  };
  Out = runResilient(Prog, Refined, Options);
  return Started;
}

/// The `deep_estimate` member of \p Out's outcome JSON.
uint64_t outcomeDeepEstimate(const ResilientOutcome &Out) {
  std::ostringstream Text;
  JsonWriter J(Text);
  writeResilientOutcomeJson(J, Out);
  JsonParseResult Parsed = parseJson(Text.str());
  EXPECT_TRUE(Parsed.ok()) << Parsed.Error;
  uint64_t Estimate = std::numeric_limits<uint64_t>::max();
  EXPECT_TRUE(Parsed.Value.getUint("deep_estimate", Estimate));
  return Estimate;
}

} // namespace

TEST(DeepSkip, ThresholdIsTwiceTheCapExclusiveAndSaturates) {
  const uint64_t Cap = 1'000'000;
  EXPECT_FALSE(skipDeepRung(SolveStatus::Completed, 2 * Cap, Cap));
  EXPECT_TRUE(skipDeepRung(SolveStatus::Completed, 2 * Cap + 1, Cap));
  EXPECT_FALSE(skipDeepRung(SolveStatus::Completed, 0, 0));
  EXPECT_TRUE(skipDeepRung(SolveStatus::Completed, 1, 0));
  // Only a completed Pass A predicts anything.
  const uint64_t Max = std::numeric_limits<uint64_t>::max();
  for (SolveStatus Partial :
       {SolveStatus::TupleBudgetExceeded, SolveStatus::TimeBudgetExceeded,
        SolveStatus::MemoryBudgetExceeded})
    EXPECT_FALSE(skipDeepRung(Partial, Max, Cap)) << statusName(Partial);
  // A cap whose double overflows saturates: no estimate is above it.  A
  // wrapped product (2 x (Max / 2 + 1) = 0) would skip every deep rung.
  EXPECT_FALSE(skipDeepRung(SolveStatus::Completed, Max, Max / 2 + 1));
  EXPECT_FALSE(skipDeepRung(SolveStatus::Completed, Max, Max));
  EXPECT_TRUE(skipDeepRung(SolveStatus::Completed, Max, Max / 2 - 1));
}

TEST(DeepSkip, SkippedRungIsAZeroRowWithoutRungStartAndIntroBWins) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options = skippingDeepOptions();
  ResilientOutcome Out;
  std::vector<DegradationLevel> Started =
      startedRungs(Prog, *Refined, Options, Out);

  EXPECT_GT(Out.Metrics.DeepTuplesEstimate,
            DeepSkipFactor * Options.DeepBudget.MaxTuples);
  EXPECT_EQ(outcomeDeepEstimate(Out), Out.Metrics.DeepTuplesEstimate);
  EXPECT_EQ(Started, (std::vector<DegradationLevel>{
                         DegradationLevel::Insensitive,
                         DegradationLevel::IntroB}));
  ASSERT_EQ(Out.Trace.size(), 3u);
  const Attempt &Deep = Out.Trace[1];
  EXPECT_EQ(Deep.Level, DegradationLevel::Deep);
  EXPECT_EQ(Deep.AnalysisName, Refined->name());
  EXPECT_EQ(Deep.Status, SolveStatus::TupleBudgetExceeded);
  for (auto [Name, Counter] : SolverStatsFields)
    EXPECT_EQ(Deep.Stats.*Counter, 0u) << Name;
  EXPECT_EQ(Deep.Stats.Seconds, 0.0);
  EXPECT_EQ(Deep.Seconds, 0.0);
  EXPECT_TRUE(Out.completed());
  EXPECT_EQ(Out.Level, DegradationLevel::IntroB);
}

TEST(DeepSkip, PartialPassARunsTheDeepRungUnderItsAbsoluteBudget) {
  // Without a completed Pass A there is no estimate: the deep rung runs
  // (and here trips the 100k budget chart's 2objH needs 3x of).
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options = skippingDeepOptions();
  Options.faultsFor(DegradationLevel::Insensitive) = failFast();
  ResilientOutcome Out;
  std::vector<DegradationLevel> Started =
      startedRungs(Prog, *Refined, Options, Out);

  EXPECT_EQ(Out.Metrics.DeepTuplesEstimate, 0u);
  EXPECT_EQ(outcomeDeepEstimate(Out), 0u);
  EXPECT_EQ(Started, (std::vector<DegradationLevel>{
                         DegradationLevel::Insensitive,
                         DegradationLevel::Deep}));
  ASSERT_EQ(Out.Trace.size(), 2u);
  EXPECT_EQ(Out.Trace[1].Level, DegradationLevel::Deep);
  EXPECT_EQ(Out.Trace[1].Status, SolveStatus::TupleBudgetExceeded);
  EXPECT_GT(Out.Trace[1].Stats.WorklistPops, 0u);
}
