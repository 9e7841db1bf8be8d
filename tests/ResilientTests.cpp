//===- tests/ResilientTests.cpp - Degradation ladder and cancellation -----===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the resilience layer: the runResilient degradation ladder
/// (exercised rung by rung via deterministic fault injection), cooperative
/// cancellation (including the watchdog latency guarantee), the approximate
/// memory budget, and the sound-prefix consistency of budget-exhausted
/// results in both passes of runIntrospective.
///
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/Solver.h"
#include "introspect/Driver.h"
#include "introspect/Resilient.h"
#include "ir/Program.h"
#include "support/Json.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "workload/DaCapo.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <thread>
#include <vector>

using namespace intro;

namespace {

Program chartProgram() { return generateWorkload(dacapoProfile("chart")); }

/// 2objH that cancels \p Token when a solve starts under it.  Only the deep
/// rung asks it for the initial context: the introspective policy wrapping
/// it for the IntroA/IntroB rungs does not forward initialContext.  So the
/// cancel lands exactly while the deep rung runs.
class CancelOnDeepStart : public ContextPolicy {
public:
  CancelOnDeepStart(const Program &Prog, CancellationToken &Token)
      : Inner(makeObjectPolicy(Prog, 2, 1)), Token(Token) {}

  std::string name() const override { return Inner->name(); }
  CtxId initialContext(ContextTable &Table) const override {
    Token.cancel();
    return Inner->initialContext(Table);
  }
  HCtxId record(HeapId Heap, CtxId Ctx, ContextTable &Table) const override {
    return Inner->record(Heap, Ctx, Table);
  }
  CtxId merge(HeapId Heap, HCtxId HCtx, SiteId Invo, MethodId Callee,
              CtxId CallerCtx, ContextTable &Table) const override {
    return Inner->merge(Heap, HCtx, Invo, Callee, CallerCtx, Table);
  }
  CtxId mergeStatic(SiteId Invo, MethodId Callee, CtxId CallerCtx,
                    ContextTable &Table) const override {
    return Inner->mergeStatic(Invo, Callee, CallerCtx, Table);
  }

private:
  std::unique_ptr<ContextPolicy> Inner;
  CancellationToken &Token;
};

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
  for (const SortedIdSet &Heaps : R.VarHeaps)
    ExpectSortedSet(Heaps, Prog.numHeaps());
  for (const FieldCell &Cell : R.FieldHeaps)
    ExpectSortedSet(Cell.Heaps, Prog.numHeaps());
  for (const SortedIdSet &Heaps : R.StaticFieldHeaps)
    ExpectSortedSet(Heaps, Prog.numHeaps());
  for (const SortedIdSet &Heaps : R.MethodThrows)
    ExpectSortedSet(Heaps, Prog.numHeaps());
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

// --- Cooperative cancellation ------------------------------------------------

TEST(Cancellation, PreCancelledTokenReturnsCancelledStatus) {
  Program Prog = chartProgram();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  CancellationToken Token;
  Token.cancel();
  SolverOptions Options;
  Options.Cancel = &Token;
  PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
  EXPECT_EQ(R.Status, SolveStatus::Cancelled);
  EXPECT_FALSE(isCompleted(R.Status));
  expectConsistent(Prog, R);
}

TEST(Cancellation, TokenIsReusableAfterReset) {
  CancellationToken Token;
  EXPECT_FALSE(Token.isCancelled());
  Token.cancel();
  Token.cancel(); // Idempotent.
  EXPECT_TRUE(Token.isCancelled());
  Token.reset();
  EXPECT_FALSE(Token.isCancelled());
}

TEST(Cancellation, WatchdogAbortsExplodingSolvePromptly) {
  // hsqldb under 2objH is a genuine blow-up (Figure 5): with the budgets
  // effectively disabled it would run for minutes.  A watchdog cancels it
  // shortly after launch; the solver must return within 250 ms of the
  // signal with the distinct Cancelled status, not a timeout.  The signal
  // fires 50 ms in: far enough to be deep inside the hot loop, early
  // enough that the bound measures cancellation latency rather than how
  // much exploded state result assembly has to walk (the batched solver
  // covers several times more of the blow-up per wall-clock second).
  Program Prog = generateWorkload(dacapoProfile("hsqldb"));
  auto Policy = makeObjectPolicy(Prog, 2, 1);
  CancellationToken Token;

  PointsToResult R;
  std::thread Solve([&] {
    ContextTable Table;
    SolverOptions Options;
    Options.Budget.MaxTuples = ~0ull;
    Options.Budget.MaxSeconds = 1e9;
    Options.Cancel = &Token;
    R = solvePointsTo(Prog, *Policy, Table, Options);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Timer SinceSignal;
  Token.cancel();
  Solve.join();
  EXPECT_LT(SinceSignal.millis(), 250.0);
  EXPECT_EQ(R.Status, SolveStatus::Cancelled);
  expectConsistent(Prog, R);
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
  EXPECT_FALSE(Out.Cancelled);
}

TEST(Resilient, EveryRungIsForcedDownToInsensitive) {
  // Force all four refined rungs to fail; the ladder must degrade to the
  // context-insensitive result and record the full trace in rung order.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options;
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
  EXPECT_FALSE(Out.Cancelled);
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
  // rounds; in the second run the refined memory budget sits between the
  // two rounds' footprints (round 2 excludes more, so it is smaller), so
  // round 1 fails and round 2 wins.
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
  auto BytesUnder = [&](const RefinementExceptions &Exceptions) {
    auto Insensitive = makeInsensitivePolicy();
    auto Policy =
        makeIntrospectivePolicy("probe", *Insensitive, *Refined, Exceptions);
    ContextTable Table;
    PointsToResult R = solvePointsTo(Prog, *Policy, Table);
    EXPECT_TRUE(isCompleted(R.Status));
    return R.Stats.ApproxBytes;
  };
  RefinementExceptions Round1 = ExceptionsAt(4);
  RefinementExceptions Round2 = ExceptionsAt(16);
  uint64_t Bytes1 = BytesUnder(Round1);
  uint64_t Bytes2 = BytesUnder(Round2);
  ASSERT_LT(Bytes2, Bytes1) << "chart must tell the two rounds apart";

  ResilientOptions Options;
  Options.AttemptDeep = false;
  Options.AttemptIntroB = false;
  Options.faultsFor(DegradationLevel::IntroA) = failFast();
  ResilientOutcome First = runResilient(Prog, *Refined, Options);
  ASSERT_TRUE(First.completed());
  EXPECT_EQ(First.Level, DegradationLevel::TightenedIntroA);
  EXPECT_EQ(First.Trace.back().TightenedRound, 1u);
  EXPECT_TRUE(First.Exceptions == Round1);

  Options.RefinedBudget.MaxBytes = Bytes2 + (Bytes1 - Bytes2) / 2;
  ResilientOutcome Second = runResilient(Prog, *Refined, Options);
  ASSERT_TRUE(Second.completed());
  EXPECT_EQ(Second.Level, DegradationLevel::TightenedIntroA);
  ASSERT_EQ(Second.Trace.size(), 4u); // insensitive, introA, two rounds.
  EXPECT_EQ(Second.Trace[2].Status, SolveStatus::MemoryBudgetExceeded);
  EXPECT_EQ(Second.Trace[3].TightenedRound, 2u);
  EXPECT_TRUE(Second.Exceptions == Round2);
}

TEST(Resilient, CancellationStopsTheLadderInsteadOfDegrading) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  CancellationToken Token;
  Token.cancel();
  ResilientOptions Options;
  Options.Cancel = &Token;
  ResilientOutcome Out = runResilient(Prog, *Refined, Options);
  EXPECT_TRUE(Out.Cancelled);
  EXPECT_FALSE(Out.completed());
  EXPECT_EQ(Out.Result.Status, SolveStatus::Cancelled);
  // Only the pre-analysis ran: no deeper rung starts after a cancel.
  ASSERT_EQ(Out.Trace.size(), 1u);
  EXPECT_EQ(Out.Trace[0].Level, DegradationLevel::Insensitive);
}

TEST(Resilient, CancellationMidLadderFallsBackToCompletedPreAnalysis) {
  // The two-boxes Pass A ends before the solver's first cancel poll
  // (CancelPollInterval iterations), so the (pre-fired) cancel is observed
  // only between rungs: the pre-analysis completes, and the ladder then
  // stops before the (fault-armed) deep rung even starts, handing back the
  // completed insensitive result instead of degrading through the
  // remaining rungs.
  Program Prog = intro::testing::makeTwoBoxes().Prog;
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  CancellationToken Token;
  Token.cancel();
  ResilientOptions Options;
  Options.Cancel = &Token;
  Options.faultsFor(DegradationLevel::Deep) = failFast();
  ResilientOutcome Out = runResilient(Prog, *Refined, Options);
  EXPECT_TRUE(Out.Cancelled);
  EXPECT_TRUE(Out.completed());
  EXPECT_EQ(Out.Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Result.AnalysisName, "insens");
  ASSERT_EQ(Out.Trace.size(), 1u);
  EXPECT_EQ(Out.Trace[0].Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Trace[0].Status, SolveStatus::Completed);
  EXPECT_LT(Out.Trace[0].Stats.WorklistPops, CancelPollInterval);
}

TEST(Resilient, CancelDuringTheDeepRungReturnsTheCompletedPassA) {
  Program Prog = chartProgram();
  CancellationToken Token;
  CancelOnDeepStart Refined(Prog, Token);
  ResilientOptions Options;
  Options.Cancel = &Token;
  ResilientOutcome Out = runResilient(Prog, Refined, Options);
  EXPECT_TRUE(Out.Cancelled);
  EXPECT_TRUE(Out.completed());
  EXPECT_EQ(Out.Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Result.AnalysisName, "insens");
  EXPECT_FALSE(Out.Metrics.InFlow.empty());
  // No introspective rung starts after the cancel.
  ASSERT_EQ(Out.Trace.size(), 2u);
  EXPECT_EQ(Out.Trace[0].Status, SolveStatus::Completed);
  EXPECT_EQ(Out.Trace[1].Level, DegradationLevel::Deep);
  EXPECT_EQ(Out.Trace[1].Status, SolveStatus::Cancelled);
}

// --- The Pass-A cap on the deep rung ----------------------------------------

TEST(DeepTupleCap, FloorRatioClampAndSaturation) {
  SolveBudget Absolute; // 100M tuples.
  // Small programs keep the floor: the deep rung is cheap there.
  EXPECT_EQ(deepTupleCap(Absolute, 0), DeepCapFloorTuples);
  EXPECT_EQ(deepTupleCap(Absolute, 99'999), DeepCapFloorTuples);
  EXPECT_EQ(deepTupleCap(Absolute, 100'000), DeepCapFloorTuples);
  // Above it, the cap is DeepCapRatio times the Pass-A tuples.
  EXPECT_EQ(deepTupleCap(Absolute, 100'001), 1'000'010u);
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

// --- Portfolio mode ----------------------------------------------------------

namespace {

/// Asserts that two results carry an identical client-visible payload:
/// every projection table, the analysis identity, and the deterministic
/// solver counters.  (Stats.Seconds and ApproxBytes are wall-clock / size
/// estimates and excluded by design.)
void expectSamePayload(const PointsToResult &A, const PointsToResult &B) {
  EXPECT_EQ(A.AnalysisName, B.AnalysisName);
  EXPECT_EQ(A.Status, B.Status);
  EXPECT_EQ(A.VarHeaps, B.VarHeaps);
  EXPECT_EQ(A.FieldHeaps, B.FieldHeaps);
  EXPECT_EQ(A.StaticFieldHeaps, B.StaticFieldHeaps);
  EXPECT_EQ(A.MethodThrows, B.MethodThrows);
  EXPECT_EQ(A.SiteTargets, B.SiteTargets);
  EXPECT_EQ(A.MethodReachable, B.MethodReachable);
  EXPECT_EQ(A.Stats.VarPointsToTuples, B.Stats.VarPointsToTuples);
  EXPECT_EQ(A.Stats.FieldPointsToTuples, B.Stats.FieldPointsToTuples);
  EXPECT_EQ(A.Stats.NumContexts, B.Stats.NumContexts);
  EXPECT_EQ(A.Stats.WorklistPops, B.Stats.WorklistPops);
  EXPECT_EQ(A.Stats.CallGraphEdges, B.Stats.CallGraphEdges);
}

/// Asserts that a portfolio run's outcome matches the sequential walk's
/// bit for bit on everything the contract pins: result payload, rung,
/// metrics, exceptions, cancellation flag.
void expectSameOutcome(const ResilientOutcome &Seq,
                       const ResilientOutcome &Par) {
  EXPECT_EQ(Seq.Level, Par.Level);
  EXPECT_EQ(Seq.Cancelled, Par.Cancelled);
  expectSamePayload(Seq.Result, Par.Result);
  EXPECT_EQ(Seq.Metrics.InFlow, Par.Metrics.InFlow);
  EXPECT_EQ(Seq.Metrics.MethodTotalVolume, Par.Metrics.MethodTotalVolume);
  EXPECT_EQ(Seq.Metrics.MethodMaxVarPointsTo,
            Par.Metrics.MethodMaxVarPointsTo);
  EXPECT_EQ(Seq.Metrics.ObjectMaxFieldPointsTo,
            Par.Metrics.ObjectMaxFieldPointsTo);
  EXPECT_EQ(Seq.Metrics.ObjectTotalFieldPointsTo,
            Par.Metrics.ObjectTotalFieldPointsTo);
  EXPECT_EQ(Seq.Metrics.MethodMaxVarFieldPointsTo,
            Par.Metrics.MethodMaxVarFieldPointsTo);
  EXPECT_EQ(Seq.Metrics.PointedByVars, Par.Metrics.PointedByVars);
  EXPECT_EQ(Seq.Metrics.PointedByObjs, Par.Metrics.PointedByObjs);
  EXPECT_TRUE(Seq.Exceptions == Par.Exceptions);
}

} // namespace

TEST(Portfolio, BitIdenticalToSequentialAtEveryWinningRung) {
  // Every rung the ladder can return is exercised by failing the rungs
  // above it; in each scenario the racing portfolio must hand back the
  // exact outcome of the sequential walk.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);

  const std::vector<std::vector<DegradationLevel>> Scenarios = {
      {}, // Deep wins outright.
      {DegradationLevel::Deep},
      {DegradationLevel::Deep, DegradationLevel::IntroB},
      {DegradationLevel::Deep, DegradationLevel::IntroB,
       DegradationLevel::IntroA},
      {DegradationLevel::Deep, DegradationLevel::IntroB,
       DegradationLevel::IntroA, DegradationLevel::TightenedIntroA},
  };
  for (const auto &Failing : Scenarios) {
    ResilientOptions Sequential;
    for (DegradationLevel Level : Failing)
      Sequential.faultsFor(Level) = failFast();
    ResilientOptions Racing = Sequential;
    Racing.Portfolio = true;
    Racing.Workers = 4;

    ResilientOutcome Seq = runResilient(Prog, *Refined, Sequential);
    ResilientOutcome Par = runResilient(Prog, *Refined, Racing);
    SCOPED_TRACE("failing rungs: " + std::to_string(Failing.size()));
    expectSameOutcome(Seq, Par);
    expectConsistent(Prog, Par.Result);
  }
}

TEST(Portfolio, WorkerCountDoesNotChangeTheOutcome) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Base;
  Base.faultsFor(DegradationLevel::Deep) = failFast();
  Base.Portfolio = true;

  Base.Workers = 1;
  ResilientOutcome One = runResilient(Prog, *Refined, Base);
  Base.Workers = 3;
  ResilientOutcome Three = runResilient(Prog, *Refined, Base);
  Base.Workers = 8;
  ResilientOutcome Eight = runResilient(Prog, *Refined, Base);
  expectSameOutcome(One, Three);
  expectSameOutcome(One, Eight);
  EXPECT_EQ(One.Level, DegradationLevel::IntroB);
}

TEST(Portfolio, TraceRecordsEveryLaunchedRungInLadderOrder) {
  // Completion order races; trace order must not.  With every refined
  // rung failing, all six attempts (the pre-analysis, deep, introB,
  // introA, two tightened rounds) appear in ladder-walk order with their
  // injected statuses.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options;
  Options.Portfolio = true;
  Options.Workers = 4;
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

  ASSERT_EQ(Out.Trace.size(), 6u);
  EXPECT_EQ(Out.Trace[0].Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Trace[0].Status, SolveStatus::Completed);
  EXPECT_EQ(Out.Trace[1].Level, DegradationLevel::Deep);
  EXPECT_EQ(Out.Trace[1].Status, SolveStatus::TupleBudgetExceeded);
  EXPECT_EQ(Out.Trace[2].Level, DegradationLevel::IntroB);
  EXPECT_EQ(Out.Trace[2].Status, SolveStatus::TimeBudgetExceeded);
  EXPECT_EQ(Out.Trace[3].Level, DegradationLevel::IntroA);
  EXPECT_EQ(Out.Trace[3].Status, SolveStatus::MemoryBudgetExceeded);
  EXPECT_EQ(Out.Trace[4].Level, DegradationLevel::TightenedIntroA);
  EXPECT_EQ(Out.Trace[4].TightenedRound, 1u);
  EXPECT_EQ(Out.Trace[5].Level, DegradationLevel::TightenedIntroA);
  EXPECT_EQ(Out.Trace[5].TightenedRound, 2u);
}

TEST(Portfolio, HappyDeepWinKeepsPassAMetricsLikeSequential) {
  // Both walks run Pass A before the deep rung, so a deep win reports the
  // same Pass-A metrics in either mode.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Sequential;
  ResilientOptions Racing = Sequential;
  Racing.Portfolio = true;
  Racing.Workers = 4;
  ResilientOutcome Seq = runResilient(Prog, *Refined, Sequential);
  ResilientOutcome Par = runResilient(Prog, *Refined, Racing);
  EXPECT_EQ(Par.Level, DegradationLevel::Deep);
  EXPECT_FALSE(Par.Metrics.InFlow.empty());
  EXPECT_GT(Par.MetricSeconds, 0.0);
  expectSameOutcome(Seq, Par);
}

TEST(Portfolio, CancelDuringTheDeepRungReturnsTheCompletedPassA) {
  // The deep rung cancels the caller's token as it starts, while the
  // introspective rungs race beside it: the cancel fans out to every rung
  // and the completed Pass A is handed back, as in the sequential walk.
  Program Prog = chartProgram();
  CancellationToken Token;
  CancelOnDeepStart Refined(Prog, Token);
  ResilientOptions Options;
  Options.Portfolio = true;
  Options.Workers = 4;
  Options.Cancel = &Token;
  ResilientOutcome Out = runResilient(Prog, Refined, Options);
  EXPECT_TRUE(Out.Cancelled);
  EXPECT_TRUE(Out.completed());
  EXPECT_EQ(Out.Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Result.AnalysisName, "insens");
  EXPECT_FALSE(Out.Metrics.InFlow.empty());
  ASSERT_GE(Out.Trace.size(), 2u);
  EXPECT_EQ(Out.Trace[0].Status, SolveStatus::Completed);
  EXPECT_EQ(Out.Trace[1].Level, DegradationLevel::Deep);
  for (size_t Row = 1; Row < Out.Trace.size(); ++Row)
    EXPECT_EQ(Out.Trace[Row].Status, SolveStatus::Cancelled) << "row " << Row;
}

TEST(Portfolio, PreCancelledTokenMatchesSequentialCancellation) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  CancellationToken Cancel;
  Cancel.cancel();

  ResilientOptions Sequential;
  Sequential.Cancel = &Cancel;
  ResilientOptions Racing = Sequential;
  Racing.Portfolio = true;
  Racing.Workers = 4;

  ResilientOutcome Seq = runResilient(Prog, *Refined, Sequential);
  ResilientOutcome Par = runResilient(Prog, *Refined, Racing);
  EXPECT_TRUE(Seq.Cancelled);
  EXPECT_TRUE(Par.Cancelled);
  EXPECT_EQ(Seq.Level, Par.Level);
  EXPECT_EQ(Seq.Result.Status, Par.Result.Status);
  expectConsistent(Prog, Par.Result);
}

TEST(Portfolio, ConcurrentExternalCancellationStopsAllRungs) {
  // A caller-side cancel from another thread must stop every in-flight
  // solve.  jython's deep rung explodes, so without the cancel this would
  // run for many seconds; the budgets below are only a backstop so a
  // regression fails instead of hanging.  The cancel fires 25 ms in, while
  // jython's Pass A (well over 100 ms) still runs, so no rung launches.
  // CancelDuringTheDeepRungReturnsTheCompletedPassA covers the fan-out to
  // racing rungs.  Exercised under TSan in CI to pin cancellation as
  // data-race-free.
  Program Prog = generateWorkload(dacapoProfile("jython"));
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  CancellationToken Cancel;
  ResilientOptions Options;
  Options.Portfolio = true;
  Options.Workers = 4;
  Options.Cancel = &Cancel;
  Options.DeepBudget.MaxSeconds = 30.0;
  Options.FirstPassBudget.MaxSeconds = 30.0;
  Options.RefinedBudget.MaxSeconds = 30.0;

  std::thread Canceller([&Cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    Cancel.cancel();
  });
  Timer Clock;
  ResilientOutcome Out = runResilient(Prog, *Refined, Options);
  Canceller.join();

  EXPECT_TRUE(Out.Cancelled);
  EXPECT_FALSE(Out.completed());
  // Cancellation must beat the 30 s budget backstop by a wide margin.
  EXPECT_LT(Clock.seconds(), 15.0);
  expectConsistent(Prog, Out.Result);
  // Every recorded attempt was stopped by the token, not by a budget.
  for (const Attempt &A : Out.Trace)
    EXPECT_EQ(A.Status, SolveStatus::Cancelled);
}

TEST(Portfolio, SharedEmptySetIsSafeForConcurrentReaders) {
  // PointsToResult::emptySet() is the shared fallback every racing rung's
  // readers may touch; all threads must observe one fully-constructed
  // object at a single address (C++11 magic statics).
  PointsToResult Result; // No tables: every query hits the fallback.
  const SortedIdSet *Addresses[8] = {};
  {
    ThreadPool Pool(4);
    std::vector<std::future<void>> Reads;
    for (size_t Reader = 0; Reader < 8; ++Reader)
      Reads.push_back(Pool.submit([&Result, &Addresses, Reader] {
        const SortedIdSet &Empty = Result.pointsTo(VarId(12345));
        EXPECT_TRUE(Empty.empty());
        EXPECT_TRUE(Result.callTargets(SiteId(7)).empty());
        EXPECT_TRUE(Result.throwsOf(MethodId(9)).empty());
        Addresses[Reader] = &Empty;
      }));
    for (auto &Read : Reads)
      Read.get();
  }
  for (size_t Reader = 1; Reader < 8; ++Reader)
    EXPECT_EQ(Addresses[Reader], Addresses[0]);
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

// --- FaultPlan x portfolio interplay -----------------------------------------
//
// The solver-level fault plans and the racing portfolio compose: a fault
// firing inside a portfolio worker must produce exactly the sequential
// walk's outcome — first-completing-in-ladder-order winner, consistent
// payload, and an attempt trace that tells the whole story.

namespace {

/// Ladder-walk position of \p Level (launch order: the insensitive
/// pre-analysis, deep, then the introspective rungs).
size_t ladderPosition(DegradationLevel Level) {
  switch (Level) {
  case DegradationLevel::Insensitive:
    return 0;
  case DegradationLevel::Deep:
    return 1;
  case DegradationLevel::IntroB:
    return 2;
  case DegradationLevel::IntroA:
    return 3;
  case DegradationLevel::TightenedIntroA:
    return 4;
  }
  return 5;
}

/// Serializes \p Out and returns the parsed "attempts" array.
JsonValue outcomeAttemptsJson(const ResilientOutcome &Out) {
  std::ostringstream Text;
  JsonWriter J(Text);
  writeResilientOutcomeJson(J, Out);
  JsonParseResult Parsed = parseJson(Text.str());
  EXPECT_TRUE(Parsed.ok()) << Parsed.Error;
  const JsonValue *Attempts = Parsed.Value.get("attempts");
  EXPECT_NE(Attempts, nullptr);
  return Attempts ? *Attempts : JsonValue();
}

} // namespace

TEST(PortfolioFaults, WorkerFaultStillYieldsLadderOrderWinnerAndFullTrace) {
  // Only the deep rung faults; IntroB, IntroA, and the floor all complete,
  // and completion order races.  The winner must be IntroB — the first
  // completer in *ladder* order — exactly as in the sequential walk.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Sequential;
  Sequential.faultsFor(DegradationLevel::Deep) = failFast();
  ResilientOptions Racing = Sequential;
  Racing.Portfolio = true;
  Racing.Workers = 4;

  ResilientOutcome Seq = runResilient(Prog, *Refined, Sequential);
  ResilientOutcome Par = runResilient(Prog, *Refined, Racing);
  EXPECT_EQ(Par.Level, DegradationLevel::IntroB);
  expectSameOutcome(Seq, Par);
  expectConsistent(Prog, Par.Result);

  // The trace is complete and in ladder order: the pre-analysis, the
  // faulted deep rung with its injected status, then the rungs that ran,
  // never out of order.
  ASSERT_GE(Par.Trace.size(), 2u);
  EXPECT_EQ(Par.Trace[0].Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Par.Trace[1].Level, DegradationLevel::Deep);
  EXPECT_EQ(Par.Trace[1].Status, SolveStatus::TupleBudgetExceeded);
  for (size_t Index = 1; Index < Par.Trace.size(); ++Index)
    EXPECT_LT(ladderPosition(Par.Trace[Index - 1].Level),
              ladderPosition(Par.Trace[Index].Level) +
                  (Par.Trace[Index].Level == DegradationLevel::TightenedIntroA
                       ? 1
                       : 0))
        << "trace out of ladder order at row " << Index;
  bool SawWinner = false;
  for (const Attempt &A : Par.Trace)
    if (A.Level == DegradationLevel::IntroB &&
        A.Status == SolveStatus::Completed)
      SawWinner = true;
  EXPECT_TRUE(SawWinner);
}

TEST(PortfolioFaults, ExactlyOneWonFlagInTheOutcomeJson) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options;
  Options.Portfolio = true;
  Options.Workers = 4;
  Options.faultsFor(DegradationLevel::Deep) = failFast();

  ResilientOutcome Out = runResilient(Prog, *Refined, Options);
  JsonValue Attempts = outcomeAttemptsJson(Out);
  ASSERT_TRUE(Attempts.isArray());
  size_t WonCount = 0;
  std::string WinnerLevel;
  for (const JsonValue &A : Attempts.elements()) {
    bool Won = false;
    ASSERT_TRUE(A.getBool("won", Won));
    if (!Won)
      continue;
    ++WonCount;
    ASSERT_TRUE(A.getString("level", WinnerLevel));
  }
  EXPECT_EQ(WonCount, 1u);
  EXPECT_EQ(WinnerLevel, degradationLevelName(Out.Level));
}

TEST(PortfolioFaults, AllRungsFaultedLeavesNoWonFlag) {
  // When even the floor faults, nothing completes and no attempt may be
  // marked as the winner; the racing walk must agree with the sequential
  // one on the all-failed outcome.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Sequential;
  for (DegradationLevel Level :
       {DegradationLevel::Deep, DegradationLevel::Insensitive,
        DegradationLevel::IntroB, DegradationLevel::IntroA,
        DegradationLevel::TightenedIntroA})
    Sequential.faultsFor(Level) = failFast();
  ResilientOptions Racing = Sequential;
  Racing.Portfolio = true;
  Racing.Workers = 4;

  ResilientOutcome Seq = runResilient(Prog, *Refined, Sequential);
  ResilientOutcome Par = runResilient(Prog, *Refined, Racing);
  EXPECT_FALSE(Seq.completed());
  EXPECT_FALSE(Par.completed());
  EXPECT_EQ(Seq.Level, Par.Level);
  EXPECT_EQ(Seq.Result.Status, Par.Result.Status);
  expectConsistent(Prog, Par.Result);

  JsonValue Attempts = outcomeAttemptsJson(Par);
  ASSERT_TRUE(Attempts.isArray());
  for (const JsonValue &A : Attempts.elements()) {
    bool Won = true;
    ASSERT_TRUE(A.getBool("won", Won));
    EXPECT_FALSE(Won);
  }
}

TEST(PortfolioFaults, PreAnalysisFaultUnderPortfolioMatchesSequential) {
  // The insensitive pre-analysis rung itself faults while the refined
  // rungs race on top of it.  Whatever the sequential ladder does with a
  // dead floor, the portfolio must reproduce it bit for bit.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Sequential;
  Sequential.faultsFor(DegradationLevel::Deep) = failFast();
  Sequential.faultsFor(DegradationLevel::Insensitive) =
      failFast(SolveStatus::MemoryBudgetExceeded);
  ResilientOptions Racing = Sequential;
  Racing.Portfolio = true;
  Racing.Workers = 4;

  ResilientOutcome Seq = runResilient(Prog, *Refined, Sequential);
  ResilientOutcome Par = runResilient(Prog, *Refined, Racing);
  expectSameOutcome(Seq, Par);
  expectConsistent(Prog, Par.Result);

  // The pre-analysis row records its injected status in both walks.
  for (const ResilientOutcome *Out : {&Seq, &Par}) {
    bool SawFloor = false;
    for (const Attempt &A : Out->Trace)
      if (A.Level == DegradationLevel::Insensitive) {
        SawFloor = true;
        EXPECT_EQ(A.Status, SolveStatus::MemoryBudgetExceeded);
      }
    EXPECT_TRUE(SawFloor);
  }
}

TEST(PortfolioFaults, TupleInflationTripsBudgetsIdenticallyInTheRace) {
  // TupleInflation makes the budget check see exploding points-to sets.
  // Inflated IntroB trips its tuple budget inside a portfolio worker; the
  // race must settle on IntroA exactly like the sequential walk.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Sequential;
  Sequential.faultsFor(DegradationLevel::Deep) = failFast();
  Sequential.faultsFor(DegradationLevel::IntroB).TupleInflation = 1000000;
  Sequential.RefinedBudget.MaxTuples = 10000000;

  ResilientOptions Racing = Sequential;
  Racing.Portfolio = true;
  Racing.Workers = 4;

  ResilientOutcome Seq = runResilient(Prog, *Refined, Sequential);
  ResilientOutcome Par = runResilient(Prog, *Refined, Racing);
  EXPECT_EQ(Seq.Level, DegradationLevel::IntroA);
  expectSameOutcome(Seq, Par);
  expectConsistent(Prog, Par.Result);

  for (const Attempt &A : Par.Trace)
    if (A.Level == DegradationLevel::IntroB)
      EXPECT_EQ(A.Status, SolveStatus::TupleBudgetExceeded);
}
