//===- tests/ShapeTests.cpp - Paper-shape integration tests ---------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end integration tests that pin the qualitative shape of the
/// paper's evaluation (Figures 1 and 5-7) on the synthetic benchmark suite:
/// which analyses terminate on which benchmarks, and how precision orders
/// across insens / IntroA / IntroB / full.  If a solver or heuristic change
/// breaks the reproduction, these tests catch it before the harnesses do.
///
//===----------------------------------------------------------------------===//

#include "analysis/PrecisionMetrics.h"
#include "analysis/Solver.h"
#include "introspect/Driver.h"
#include "introspect/Resilient.h"
#include "workload/DaCapo.h"

#include <gtest/gtest.h>

#include <map>

using namespace intro;

namespace {

/// Mirrors bench/BenchCommon.h's deep budget (kept independent so tests do
/// not depend on bench code).
SolveBudget deepBudget() {
  SolveBudget Budget;
  Budget.MaxTuples = 12'000'000;
  Budget.MaxSeconds = 120.0;
  return Budget;
}

struct Shape {
  bool Completed;
  PrecisionMetrics Precision;
};

Shape runPlain(const Program &Prog,
               std::unique_ptr<ContextPolicy> Policy) {
  ContextTable Table;
  SolverOptions Options;
  Options.Budget = deepBudget();
  PointsToResult Result = solvePointsTo(Prog, *Policy, Table, Options);
  return {isCompleted(Result.Status), computePrecision(Prog, Result)};
}

Shape runIntroShape(const Program &Prog,
                    std::unique_ptr<ContextPolicy> Refined,
                    HeuristicKind Heuristic) {
  IntrospectiveOptions Options;
  Options.Heuristic = Heuristic;
  Options.SecondPassBudget = deepBudget();
  IntrospectiveOutcome Out = runIntrospective(Prog, *Refined, Options);
  return {isCompleted(Out.SecondPass.Status),
          computePrecision(Prog, Out.SecondPass)};
}

/// Caches generated programs across tests in this binary.
const Program &benchmark(const std::string &Name) {
  static std::map<std::string, Program> Cache;
  auto It = Cache.find(Name);
  if (It == Cache.end())
    It = Cache.emplace(Name, generateWorkload(dacapoProfile(Name))).first;
  return It->second;
}

} // namespace

TEST(Fig1Shape, InsensitiveCompletesEverywhere) {
  for (const WorkloadProfile &Profile : dacapoProfiles()) {
    Shape S = runPlain(benchmark(Profile.Name), makeInsensitivePolicy());
    EXPECT_TRUE(S.Completed) << Profile.Name;
  }
}

TEST(Fig1Shape, ObjectSensitivityIsBimodal) {
  // 2objH times out exactly on hsqldb and jython.
  for (const WorkloadProfile &Profile : dacapoProfiles()) {
    const Program &Prog = benchmark(Profile.Name);
    Shape S = runPlain(Prog, makeObjectPolicy(Prog, 2, 1));
    bool ShouldFail = Profile.Name == "hsqldb" || Profile.Name == "jython";
    EXPECT_EQ(S.Completed, !ShouldFail) << Profile.Name;
  }
}

TEST(Fig1Shape, PassACapKeepsObjectSensitivityBimodal) {
  // The ladder's deep rung runs under a cap derived from Pass A
  // (deepTupleCap).  It must keep every run that completes today and stop
  // only the two that explode — early, instead of at the absolute budget.
  for (const WorkloadProfile &Profile : dacapoProfiles()) {
    const Program &Prog = benchmark(Profile.Name);
    PassAOutcome PassA = runPassA(Prog);
    ASSERT_TRUE(isCompleted(PassA.Insens.Status)) << Profile.Name;
    SolverOptions Options;
    Options.Budget.MaxTuples =
        deepTupleCap(SolveBudget{}, PassA.Insens.Stats.VarPointsToTuples +
                                        PassA.Insens.Stats.FieldPointsToTuples);
    auto Policy = makeObjectPolicy(Prog, 2, 1);
    ContextTable Table;
    PointsToResult Deep = solvePointsTo(Prog, *Policy, Table, Options);
    bool ShouldFail = Profile.Name == "hsqldb" || Profile.Name == "jython";
    EXPECT_EQ(Deep.Status, ShouldFail ? SolveStatus::TupleBudgetExceeded
                                      : SolveStatus::Completed)
        << Profile.Name;
  }
}

TEST(Fig1Shape, PassAEstimateSkipsOnlyTheExplodingDeepRungs) {
  // Pass A's DeepTuplesEstimate predicts 2objH's size: the ladder skips the
  // deep rung of exactly the two programs the cap would cut, and the seven
  // that complete stay well clear of the skip threshold (DeepSkipFactor x
  // cap), at no more than half the cap.
  for (const WorkloadProfile &Profile : dacapoProfiles()) {
    const Program &Prog = benchmark(Profile.Name);
    PassAOutcome PassA = runPassA(Prog);
    uint64_t Cap = deepTupleCap(
        SolveBudget{}, PassA.Insens.Stats.VarPointsToTuples +
                           PassA.Insens.Stats.FieldPointsToTuples);
    uint64_t Estimate = PassA.Metrics.DeepTuplesEstimate;
    bool ShouldSkip = Profile.Name == "hsqldb" || Profile.Name == "jython";
    EXPECT_EQ(skipDeepRung(PassA.Insens.Status, Estimate, Cap), ShouldSkip)
        << Profile.Name << ": estimate " << Estimate << ", cap " << Cap;
    if (!ShouldSkip) {
      EXPECT_LE(2 * Estimate, Cap) << Profile.Name;
    }
  }
}

TEST(Fig6Shape, TypeSensitivityFailsOnlyOnJython) {
  for (const WorkloadProfile &Profile : scalabilitySubjects()) {
    const Program &Prog = benchmark(Profile.Name);
    Shape S = runPlain(Prog, makeTypePolicy(Prog, 2, 1));
    EXPECT_EQ(S.Completed, Profile.Name != "jython") << Profile.Name;
  }
}

TEST(Fig7Shape, CallSiteSensitivityFailsOnFourOfSix) {
  std::map<std::string, bool> Expected = {
      {"bloat", false}, {"chart", true},   {"eclipse", true},
      {"hsqldb", false}, {"jython", false}, {"xalan", false}};
  for (const WorkloadProfile &Profile : scalabilitySubjects()) {
    const Program &Prog = benchmark(Profile.Name);
    Shape S = runPlain(Prog, makeCallSitePolicy(2, 1));
    EXPECT_EQ(S.Completed, Expected.at(Profile.Name)) << Profile.Name;
  }
}

TEST(Fig57Shape, IntroACompletesEverywhereForEveryFlavor) {
  for (const WorkloadProfile &Profile : scalabilitySubjects()) {
    const Program &Prog = benchmark(Profile.Name);
    EXPECT_TRUE(runIntroShape(Prog, makeObjectPolicy(Prog, 2, 1),
                              HeuristicKind::A)
                    .Completed)
        << Profile.Name << " 2objH-IntroA";
    EXPECT_TRUE(runIntroShape(Prog, makeTypePolicy(Prog, 2, 1),
                              HeuristicKind::A)
                    .Completed)
        << Profile.Name << " 2typeH-IntroA";
    EXPECT_TRUE(runIntroShape(Prog, makeCallSitePolicy(2, 1),
                              HeuristicKind::A)
                    .Completed)
        << Profile.Name << " 2callH-IntroA";
  }
}

TEST(Fig57Shape, IntroBFailsExactlyOnJythonObjectAndCallSite) {
  for (const WorkloadProfile &Profile : scalabilitySubjects()) {
    const Program &Prog = benchmark(Profile.Name);
    bool IsJython = Profile.Name == "jython";
    EXPECT_EQ(runIntroShape(Prog, makeObjectPolicy(Prog, 2, 1),
                            HeuristicKind::B)
                  .Completed,
              !IsJython)
        << Profile.Name << " 2objH-IntroB";
    EXPECT_TRUE(runIntroShape(Prog, makeTypePolicy(Prog, 2, 1),
                              HeuristicKind::B)
                    .Completed)
        << Profile.Name << " 2typeH-IntroB";
    EXPECT_EQ(runIntroShape(Prog, makeCallSitePolicy(2, 1),
                            HeuristicKind::B)
                  .Completed,
              !IsJython)
        << Profile.Name << " 2callH-IntroB";
  }
}

TEST(PrecisionShape, OrderingInsensIntroAIntroBFull) {
  // On a benchmark where everything completes (chart), precision must
  // order: insens >= IntroA >= IntroB >= full for every metric (lower is
  // more precise), with a strict improvement from insens to full.
  const Program &Prog = benchmark("chart");
  Shape Insens = runPlain(Prog, makeInsensitivePolicy());
  Shape IntroA =
      runIntroShape(Prog, makeObjectPolicy(Prog, 2, 1), HeuristicKind::A);
  Shape IntroB =
      runIntroShape(Prog, makeObjectPolicy(Prog, 2, 1), HeuristicKind::B);
  Shape Full = runPlain(Prog, makeObjectPolicy(Prog, 2, 1));

  auto Check = [&](auto Member, const char *Metric) {
    uint64_t I = Insens.Precision.*Member;
    uint64_t A = IntroA.Precision.*Member;
    uint64_t B = IntroB.Precision.*Member;
    uint64_t F = Full.Precision.*Member;
    EXPECT_GE(I, A) << Metric;
    EXPECT_GE(A, B) << Metric;
    EXPECT_GE(B, F) << Metric;
  };
  Check(&PrecisionMetrics::PolymorphicVirtualCallSites, "poly sites");
  Check(&PrecisionMetrics::ReachableMethods, "reachable");
  Check(&PrecisionMetrics::CastsThatMayFail, "casts");
  EXPECT_GT(Insens.Precision.CastsThatMayFail,
            Full.Precision.CastsThatMayFail);
  EXPECT_GT(Insens.Precision.PolymorphicVirtualCallSites,
            Full.Precision.PolymorphicVirtualCallSites);
}

TEST(PrecisionShape, IntroBMatchesFull2callHWhereItCompletes) {
  // The paper's Figure 7 remark: IntroB achieves the *full* precision of
  // 2callH on the benchmarks where the latter terminates.
  for (const char *Name : {"chart", "eclipse"}) {
    const Program &Prog = benchmark(Name);
    Shape Full = runPlain(Prog, makeCallSitePolicy(2, 1));
    ASSERT_TRUE(Full.Completed) << Name;
    Shape IntroB =
        runIntroShape(Prog, makeCallSitePolicy(2, 1), HeuristicKind::B);
    ASSERT_TRUE(IntroB.Completed) << Name;
    EXPECT_EQ(IntroB.Precision.PolymorphicVirtualCallSites,
              Full.Precision.PolymorphicVirtualCallSites)
        << Name;
    EXPECT_EQ(IntroB.Precision.CastsThatMayFail,
              Full.Precision.CastsThatMayFail)
        << Name;
    EXPECT_EQ(IntroB.Precision.ReachableMethods,
              Full.Precision.ReachableMethods)
        << Name;
  }
}

TEST(Fig4Shape, HeuristicAIsMoreAggressiveThanB) {
  for (const WorkloadProfile &Profile : scalabilitySubjects()) {
    const Program &Prog = benchmark(Profile.Name);
    auto Insens = makeInsensitivePolicy();
    ContextTable Table;
    PointsToResult First = solvePointsTo(Prog, *Insens, Table);
    IntrospectionMetrics Metrics = computeIntrospectionMetrics(Prog, First);
    RefinementStats A = computeRefinementStats(
        Prog, First, applyHeuristicA(Prog, First, Metrics));
    RefinementStats B = computeRefinementStats(
        Prog, First, applyHeuristicB(Prog, First, Metrics));

    EXPECT_GT(A.callSitePercent(), B.callSitePercent()) << Profile.Name;
    EXPECT_GE(A.objectPercent(), B.objectPercent()) << Profile.Name;
    // "the program elements that are refined are the overwhelming majority"
    // -- B's exclusions stay small.
    EXPECT_LT(B.callSitePercent(), 10.0) << Profile.Name;
    EXPECT_LT(B.objectPercent(), 25.0) << Profile.Name;
  }
}
