//===- tests/IntrospectTests.cpp - Metrics/heuristics/driver tests --------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/Escape.h"
#include "analysis/PrecisionMetrics.h"
#include "analysis/Solver.h"
#include "introspect/Driver.h"
#include "introspect/Heuristics.h"
#include "introspect/Metrics.h"
#include "workload/DaCapo.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

using namespace intro;
using namespace intro::testing;

namespace {

/// Runs the insensitive first pass.
PointsToResult firstPass(const Program &Prog) {
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  return solvePointsTo(Prog, *Policy, Table);
}

} // namespace

TEST(Metrics, TwoBoxesHandComputed) {
  TwoBoxes T = makeTwoBoxes();
  PointsToResult Insens = firstPass(T.Prog);
  IntrospectionMetrics M = computeIntrospectionMetrics(T.Prog, Insens);

  // In-flow (#1): each set-call passes one single-object argument.
  EXPECT_EQ(M.InFlow[T.SetCall1.index()], 1u);
  EXPECT_EQ(M.InFlow[T.SetCall2.index()], 1u);
  // get() has no arguments.
  EXPECT_EQ(M.InFlow[T.GetCall1.index()], 0u);

  // Pointed-by-vars (#5) for HeapA: insensitively, `a` in main, set's
  // formal, the field conflation makes `oa`/`ob` point to it, the cast
  // result `ca`, and get's return variable: 6 variables.
  EXPECT_EQ(M.PointedByVars[T.HeapA.index()], 6u);

  // Field points-to (#3): each Box object's field holds {A, B} insens.
  EXPECT_EQ(M.ObjectMaxFieldPointsTo[T.Box1.index()], 2u);
  EXPECT_EQ(M.ObjectTotalFieldPointsTo[T.Box1.index()], 2u);
  EXPECT_EQ(M.ObjectMaxFieldPointsTo[T.HeapA.index()], 0u);

  // Pointed-by-objs (#6): payloads are pointed to by both box objects'
  // fields; boxes by nothing.
  EXPECT_EQ(M.PointedByObjs[T.HeapA.index()], 2u);
  EXPECT_EQ(M.PointedByObjs[T.Box1.index()], 0u);

  // Method volumes (#2): main's locals are b1 b2 (1 each), a b (1 each),
  // oa ob (2 each), and ca (2: a cast is a move dataflow-wise, so it does
  // not filter) -- total 10, max 2.
  MethodId Main = T.Prog.entries()[0];
  EXPECT_EQ(M.MethodTotalVolume[Main.index()], 10u);
  EXPECT_EQ(M.MethodMaxVarPointsTo[Main.index()], 2u);

  // Max var-field points-to (#4) of main: its locals reach the Box objects
  // whose field sets have size 2.
  EXPECT_EQ(M.MethodMaxVarFieldPointsTo[Main.index()], 2u);
}

TEST(Metrics, UnreachableCodeHasZeroMetrics) {
  Mixed T = makeMixed();
  PointsToResult Insens = firstPass(T.Prog);
  IntrospectionMetrics M = computeIntrospectionMetrics(T.Prog, Insens);
  EXPECT_EQ(M.MethodTotalVolume[T.Unreachable.index()], 0u);
}

TEST(HeuristicA, ThresholdsAreStrict) {
  // An object pointed to by exactly K variables is still refined; K+1 is
  // not.  Build a program with a tunable pointed-by count.
  for (uint32_t Pointers : {3u, 5u}) {
    ProgramBuilder B;
    TypeId Object = B.cls("Object");
    TypeId A = B.cls("A", Object);
    MethodBuilder Main = B.method(Object, "main", 0, true);
    B.entry(Main.id());
    VarId First = Main.local("x0");
    HeapId Heap = Main.alloc(First, A);
    VarId Prev = First;
    for (uint32_t Index = 1; Index < Pointers; ++Index) {
      VarId Next = Main.local("x" + std::to_string(Index));
      Main.move(Next, Prev);
      Prev = Next;
    }
    Program Prog = B.take();
    PointsToResult Insens = firstPass(Prog);
    IntrospectionMetrics M = computeIntrospectionMetrics(Prog, Insens);
    ASSERT_EQ(M.PointedByVars[Heap.index()], Pointers);

    HeuristicAParams Params;
    Params.K = 4;
    RefinementExceptions E = applyHeuristicA(Prog, Insens, M, Params);
    EXPECT_EQ(E.NoRefineHeaps.count(Heap.index()), Pointers > 4 ? 1u : 0u);
  }
}

TEST(HeuristicA, ExcludesHighInflowSites) {
  TwoBoxes T = makeTwoBoxes();
  PointsToResult Insens = firstPass(T.Prog);
  IntrospectionMetrics M = computeIntrospectionMetrics(T.Prog, Insens);

  HeuristicAParams Tight;
  Tight.K = 1000;
  Tight.L = 0; // Any site with in-flow > 0 is excluded.
  Tight.M = 1000;
  RefinementExceptions E = applyHeuristicA(T.Prog, Insens, M, Tight);
  MethodId SetMethod = T.Prog.lookup(T.BoxT, T.Prog.site(T.SetCall1).Sig);
  EXPECT_TRUE(E.skipsSite(T.SetCall1, SetMethod));
  MethodId GetMethod = T.Prog.lookup(T.BoxT, T.Prog.site(T.GetCall1).Sig);
  EXPECT_FALSE(E.skipsSite(T.GetCall1, GetMethod))
      << "get() has no arguments, so in-flow cannot exclude it";
}

TEST(HeuristicB, ProductRuleExcludesFatObjects) {
  TwoBoxes T = makeTwoBoxes();
  PointsToResult Insens = firstPass(T.Prog);
  IntrospectionMetrics M = computeIntrospectionMetrics(T.Prog, Insens);

  HeuristicBParams Params;
  Params.Q = 3; // Box: total field pts 2 x pointed-by 2 = 4 > 3.
  Params.P = 1000000;
  RefinementExceptions E = applyHeuristicB(T.Prog, Insens, M, Params);
  EXPECT_TRUE(E.skipsHeap(T.Box1));
  EXPECT_TRUE(E.skipsHeap(T.Box2));
  // Payloads have no fields: product 0, never excluded.
  EXPECT_FALSE(E.skipsHeap(T.HeapA));
}

TEST(HeuristicB, VolumeRuleExcludesFatMethods) {
  TwoBoxes T = makeTwoBoxes();
  PointsToResult Insens = firstPass(T.Prog);
  IntrospectionMetrics M = computeIntrospectionMetrics(T.Prog, Insens);

  HeuristicBParams Params;
  Params.P = 8; // main has volume 9.
  Params.Q = 1000000;
  RefinementExceptions E = applyHeuristicB(T.Prog, Insens, M, Params);
  // No call site invokes main, so nothing is excluded through it; but the
  // box methods have volume < 8 and their sites stay refined.
  MethodId GetMethod = T.Prog.lookup(T.BoxT, T.Prog.site(T.GetCall1).Sig);
  EXPECT_FALSE(E.skipsSite(T.GetCall1, GetMethod));

  Params.P = 2; // get(): this (2 boxes) + return (2 payloads) = 4 > 2.
  E = applyHeuristicB(T.Prog, Insens, M, Params);
  EXPECT_TRUE(E.skipsSite(T.GetCall1, GetMethod));
}

TEST(RefinementStats, CountsReachablePopulation) {
  TwoBoxes T = makeTwoBoxes();
  PointsToResult Insens = firstPass(T.Prog);

  RefinementExceptions E;
  E.NoRefineHeaps.insert(T.Box1.index());
  MethodId SetMethod = T.Prog.lookup(T.BoxT, T.Prog.site(T.SetCall1).Sig);
  E.NoRefineSites.insert(
      RefinementExceptions::packSite(T.SetCall1, SetMethod));

  RefinementStats Stats = computeRefinementStats(T.Prog, Insens, E);
  EXPECT_EQ(Stats.TotalCallSites, 4u);
  EXPECT_EQ(Stats.ExcludedCallSites, 1u);
  EXPECT_EQ(Stats.TotalObjects, 4u);
  EXPECT_EQ(Stats.ExcludedObjects, 1u);
  EXPECT_DOUBLE_EQ(Stats.callSitePercent(), 25.0);
  EXPECT_DOUBLE_EQ(Stats.objectPercent(), 25.0);
}

TEST(Driver, TwoPassPipelineRuns) {
  Program Prog = generateWorkload(dacapoProfile("chart"));
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  IntrospectiveOptions Options;
  Options.Heuristic = HeuristicKind::A;
  IntrospectiveOutcome Out = runIntrospective(Prog, *Refined, Options);

  EXPECT_EQ(Out.FirstPass.AnalysisName, "insens");
  EXPECT_EQ(Out.SecondPass.AnalysisName, "2objH-IntroA");
  EXPECT_TRUE(isCompleted(Out.FirstPass.Status));
  EXPECT_TRUE(isCompleted(Out.SecondPass.Status));
  EXPECT_GT(Out.Stats.TotalCallSites, 0u);
  EXPECT_GT(Out.Stats.ExcludedCallSites, 0u);
  EXPECT_GT(Out.Stats.ExcludedObjects, 0u);
  EXPECT_GE(Out.FirstPassSeconds, 0.0);
  EXPECT_GE(Out.SecondPassSeconds, 0.0);

  // The introspective second pass is at least as precise as the first.
  PrecisionMetrics First = computePrecision(Prog, Out.FirstPass);
  PrecisionMetrics Second = computePrecision(Prog, Out.SecondPass);
  EXPECT_LE(Second.CastsThatMayFail, First.CastsThatMayFail);
  EXPECT_LE(Second.PolymorphicVirtualCallSites,
            First.PolymorphicVirtualCallSites);
}

TEST(Driver, HeuristicBNamesAndSelectivity) {
  Program Prog = generateWorkload(dacapoProfile("chart"));
  auto Refined = makeTypePolicy(Prog, 2, 1);
  IntrospectiveOptions OptionsA;
  OptionsA.Heuristic = HeuristicKind::A;
  IntrospectiveOptions OptionsB;
  OptionsB.Heuristic = HeuristicKind::B;
  IntrospectiveOutcome OutA = runIntrospective(Prog, *Refined, OptionsA);
  IntrospectiveOutcome OutB = runIntrospective(Prog, *Refined, OptionsB);

  EXPECT_EQ(OutB.SecondPass.AnalysisName, "2typeH-IntroB");
  // Figure 4's headline: A is much more aggressive than B.
  EXPECT_GT(OutA.Stats.callSitePercent(), OutB.Stats.callSitePercent());
  EXPECT_GT(OutA.Stats.objectPercent(), OutB.Stats.objectPercent());
}

TEST(Driver, BudgetsArePassedThrough) {
  Program Prog = generateWorkload(dacapoProfile("chart"));
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  IntrospectiveOptions Options;
  Options.SecondPassBudget.MaxTuples = 10; // Absurdly small.
  IntrospectiveOutcome Out = runIntrospective(Prog, *Refined, Options);
  EXPECT_FALSE(isCompleted(Out.SecondPass.Status));
}

TEST(Metrics, HashMapIterationOrderDoesNotLeakIntoResults) {
  // FieldHeaps / StaticFieldHeaps are unordered_maps: their iteration
  // order depends on insertion history, not on contents.  Rebuild the same
  // logical maps with a reversed insertion sequence (different bucket
  // layout) and require the metric and escape computations to be
  // bit-identical — i.e. no consumer folds the cells in hash order in an
  // order-sensitive way.
  Program Prog = generateWorkload(dacapoProfile("chart"));
  auto Insens = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult First = solvePointsTo(Prog, *Insens, Table);

  PointsToResult Shuffled = First;
  {
    std::vector<uint64_t> Keys;
    for (const auto &[Key, Heaps] : First.FieldHeaps)
      Keys.push_back(Key);
    std::sort(Keys.begin(), Keys.end(), std::greater<uint64_t>());
    Shuffled.FieldHeaps.clear();
    for (uint64_t Key : Keys)
      Shuffled.FieldHeaps.emplace(Key, First.FieldHeaps.at(Key));
  }
  {
    std::vector<uint32_t> Keys;
    for (const auto &[Key, Heaps] : First.StaticFieldHeaps)
      Keys.push_back(Key);
    std::sort(Keys.begin(), Keys.end(), std::greater<uint32_t>());
    Shuffled.StaticFieldHeaps.clear();
    for (uint32_t Key : Keys)
      Shuffled.StaticFieldHeaps.emplace(Key, First.StaticFieldHeaps.at(Key));
  }
  ASSERT_FALSE(Shuffled.FieldHeaps.empty());

  IntrospectionMetrics Base = computeIntrospectionMetrics(Prog, First);
  IntrospectionMetrics Reordered = computeIntrospectionMetrics(Prog, Shuffled);
  EXPECT_EQ(Reordered.InFlow, Base.InFlow);
  EXPECT_EQ(Reordered.MethodTotalVolume, Base.MethodTotalVolume);
  EXPECT_EQ(Reordered.MethodMaxVarPointsTo, Base.MethodMaxVarPointsTo);
  EXPECT_EQ(Reordered.ObjectMaxFieldPointsTo, Base.ObjectMaxFieldPointsTo);
  EXPECT_EQ(Reordered.ObjectTotalFieldPointsTo,
            Base.ObjectTotalFieldPointsTo);
  EXPECT_EQ(Reordered.MethodMaxVarFieldPointsTo,
            Base.MethodMaxVarFieldPointsTo);
  EXPECT_EQ(Reordered.PointedByVars, Base.PointedByVars);
  EXPECT_EQ(Reordered.PointedByObjs, Base.PointedByObjs);

  EscapeResult EscapeBase = computeEscape(Prog, First);
  EscapeResult EscapeReordered = computeEscape(Prog, Shuffled);
  EXPECT_EQ(EscapeReordered.Escapes, EscapeBase.Escapes);
  EXPECT_EQ(EscapeReordered.EscapingSites, EscapeBase.EscapingSites);
  EXPECT_EQ(EscapeReordered.ReachableSites, EscapeBase.ReachableSites);
}
