//===- tests/IntrospectTests.cpp - Metrics/heuristics/driver tests --------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/PrecisionMetrics.h"
#include "analysis/Solver.h"
#include "introspect/Driver.h"
#include "introspect/Heuristics.h"
#include "introspect/Metrics.h"
#include "support/Concat.h"
#include "workload/DaCapo.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

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

TEST(Metrics, DeepTuplesEstimateHandComputed) {
  // main: a1 = new A; a2 = new A; b = a1.make(); b2 = a2.make();
  //       y = b.id(a1); h = help(a1); h2 = help(a2); ping(a1)
  // A.make(): r = new B; t = help(this)        (an instance allocator)
  // B.id(p): r = p
  // help(p): q = new B; s = q.id(p); r = p     (a static helper)
  // ping(p): pong(p)    pong(p): ping(p)       (a recursive static pair)
  // dead(): d = new A; help(d)                 (unreachable)
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId A = B.cls("A", Object);
  TypeId BT = B.cls("B", Object);
  TypeId S = B.cls("S", Object);

  MethodBuilder Id = B.method(BT, "id", 1);
  Id.move(Id.returnVar(), Id.formal(0));
  MethodBuilder Help = B.method(S, "help", 1, /*IsStatic=*/true);
  VarId Q = Help.local("q");
  Help.alloc(Q, BT);
  Help.vcall(Help.local("s"), Q, "id", {Help.formal(0)});
  Help.move(Help.returnVar(), Help.formal(0));
  MethodBuilder Make = B.method(A, "make", 0);
  Make.alloc(Make.returnVar(), BT);
  Make.scall(Make.local("t"), Help.id(), {Make.thisVar()});
  MethodBuilder Ping = B.method(S, "ping", 1, /*IsStatic=*/true);
  MethodBuilder Pong = B.method(S, "pong", 1, /*IsStatic=*/true);
  Ping.scall(VarId::invalid(), Pong.id(), {Ping.formal(0)});
  Pong.scall(VarId::invalid(), Ping.id(), {Pong.formal(0)});
  MethodBuilder Dead = B.method(S, "dead", 0, /*IsStatic=*/true);
  VarId D = Dead.local("d");
  Dead.alloc(D, A);
  Dead.scall(VarId::invalid(), Help.id(), {D});

  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());
  VarId A1 = Main.local("a1"), A2 = Main.local("a2");
  VarId B1 = Main.local("b"), B2 = Main.local("b2");
  Main.alloc(A1, A);
  Main.alloc(A2, A);
  Main.vcall(B1, A1, "make", {});
  Main.vcall(B2, A2, "make", {});
  Main.vcall(Main.local("y"), B1, "id", {A1});
  Main.scall(Main.local("h"), Help.id(), {A1});
  Main.scall(Main.local("h2"), Help.id(), {A2});
  Main.scall(VarId::invalid(), Ping.id(), {A1});
  Program Prog = B.take();

  PointsToResult Insens = firstPass(Prog);
  IntrospectionMetrics M = computeIntrospectionMetrics(Prog, Insens);
  // Volumes: main 1+1+1+1 (a1 a2 b b2) + 2+2+2 (y h h2) = 10; make 2+1+2
  // (this r t) = 5; id 2+2+2 (this p r) = 6; help 2+2+1+2 (p r q s) = 7;
  // ping 1; pong 1.
  const std::pair<MethodId, uint64_t> Volumes[] = {
      {Main.id(), 10}, {Make.id(), 5}, {Id.id(), 6},
      {Help.id(), 7},  {Ping.id(), 1}, {Pong.id(), 1}};
  for (auto [Method, Volume] : Volumes)
    EXPECT_EQ(M.MethodTotalVolume[Method.index()], Volume);
  // recv: make 2 and id 2 (|pts(this)|); help = recv(main) + recv(make)
  // = 3, main's two sites counting once and dead's not at all; ping =
  // recv(main) + recv(pong) = 2; pong = recv(ping) read before the static
  // step = 1.
  // ctx: make = recv(main) per A object = 2; id = recv(make) for make's B +
  // recv(help) for help's B = 5; help = 1 + ctx(make) = 3; ping = 2;
  // pong = 1; main (entry) = 1.
  // Estimate: 10*1 + 5*2 + 6*5 + 7*3 + 1*2 + 1*1 = 74.
  EXPECT_EQ(M.DeepTuplesEstimate, 74u);
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
      VarId Next = Main.local(concat("x", Index));
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
    EXPECT_EQ(E.skipsHeap(Heap), Pointers > 4);
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

  RefinementExceptions E(T.Prog);
  E.excludeHeap(T.Box1);
  MethodId SetMethod = T.Prog.lookup(T.BoxT, T.Prog.site(T.SetCall1).Sig);
  E.excludeSite(T.SetCall1, SetMethod);

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
