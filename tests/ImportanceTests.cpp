//===- tests/ImportanceTests.cpp - Importance metric tests ----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/PrecisionMetrics.h"
#include "analysis/Solver.h"
#include "introspect/Importance.h"
#include "introspect/Metrics.h"
#include "workload/DaCapo.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

using namespace intro;
using namespace intro::testing;

namespace {

PointsToResult firstPass(const Program &Prog) {
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  return solvePointsTo(Prog, *Policy, Table);
}

} // namespace

TEST(Importance, CastSourcesMatter) {
  TwoBoxes T = makeTwoBoxes();
  PointsToResult Insens = firstPass(T.Prog);
  ImportanceMetrics I = computeImportance(T.Prog, Insens);

  // The cast `(A) oa` sees both payloads insensitively: each earns one
  // importance point.  The boxes feed no cast or polymorphic dispatch.
  EXPECT_EQ(I.ObjectImportance[T.HeapA.index()], 1u);
  EXPECT_EQ(I.ObjectImportance[T.HeapB.index()], 1u);
  EXPECT_EQ(I.ObjectImportance[T.Box1.index()], 0u);
}

TEST(Importance, MonomorphicDispatchEarnsNothing) {
  Dispatch T = makeDispatch();
  PointsToResult Insens = firstPass(T.Prog);
  ImportanceMetrics I = computeImportance(T.Prog, Insens);
  // Both speak() sites are monomorphic; there are no casts: all zero.
  for (uint32_t Heap = 0; Heap < T.Prog.numHeaps(); ++Heap)
    EXPECT_EQ(I.ObjectImportance[Heap], 0u);
}

TEST(Importance, AccessorsInheritHandledObjectImportance) {
  TwoBoxes T = makeTwoBoxes();
  PointsToResult Insens = firstPass(T.Prog);
  ImportanceMetrics I = computeImportance(T.Prog, Insens);

  // get() returns the (cast-relevant) payloads: its method importance
  // includes the scaled flow credit.  main's own cast gives it a local
  // client op.
  MethodId Get = T.Prog.lookup(T.BoxT, T.Prog.site(T.GetCall1).Sig);
  MethodId Main = T.Prog.entries()[0];
  EXPECT_EQ(I.MethodImportance[Get.index()], 1u / 4u + 0u)
      << "payload importance 1 scaled by 4 truncates to 0";
  EXPECT_GE(I.MethodImportance[Main.index()], 1u);
}

TEST(Importance, GuardLiftsOnlyImportantExclusions) {
  TwoBoxes T = makeTwoBoxes();
  PointsToResult Insens = firstPass(T.Prog);
  ImportanceMetrics I = computeImportance(T.Prog, Insens);

  RefinementExceptions Exceptions(T.Prog);
  Exceptions.excludeHeap(T.HeapA); // Importance 1.
  Exceptions.excludeHeap(T.Box1);  // Importance 0.
  ImportanceGuardParams Params;
  Params.ObjectThreshold = 0; // Anything with importance > 0 is lifted.
  uint64_t Lifted = applyImportanceGuard(T.Prog, I, Exceptions, Params);
  EXPECT_EQ(Lifted, 1u);
  EXPECT_FALSE(Exceptions.skipsHeap(T.HeapA));
  EXPECT_TRUE(Exceptions.skipsHeap(T.Box1));
}

TEST(Importance, GuardedIntroARecoversPrecisionAndScales) {
  // End-to-end on the chart workload: guarded IntroA must be at least as
  // precise as plain IntroA and still complete.
  Program Prog = generateWorkload(dacapoProfile("chart"));
  auto Insens = makeInsensitivePolicy();
  ContextTable First;
  PointsToResult Pass1 = solvePointsTo(Prog, *Insens, First);
  IntrospectionMetrics Metrics = computeIntrospectionMetrics(Prog, Pass1);
  ImportanceMetrics Importance = computeImportance(Prog, Pass1);

  auto RunWith = [&](bool Guard) {
    RefinementExceptions Exceptions = applyHeuristicA(Prog, Pass1, Metrics);
    if (Guard)
      applyImportanceGuard(Prog, Importance, Exceptions);
    auto Refined = makeObjectPolicy(Prog, 2, 1);
    auto Policy =
        makeIntrospectivePolicy("g", *Insens, *Refined, Exceptions);
    ContextTable Table;
    SolverOptions Options;
    Options.Budget.MaxTuples = 12'000'000;
    PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
    EXPECT_TRUE(isCompleted(R.Status));
    return computePrecision(Prog, R);
  };

  PrecisionMetrics Plain = RunWith(false);
  PrecisionMetrics Guarded = RunWith(true);
  EXPECT_LT(Guarded.CastsThatMayFail, Plain.CastsThatMayFail);
  EXPECT_LT(Guarded.PolymorphicVirtualCallSites,
            Plain.PolymorphicVirtualCallSites);
}

TEST(Importance, UnreachableMethodsScoreZero) {
  Mixed T = makeMixed();
  PointsToResult Insens = firstPass(T.Prog);
  ImportanceMetrics I = computeImportance(T.Prog, Insens);
  EXPECT_EQ(I.MethodImportance[T.Unreachable.index()], 0u);
}
