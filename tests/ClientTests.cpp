//===- tests/ClientTests.cpp - Escape analysis & statistics tests ---------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/Escape.h"
#include "analysis/Solver.h"
#include "analysis/Statistics.h"
#include "ir/ProgramBuilder.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace intro;
using namespace intro::testing;

namespace {

PointsToResult solveInsens(const Program &Prog) {
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  return solvePointsTo(Prog, *Policy, Table);
}

} // namespace

TEST(Escape, StoredObjectsEscape) {
  TwoBoxes T = makeTwoBoxes();
  PointsToResult R = solveInsens(T.Prog);
  EscapeResult E = computeEscape(T.Prog, R);

  // Payloads are stored into box fields and returned from get(): escape.
  EXPECT_TRUE(E.escapes(T.HeapA.index()));
  EXPECT_TRUE(E.escapes(T.HeapB.index()));
  // The boxes themselves only flow into set/get receivers (`this`): they
  // stay captured in main.
  EXPECT_FALSE(E.escapes(T.Box1.index()));
  EXPECT_FALSE(E.escapes(T.Box2.index()));
  EXPECT_EQ(E.ReachableSites, 4u);
  EXPECT_EQ(E.EscapingSites, 2u);
  EXPECT_EQ(E.captured(), 2u);
}

TEST(Escape, ReturnedObjectsEscape) {
  Dispatch T = makeDispatch();
  PointsToResult R = solveInsens(T.Prog);
  EscapeResult E = computeEscape(T.Prog, R);
  // speak() allocates and returns: the sounds escape into main.
  EXPECT_TRUE(E.escapes(T.MeowHeap.index()));
  EXPECT_TRUE(E.escapes(T.WoofHeap.index()));
  // The receivers never leave main.
  EXPECT_FALSE(E.escapes(T.CatHeap.index()));
  EXPECT_FALSE(E.escapes(T.DogHeap.index()));
}

TEST(Escape, ArgumentPassingEscapes) {
  Mixed T = makeMixed();
  PointsToResult R = solveInsens(T.Prog);
  EscapeResult E = computeEscape(T.Prog, R);
  // The payload is passed through identity chains: it escapes.
  EXPECT_TRUE(E.escapes(T.Payload.index()));
}

TEST(Escape, UnreachableAllocationsAreIgnored) {
  Mixed T = makeMixed();
  PointsToResult R = solveInsens(T.Prog);
  EscapeResult E = computeEscape(T.Prog, R);
  // orphan()'s allocation is not part of the reachable population.
  uint32_t Reachable = 0;
  for (uint32_t Heap = 0; Heap < T.Prog.numHeaps(); ++Heap)
    if (R.isReachable(T.Prog.heap(HeapId(Heap)).InMethod))
      ++Reachable;
  EXPECT_EQ(E.ReachableSites, Reachable);
  EXPECT_LT(Reachable, T.Prog.numHeaps());
}

TEST(Escape, ThrownObjectsEscape) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId Err = B.cls("Err", Object);
  MethodBuilder Risky = B.method(Object, "risky", 0, /*IsStatic=*/true);
  VarId X = Risky.local("x");
  HeapId ErrHeap = Risky.alloc(X, Err);
  Risky.throwStmt(X);
  VarId Local = Risky.local("l");
  HeapId LocalHeap = Risky.alloc(Local, Object);
  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());
  Main.scall(VarId::invalid(), Risky.id(), {});
  Program Prog = B.take();

  PointsToResult R = solveInsens(Prog);
  EscapeResult E = computeEscape(Prog, R);
  EXPECT_TRUE(E.escapes(ErrHeap.index()));
  EXPECT_FALSE(E.escapes(LocalHeap.index()));
}

TEST(Escape, StaticStoreEscapes) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId Cfg = B.cls("Cfg", Object);
  FieldId Global = B.field(Cfg, "g");
  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());
  VarId X = Main.local("x");
  HeapId Stored = Main.alloc(X, Cfg);
  Main.sstore(Global, X);
  VarId Y = Main.local("y");
  HeapId Kept = Main.alloc(Y, Cfg);
  Program Prog = B.take();

  PointsToResult R = solveInsens(Prog);
  EscapeResult E = computeEscape(Prog, R);
  EXPECT_TRUE(E.escapes(Stored.index()));
  EXPECT_FALSE(E.escapes(Kept.index()));
}

TEST(Statistics, CountsContextsAndTuples) {
  TwoBoxes T = makeTwoBoxes();
  auto Policy = makeObjectPolicy(T.Prog, 2, 1);
  ContextTable Table;
  SolverOptions Options;
  Options.Assemble = Assembly::Tuples;
  PointsToResult R = solvePointsTo(T.Prog, *Policy, Table, Options);

  ContextStatistics Stats = computeContextStatistics(T.Prog, R, 3);
  EXPECT_EQ(Stats.ReachableMethods, 3u); // main, set, get.
  // main: 1 ctx; set/get: one per box = 2 each -> 5 pairs.
  EXPECT_EQ(Stats.TotalMethodContexts, 5u);
  EXPECT_EQ(Stats.MaxContextsPerMethod, 2u);
  EXPECT_DOUBLE_EQ(Stats.MeanContextsPerMethod, 5.0 / 3.0);
  ASSERT_FALSE(Stats.TopByContexts.empty());
  EXPECT_EQ(Stats.TopByContexts[0].second, 2u);
  EXPECT_EQ(Stats.TotalMethodContexts, R.Stats.ReachableMethodContexts);

  std::ostringstream Out;
  printContextStatistics(T.Prog, Stats, Out);
  EXPECT_NE(Out.str().find("Box.set"), std::string::npos);
  EXPECT_NE(Out.str().find("max contexts/method:    2"), std::string::npos);
}

TEST(Statistics, WithoutTupleAssemblyIsEmpty) {
  TwoBoxes T = makeTwoBoxes();
  PointsToResult R = solveInsens(T.Prog); // Assembly::Projections.
  ContextStatistics Stats = computeContextStatistics(T.Prog, R);
  EXPECT_EQ(Stats.TotalMethodContexts, 0u);
  EXPECT_TRUE(Stats.TopByContexts.empty());
}
