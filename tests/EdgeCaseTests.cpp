//===- tests/EdgeCaseTests.cpp - Engine and solver edge cases -------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/Solver.h"
#include "datalog/Engine.h"
#include "ir/ProgramBuilder.h"
#include "ir/Validator.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <future>
#include <vector>

using namespace intro;

namespace {

datalog::Term V(uint32_t N) { return datalog::Term::var(N); }
datalog::Term C(uint32_t N) { return datalog::Term::cst(N); }

} // namespace

// --- Datalog engine corners -------------------------------------------------

TEST(EngineEdge, RepeatedVariableMatchesDiagonal) {
  datalog::Engine E;
  uint32_t Edge = E.addRelation("edge", 2);
  uint32_t Loop = E.addRelation("loop", 1);
  // loop(x) <- edge(x, x).
  E.addRule(
      datalog::Rule{{datalog::Atom{Loop, {V(0)}}},
                    {datalog::Atom{Edge, {V(0), V(0)}}},
                    {}});
  E.relation(Edge).insert(std::array<uint32_t, 2>{1, 2});
  E.relation(Edge).insert(std::array<uint32_t, 2>{3, 3});
  E.relation(Edge).insert(std::array<uint32_t, 2>{2, 1});
  E.relation(Edge).insert(std::array<uint32_t, 2>{7, 7});
  E.run();
  EXPECT_EQ(E.relation(Loop).size(), 2u);
  EXPECT_TRUE(E.relation(Loop).contains(std::array<uint32_t, 1>{3}));
  EXPECT_TRUE(E.relation(Loop).contains(std::array<uint32_t, 1>{7}));
}

TEST(EngineEdge, ConstantInHead) {
  datalog::Engine E;
  uint32_t In = E.addRelation("in", 1);
  uint32_t Out = E.addRelation("out", 2);
  // out(42, x) <- in(x).
  E.addRule(datalog::Rule{{datalog::Atom{Out, {C(42), V(0)}}},
                          {datalog::Atom{In, {V(0)}}},
                          {}});
  E.relation(In).insert(std::array<uint32_t, 1>{5});
  E.run();
  EXPECT_TRUE(E.relation(Out).contains(std::array<uint32_t, 2>{42, 5}));
}

TEST(EngineEdge, MultipleFunctorsChain) {
  datalog::Engine E;
  uint32_t In = E.addRelation("in", 1);
  uint32_t Out = E.addRelation("out", 3);
  uint32_t Inc = E.addFunctor(
      [](std::span<const uint32_t> Args) { return Args[0] + 1; });
  uint32_t Mul = E.addFunctor(
      [](std::span<const uint32_t> Args) { return Args[0] * Args[1]; });
  // out(x, x+1, x*(x+1)) <- in(x).
  datalog::Rule R;
  R.Body = {datalog::Atom{In, {V(0)}}};
  R.Functors = {datalog::FunctorCall{Inc, 1, {V(0)}},
                datalog::FunctorCall{Mul, 2, {V(0), V(1)}}};
  R.Heads = {datalog::Atom{Out, {V(0), V(1), V(2)}}};
  E.addRule(std::move(R));
  E.relation(In).insert(std::array<uint32_t, 1>{6});
  E.run();
  EXPECT_TRUE(E.relation(Out).contains(std::array<uint32_t, 3>{6, 7, 42}));
}

TEST(EngineEdge, EmptyRelationsProduceNothing) {
  datalog::Engine E;
  uint32_t In = E.addRelation("in", 1);
  uint32_t Out = E.addRelation("out", 1);
  E.addRule(datalog::Rule{{datalog::Atom{Out, {V(0)}}},
                          {datalog::Atom{In, {V(0)}}},
                          {}});
  datalog::EngineStats Stats = E.run();
  EXPECT_EQ(E.relation(Out).size(), 0u);
  EXPECT_FALSE(Stats.BudgetExceeded);
}

TEST(EngineEdge, IndexedJoinMatchesBruteForceOnDenseData) {
  // right(y, z) join left(x, y) over ~everything: validate counts against
  // a hand-computed expectation.
  datalog::Engine E;
  uint32_t Left = E.addRelation("left", 2);
  uint32_t Right = E.addRelation("right", 2);
  uint32_t Join = E.addRelation("join", 3);
  E.addRule(datalog::Rule{
      {datalog::Atom{Join, {V(0), V(1), V(2)}}},
      {datalog::Atom{Left, {V(0), V(1)}}, datalog::Atom{Right, {V(1), V(2)}}},
      {}});
  // left: (i, i % 8); right: (j % 8, j).
  for (uint32_t I = 0; I < 64; ++I) {
    E.relation(Left).insert(std::array<uint32_t, 2>{I, I % 8});
    E.relation(Right).insert(std::array<uint32_t, 2>{I % 8, I});
  }
  E.run();
  // Each of the 64 left rows matches the 8 right rows sharing its key.
  EXPECT_EQ(E.relation(Join).size(), 64u * 8u);
}

// --- Solver corners --------------------------------------------------------

TEST(SolverEdge, SelfMoveTerminates) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  MethodBuilder Main = B.method(Object, "main", 0, true);
  B.entry(Main.id());
  VarId X = Main.local("x");
  HeapId H = Main.alloc(X, Object);
  Main.move(X, X);
  Program P = B.take();
  auto Policy = makeInsensitivePolicy();
  ContextTable T;
  PointsToResult R = solvePointsTo(P, *Policy, T);
  EXPECT_EQ(R.Status, SolveStatus::Completed);
  EXPECT_TRUE(setContains(R.pointsTo(X), H.index()));
}

TEST(SolverEdge, DispatchFailureYieldsNoTargets) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId A = B.cls("A", Object);
  // No class implements "nothing".
  MethodBuilder Main = B.method(Object, "main", 0, true);
  B.entry(Main.id());
  VarId X = Main.local("x");
  Main.alloc(X, A);
  SiteId Site = Main.vcall(VarId::invalid(), X, "nothing", {});
  Program P = B.take();
  auto Policy = makeInsensitivePolicy();
  ContextTable T;
  PointsToResult R = solvePointsTo(P, *Policy, T);
  EXPECT_TRUE(R.callTargets(Site).empty());
  EXPECT_EQ(R.Stats.CallGraphEdges, 0u);
}

TEST(SolverEdge, CallOnUnassignedReceiverIsSilent) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId A = B.cls("A", Object);
  MethodBuilder M = B.method(A, "m", 0);
  (void)M;
  MethodBuilder Main = B.method(Object, "main", 0, true);
  B.entry(Main.id());
  VarId X = Main.local("x"); // Never assigned.
  SiteId Site = Main.vcall(VarId::invalid(), X, "m", {});
  Program P = B.take();
  auto Policy = makeInsensitivePolicy();
  ContextTable T;
  PointsToResult R = solvePointsTo(P, *Policy, T);
  EXPECT_TRUE(R.callTargets(Site).empty());
  EXPECT_FALSE(R.isReachable(M.id()));
}

TEST(SolverEdge, RecursiveVirtualCallsTerminate) {
  // A linked-list style recursion: node.visit() calls next.visit().
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId Node = B.cls("Node", Object);
  FieldId Next = B.field(Node, "next");
  MethodBuilder Visit = B.method(Node, "visit", 0);
  VarId N = Visit.local("n");
  Visit.load(N, Visit.thisVar(), Next);
  Visit.vcall(VarId::invalid(), N, "visit", {});

  MethodBuilder Main = B.method(Object, "main", 0, true);
  B.entry(Main.id());
  VarId X = Main.local("x");
  VarId Y = Main.local("y");
  Main.alloc(X, Node);
  Main.alloc(Y, Node);
  Main.store(X, Next, Y);
  Main.store(Y, Next, X); // Cycle.
  Main.vcall(VarId::invalid(), X, "visit", {});
  Program P = B.take();

  for (auto &Policy :
       {makeInsensitivePolicy(), makeObjectPolicy(P, 2, 1),
        makeCallSitePolicy(2, 1)}) {
    ContextTable T;
    PointsToResult R = solvePointsTo(P, *Policy, T);
    EXPECT_EQ(R.Status, SolveStatus::Completed) << Policy->name();
    EXPECT_TRUE(R.isReachable(Visit.id())) << Policy->name();
  }
}

TEST(SolverEdge, MultipleEntryPoints) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  MethodBuilder E1 = B.method(Object, "entry1", 0, true);
  MethodBuilder E2 = B.method(Object, "entry2", 0, true);
  MethodBuilder Dead = B.method(Object, "dead", 0, true);
  B.entry(E1.id());
  B.entry(E2.id());
  VarId X1 = E1.local("x");
  E1.alloc(X1, Object);
  VarId X2 = E2.local("x");
  E2.alloc(X2, Object);
  Program P = B.take();
  auto Policy = makeInsensitivePolicy();
  ContextTable T;
  PointsToResult R = solvePointsTo(P, *Policy, T);
  EXPECT_TRUE(R.isReachable(E1.id()));
  EXPECT_TRUE(R.isReachable(E2.id()));
  EXPECT_FALSE(R.isReachable(Dead.id()));
}

TEST(SolverEdge, EmptyBodyProgram) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  MethodBuilder Main = B.method(Object, "main", 0, true);
  B.entry(Main.id());
  Program P = B.take();
  EXPECT_TRUE(validateProgram(P).empty());
  auto Policy = makeObjectPolicy(P, 2, 1);
  ContextTable T;
  PointsToResult R = solvePointsTo(P, *Policy, T);
  EXPECT_EQ(R.Status, SolveStatus::Completed);
  EXPECT_EQ(R.Stats.VarPointsToTuples, 0u);
  EXPECT_TRUE(R.isReachable(Main.id()));
}

namespace {

/// Three-level nesting: Triple owns a Pair (allocated in Triple.init),
/// which owns a Box (allocated in Pair.init).  Distinguishing the two
/// inner boxes requires heap context of depth 2 — i.e. 3objH; 2objH (heap
/// depth 1) conflates them.
struct Nested {
  Program Prog;
  VarId OutA;
  HeapId HeapA, HeapB;
};

Nested makeNested() {
  Nested T;
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId Box = B.cls("Box", Object);
  TypeId Pair = B.cls("Pair", Object);
  TypeId Triple = B.cls("Triple", Object);
  TypeId A = B.cls("A", Object);
  TypeId BT = B.cls("B", Object);
  FieldId BoxF = B.field(Box, "f");
  FieldId PairInner = B.field(Pair, "inner");
  FieldId TripleP = B.field(Triple, "p");

  MethodBuilder BoxSet = B.method(Box, "bset", 1);
  BoxSet.store(BoxSet.thisVar(), BoxF, BoxSet.formal(0));
  MethodBuilder BoxGet = B.method(Box, "bget", 0);
  BoxGet.load(BoxGet.returnVar(), BoxGet.thisVar(), BoxF);

  MethodBuilder PairInit = B.method(Pair, "pinit", 0);
  {
    VarId Inner = PairInit.local("inner");
    PairInit.alloc(Inner, Box); // THE single inner-box allocation site.
    PairInit.store(PairInit.thisVar(), PairInner, Inner);
  }
  MethodBuilder PairPut = B.method(Pair, "pput", 1);
  {
    VarId Inner = PairPut.local("i");
    PairPut.load(Inner, PairPut.thisVar(), PairInner);
    PairPut.vcall(VarId::invalid(), Inner, "bset", {PairPut.formal(0)});
  }
  MethodBuilder PairGet = B.method(Pair, "pget", 0);
  {
    VarId Inner = PairGet.local("i");
    PairGet.load(Inner, PairGet.thisVar(), PairInner);
    PairGet.vcall(PairGet.returnVar(), Inner, "bget", {});
  }

  MethodBuilder TripleInit = B.method(Triple, "tinit", 0);
  {
    VarId P = TripleInit.local("p");
    TripleInit.alloc(P, Pair); // THE single pair allocation site.
    TripleInit.vcall(VarId::invalid(), P, "pinit", {});
    TripleInit.store(TripleInit.thisVar(), TripleP, P);
  }
  MethodBuilder TriplePut = B.method(Triple, "tput", 1);
  {
    VarId P = TriplePut.local("p");
    TriplePut.load(P, TriplePut.thisVar(), TripleP);
    TriplePut.vcall(VarId::invalid(), P, "pput", {TriplePut.formal(0)});
  }
  MethodBuilder TripleGet = B.method(Triple, "tget", 0);
  {
    VarId P = TripleGet.local("p");
    TripleGet.load(P, TripleGet.thisVar(), TripleP);
    TripleGet.vcall(TripleGet.returnVar(), P, "pget", {});
  }

  MethodBuilder Main = B.method(Object, "main", 0, true);
  B.entry(Main.id());
  VarId T1 = Main.local("t1");
  VarId T2 = Main.local("t2");
  VarId VA = Main.local("a");
  VarId VB = Main.local("b");
  T.OutA = Main.local("oa");
  Main.alloc(T1, Triple);
  Main.alloc(T2, Triple);
  T.HeapA = Main.alloc(VA, A);
  T.HeapB = Main.alloc(VB, BT);
  Main.vcall(VarId::invalid(), T1, "tinit", {});
  Main.vcall(VarId::invalid(), T2, "tinit", {});
  Main.vcall(VarId::invalid(), T1, "tput", {VA});
  Main.vcall(VarId::invalid(), T2, "tput", {VB});
  Main.vcall(T.OutA, T1, "tget", {});
  T.Prog = B.take();
  return T;
}

} // namespace

TEST(SolverEdge, DepthThreeObjectSensitivitySeparatesNestedBoxes) {
  Nested T = makeNested();
  ASSERT_TRUE(validateProgram(T.Prog).empty());

  // 2objH (heap depth 1): the two inner boxes share their allocation site
  // and their 1-deep heap context ([pair-site]), so the payloads conflate.
  {
    auto Policy = makeObjectPolicy(T.Prog, 2, 1);
    ContextTable Table;
    PointsToResult R = solvePointsTo(T.Prog, *Policy, Table);
    EXPECT_TRUE(setContains(R.pointsTo(T.OutA), T.HeapA.index()));
    EXPECT_TRUE(setContains(R.pointsTo(T.OutA), T.HeapB.index()))
        << "2objH should conflate the three-level nesting";
  }
  // 3objH (heap depth 2): the inner boxes' heap contexts extend to the
  // triple allocation sites, separating the two towers.
  {
    auto Policy = makeObjectPolicy(T.Prog, 3, 2);
    ContextTable Table;
    PointsToResult R = solvePointsTo(T.Prog, *Policy, Table);
    EXPECT_TRUE(setContains(R.pointsTo(T.OutA), T.HeapA.index()));
    EXPECT_FALSE(setContains(R.pointsTo(T.OutA), T.HeapB.index()))
        << "3objH should separate the three-level nesting";
  }
}

TEST(SolverEdge, FilterCastsComposesWithIntrospection) {
  Nested T = makeNested();
  auto Coarse = makeInsensitivePolicy();
  auto Refined = makeObjectPolicy(T.Prog, 3, 2);
  auto Intro = makeIntrospectivePolicy("3objH-Intro", *Coarse, *Refined,
                                       RefinementExceptions());
  ContextTable Table;
  SolverOptions Options;
  Options.FilterCasts = true;
  PointsToResult R = solvePointsTo(T.Prog, *Intro, Table, Options);
  EXPECT_EQ(R.Status, SolveStatus::Completed);
  EXPECT_FALSE(setContains(R.pointsTo(T.OutA), T.HeapB.index()));
}

TEST(SolverEdge, OutOfRangeIdsYieldSharedEmptySets) {
  // Regression: pointsTo/callTargets/throwsOf used to index their
  // projection tables unchecked, so a stale or foreign id was UB.  They
  // now answer with the shared empty set.
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  MethodBuilder Main = B.method(Object, "main", 0, true);
  B.entry(Main.id());
  VarId X = Main.local("x");
  Main.alloc(X, Object);
  Program P = B.take();
  auto Policy = makeInsensitivePolicy();
  ContextTable T;
  PointsToResult R = solvePointsTo(P, *Policy, T);

  const SortedIdSet &Empty = PointsToResult::emptySet();
  EXPECT_EQ(&R.pointsTo(VarId(1000)), &Empty);
  EXPECT_EQ(&R.callTargets(SiteId(1000)), &Empty);
  EXPECT_EQ(&R.throwsOf(MethodId(1000)), &Empty);
  // Invalid sentinel ids are handled too, not just out-of-range ones.
  EXPECT_EQ(&R.pointsTo(VarId::invalid()), &Empty);
  EXPECT_EQ(&R.callTargets(SiteId::invalid()), &Empty);
  EXPECT_EQ(&R.throwsOf(MethodId::invalid()), &Empty);
  EXPECT_FALSE(R.isReachable(MethodId::invalid()));
  // In-range queries still answer from the real tables.
  EXPECT_EQ(R.pointsTo(X).size(), 1u);
}

TEST(SolverEdge, SharedEmptySetIsSafeForConcurrentReaders) {
  // PointsToResult::emptySet() is the shared fallback of every query on a
  // result; readers on several threads must all observe one
  // fully-constructed object at a single address (C++11 magic statics).
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
