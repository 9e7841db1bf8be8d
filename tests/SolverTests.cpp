//===- tests/SolverTests.cpp - Worklist solver unit tests -----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/DatalogReference.h"
#include "analysis/PrecisionMetrics.h"
#include "analysis/Result.h"
#include "analysis/Solver.h"
#include "support/Trace.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

using namespace intro;
using namespace intro::testing;

namespace {

PointsToResult solveWith(const Program &Prog, const ContextPolicy &Policy) {
  ContextTable Table;
  return solvePointsTo(Prog, Policy, Table);
}

bool pointsTo(const PointsToResult &Result, VarId Var, HeapId Heap) {
  return setContains(Result.pointsTo(Var), Heap.index());
}

} // namespace

TEST(Solver, DispatchResolvesPerReceiver) {
  Dispatch T = makeDispatch();
  auto Policy = makeInsensitivePolicy();
  PointsToResult R = solveWith(T.Prog, *Policy);
  ASSERT_EQ(R.Status, SolveStatus::Completed);

  EXPECT_TRUE(pointsTo(R, T.Sound1, T.MeowHeap));
  EXPECT_FALSE(pointsTo(R, T.Sound1, T.WoofHeap));
  EXPECT_TRUE(pointsTo(R, T.Sound2, T.WoofHeap));
  EXPECT_FALSE(pointsTo(R, T.Sound2, T.MeowHeap));

  // Each call site is monomorphic.
  EXPECT_EQ(R.callTargets(T.Call1).size(), 1u);
  EXPECT_EQ(R.callTargets(T.Call2).size(), 1u);
}

TEST(Solver, InsensitiveConflatesBoxes) {
  TwoBoxes T = makeTwoBoxes();
  auto Policy = makeInsensitivePolicy();
  PointsToResult R = solveWith(T.Prog, *Policy);
  ASSERT_EQ(R.Status, SolveStatus::Completed);
  // Context-insensitively both boxes share one abstract field, so both get()
  // results see both payloads.
  EXPECT_TRUE(pointsTo(R, T.OutA, T.HeapA));
  EXPECT_TRUE(pointsTo(R, T.OutA, T.HeapB));
  EXPECT_TRUE(pointsTo(R, T.OutB, T.HeapA));
  EXPECT_TRUE(pointsTo(R, T.OutB, T.HeapB));

  PrecisionMetrics Metrics = computePrecision(T.Prog, R);
  EXPECT_EQ(Metrics.CastsThatMayFail, 1u);
}

TEST(Solver, ObjectSensitivitySeparatesBoxes) {
  TwoBoxes T = makeTwoBoxes();
  auto Policy = makeObjectPolicy(T.Prog, 2, 1);
  PointsToResult R = solveWith(T.Prog, *Policy);
  ASSERT_EQ(R.Status, SolveStatus::Completed);
  EXPECT_TRUE(pointsTo(R, T.OutA, T.HeapA));
  EXPECT_FALSE(pointsTo(R, T.OutA, T.HeapB));
  EXPECT_TRUE(pointsTo(R, T.OutB, T.HeapB));
  EXPECT_FALSE(pointsTo(R, T.OutB, T.HeapA));

  PrecisionMetrics Metrics = computePrecision(T.Prog, R);
  EXPECT_EQ(Metrics.CastsThatMayFail, 0u);
}

TEST(Solver, CallSiteSensitivitySeparatesBoxes) {
  TwoBoxes T = makeTwoBoxes();
  auto Policy = makeCallSitePolicy(2, 1);
  PointsToResult R = solveWith(T.Prog, *Policy);
  ASSERT_EQ(R.Status, SolveStatus::Completed);
  EXPECT_TRUE(pointsTo(R, T.OutA, T.HeapA));
  EXPECT_FALSE(pointsTo(R, T.OutA, T.HeapB));
}

TEST(Solver, TypeSensitivityConflatesSameClassAllocations) {
  // Both boxes are allocated inside the same class, so type-sensitivity
  // cannot tell them apart -- a known property of the abstraction.
  TwoBoxes T = makeTwoBoxes();
  auto Policy = makeTypePolicy(T.Prog, 2, 1);
  PointsToResult R = solveWith(T.Prog, *Policy);
  ASSERT_EQ(R.Status, SolveStatus::Completed);
  EXPECT_TRUE(pointsTo(R, T.OutA, T.HeapA));
  EXPECT_TRUE(pointsTo(R, T.OutA, T.HeapB));
}

TEST(Solver, StaticCallsAndReachability) {
  Mixed T = makeMixed();
  auto Policy = makeInsensitivePolicy();
  PointsToResult R = solveWith(T.Prog, *Policy);
  ASSERT_EQ(R.Status, SolveStatus::Completed);
  EXPECT_TRUE(pointsTo(R, T.Chained, T.Payload));
  EXPECT_FALSE(R.isReachable(T.Unreachable));
}

TEST(Solver, ContextSensitiveProjectionRefinesInsensitive) {
  // Projected to (var, heap), every context-sensitive result must be a
  // subset of the context-insensitive one.
  TwoBoxes T = makeTwoBoxes();
  auto Insens = makeInsensitivePolicy();
  PointsToResult RI = solveWith(T.Prog, *Insens);
  for (auto &Policy :
       {makeObjectPolicy(T.Prog, 2, 1), makeCallSitePolicy(2, 1),
        makeTypePolicy(T.Prog, 2, 1)}) {
    PointsToResult RS = solveWith(T.Prog, *Policy);
    ASSERT_EQ(RS.Status, SolveStatus::Completed);
    for (uint32_t VarRaw = 0; VarRaw < T.Prog.numVars(); ++VarRaw)
      for (uint32_t HeapRaw : RS.pointsTo(VarId(VarRaw)))
        EXPECT_TRUE(setContains(RI.pointsTo(VarId(VarRaw)), HeapRaw))
            << "analysis " << Policy->name() << " derived a fact the "
            << "insensitive analysis misses (unsound projection)";
  }
}

TEST(Solver, TupleBudgetProducesTimeoutStatus) {
  TwoBoxes T = makeTwoBoxes();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  SolverOptions Options;
  Options.Budget.MaxTuples = 2; // Absurdly small.
  PointsToResult R = solvePointsTo(T.Prog, *Policy, Table, Options);
  EXPECT_EQ(R.Status, SolveStatus::TupleBudgetExceeded);
  EXPECT_FALSE(isCompleted(R.Status));
}

TEST(Solver, StatsArepopulated) {
  TwoBoxes T = makeTwoBoxes();
  auto Policy = makeObjectPolicy(T.Prog, 2, 1);
  PointsToResult R = solveWith(T.Prog, *Policy);
  EXPECT_GT(R.Stats.VarPointsToTuples, 0u);
  EXPECT_GT(R.Stats.FieldPointsToTuples, 0u);
  EXPECT_GT(R.Stats.NumObjects, 0u);
  EXPECT_GT(R.Stats.ReachableMethodContexts, 0u);
  EXPECT_GT(R.Stats.CallGraphEdges, 0u);
  EXPECT_EQ(R.AnalysisName, "2objH");
}

TEST(Solver, TupleAssemblyDumpsRelations) {
  Dispatch T = makeDispatch();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  SolverOptions Options;
  Options.Assemble = Assembly::Tuples;
  PointsToResult R = solvePointsTo(T.Prog, *Policy, Table, Options);
  EXPECT_FALSE(R.VarPointsTo.empty());
  EXPECT_FALSE(R.Reachable.empty());
  EXPECT_FALSE(R.CallGraph.empty());
  // Insensitive: every ctx and hctx in the dump is the `*` handle 0.
  for (const auto &Tuple : R.VarPointsTo) {
    EXPECT_EQ(Tuple[1], 0u);
    EXPECT_EQ(Tuple[3], 0u);
  }
}

TEST(Solver, FieldCellsAreSortedAndProbedById) {
  TwoBoxes T = makeTwoBoxes();
  auto Insens = makeInsensitivePolicy();
  auto Object = makeObjectPolicy(T.Prog, 2, 1);
  PointsToResult RI = solveWith(T.Prog, *Insens);
  PointsToResult RO = solveWith(T.Prog, *Object);
  for (const PointsToResult *R : {&RI, &RO}) {
    ASSERT_EQ(R->FieldHeaps.size(), 2u) << "one cell per box";
    EXPECT_LT(R->FieldHeaps[0].key(), R->FieldHeaps[1].key());
    for (const FieldCell &Cell : R->FieldHeaps)
      EXPECT_EQ(&R->fieldPointsTo(HeapId(Cell.BaseHeap), FieldId(Cell.Field)),
                &Cell.Heaps.get());
    EXPECT_EQ(R->StaticFieldHeaps.size(), T.Prog.numFields());
  }
  // Insensitively each (object, field) node is one cell.
  EXPECT_EQ(RI.Stats.NumFieldNodes, RI.FieldHeaps.size());

  FieldId Field(RI.FieldHeaps[0].Field);
  EXPECT_EQ(RI.fieldPointsTo(T.Box1, Field),
            (SortedIdSet{T.HeapA.index(), T.HeapB.index()}))
      << "the shared set() conflates the boxes";
  EXPECT_EQ(RO.fieldPointsTo(T.Box1, Field), SortedIdSet{T.HeapA.index()});
  // Absent pairs and out-of-range ids read as the shared empty set.
  EXPECT_EQ(&RO.fieldPointsTo(T.HeapA, Field), &PointsToResult::emptySet());
  EXPECT_EQ(&RO.staticPointsTo(FieldId(T.Prog.numFields())),
            &PointsToResult::emptySet());
}

// --- Assembly levels ----------------------------------------------------------

namespace {

/// Handles into the "shared heap" program (see makeSharedHeap).
struct SharedHeap {
  Program Prog;
  HeapId BoxHeap, AHeap;
  VarId Made; ///< Box.make's `r`: heap A in each of its two contexts.
  VarId Boxes; ///< main's `y`: both Box objects, one per heap context.
  MethodId Make;
  FieldId F;
};

/// One allocation site reached under two contexts:
///
///   class Box   { Object f; Object make() { r = new A(); this.f = r;
///                                           G = r; throw r; return r; } }
///   class Maker { Box mk() { b = new Box(); b.make(); return b; } }
///   m1 = new Maker(); m2 = new Maker(); y = m1.mk(); y = m2.mk();
///
/// Under 2objH, Box is allocated under two heap contexts, so `y` holds two
/// objects of one heap, `Maker.mk`'s `b` holds that heap under two
/// contexts, and `Box.make`'s `r`, its throws and the (Box, f) cell hold
/// heap A under two contexts each: every projection has to collapse
/// duplicate heaps.
SharedHeap makeSharedHeap() {
  SharedHeap T;
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId BoxT = B.cls("Box", Object);
  TypeId MakerT = B.cls("Maker", Object);
  TypeId AT = B.cls("A", Object);
  T.F = B.field(BoxT, "f");
  FieldId G = B.field(Object, "G");

  MethodBuilder Make = B.method(BoxT, "make", 0);
  T.Make = Make.id();
  T.Made = Make.local("r");
  T.AHeap = Make.alloc(T.Made, AT);
  Make.store(Make.thisVar(), T.F, T.Made);
  Make.sstore(G, T.Made);
  Make.throwStmt(T.Made);
  Make.move(Make.returnVar(), T.Made);

  MethodBuilder Mk = B.method(MakerT, "mk", 0);
  VarId Box = Mk.local("b");
  T.BoxHeap = Mk.alloc(Box, BoxT);
  Mk.vcall(VarId::invalid(), Box, "make", {});
  Mk.move(Mk.returnVar(), Box);

  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());
  VarId M1 = Main.local("m1");
  VarId M2 = Main.local("m2");
  T.Boxes = Main.local("y");
  Main.alloc(M1, MakerT);
  Main.alloc(M2, MakerT);
  Main.vcall(T.Boxes, M1, "mk", {});
  Main.vcall(T.Boxes, M2, "mk", {});

  T.Prog = B.take();
  return T;
}

PointsToResult solveAssembled(const Program &Prog, const ContextPolicy &Policy,
                              Assembly Assemble) {
  ContextTable Table;
  SolverOptions Options;
  Options.Assemble = Assemble;
  return solvePointsTo(Prog, Policy, Table, Options);
}

/// Column \p Value of \p Tuples grouped by column \p Key into \p Size
/// sorted sets: a projection computed from the dump.
template <size_t Width>
std::vector<SharedIdSet>
projectDump(size_t Size, const std::vector<std::array<uint32_t, Width>> &Tuples,
            size_t Key, size_t Value) {
  std::vector<SortedIdSet> Sets(Size);
  for (const std::array<uint32_t, Width> &Tuple : Tuples)
    Sets[Tuple[Key]].push_back(Tuple[Value]);
  std::vector<SharedIdSet> Shared;
  for (SortedIdSet &Set : Sets) {
    setNormalize(Set);
    Shared.emplace_back(std::move(Set));
  }
  return Shared;
}

/// Expects \p A and \p B to agree in everything Assembly::Stats fills.
void expectSameSummary(const PointsToResult &A, const PointsToResult &B) {
  EXPECT_EQ(A.Status, B.Status);
  EXPECT_EQ(A.AnalysisName, B.AnalysisName);
  for (auto [Name, Counter] : SolverStatsFields)
    EXPECT_EQ(A.Stats.*Counter, B.Stats.*Counter) << Name;
  EXPECT_EQ(A.Stats.BatchUnions, B.Stats.BatchUnions);
  EXPECT_EQ(A.Stats.ElementProbes, B.Stats.ElementProbes);
  EXPECT_EQ(A.MethodReachable, B.MethodReachable);
  EXPECT_EQ(A.SiteTargets, B.SiteTargets);
}

} // namespace

TEST(Assembly, LevelsAgreeOnEveryTestProgram) {
  std::vector<Program> Programs;
  Programs.push_back(makeTwoBoxes().Prog);
  Programs.push_back(makeDispatch().Prog);
  Programs.push_back(makeMixed().Prog);
  Programs.push_back(makeSharedHeap().Prog);
  for (const Program &Prog : Programs) {
    std::unique_ptr<ContextPolicy> Policies[] = {makeInsensitivePolicy(),
                                                 makeObjectPolicy(Prog, 2, 1)};
    for (const auto &Policy : Policies) {
      SCOPED_TRACE(Policy->name());
      // The trace counters are the same whatever is assembled.
      std::map<std::string, uint64_t> Counters[3];
      PointsToResult R[3];
      for (Assembly Level :
           {Assembly::Stats, Assembly::Projections, Assembly::Tuples}) {
        auto Index = static_cast<size_t>(Level);
        trace::Recorder Rec;
        Rec.start();
        R[Index] = solveAssembled(Prog, *Policy, Level);
        Rec.stop();
        Counters[Index] = Rec.counters();
      }
      const auto &[S, P, T] = R;
      ASSERT_EQ(S.Status, SolveStatus::Completed);
      EXPECT_EQ(Counters[0], Counters[1]);
      EXPECT_EQ(Counters[1], Counters[2]);
      expectSameSummary(S, P);
      expectSameSummary(P, T);
      EXPECT_EQ(S.MethodReachable.size(), Prog.numMethods());
      EXPECT_EQ(S.SiteTargets.size(), Prog.numSites());

      // Stats leaves every heap projection (and dump) empty.
      EXPECT_TRUE(S.VarHeaps.empty());
      EXPECT_TRUE(S.FieldHeaps.empty());
      EXPECT_TRUE(S.StaticFieldHeaps.empty());
      EXPECT_TRUE(S.MethodThrows.empty());
      EXPECT_TRUE(S.VarPointsTo.empty());
      EXPECT_TRUE(P.VarPointsTo.empty());
      EXPECT_TRUE(P.Reachable.empty());

      // Projections and Tuples assemble the same projections...
      EXPECT_EQ(P.VarHeaps, T.VarHeaps);
      EXPECT_EQ(P.FieldHeaps, T.FieldHeaps);
      EXPECT_EQ(P.StaticFieldHeaps, T.StaticFieldHeaps);
      EXPECT_EQ(P.MethodThrows, T.MethodThrows);
      // ...and they are the projections of the dump.
      EXPECT_EQ(P.VarHeaps, projectDump(Prog.numVars(), T.VarPointsTo, 0, 2));
      EXPECT_EQ(P.MethodThrows,
                projectDump(Prog.numMethods(), T.ThrowPointsTo, 0, 2));
      EXPECT_EQ(P.StaticFieldHeaps,
                projectDump(Prog.numFields(), T.StaticFieldPointsTo, 0, 1));
      for (const std::array<uint32_t, 5> &Tuple : T.FieldPointsTo)
        EXPECT_TRUE(setContains(
            P.fieldPointsTo(HeapId(Tuple[0]), FieldId(Tuple[2])), Tuple[3]));
      uint64_t CellHeaps = 0;
      for (const FieldCell &Cell : P.FieldHeaps)
        CellHeaps += Cell.Heaps.size();
      std::vector<std::array<uint32_t, 3>> DumpCells;
      for (const std::array<uint32_t, 5> &Tuple : T.FieldPointsTo)
        DumpCells.push_back({Tuple[0], Tuple[2], Tuple[3]});
      std::ranges::sort(DumpCells);
      DumpCells.erase(std::unique(DumpCells.begin(), DumpCells.end()),
                      DumpCells.end());
      EXPECT_EQ(CellHeaps, DumpCells.size());
    }
  }
}

TEST(Assembly, ProjectionsHoldEachHeapOnceAcrossContexts) {
  SharedHeap T = makeSharedHeap();
  auto Policy = makeObjectPolicy(T.Prog, 2, 1);
  PointsToResult R = solveAssembled(T.Prog, *Policy, Assembly::Tuples);
  ASSERT_EQ(R.Status, SolveStatus::Completed);

  // The premise: the dump holds the heaps of r and y more than once.
  auto CountHeap = [&](VarId Var, HeapId Heap) {
    return std::ranges::count_if(R.VarPointsTo, [&](const auto &Tuple) {
      return Tuple[0] == Var.index() && Tuple[2] == Heap.index();
    });
  };
  EXPECT_GE(CountHeap(T.Made, T.AHeap), 2) << "r: one tuple per context";
  EXPECT_GE(CountHeap(T.Boxes, T.BoxHeap), 2) << "y: one per heap context";
  EXPECT_GE(R.Stats.NumFieldNodes, 2u) << "(Box, f): one node per Box object";
  EXPECT_GE(R.Stats.ThrowPointsToTuples, 2u);

  SortedIdSet OnlyA{T.AHeap.index()};
  EXPECT_EQ(R.pointsTo(T.Made), OnlyA);
  EXPECT_EQ(R.pointsTo(T.Boxes), SortedIdSet{T.BoxHeap.index()});
  EXPECT_EQ(R.fieldPointsTo(T.BoxHeap, T.F), OnlyA);
  EXPECT_EQ(R.throwsOf(T.Make), OnlyA);
  ASSERT_EQ(R.FieldHeaps.size(), 1u) << "both Box objects' nodes, one cell";
}

namespace {

/// Handles into the "late heap" program (see makeLateHeap).
struct LateHeap {
  Program Prog;
  HeapId BoxHeap, AHeap, LateHeap;
  VarId Put;   ///< Box.put's `v`: Late in one context, A in the other.
  VarId Mixed; ///< Run.go's `z`: Late and A in one node.
};

/// Objects discovered against heap order.  Main's only allocation is the
/// last one built, so the first object the solver discovers has the
/// highest heap id:
///
///   class Box   { Object f; Object put(v) { this.f = v; G = v; throw v;
///                                           return v; } }
///   class Maker { Box mk(p) { b = new Box(); b.put(p); return b; } }
///   static go(p) { m1 = new Maker(); m2 = new Maker(); q = new A();
///                  y = m1.mk(p); y = m2.mk(q); z = p; z = q; }
///   main() { x = new Late(); go(x); }
///
/// Under 2objH, Box is allocated under two heap contexts, so `y` holds two
/// objects of one heap and Box.put runs under two contexts: `v`, its
/// throws and the (Box, f) cell hold Late under one and A under the other.
LateHeap makeLateHeap() {
  LateHeap T;
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId BoxT = B.cls("Box", Object);
  TypeId MakerT = B.cls("Maker", Object);
  TypeId AT = B.cls("A", Object);
  TypeId LateT = B.cls("Late", Object);
  FieldId F = B.field(BoxT, "f");
  FieldId G = B.field(Object, "G");

  MethodBuilder Put = B.method(BoxT, "put", 1);
  T.Put = Put.formal(0);
  Put.store(Put.thisVar(), F, T.Put);
  Put.sstore(G, T.Put);
  Put.throwStmt(T.Put);
  Put.move(Put.returnVar(), T.Put);

  MethodBuilder Mk = B.method(MakerT, "mk", 1);
  VarId Box = Mk.local("b");
  T.BoxHeap = Mk.alloc(Box, BoxT);
  Mk.vcall(VarId::invalid(), Box, "put", {Mk.formal(0)});
  Mk.move(Mk.returnVar(), Box);

  MethodBuilder Go = B.method(Object, "go", 1, /*IsStatic=*/true);
  VarId M1 = Go.local("m1");
  VarId M2 = Go.local("m2");
  VarId Q = Go.local("q");
  VarId Y = Go.local("y");
  T.Mixed = Go.local("z");
  Go.alloc(M1, MakerT);
  Go.alloc(M2, MakerT);
  T.AHeap = Go.alloc(Q, AT);
  Go.vcall(Y, M1, "mk", {Go.formal(0)});
  Go.vcall(Y, M2, "mk", {Q});
  Go.move(T.Mixed, Go.formal(0));
  Go.move(T.Mixed, Q);

  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());
  VarId X = Main.local("x");
  T.LateHeap = Main.alloc(X, LateT);
  Main.scall(VarId::invalid(), Go.id(), {X});

  T.Prog = B.take();
  return T;
}

/// The (base heap, field) cells of a FieldPointsTo dump, each holding the
/// sorted heaps of its tuples.
std::vector<FieldCell>
projectFieldDump(const std::vector<std::array<uint32_t, 5>> &Tuples) {
  std::map<std::pair<uint32_t, uint32_t>, SortedIdSet> Cells;
  for (const std::array<uint32_t, 5> &Tuple : Tuples)
    Cells[{Tuple[0], Tuple[2]}].push_back(Tuple[3]);
  std::vector<FieldCell> Out;
  for (auto &[Key, Heaps] : Cells) {
    setNormalize(Heaps);
    Out.push_back({Key.first, Key.second, SharedIdSet(std::move(Heaps))});
  }
  return Out;
}

} // namespace

TEST(Assembly, ProjectionsAreSortedWhenObjectsArriveOutOfHeapOrder) {
  LateHeap T = makeLateHeap();
  ASSERT_EQ(T.LateHeap.index() + 1, T.Prog.numHeaps());
  std::unique_ptr<ContextPolicy> Policies[] = {makeInsensitivePolicy(),
                                               makeObjectPolicy(T.Prog, 2, 1)};
  for (const auto &Policy : Policies) {
    SCOPED_TRACE(Policy->name());
    PointsToResult D = solveAssembled(T.Prog, *Policy, Assembly::Tuples);
    PointsToResult P = solveAssembled(T.Prog, *Policy, Assembly::Projections);
    ASSERT_EQ(D.Status, SolveStatus::Completed);

    // The premise: some node lists its heaps in descending order, since
    // the dump lists each node's objects in discovery order.
    bool Descending = false;
    for (size_t I = 0; I + 1 < D.VarPointsTo.size(); ++I) {
      const auto &A = D.VarPointsTo[I];
      const auto &B = D.VarPointsTo[I + 1];
      Descending |= A[0] == B[0] && A[1] == B[1] && A[2] > B[2];
    }
    EXPECT_TRUE(Descending);

    EXPECT_EQ(P.VarHeaps, projectDump(T.Prog.numVars(), D.VarPointsTo, 0, 2));
    EXPECT_EQ(P.MethodThrows,
              projectDump(T.Prog.numMethods(), D.ThrowPointsTo, 0, 2));
    EXPECT_EQ(P.StaticFieldHeaps,
              projectDump(T.Prog.numFields(), D.StaticFieldPointsTo, 0, 1));
    EXPECT_EQ(P.FieldHeaps, projectFieldDump(D.FieldPointsTo));
    SortedIdSet Both{T.AHeap.index(), T.LateHeap.index()};
    EXPECT_EQ(P.pointsTo(T.Put), Both);
    EXPECT_EQ(P.pointsTo(T.Mixed), Both);
  }

  // Under 2objH the premise also holds across nodes: one heap under two
  // heap contexts, and one var under two method contexts.
  auto Policy = makeObjectPolicy(T.Prog, 2, 1);
  PointsToResult D = solveAssembled(T.Prog, *Policy, Assembly::Tuples);
  EXPECT_EQ(std::ranges::count_if(D.Reachable,
                                  [&](const auto &Fact) {
                                    return Fact[0] ==
                                           T.Prog.var(T.Put).Owner.index();
                                  }),
            2);
  EXPECT_EQ(D.Stats.NumObjects, T.Prog.numHeaps() + 1);
}

TEST(Assembly, EqualNodeSetsShareOneProjection) {
  // Insensitively every var has one node, and the hub and all its
  // consumers name one interned set, so they share one projection: their
  // accessors answer one address, and the var projections hold no more
  // payloads than there are distinct sets.
  constexpr uint32_t NumObjects = 2048;
  constexpr uint32_t NumSources = 8;
  constexpr uint32_t NumConsumers = 64;
  Program Prog = hubHeavyProgram(NumObjects, NumSources, NumConsumers,
                                 /*LateObjects=*/NumSources);
  auto Policy = makeInsensitivePolicy();
  PointsToResult R = solveWith(Prog, *Policy);
  ASSERT_EQ(R.Status, SolveStatus::Completed);

  std::set<const SortedIdSet *> Payloads;
  std::set<const SortedIdSet *> HubPayloads;
  size_t HubHolders = 0;
  for (uint32_t Var = 0; Var < Prog.numVars(); ++Var) {
    const SortedIdSet &Heaps = R.pointsTo(VarId(Var));
    if (Heaps.empty())
      continue;
    Payloads.insert(&Heaps);
    if (Heaps.size() == NumObjects) {
      ++HubHolders;
      HubPayloads.insert(&Heaps);
    }
  }
  EXPECT_EQ(HubHolders, 1 + NumConsumers);
  EXPECT_EQ(HubPayloads.size(), 1u);
  EXPECT_LE(Payloads.size(), R.Stats.DistinctPointsToSets);
}

TEST(Assembly, ProjectionsOutliveTheirSolveAndCopies) {
  // A copy shares the original's payloads; destroying the original (and
  // moving the copy) must leave them intact.
  std::vector<Program> Programs;
  Programs.push_back(makeLateHeap().Prog);
  Programs.push_back(makeSharedHeap().Prog);
  Programs.push_back(hubHeavyProgram(256, 4, 16, /*LateObjects=*/4));
  for (const Program &Prog : Programs) {
    std::unique_ptr<ContextPolicy> Policies[] = {makeInsensitivePolicy(),
                                                 makeObjectPolicy(Prog, 2, 1)};
    for (const auto &Policy : Policies) {
      SCOPED_TRACE(Policy->name());
      PointsToResult Fresh = solveWith(Prog, *Policy);
      auto Original = std::make_unique<PointsToResult>(solveWith(Prog, *Policy));
      PointsToResult Copy = *Original;
      Original.reset();
      PointsToResult Moved = std::move(Copy);
      EXPECT_EQ(Moved.VarHeaps, Fresh.VarHeaps);
      EXPECT_EQ(Moved.FieldHeaps, Fresh.FieldHeaps);
      EXPECT_EQ(Moved.StaticFieldHeaps, Fresh.StaticFieldHeaps);
      EXPECT_EQ(Moved.MethodThrows, Fresh.MethodThrows);
      for (uint32_t Var = 0; Var < Prog.numVars(); ++Var)
        EXPECT_EQ(Moved.pointsTo(VarId(Var)), Fresh.pointsTo(VarId(Var)));
    }
  }
}

TEST(Policies, Names) {
  Program Dummy; // Only used by object/type policies for lookups.
  EXPECT_EQ(makeInsensitivePolicy()->name(), "insens");
  EXPECT_EQ(makeCallSitePolicy(2, 1)->name(), "2callH");
  EXPECT_EQ(makeObjectPolicy(Dummy, 2, 1)->name(), "2objH");
  EXPECT_EQ(makeTypePolicy(Dummy, 2, 1)->name(), "2typeH");
}

TEST(Policies, IntrospectiveExceptionsFallBackToCoarse) {
  TwoBoxes T = makeTwoBoxes();
  auto Coarse = makeInsensitivePolicy();
  auto Refined = makeObjectPolicy(T.Prog, 2, 1);

  // Excluding the set/get call sites from refinement analyzes Box.set and
  // Box.get in the single coarse context: their `this` conflates both boxes
  // and the introspective analysis loses exactly the precision that full
  // 2objH had.
  RefinementExceptions Exceptions(T.Prog);
  MethodId SetMethod = T.Prog.lookup(T.BoxT, T.Prog.site(T.SetCall1).Sig);
  MethodId GetMethod = T.Prog.lookup(T.BoxT, T.Prog.site(T.GetCall1).Sig);
  for (SiteId Site : {T.SetCall1, T.SetCall2})
    Exceptions.excludeSite(Site, SetMethod);
  for (SiteId Site : {T.GetCall1, T.GetCall2})
    Exceptions.excludeSite(Site, GetMethod);
  auto Intro = makeIntrospectivePolicy("2objH-IntroTest", *Coarse, *Refined,
                                       std::move(Exceptions));
  PointsToResult R = solveWith(T.Prog, *Intro);
  ASSERT_EQ(R.Status, SolveStatus::Completed);
  EXPECT_TRUE(pointsTo(R, T.OutA, T.HeapB)) << "coarse call contexts should "
                                               "re-conflate the two boxes";
}

TEST(Policies, IntrospectiveWithNoExceptionsMatchesRefined) {
  TwoBoxes T = makeTwoBoxes();
  auto Coarse = makeInsensitivePolicy();
  auto Refined = makeObjectPolicy(T.Prog, 2, 1);
  auto Intro = makeIntrospectivePolicy("2objH-IntroNone", *Coarse, *Refined,
                                       RefinementExceptions());
  PointsToResult RIntro = solveWith(T.Prog, *Intro);
  PointsToResult RFull = solveWith(T.Prog, *Refined);
  for (uint32_t VarRaw = 0; VarRaw < T.Prog.numVars(); ++VarRaw)
    EXPECT_EQ(RIntro.pointsTo(VarId(VarRaw)), RFull.pointsTo(VarId(VarRaw)));
}

TEST(Precision, DispatchProgramMetrics) {
  Dispatch T = makeDispatch();
  auto Policy = makeInsensitivePolicy();
  PointsToResult R = solveWith(T.Prog, *Policy);
  PrecisionMetrics Metrics = computePrecision(T.Prog, R);
  EXPECT_EQ(Metrics.PolymorphicVirtualCallSites, 0u);
  EXPECT_EQ(Metrics.ReachableVirtualCallSites, 2u);
  EXPECT_EQ(Metrics.ReachableMethods, 3u); // main + 2 speak methods.
  EXPECT_EQ(Metrics.ReachableCasts, 0u);
}

TEST(Precision, SharedReceiverVarIsPolymorphic) {
  // r = new Cat(); r = new Dog(); r.speak() -- one site, two targets.
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId Animal = B.cls("Animal", Object);
  TypeId Cat = B.cls("Cat", Animal);
  TypeId Dog = B.cls("Dog", Animal);
  MethodBuilder CatSpeak = B.method(Cat, "speak", 0);
  (void)CatSpeak;
  MethodBuilder DogSpeak = B.method(Dog, "speak", 0);
  (void)DogSpeak;
  MethodBuilder Main = B.method(Object, "main", 0, true);
  B.entry(Main.id());
  VarId R = Main.local("r");
  Main.alloc(R, Cat);
  Main.alloc(R, Dog);
  Main.vcall(VarId::invalid(), R, "speak", {});
  Program P = B.take();

  auto Policy = makeInsensitivePolicy();
  PointsToResult Result = solveWith(P, *Policy);
  PrecisionMetrics Metrics = computePrecision(P, Result);
  EXPECT_EQ(Metrics.PolymorphicVirtualCallSites, 1u);
}

TEST(Solver, LateEdgesOnHubUseBatchedPropagation) {
  // Regression for the quadratic edge-installation path: addEdge used to
  // re-propagate the full source set element-by-element for every late
  // edge, so a hub variable feeding E late consumers cost O(E * |hub|)
  // set probes.  With batched difference propagation each edge costs one
  // set union.  The hub program: S feeder variables whose allocation-site
  // ids interleave, merged into one hub, fanning out to E late edges.
  constexpr uint32_t NumObjects = 1024;
  constexpr uint32_t NumSources = 8;
  constexpr uint32_t NumConsumers = 32;
  Program Prog = hubHeavyProgram(NumObjects, NumSources, NumConsumers);

  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  SolverOptions Options;
  Options.Assemble = Assembly::Tuples;
  PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
  ASSERT_EQ(R.Status, SolveStatus::Completed);

  // Identical result to the Datalog oracle, tuple for tuple.
  DatalogReferenceResult Reference = runDatalogReference(Prog, *Policy, Table);
  ASSERT_FALSE(Reference.BudgetExceeded);
  std::vector<std::array<uint32_t, 4>> VarTuples = R.VarPointsTo;
  std::sort(VarTuples.begin(), VarTuples.end());
  EXPECT_EQ(VarTuples, Reference.VarPointsTo);

  // Every consumer edge moved the whole hub set in batch...
  EXPECT_GT(R.Stats.BatchUnions, NumConsumers);
  // ...so single-element probes stay at the allocation sites (one per
  // ALLOC) instead of the O(tuples) element-wise re-propagation the old
  // path performed.  VarPointsToTuples here is ~NumObjects * NumConsumers.
  EXPECT_GE(R.Stats.VarPointsToTuples,
            static_cast<uint64_t>(NumObjects) * NumConsumers);
  EXPECT_LT(R.Stats.ElementProbes, R.Stats.VarPointsToTuples / 8);
  EXPECT_LE(R.Stats.ElementProbes, NumObjects + NumSources + NumConsumers);
  // The worklist stays linear in the node count: every node drains its
  // delta once and goes quiet (nothing re-propagates a stale set).
  EXPECT_LE(R.Stats.WorklistPops,
            static_cast<uint64_t>(NumSources) + NumConsumers + 4);
}

TEST(Solver, HubConsumersShareOneInternedSet) {
  // Every consumer copies the hub, so the hub and all its consumers name
  // one interned set; each source keeps its own.  Each source's late object
  // reaches the hub as a delta, and then every consumer as the same delta
  // onto the same set: the first consumer computes that union, and the
  // store's memo answers the others.
  constexpr uint32_t NumSources = 8;
  constexpr uint32_t NumConsumers = 64;
  Program Prog = hubHeavyProgram(/*NumObjects=*/2048, NumSources, NumConsumers,
                                 /*LateObjects=*/NumSources);
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult R = solvePointsTo(Prog, *Policy, Table);
  ASSERT_EQ(R.Status, SolveStatus::Completed);
  EXPECT_EQ(R.Stats.NumVarNodes, NumSources + 1 + NumConsumers);
  EXPECT_EQ(R.Stats.DistinctPointsToSets, NumSources + 1);
  EXPECT_GE(R.Stats.MemoHits, NumSources * (NumConsumers - 1));
}
