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
#include "support/Concat.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>

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

TEST(Solver, KeepTuplesDumpsRelations) {
  Dispatch T = makeDispatch();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  SolverOptions Options;
  Options.KeepTuples = true;
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
                &Cell.Heaps);
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

  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId Payload = B.cls("Payload", Object);
  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());
  std::vector<VarId> Sources;
  for (uint32_t Index = 0; Index < NumSources; ++Index)
    Sources.push_back(Main.local(concat("s", Index)));
  for (uint32_t Index = 0; Index < NumObjects; ++Index)
    Main.alloc(Sources[Index % NumSources], Payload);
  VarId Hub = Main.local("hub");
  for (VarId Source : Sources)
    Main.move(Hub, Source);
  for (uint32_t Index = 0; Index < NumConsumers; ++Index)
    Main.move(Main.local(concat("c", Index)), Hub);
  Program Prog = B.take();

  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  SolverOptions Options;
  Options.KeepTuples = true;
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
  // The hub and consumer sets are large and dense: the adaptive sets must
  // actually be in bitmap mode for the batched unions to be word-wise.
  EXPECT_GT(R.Stats.DensePointsToSets, NumConsumers);
}
