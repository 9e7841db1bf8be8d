//===- tests/ContextPolicyTests.cpp - RECORD/MERGE white-box tests --------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// White-box tests of the context constructors: for each flavor, the exact
/// element tuples produced by RECORD and MERGE are inspected through the
/// ContextTable, pinning the abstractions (most-recent-first ordering,
/// depth truncation, heap-context derivation, static-call treatment).
///
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

using namespace intro;
using namespace intro::testing;

namespace {

std::vector<uint32_t> elems(const ContextTable &Table, CtxId Ctx) {
  auto Span = Table.elements(Ctx);
  return std::vector<uint32_t>(Span.begin(), Span.end());
}

std::vector<uint32_t> elems(const ContextTable &Table, HCtxId HCtx) {
  auto Span = Table.elements(HCtx);
  return std::vector<uint32_t>(Span.begin(), Span.end());
}

} // namespace

TEST(ContextTable, EmptyContextsAreHandleZero) {
  ContextTable Table;
  EXPECT_EQ(Table.emptyCtx().index(), 0u);
  EXPECT_EQ(Table.emptyHCtx().index(), 0u);
  EXPECT_TRUE(Table.elements(Table.emptyCtx()).empty());
  EXPECT_EQ(Table.numContexts(), 1u);
}

TEST(ContextTable, InternsDeterministically) {
  ContextTable Table;
  std::vector<uint32_t> Elements = {3, 1, 4};
  CtxId A = Table.internCtx(Elements);
  CtxId B = Table.internCtx(Elements);
  EXPECT_EQ(A, B);
  EXPECT_EQ(elems(Table, A), Elements);
  // Calling and heap contexts are independent spaces.
  HCtxId H = Table.internHCtx(Elements);
  EXPECT_EQ(elems(Table, H), Elements);
}

TEST(Insensitive, EverythingIsStar) {
  TwoBoxes T = makeTwoBoxes();
  ContextTable Table;
  auto Policy = makeInsensitivePolicy();
  CtxId SomeCtx = Table.internCtx(std::vector<uint32_t>{9, 8});
  EXPECT_EQ(Policy->record(T.Box1, SomeCtx, Table), Table.emptyHCtx());
  EXPECT_EQ(Policy->merge(T.Box1, Table.emptyHCtx(), T.GetCall1,
                          MethodId(0), SomeCtx, Table),
            Table.emptyCtx());
  EXPECT_EQ(Policy->mergeStatic(T.GetCall1, MethodId(0), SomeCtx, Table),
            Table.emptyCtx());
}

TEST(CallSite, PushesSitesMostRecentFirst) {
  TwoBoxes T = makeTwoBoxes();
  ContextTable Table;
  auto Policy = makeCallSitePolicy(2, 1);

  CtxId C1 = Policy->merge(T.HeapA, Table.emptyHCtx(), T.SetCall1,
                           MethodId(0), Table.emptyCtx(), Table);
  EXPECT_EQ(elems(Table, C1), (std::vector<uint32_t>{T.SetCall1.index()}));

  CtxId C2 = Policy->merge(T.HeapA, Table.emptyHCtx(), T.GetCall1,
                           MethodId(0), C1, Table);
  EXPECT_EQ(elems(Table, C2), (std::vector<uint32_t>{T.GetCall1.index(),
                                                     T.SetCall1.index()}));

  // Depth 2: a third push truncates the oldest element.
  CtxId C3 = Policy->merge(T.HeapA, Table.emptyHCtx(), T.GetCall2,
                           MethodId(0), C2, Table);
  EXPECT_EQ(elems(Table, C3), (std::vector<uint32_t>{T.GetCall2.index(),
                                                     T.GetCall1.index()}));

  // RECORD: heap context = first HeapDepth elements of the calling ctx.
  HCtxId H = Policy->record(T.HeapA, C3, Table);
  EXPECT_EQ(elems(Table, H), (std::vector<uint32_t>{T.GetCall2.index()}));

  // Static merge behaves like virtual merge for call-site sensitivity.
  CtxId CS = Policy->mergeStatic(T.SetCall2, MethodId(0), C1, Table);
  EXPECT_EQ(elems(Table, CS), (std::vector<uint32_t>{T.SetCall2.index(),
                                                     T.SetCall1.index()}));
}

TEST(ObjectSens, ContextIsReceiverAllocationChain) {
  TwoBoxes T = makeTwoBoxes();
  ContextTable Table;
  auto Policy = makeObjectPolicy(T.Prog, 2, 1);

  // Receiver Box1 with empty heap context.
  CtxId C1 = Policy->merge(T.Box1, Table.emptyHCtx(), T.SetCall1, MethodId(0),
                           Table.emptyCtx(), Table);
  EXPECT_EQ(elems(Table, C1), (std::vector<uint32_t>{T.Box1.index()}));

  // An object allocated while running in C1 records hctx [Box1].
  HCtxId H = Policy->record(T.HeapA, C1, Table);
  EXPECT_EQ(elems(Table, H), (std::vector<uint32_t>{T.Box1.index()}));

  // Dispatch on that object: context = [HeapA, Box1] (depth 2).
  CtxId C2 =
      Policy->merge(T.HeapA, H, T.GetCall1, MethodId(0), C1, Table);
  EXPECT_EQ(elems(Table, C2),
            (std::vector<uint32_t>{T.HeapA.index(), T.Box1.index()}));

  // The caller's own context is irrelevant to the merge (pure obj-sens).
  CtxId C2b = Policy->merge(T.HeapA, H, T.GetCall1, MethodId(0),
                            Table.emptyCtx(), Table);
  EXPECT_EQ(C2, C2b);

  // Static calls propagate the caller context unchanged.
  EXPECT_EQ(Policy->mergeStatic(T.SetCall1, MethodId(0), C2, Table), C2);
}

TEST(TypeSens, ElementIsClassContainingAllocation) {
  TwoBoxes T = makeTwoBoxes();
  ContextTable Table;
  auto Policy = makeTypePolicy(T.Prog, 2, 1);

  // All four heaps are allocated in main, which class Object declares, so
  // the context element for any receiver is Object's type id.
  TypeId MainClass = T.Prog.classOfMethod(T.Prog.heap(T.Box1).InMethod);
  CtxId C1 = Policy->merge(T.Box1, Table.emptyHCtx(), T.SetCall1, MethodId(0),
                           Table.emptyCtx(), Table);
  EXPECT_EQ(elems(Table, C1), (std::vector<uint32_t>{MainClass.index()}));

  // Boxes and payloads share the allocating class: contexts coincide (the
  // known coarseness of type-sensitivity).
  CtxId C2 = Policy->merge(T.HeapB, Table.emptyHCtx(), T.SetCall2,
                           MethodId(0), Table.emptyCtx(), Table);
  EXPECT_EQ(C1, C2);
}

TEST(Hybrid, ElementsAreTaggedByKind) {
  TwoBoxes T = makeTwoBoxes();
  ContextTable Table;
  auto Policy = makeHybridPolicy(T.Prog, 2, 1);

  // Virtual merge: untagged allocation-site element.
  CtxId CV = Policy->merge(T.Box1, Table.emptyHCtx(), T.SetCall1, MethodId(0),
                           Table.emptyCtx(), Table);
  // Static merge from CV: tagged invocation-site element in front.
  CtxId CS = Policy->mergeStatic(T.SetCall1, MethodId(0), CV, Table);
  auto Elements = elems(Table, CS);
  ASSERT_EQ(Elements.size(), 2u);
  EXPECT_EQ(Elements[0], T.SetCall1.index() | 0x80000000u);
  EXPECT_EQ(Elements[1], T.Box1.index());

  // Same numeric index as heap vs site never collides.
  ASSERT_EQ(T.Box1.index(), 0u);
  CtxId FromSite0 =
      Policy->mergeStatic(SiteId(0), MethodId(0), Table.emptyCtx(), Table);
  CtxId FromHeap0 = Policy->merge(HeapId(0), Table.emptyHCtx(), T.SetCall1,
                                  MethodId(0), Table.emptyCtx(), Table);
  EXPECT_NE(FromSite0, FromHeap0);
}

TEST(Introspective, RoutesPerElement) {
  TwoBoxes T = makeTwoBoxes();
  ContextTable Table;
  auto Coarse = makeInsensitivePolicy();
  auto Refined = makeObjectPolicy(T.Prog, 2, 1);

  RefinementExceptions Exceptions(T.Prog);
  Exceptions.excludeHeap(T.Box1);
  MethodId SetMethod = T.Prog.lookup(T.BoxT, T.Prog.site(T.SetCall1).Sig);
  Exceptions.excludeSite(T.SetCall1, SetMethod);
  auto Intro = makeIntrospectivePolicy("x", *Coarse, *Refined, Exceptions);

  // Excluded heap: coarse RECORD.  Other heaps: refined RECORD.
  CtxId Ctx = Table.internCtx(std::vector<uint32_t>{T.Box2.index()});
  EXPECT_EQ(Intro->record(T.Box1, Ctx, Table), Table.emptyHCtx());
  EXPECT_EQ(elems(Table, Intro->record(T.HeapA, Ctx, Table)),
            (std::vector<uint32_t>{T.Box2.index()}));

  // Excluded (site, target): coarse MERGE -- but only for that target.
  EXPECT_EQ(Intro->merge(T.Box1, Table.emptyHCtx(), T.SetCall1, SetMethod,
                         Ctx, Table),
            Table.emptyCtx());
  MethodId Other = T.Prog.lookup(T.BoxT, T.Prog.site(T.GetCall1).Sig);
  EXPECT_NE(Intro->merge(T.Box1, Table.emptyHCtx(), T.SetCall1, Other, Ctx,
                         Table),
            Table.emptyCtx());
}

TEST(Introspective, ExceptionsCompareByContentNotTableLength) {
  TwoBoxes T = makeTwoBoxes();
  MethodId SetMethod = T.Prog.lookup(T.BoxT, T.Prog.site(T.SetCall1).Sig);
  RefinementExceptions Sized(T.Prog);
  RefinementExceptions Empty;
  EXPECT_TRUE(Sized == Empty) << "nothing excluded either way";
  EXPECT_FALSE(Empty.skipsHeap(T.Box1)) << "empty tables refine everything";
  EXPECT_FALSE(Empty.skipsSite(T.SetCall1, SetMethod));

  Sized.excludeHeap(T.Box1);
  EXPECT_FALSE(Sized == Empty);
  Sized.NoRefineHeaps[T.Box1.index()] = false;
  Sized.excludeSite(T.SetCall1, SetMethod);
  EXPECT_TRUE(Sized.skipsSite(T.SetCall1, SetMethod));
  EXPECT_FALSE(Sized == Empty);

  // The same exclusions over longer tables are still equal.
  RefinementExceptions Longer = Sized;
  Longer.NoRefineHeaps.resize(Sized.NoRefineHeaps.size() + 5, false);
  Longer.NoRefineSites.resize(Sized.NoRefineSites.size() + 5);
  EXPECT_TRUE(Sized == Longer);
  EXPECT_TRUE(Longer == Sized);
}

TEST(Depth, DeeperPoliciesKeepMoreElements) {
  TwoBoxes T = makeTwoBoxes();
  ContextTable Table;
  auto Deep = makeCallSitePolicy(4, 3);
  CtxId Ctx = Table.emptyCtx();
  std::vector<SiteId> Sites = {T.SetCall1, T.SetCall2, T.GetCall1,
                               T.GetCall2, T.SetCall1};
  for (SiteId Site : Sites)
    Ctx = Deep->mergeStatic(Site, MethodId(0), Ctx, Table);
  // Depth 4: the five pushes keep the most recent four, newest first.
  EXPECT_EQ(elems(Table, Ctx),
            (std::vector<uint32_t>{T.SetCall1.index(), T.GetCall2.index(),
                                   T.GetCall1.index(), T.SetCall2.index()}));
  // Heap depth 3.
  HCtxId H = Deep->record(T.HeapA, Ctx, Table);
  EXPECT_EQ(elems(Table, H),
            (std::vector<uint32_t>{T.SetCall1.index(), T.GetCall2.index(),
                                   T.GetCall1.index()}));
}
