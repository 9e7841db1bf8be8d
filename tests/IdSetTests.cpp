//===- tests/IdSetTests.cpp - Adaptive points-to set unit tests -----------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// support/IdSet.h unit tests: the vector <-> bitmap promotion boundary,
/// both representations under insertNewSorted, empty/max-handle edges, the
/// sparse-outlier demotion guard, storage bounds read from a MeterScope,
/// and a property test of random operation interleavings against a
/// std::set reference model.  Then the support/SetStore.h tests: interning
/// across representations, memoized unions against direct ones, and
/// freeing.
///
//===----------------------------------------------------------------------===//

#include "support/IdSet.h"
#include "support/Meter.h"
#include "support/Rng.h"
#include "support/SetStore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

using namespace intro;

namespace {

SortedIdSet range(uint32_t Begin, uint32_t End, uint32_t Step = 1) {
  SortedIdSet Values;
  for (uint32_t Value = Begin; Value < End; Value += Step)
    Values.push_back(Value);
  return Values;
}

/// \returns an IdSet built from the sorted \p Values in one batch.
IdSet setOf(const SortedIdSet &Values) {
  IdSet Set;
  Set.insertNewSorted(Values);
  return Set;
}

/// Adds the absent \p Value on its own.
void add(IdSet &Set, uint32_t Value) {
  Set.insertNewSorted(SortedIdSet{Value});
}

std::vector<uint32_t> contents(const IdSet &Set) {
  return std::vector<uint32_t>(Set.begin(), Set.end());
}

} // namespace

TEST(IdSet, StaysSortedVectorBelowThreshold) {
  IdSet Set;
  for (uint32_t Value = 0; Value < 47; ++Value) {
    add(Set, Value * 3);
    EXPECT_FALSE(Set.isDense());
  }
  EXPECT_EQ(Set.size(), 47u);
  EXPECT_TRUE(Set.contains(6));
  EXPECT_FALSE(Set.contains(7));
}

TEST(IdSet, PromotesAtThresholdWhenDenseEnough) {
  // Consecutive handles: 48 elements need one bitmap word, easily within
  // the 1-element-per-word density requirement.
  IdSet Set = setOf(range(0, 48));
  EXPECT_TRUE(Set.isDense());
  EXPECT_EQ(Set.size(), 48u);
  for (uint32_t Value = 0; Value < 48; ++Value)
    EXPECT_TRUE(Set.contains(Value));
  EXPECT_FALSE(Set.contains(48));
}

TEST(IdSet, StaysVectorPastThresholdWhenSparse) {
  // Handles 64 words apart: the bitmap would need 64 words per element,
  // failing the density condition.
  MeterScope Meter;
  IdSet Set = setOf(range(0, 64 * 4096, 4096));
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Set.size(), 64u);
  // The meter counts the vector storage.
  EXPECT_EQ(Meter.live(), 64u * sizeof(uint32_t));
}

TEST(IdSet, PromotionPreservesContentsAndOrder) {
  IdSet Set;
  // Add descending, so that each add merges into the middle of the vector
  // and promotion happens mid-sequence.
  for (uint32_t Value = 60; Value-- > 0;)
    add(Set, Value);
  EXPECT_TRUE(Set.isDense());
  EXPECT_EQ(contents(Set), range(0, 60));
  // Iterator and forEach agree and ascend.
  std::vector<uint32_t> Iterated(Set.begin(), Set.end());
  EXPECT_EQ(Iterated, range(0, 60));
}

TEST(IdSet, MaxHandleLandsInVectorMode) {
  constexpr uint32_t Max = std::numeric_limits<uint32_t>::max();
  IdSet Set = setOf(SortedIdSet{Max});
  EXPECT_TRUE(Set.contains(Max));
  // A lone max handle must never promote: the bitmap would need 2^26 words.
  Set.insertNewSorted(range(0, 64));
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Set.size(), 65u);
  EXPECT_TRUE(Set.contains(Max));
}

TEST(IdSet, SparseOutlierDemotesDenseSet) {
  // A compact dense set hit with a far-away handle must fall back to the
  // vector representation rather than allocate a ~512 MB bitmap.
  MeterScope Meter;
  IdSet Set = setOf(range(0, 64));
  ASSERT_TRUE(Set.isDense());
  constexpr uint32_t Outlier = std::numeric_limits<uint32_t>::max() - 1;
  add(Set, Outlier);
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Set.size(), 65u);
  EXPECT_TRUE(Set.contains(Outlier));
  EXPECT_TRUE(Set.contains(0));
  EXPECT_TRUE(Set.contains(63));
  // Storage stayed proportional to the element count, not the key range.
  EXPECT_LE(Meter.live(), 2 * 65u * sizeof(uint32_t));
}

TEST(IdSet, ClearResetsToEmptySmallSet) {
  MeterScope Meter;
  IdSet Set = setOf(range(0, 64));
  ASSERT_TRUE(Set.isDense());
  Set.clear();
  EXPECT_TRUE(Set.empty());
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Meter.live(), 0u);
  add(Set, 3);
  EXPECT_EQ(Set.size(), 1u);
}

TEST(IdSet, InsertNewSortedPromotesSmallSetPastThreshold) {
  IdSet Set = setOf(SortedIdSet{0});
  Set.insertNewSorted(range(1, 64));
  EXPECT_TRUE(Set.isDense());
  EXPECT_EQ(Set.size(), 64u);
}

TEST(IdSet, InsertNewSortedSparseRangeDemotesDenseSet) {
  // Merging far-flung handles into a compact dense set trips the outlier
  // guard mid-insert; the operation must complete on the vector path with
  // nothing lost.
  IdSet Set = setOf(range(0, 64));
  ASSERT_TRUE(Set.isDense());
  SortedIdSet Sparse;
  for (uint32_t Value = 0; Value < 8; ++Value)
    Sparse.push_back(1u << (20 + Value));
  Set.insertNewSorted(Sparse);
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Set.size(), 72u);
  for (uint32_t Value : Sparse)
    EXPECT_TRUE(Set.contains(Value));
}

TEST(IdSet, InsertNewSortedInBothRepresentations) {
  IdSet Small = setOf(SortedIdSet{5});
  Small.insertNewSorted(SortedIdSet{1, 3, 9});
  EXPECT_EQ(contents(Small), (std::vector<uint32_t>{1, 3, 5, 9}));
  // Append-after-back fast path.
  Small.insertNewSorted(SortedIdSet{10, 11});
  EXPECT_EQ(Small.size(), 6u);

  IdSet Dense = setOf(range(0, 64));
  Dense.insertNewSorted(SortedIdSet{70, 80});
  EXPECT_TRUE(Dense.contains(70));
  EXPECT_TRUE(Dense.contains(80));
  EXPECT_EQ(Dense.size(), 66u);

  Small.insertNewSorted(SortedIdSet());
  EXPECT_EQ(Small.size(), 6u);
}

TEST(IdSet, EqualityIsRepresentationIndependent) {
  // {0..47} is a one-word bitmap.  Adding 30 handles 320 apart needs 151
  // words for 78 elements: a bitmap grown by them stays a bitmap (at most 2
  // words per element), but a vector of those 78 never promotes (it needs
  // at most 1).
  IdSet Bitmap = setOf(range(0, 48));
  Bitmap.insertNewSorted(range(320, 9601, 320));
  SortedIdSet Both = contents(Bitmap);
  IdSet Vector = setOf(Both);
  ASSERT_TRUE(Bitmap.isDense());
  ASSERT_FALSE(Vector.isDense());
  EXPECT_EQ(Vector, Bitmap);
  add(Bitmap, 100);
  EXPECT_NE(Vector, Bitmap);
}

TEST(IdSet, DenseStorageStaysWithinVectorFactor) {
  // The promotion density condition bounds bitmap bytes by 2x the vector
  // bytes at promotion time.
  MeterScope Meter;
  IdSet Set = setOf(range(0, 96, 2)); // 32 elements per 64-bit word span.
  ASSERT_TRUE(Set.isDense());
  EXPECT_LE(Meter.live(), 2 * 48 * sizeof(uint32_t));
}

TEST(IdSet, DefaultThresholdBoundary47_48_49) {
  // The promotion boundary, pinned element by element: 47 consecutive
  // handles stay a sorted vector, the 48th add promotes (density 48
  // elements in one word span is ample), the 49th extends the bitmap.
  // Contents and order must be identical across the flip.
  static_assert(IdSet::DefaultPromoteThreshold == 48,
                "boundary test tracks the threshold");
  IdSet Set;
  for (uint32_t Value = 0; Value < 47; ++Value)
    add(Set, Value);
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Set.size(), 47u);
  EXPECT_EQ(contents(Set), range(0, 47));

  add(Set, 47);
  EXPECT_TRUE(Set.isDense());
  EXPECT_EQ(Set.size(), 48u);
  EXPECT_EQ(contents(Set), range(0, 48));

  add(Set, 48);
  EXPECT_TRUE(Set.isDense());
  EXPECT_EQ(Set.size(), 49u);
  EXPECT_EQ(contents(Set), range(0, 49));
  std::vector<uint32_t> Iterated(Set.begin(), Set.end());
  EXPECT_EQ(Iterated, range(0, 49));
}

TEST(IdSet, InsertNewSortedAcrossDefaultThresholdBoundary) {
  // Batched inserts that land the set exactly on, then one past, the
  // promotion boundary: the representation flips mid-sequence.
  IdSet Set = setOf(range(0, 47));
  EXPECT_FALSE(Set.isDense());
  Set.insertNewSorted(SortedIdSet{47});
  EXPECT_TRUE(Set.isDense());
  EXPECT_EQ(Set.size(), 48u);
  Set.insertNewSorted(SortedIdSet{48});
  EXPECT_EQ(Set.size(), 49u);
  for (uint32_t Value = 0; Value < 49; ++Value)
    EXPECT_TRUE(Set.contains(Value));
  EXPECT_FALSE(Set.contains(49));
}

TEST(IdSet, RandomOpInterleavingsMatchStdSetModel) {
  // Property test: arbitrary interleavings of single and batched inserts of
  // new elements, probes and clears across random key ranges must track a
  // std::set model exactly.
  for (uint64_t Seed = 0; Seed < 12; ++Seed) {
    Rng R(0x1d5e7 + Seed);
    uint32_t KeyRange = R.range(64, 4096);
    IdSet Set;
    std::set<uint32_t> Model;

    for (int Op = 0; Op < 400; ++Op) {
      switch (R.below(8)) {
      case 0: { // Occasional sparse outlier insert.
        uint32_t Value = std::numeric_limits<uint32_t>::max() - R.below(1000);
        EXPECT_EQ(Set.contains(Value), Model.count(Value) == 1);
        if (Model.insert(Value).second)
          add(Set, Value);
        break;
      }
      case 1:
      case 2: { // Batched insert of a random batch's new elements.
        SortedIdSet Batch;
        for (uint32_t Index = R.below(100); Index-- > 0;)
          if (uint32_t Value = R.below(KeyRange); Model.insert(Value).second)
            Batch.push_back(Value);
        std::sort(Batch.begin(), Batch.end());
        Set.insertNewSorted(Batch);
        break;
      }
      case 3: { // Membership probe.
        uint32_t Value = R.below(KeyRange);
        EXPECT_EQ(Set.contains(Value), Model.count(Value) == 1);
        break;
      }
      case 4: {
        if (R.below(20) == 0) { // Rare full reset.
          Set.clear();
          Model.clear();
        }
        break;
      }
      default: { // Single insert.
        uint32_t Value = R.below(KeyRange);
        EXPECT_EQ(Set.contains(Value), Model.count(Value) == 1);
        if (Model.insert(Value).second)
          add(Set, Value);
        break;
      }
      }
    }

    EXPECT_EQ(Set.size(), Model.size());
    EXPECT_EQ(contents(Set),
              std::vector<uint32_t>(Model.begin(), Model.end()));
    std::vector<uint32_t> Iterated(Set.begin(), Set.end());
    EXPECT_EQ(Iterated, std::vector<uint32_t>(Model.begin(), Model.end()));
  }
}

//===----------------------------------------------------------------------===//
// SetStore
//===----------------------------------------------------------------------===//

namespace {

SortedIdSet sortedUnion(const SortedIdSet &A, const SortedIdSet &B) {
  SortedIdSet Out;
  std::set_union(A.begin(), A.end(), B.begin(), B.end(),
                 std::back_inserter(Out));
  return Out;
}

} // namespace

TEST(SetStore, EqualContentsInternToOneIdWhateverTheRepresentation) {
  // {0..47} is a one-word bitmap.  Adding 30 handles 320 apart needs 151
  // words for 78 elements: a bitmap grown by the union stays a bitmap (at
  // most 2 words per element), but a vector of those 78 never promotes (it
  // needs at most 1).
  SortedIdSet Dense = range(0, 48);
  SortedIdSet Sparse = range(320, 9601, 320);
  SortedIdSet Both = sortedUnion(Dense, Sparse);

  SetStore UnionFirst;
  SetId Built =
      UnionFirst.unite(UnionFirst.intern(Dense), UnionFirst.intern(Sparse)).Set;
  EXPECT_TRUE(UnionFirst.get(Built).isDense());
  EXPECT_EQ(UnionFirst.intern(Both), Built);

  SetStore VectorFirst;
  SetId Interned = VectorFirst.intern(Both);
  EXPECT_FALSE(VectorFirst.get(Interned).isDense());
  EXPECT_EQ(VectorFirst
                .unite(VectorFirst.intern(Dense), VectorFirst.intern(Sparse))
                .Set,
            Interned);
  EXPECT_EQ(VectorFirst.intern(Both), Interned);
  EXPECT_EQ(VectorFirst.intern(SortedIdSet()), SetStore::EmptySet);
}

TEST(SetStore, MemoizedUnionEqualsTheDirectUnion) {
  Rng R(31);
  SetStore Store;
  std::vector<SetId> Named; // Retained once each.
  std::vector<SortedIdSet> Contents;
  int Dense = 0;
  for (int Index = 0; Index < 40; ++Index) {
    std::set<uint32_t> Values;
    for (uint32_t Count = R.below(120); Count-- > 0;)
      Values.insert(R.below(400));
    SortedIdSet Sorted(Values.begin(), Values.end());
    SetId Id = Store.intern(Sorted);
    Store.retain(Id);
    Named.push_back(Id);
    Contents.push_back(Sorted);
    Dense += Store.get(Id).isDense() ? 1 : 0;
  }
  // Both representations meet in every pairing.
  ASSERT_GT(Dense, 0);
  ASSERT_LT(Dense, 40);
  for (int Round = 0; Round < 2; ++Round) {
    uint64_t HitsBefore = Store.memoHits();
    for (size_t A = 0; A < Named.size(); ++A)
      for (size_t B = 0; B < Named.size(); B += 7) {
        SetStore::Union U = Store.unite(Named[A], Named[B]);
        SortedIdSet Added;
        std::set_difference(Contents[B].begin(), Contents[B].end(),
                            Contents[A].begin(), Contents[A].end(),
                            std::back_inserter(Added));
        EXPECT_EQ(contents(Store.get(U.Set)),
                  sortedUnion(Contents[A], Contents[B]));
        EXPECT_EQ(contents(Store.get(U.Added)), Added);
        EXPECT_EQ(U.Added == SetStore::EmptySet, Added.empty());
        EXPECT_EQ(U.Set == Named[A], Added.empty());
        // Keep the results alive, so that the second round hits the memo.
        Store.retain(U.Set);
        Store.retain(U.Added);
      }
    if (Round == 1) {
      EXPECT_GT(Store.memoHits(), HitsBefore);
    }
  }
  Store.collect();
}

TEST(SetStore, ReleasedSetsAreFreedAndNeverReturnedAgain) {
  MeterScope Meter; // Opened first, so that it closes after the store.
  SetStore Store;
  uint64_t EmptyBytes = Meter.live();
  SetId Low = Store.intern(range(0, 100));
  SetId High = Store.intern(range(100, 104));
  Store.retain(Low);
  Store.retain(High);
  SetStore::Union First = Store.unite(Low, High);
  EXPECT_EQ(First.Added, High);
  Store.retain(First.Set);
  std::vector<SetId> Slots = {Low, High, First.Set};
  EXPECT_TRUE(Store.consistent(Slots));
  EXPECT_FALSE(Store.consistent(std::vector<SetId>{Low, High}));

  // An interned set nobody retains is freed by collect().
  SetId Unnamed = Store.intern(range(500, 510));
  EXPECT_FALSE(Store.consistent(Slots));
  Store.collect();
  EXPECT_FALSE(Store.live(Unnamed));
  EXPECT_TRUE(Store.consistent(Slots));

  // Release to zero frees the payload at once.
  uint64_t Before = Meter.live();
  Store.release(First.Set);
  EXPECT_FALSE(Store.live(First.Set));
  EXPECT_LT(Meter.live(), Before);
  EXPECT_TRUE(Store.consistent(std::vector<SetId>{Low, High}));

  // The memo does not return the freed union; equal contents get a new id.
  SetStore::Union Again = Store.unite(Low, High);
  EXPECT_NE(Again.Set, First.Set);
  EXPECT_TRUE(Store.live(Again.Set));
  EXPECT_EQ(contents(Store.get(Again.Set)), range(0, 104));
  EXPECT_EQ(Store.intern(range(0, 104)), Again.Set);
  Store.collect();
  EXPECT_FALSE(Store.live(Again.Set));
  SetId Reinterned = Store.intern(range(0, 104));
  EXPECT_NE(Reinterned, First.Set);
  EXPECT_NE(Reinterned, Again.Set);
  Store.collect();

  Store.release(Low);
  Store.release(High);
  EXPECT_TRUE(Store.consistent(std::vector<SetId>()));
  // Only the ids ever handed out and the memo outlive the sets.
  EXPECT_LT(Meter.live(), EmptyBytes + 512);
}

TEST(SetStore, FilterIsMemoizedAndSharesAWhollyAdmittedSet) {
  SetStore Store;
  SetId All = Store.intern(range(0, 60));
  Store.retain(All);
  int Calls = 0;
  auto Even = [&Calls](uint32_t Value) {
    ++Calls;
    return Value % 2 == 0;
  };
  SetId Evens = Store.filter(All, 1, Even);
  Store.retain(Evens);
  EXPECT_EQ(contents(Store.get(Evens)), range(0, 60, 2));
  int CallsAfterFirst = Calls;
  EXPECT_EQ(Store.filter(All, 1, Even), Evens);
  EXPECT_EQ(Calls, CallsAfterFirst);
  EXPECT_EQ(Store.filter(All, 2, [](uint32_t) { return true; }), All);
  EXPECT_EQ(Store.filter(All, 3, [](uint32_t) { return false; }),
            SetStore::EmptySet);
  EXPECT_EQ(Store.filter(Evens, 1, Even), Evens);
  Store.collect();
  EXPECT_TRUE(Store.consistent(std::vector<SetId>{All, Evens}));
}
