//===- tests/IdSetTests.cpp - Adaptive points-to set unit tests -----------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// support/IdSet.h unit tests: the vector <-> bitmap promotion boundary,
/// every mixed-representation union pairing, empty/duplicate/max-handle
/// edges, the sparse-outlier demotion guard, and a property test of random
/// operation interleavings against a std::set reference model.  Then the
/// support/SetStore.h tests: interning across representations, memoized
/// unions against direct ones, and freeing.
///
//===----------------------------------------------------------------------===//

#include "support/IdSet.h"
#include "support/Rng.h"
#include "support/SetStore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

using namespace intro;

namespace {

/// \returns an IdSet holding [0, Count) with \p Threshold, densely packed
/// (consecutive handles, so it promotes as soon as the threshold allows).
IdSet denseSet(uint32_t Count, uint32_t Threshold) {
  IdSet Set(Threshold);
  for (uint32_t Value = 0; Value < Count; ++Value)
    Set.insert(Value);
  return Set;
}

std::vector<uint32_t> contents(const IdSet &Set) { return Set.toVector(); }

} // namespace

TEST(IdSet, StaysSortedVectorBelowThreshold) {
  IdSet Set(/*PromoteThreshold=*/8);
  for (uint32_t Value = 0; Value < 7; ++Value) {
    EXPECT_TRUE(Set.insert(Value * 3));
    EXPECT_FALSE(Set.isDense());
  }
  EXPECT_EQ(Set.size(), 7u);
  EXPECT_TRUE(Set.contains(6));
  EXPECT_FALSE(Set.contains(7));
}

TEST(IdSet, PromotesAtThresholdWhenDenseEnough) {
  // Consecutive handles: at the 8th insert the bitmap needs 1 word for 8
  // elements, easily within the 1-element-per-word density requirement.
  IdSet Set(/*PromoteThreshold=*/8);
  for (uint32_t Value = 0; Value < 8; ++Value)
    Set.insert(Value);
  EXPECT_TRUE(Set.isDense());
  EXPECT_EQ(Set.size(), 8u);
  for (uint32_t Value = 0; Value < 8; ++Value)
    EXPECT_TRUE(Set.contains(Value));
  EXPECT_FALSE(Set.contains(8));
}

TEST(IdSet, StaysVectorPastThresholdWhenSparse) {
  // Handles 64 words apart: the bitmap would need one word per element
  // (4096 bytes for 16 elements), failing the density condition.
  IdSet Set(/*PromoteThreshold=*/8);
  for (uint32_t Value = 0; Value < 16; ++Value)
    Set.insert(Value * 4096);
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Set.size(), 16u);
  // approxBytes reflects vector storage.
  EXPECT_EQ(Set.approxBytes(), 16u * sizeof(uint32_t));
}

TEST(IdSet, PromotionPreservesContentsAndOrder) {
  IdSet Set(/*PromoteThreshold=*/4);
  std::vector<uint32_t> Expected;
  // Insert descending so promotion happens mid-sequence.
  for (uint32_t Value = 20; Value-- > 0;) {
    Set.insert(Value);
    Expected.push_back(Value);
  }
  std::sort(Expected.begin(), Expected.end());
  EXPECT_TRUE(Set.isDense());
  EXPECT_EQ(contents(Set), Expected);
  // Iterator and forEach agree and ascend.
  std::vector<uint32_t> Iterated(Set.begin(), Set.end());
  EXPECT_EQ(Iterated, Expected);
}

TEST(IdSet, DuplicateInsertsAreRejectedInBothRepresentations) {
  IdSet Small(/*PromoteThreshold=*/100);
  EXPECT_TRUE(Small.insert(5));
  EXPECT_FALSE(Small.insert(5));
  EXPECT_EQ(Small.size(), 1u);

  IdSet Dense = denseSet(64, /*Threshold=*/4);
  ASSERT_TRUE(Dense.isDense());
  EXPECT_FALSE(Dense.insert(63));
  EXPECT_TRUE(Dense.insert(64));
  EXPECT_EQ(Dense.size(), 65u);
}

TEST(IdSet, MaxHandleLandsInVectorMode) {
  IdSet Set(/*PromoteThreshold=*/4);
  constexpr uint32_t Max = std::numeric_limits<uint32_t>::max();
  EXPECT_TRUE(Set.insert(Max));
  EXPECT_TRUE(Set.contains(Max));
  // A lone max handle must never promote: the bitmap would need 2^26 words.
  for (uint32_t Value = 0; Value < 32; ++Value)
    Set.insert(Value);
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Set.size(), 33u);
  EXPECT_TRUE(Set.contains(Max));
}

TEST(IdSet, SparseOutlierDemotesDenseSet) {
  // A compact dense set hit with a far-away handle must fall back to the
  // vector representation rather than allocate a ~512 MB bitmap.
  IdSet Set = denseSet(64, /*Threshold=*/4);
  ASSERT_TRUE(Set.isDense());
  constexpr uint32_t Outlier = std::numeric_limits<uint32_t>::max() - 1;
  EXPECT_TRUE(Set.insert(Outlier));
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Set.size(), 65u);
  EXPECT_TRUE(Set.contains(Outlier));
  EXPECT_TRUE(Set.contains(0));
  EXPECT_TRUE(Set.contains(63));
  // Storage stayed proportional to the element count, not the key range.
  EXPECT_EQ(Set.approxBytes(), 65u * sizeof(uint32_t));
}

TEST(IdSet, ClearResetsToEmptySmallSet) {
  IdSet Set = denseSet(64, /*Threshold=*/4);
  ASSERT_TRUE(Set.isDense());
  Set.clear();
  EXPECT_TRUE(Set.empty());
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Set.approxBytes(), 0u);
  EXPECT_TRUE(Set.insert(3));
  EXPECT_EQ(Set.size(), 1u);
}

// --- insertNewSorted: the batched insert the set store builds unions with ---

TEST(IdSet, InsertNewSortedPromotesSmallSetPastThreshold) {
  IdSet Set(/*PromoteThreshold=*/8);
  Set.insert(0);
  SortedIdSet Rest;
  for (uint32_t Value = 1; Value < 64; ++Value)
    Rest.push_back(Value);
  Set.insertNewSorted(Rest);
  EXPECT_TRUE(Set.isDense());
  EXPECT_EQ(Set.size(), 64u);
}

TEST(IdSet, InsertNewSortedSparseRangeDemotesDenseSet) {
  // Merging far-flung handles into a compact dense set trips the outlier
  // guard mid-insert; the operation must complete on the vector path with
  // nothing lost.
  IdSet Set = denseSet(64, /*Threshold=*/4);
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
  IdSet Small(/*PromoteThreshold=*/100);
  Small.insert(5);
  Small.insertNewSorted({1, 3, 9});
  EXPECT_EQ(contents(Small), (std::vector<uint32_t>{1, 3, 5, 9}));
  // Append-after-back fast path.
  Small.insertNewSorted({10, 11});
  EXPECT_EQ(Small.size(), 6u);

  IdSet Dense = denseSet(64, /*Threshold=*/4);
  Dense.insertNewSorted({70, 80});
  EXPECT_TRUE(Dense.contains(70));
  EXPECT_TRUE(Dense.contains(80));
  EXPECT_EQ(Dense.size(), 66u);

  Small.insertNewSorted({});
  EXPECT_EQ(Small.size(), 6u);
}

TEST(IdSet, EqualityIsRepresentationIndependent) {
  // Same contents, one promoted and one held as a vector.
  IdSet Vector(/*PromoteThreshold=*/1000);
  IdSet Bitmap(/*PromoteThreshold=*/4);
  for (uint32_t Value = 0; Value < 100; ++Value) {
    Vector.insert(Value);
    Bitmap.insert(Value);
  }
  ASSERT_FALSE(Vector.isDense());
  ASSERT_TRUE(Bitmap.isDense());
  EXPECT_EQ(Vector, Bitmap);
  Bitmap.insert(100);
  EXPECT_NE(Vector, Bitmap);
}

TEST(IdSet, DenseApproxBytesStaysWithinVectorFactor) {
  // The promotion density condition bounds bitmap bytes by 2x the vector
  // bytes at promotion time.
  IdSet Set(/*PromoteThreshold=*/48);
  for (uint32_t Value = 0; Value < 48; ++Value)
    Set.insert(Value * 2); // Density: 32 elements per 64-bit word span.
  ASSERT_TRUE(Set.isDense());
  EXPECT_LE(Set.approxBytes(), 2 * 48 * sizeof(uint32_t));
}

TEST(IdSet, DefaultThresholdBoundary47_48_49) {
  // The default-threshold promotion boundary, pinned element by element:
  // 47 consecutive handles stay a sorted vector, the 48th insert promotes
  // (density 48 elements in one word span is ample), the 49th extends the
  // bitmap.  Contents and order must be identical across the flip.
  static_assert(IdSet::DefaultPromoteThreshold == 48,
                "boundary test tracks the default threshold");
  IdSet Set; // Default threshold.
  std::vector<uint32_t> Expected;
  for (uint32_t Value = 0; Value < 47; ++Value) {
    EXPECT_TRUE(Set.insert(Value));
    Expected.push_back(Value);
  }
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Set.size(), 47u);
  EXPECT_EQ(contents(Set), Expected);

  EXPECT_TRUE(Set.insert(47));
  Expected.push_back(47);
  EXPECT_TRUE(Set.isDense());
  EXPECT_EQ(Set.size(), 48u);
  EXPECT_EQ(contents(Set), Expected);

  EXPECT_TRUE(Set.insert(48));
  Expected.push_back(48);
  EXPECT_TRUE(Set.isDense());
  EXPECT_EQ(Set.size(), 49u);
  EXPECT_EQ(contents(Set), Expected);

  // Duplicates at and around the boundary never double-count.
  EXPECT_FALSE(Set.insert(47));
  EXPECT_FALSE(Set.insert(48));
  EXPECT_EQ(Set.size(), 49u);
  std::vector<uint32_t> Iterated(Set.begin(), Set.end());
  EXPECT_EQ(Iterated, Expected);
}

TEST(IdSet, InsertNewSortedAcrossDefaultThresholdBoundary) {
  // Batched inserts that land the set exactly on, then one past, the
  // default promotion boundary: the representation flips mid-sequence.
  IdSet Set;
  SortedIdSet First47;
  for (uint32_t Value = 0; Value < 47; ++Value)
    First47.push_back(Value);
  Set.insertNewSorted(First47);
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
  // Property test: arbitrary interleavings of insert / insertNewSorted /
  // clear across random thresholds must track a std::set model exactly.
  for (uint64_t Seed = 0; Seed < 12; ++Seed) {
    Rng R(0x1d5e7 + Seed);
    uint32_t Threshold = R.range(1, 64);
    uint32_t KeyRange = R.range(64, 4096);
    IdSet Set(Threshold);
    std::set<uint32_t> Model;

    for (int Op = 0; Op < 400; ++Op) {
      switch (R.below(8)) {
      case 0: { // Occasional sparse outlier insert.
        uint32_t Value = std::numeric_limits<uint32_t>::max() - R.below(1000);
        EXPECT_EQ(Set.insert(Value), Model.insert(Value).second);
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
      default: { // Plain insert.
        uint32_t Value = R.below(KeyRange);
        EXPECT_EQ(Set.insert(Value), Model.insert(Value).second);
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

SortedIdSet range(uint32_t Begin, uint32_t End, uint32_t Step = 1) {
  SortedIdSet Values;
  for (uint32_t Value = Begin; Value < End; Value += Step)
    Values.push_back(Value);
  return Values;
}

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
        EXPECT_EQ(Store.get(U.Set).toVector(),
                  sortedUnion(Contents[A], Contents[B]));
        EXPECT_EQ(Store.get(U.Added).toVector(), Added);
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
  SetStore Store;
  uint64_t EmptyBytes = Store.liveBytes();
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
  uint64_t Before = Store.liveBytes();
  Store.release(First.Set);
  EXPECT_FALSE(Store.live(First.Set));
  EXPECT_LT(Store.liveBytes(), Before);
  EXPECT_TRUE(Store.consistent(std::vector<SetId>{Low, High}));

  // The memo does not return the freed union; equal contents get a new id.
  SetStore::Union Again = Store.unite(Low, High);
  EXPECT_NE(Again.Set, First.Set);
  EXPECT_TRUE(Store.live(Again.Set));
  EXPECT_EQ(Store.get(Again.Set).toVector(), range(0, 104));
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
  EXPECT_LT(Store.liveBytes(), EmptyBytes + 512);
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
  EXPECT_EQ(Store.get(Evens).toVector(), range(0, 60, 2));
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
