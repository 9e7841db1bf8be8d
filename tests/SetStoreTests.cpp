//===- tests/SetStoreTests.cpp - Hash-consed points-to set unit tests -----===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// support/SetStore.h unit tests: a property test of random intern, unite,
/// retain and release sequences against a std::set reference model,
/// interning of unions, memoized unions against direct ones, filters, and
/// freeing, read from a MeterScope.
///
//===----------------------------------------------------------------------===//

#include "support/Meter.h"
#include "support/Rng.h"
#include "support/SetStore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
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

SortedIdSet contents(const CountedVector<uint32_t> &Set) {
  return SortedIdSet(Set.begin(), Set.end());
}

SortedIdSet sortedUnion(const SortedIdSet &A, const SortedIdSet &B) {
  SortedIdSet Out;
  std::set_union(A.begin(), A.end(), B.begin(), B.end(),
                 std::back_inserter(Out));
  return Out;
}

} // namespace

TEST(SetStore, RandomOpInterleavingsMatchStdSetModel) {
  // Property test: random interleavings of interns, unions and releases
  // over random key ranges, with occasional near-UINT32_MAX outliers, must
  // track a std::set model exactly.  Each slot holds one count on its set,
  // as a solver node does.  A union either adds a slot for its result or,
  // like the solver's assign, moves every slot naming the destination to
  // the result, passing their count as Owners so that the destination's
  // payload is extended in place.
  struct Slot {
    SetId Id;
    std::set<uint32_t> Model;
  };
  int Appends = 0, Merges = 0, Consumed = 0;
  for (uint64_t Seed = 0; Seed < 12; ++Seed) {
    Rng R(0x1d5e7 + Seed);
    uint32_t KeyRange = R.range(64, 4096);
    SetStore Store;
    std::vector<Slot> Slots;
    auto Check = [&](SetId Id, const std::set<uint32_t> &Model) {
      EXPECT_EQ(Id == SetStore::EmptySet, Model.empty());
      EXPECT_EQ(contents(Store.get(Id)),
                SortedIdSet(Model.begin(), Model.end()));
    };
    auto Name = [&](SetId Id, std::set<uint32_t> Model) {
      Store.retain(Id);
      Slots.push_back({Id, std::move(Model)});
    };

    for (int Op = 0; Op < 400; ++Op) {
      uint32_t Kind = Slots.size() < 2 ? 0 : R.below(8);
      if (Kind <= 1) { // Intern a random batch, sometimes with outliers.
        constexpr uint32_t Max = std::numeric_limits<uint32_t>::max();
        // A batch of outliers alone lies past most sets: unions append it.
        bool OutliersOnly = R.below(4) == 0;
        std::set<uint32_t> Model;
        for (uint32_t Index = R.below(100); Index-- > 0;)
          Model.insert(OutliersOnly ? Max - R.below(1000) : R.below(KeyRange));
        if (R.below(4) == 0)
          Model.insert(Max - R.below(1000));
        SetId Id = Store.intern(SortedIdSet(Model.begin(), Model.end()));
        Check(Id, Model);
        Name(Id, std::move(Model));
      } else if (Kind == 2) { // Release a slot.
        size_t Index = R.below(static_cast<uint32_t>(Slots.size()));
        Store.release(Slots[Index].Id);
        Slots.erase(Slots.begin() + static_cast<ptrdiff_t>(Index));
      } else { // Unite two slots' sets.
        const Slot &Dst = Slots[R.below(static_cast<uint32_t>(Slots.size()))];
        const Slot &Src = Slots[R.below(static_cast<uint32_t>(Slots.size()))];
        SetId DstId = Dst.Id;
        std::set<uint32_t> Union = Dst.Model, Added;
        for (uint32_t Value : Src.Model)
          if (Union.insert(Value).second)
            Added.insert(Value);
        bool NewPayload = !Added.empty() && Union.size() != Src.Model.size();
        bool Consume = R.below(2) == 0;
        uint32_t Owners = 0;
        if (Consume)
          for (const Slot &Other : Slots)
            Owners += Other.Id == DstId ? 1 : 0;
        if (NewPayload) {
          Consumed += Consume ? 1 : 0;
          if (*Added.begin() > *Dst.Model.rbegin())
            ++Appends;
          else
            ++Merges;
        }

        SetStore::Union U = Store.unite(DstId, Src.Id, Owners);
        Check(U.Set, Union);
        Check(U.Added, Added);
        if (Consume) {
          for (Slot &Other : Slots)
            if (Other.Id == DstId) {
              Store.retain(U.Set);
              Store.release(DstId);
              Other = {U.Set, Union};
            }
        } else {
          Name(U.Set, Union);
          Name(U.Added, std::move(Added));
        }
      }
      if (Op % 50 == 0) {
        Store.collect();
        std::vector<SetId> Ids;
        for (const Slot &S : Slots)
          Ids.push_back(S.Id);
        EXPECT_TRUE(Store.consistent(Ids));
      }
    }

    Store.collect();
    for (const Slot &S : Slots)
      Check(S.Id, S.Model);
  }
  // The sequences reached the append path, the mid-set merge and the
  // in-place extension of a consumed destination.
  EXPECT_GT(Appends, 0);
  EXPECT_GT(Merges, 0);
  EXPECT_GT(Consumed, 0);
}

TEST(SetStore, EqualContentsInternToOneIdHoweverBuilt) {
  // A set built by a union and the same set interned whole get one id,
  // whichever comes first.  The sparse half interleaves with the dense
  // half, so the union is a mid-set merge.
  SortedIdSet Dense = range(0, 48);
  SortedIdSet Sparse = range(7, 9601, 320);
  SortedIdSet Both = sortedUnion(Dense, Sparse);

  SetStore UnionFirst;
  SetId Built =
      UnionFirst.unite(UnionFirst.intern(Dense), UnionFirst.intern(Sparse)).Set;
  EXPECT_EQ(contents(UnionFirst.get(Built)), Both);
  EXPECT_EQ(UnionFirst.intern(Both), Built);

  SetStore InternFirst;
  SetId Interned = InternFirst.intern(Both);
  EXPECT_EQ(InternFirst
                .unite(InternFirst.intern(Dense), InternFirst.intern(Sparse))
                .Set,
            Interned);
  EXPECT_EQ(InternFirst.intern(Both), Interned);
  EXPECT_EQ(InternFirst.intern(SortedIdSet()), SetStore::EmptySet);
}

TEST(SetStore, MemoizedUnionEqualsTheDirectUnion) {
  Rng R(31);
  SetStore Store;
  std::vector<SetId> Named; // Retained once each.
  std::vector<SortedIdSet> Contents;
  for (int Index = 0; Index < 40; ++Index) {
    std::set<uint32_t> Values;
    for (uint32_t Count = R.below(120); Count-- > 0;)
      Values.insert(R.below(400));
    SortedIdSet Sorted(Values.begin(), Values.end());
    SetId Id = Store.intern(Sorted);
    Store.retain(Id);
    Named.push_back(Id);
    Contents.push_back(Sorted);
  }
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

TEST(SetStore, FreedPayloadsLeaveTheMeter) {
  MeterScope Meter; // Opened first, so that it closes after the store.
  SetStore Store;
  // One cycle first, so that the hash index has its buckets and the free
  // list its slot.
  SetId Warm = Store.intern(range(0, 4));
  Store.retain(Warm);
  Store.release(Warm);
  Store.collect();

  uint64_t Before = Meter.live();
  SetId Big = Store.intern(range(0, 10000));
  Store.retain(Big);
  EXPECT_GE(Meter.live(), Before + 10000 * sizeof(uint32_t));
  Store.release(Big);
  EXPECT_FALSE(Store.live(Big));
  // The payload's capacity went with it; only the id table may have grown
  // by one id.
  EXPECT_LE(Meter.live(), Before + 16);
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
