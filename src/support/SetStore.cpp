//===- support/SetStore.cpp - Hash-consed points-to sets ------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/SetStore.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

using namespace intro;

namespace {

/// splitmix64's finalizer: spreads one element over all 64 hash bits, so
/// that sums of distinct elements rarely collide.
uint64_t mix(uint32_t Value) {
  uint64_t X = Value + 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

} // namespace

SetStore::SetStore() {
  Entries.emplace_back();
  SlotOf.push_back(0);
}

uint64_t SetStore::hashOf(std::span<const uint32_t> Values) {
  uint64_t Hash = 0;
  for (uint32_t Value : Values)
    Hash += mix(Value);
  return Hash;
}

SetId SetStore::intern(std::span<const uint32_t> Values) {
  if (Values.empty())
    return EmptySet;
  Built.assign(Values.begin(), Values.end());
  return intern(Built, hashOf(Values));
}

SetId SetStore::intern(CountedVector<uint32_t> &Set, uint64_t Hash) {
  for (auto [It, End] = ByHash.equal_range(Hash); It != End; ++It)
    if (get(It->second) == Set)
      return It->second;
  if (SlotOf.size() > UINT32_MAX)
    throw std::length_error("SetStore: set ids exhausted");
  uint32_t Slot = static_cast<uint32_t>(Entries.size());
  if (FreeSlots.empty()) {
    Entries.emplace_back();
  } else {
    Slot = FreeSlots.back();
    FreeSlots.pop_back();
  }
  Entry &New = Entries[Slot];
  New.Set = std::exchange(Set, CountedVector<uint32_t>());
  New.Hash = Hash;
  New.Count = 0;
  SetId Id = static_cast<SetId>(SlotOf.size());
  SlotOf.push_back(Slot);
  ByHash.emplace(Hash, Id);
  Fresh.push_back(Id);
  return Id;
}

void SetStore::unhash(SetId Id) {
  Entry &E = Entries[SlotOf[Id]];
  for (auto [It, End] = ByHash.equal_range(E.Hash); It != End; ++It)
    if (It->second == Id) {
      ByHash.erase(It);
      break;
    }
}

void SetStore::free(SetId Id) {
  Entry &Dead = Entries[SlotOf[Id]];
  if (!Dead.Set.empty())
    unhash(Id); // A consumed payload is unhashed already.
  Dead.Set = CountedVector<uint32_t>(); // Releases the capacity too.
  FreeSlots.push_back(SlotOf[Id]);
  SlotOf[Id] = NoSlot;
}

void SetStore::collect() {
  for (SetId Id : Fresh)
    if (live(Id) && Entries[SlotOf[Id]].Count == 0)
      free(Id);
  Fresh.clear();
}

SetStore::Union SetStore::unite(SetId Dst, SetId Src, uint32_t Owners) {
  if (Src == EmptySet || Src == Dst)
    return {Dst, EmptySet};
  if (Dst == EmptySet)
    return {Src, Src};
  uint64_t MemoKey = pack(Dst, Src);
  if (auto It = Unions.find(MemoKey); It != Unions.end()) {
    auto [Set, Added] = It->second;
    if (live(Set) && live(Added)) {
      ++Hits;
      return It->second;
    }
    Unions.erase(It);
  }

  // One binary search per element of Src: the new elements of a small
  // delta against a large hub cost O(|Src| log |Dst|), not O(|Dst|).
  const CountedVector<uint32_t> &To = get(Dst);
  const CountedVector<uint32_t> &From = get(Src);
  Elements.clear();
  for (uint32_t Value : From)
    if (!setContains(To, Value))
      Elements.push_back(Value);
  Union Result{Dst, EmptySet};
  bool Consumed = false;
  if (!Elements.empty()) {
    // Added SUBSETOF Src, so equal sizes mean equal sets; and Src SUBSETOF
    // the union, so the union is Src when the sizes say so.
    Result.Added = Elements.size() == From.size() ? Src : intern(Elements);
    Entry &Old = Entries[SlotOf[Dst]];
    if (To.size() + Elements.size() == From.size()) {
      Result.Set = Src;
    } else {
      Consumed = Old.Count == Owners;
      if (Consumed) {
        // Dst dies right after the call: extend its payload, unhashed.
        unhash(Dst);
        Built = std::exchange(Old.Set, CountedVector<uint32_t>());
      } else {
        Built = To;
      }
      if (Built.back() < Elements.front()) {
        Built.insert(Built.end(), Elements.begin(), Elements.end());
      } else {
        CountedVector<uint32_t> Merged;
        Merged.reserve(Built.size() + Elements.size());
        std::merge(Built.begin(), Built.end(), Elements.begin(),
                   Elements.end(), std::back_inserter(Merged));
        Built.swap(Merged);
      }
      Result.Set = intern(Built, Old.Hash + hashOf(Elements));
    }
  }
  // A memo entry on a consumed Dst could never be asked for again.
  if (!Consumed) {
    Unions.emplace(MemoKey, Result);
    maybePurge();
  }
  return Result;
}

void SetStore::maybePurge() {
  if (Unions.size() + Filters.size() < PurgeAt)
    return;
  std::erase_if(Unions, [this](const auto &KeyValue) {
    return !live(static_cast<SetId>(KeyValue.first >> 32)) ||
           !live(static_cast<SetId>(KeyValue.first)) ||
           !live(KeyValue.second.Set) || !live(KeyValue.second.Added);
  });
  std::erase_if(Filters, [this](const auto &KeyValue) {
    return !live(static_cast<SetId>(KeyValue.first >> 32)) ||
           !live(KeyValue.second);
  });
  PurgeAt = std::max<size_t>(1024, 2 * (Unions.size() + Filters.size()));
}

bool SetStore::consistent(std::span<const SetId> Slots) const {
  std::vector<uint32_t> Named(SlotOf.size(), 0);
  for (SetId Id : Slots) {
    if (Id == EmptySet)
      continue;
    if (Id >= SlotOf.size() || !live(Id))
      return false;
    ++Named[Id];
  }
  std::vector<std::pair<uint64_t, SetId>> ByContent;
  for (SetId Id = 1; Id < SlotOf.size(); ++Id) {
    if (!live(Id))
      continue;
    const Entry &E = Entries[SlotOf[Id]];
    if (E.Count == 0 || E.Count != Named[Id] ||
        E.Hash != hashOf(E.Set))
      return false;
    ByContent.push_back({E.Hash, Id});
  }
  std::sort(ByContent.begin(), ByContent.end());
  for (size_t I = 0; I < ByContent.size(); ++I)
    for (size_t J = I + 1;
         J < ByContent.size() && ByContent[J].first == ByContent[I].first; ++J)
      if (get(ByContent[I].second) == get(ByContent[J].second))
        return false;
  return true;
}
