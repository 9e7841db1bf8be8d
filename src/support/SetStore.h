//===- support/SetStore.h - Hash-consed points-to sets ----------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One solve's points-to sets, hash-consed (Barbar & Sui, "Hash Consing
/// Points-to Sets", SAS 2021).  A context-sensitive solve holds many copies
/// of a few sets: on a hub-heavy program one set is the points-to set of
/// tens of thousands of nodes.  The store keeps each distinct set once, as
/// an immutable sorted, duplicate-free vector (SetUtils.h semantics) named
/// by a SetId, and nodes hold ids.
///
///   - **Interning.**  A set's hash is the sum of its elements' mixed
///     values, so it is commutative: a union's hash is the destination's
///     hash plus the added elements' hash, at O(|added|) cost.  Equal
///     contents always intern to one id, whether a union or intern()
///     built them.
///   - **Ids and counts.**  Ids are never reused.  Each set counts the
///     slots that name it (retain/release); a release to zero frees its
///     payload.  A set interned but never retained is freed by the next
///     collect().  EmptySet is permanent and not counted.
///   - **The memo.**  unite() maps (set, set) to (union, added elements)
///     and filter() maps (set, key) to the admitted subset, so a repeated
///     pair costs one probe.  An entry that names a freed set is never
///     returned, and is dropped at the next purge.  The memo holds no
///     counts, so it keeps nothing alive.
///
/// A payload is immutable and its address is stable while its set is live,
/// so a caller may iterate a retained set while it interns and frees
/// others.  Its tables, memos and payloads are Counted (Meter.h).
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_SETSTORE_H
#define SUPPORT_SETSTORE_H

#include "support/Meter.h"
#include "support/SetUtils.h"

#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <utility>

namespace intro {

/// Names one interned set of a SetStore.
using SetId = uint32_t;

/// A hash map (\p MapT) from uint64_t on the Counted allocator.
template <template <typename...> class MapT, typename ValueT>
using CountedHash = MapT<uint64_t, ValueT, std::hash<uint64_t>,
                         std::equal_to<uint64_t>,
                         Counted<std::pair<const uint64_t, ValueT>>>;

/// A store of interned, reference-counted, immutable sets.  See the file
/// comment.
class SetStore {
public:
  /// The empty set: always live, never counted.
  static constexpr SetId EmptySet = 0;

  SetStore();

  /// The payload of live set \p Id.
  const CountedVector<uint32_t> &get(SetId Id) const {
    return Entries[SlotOf[Id]].Set;
  }
  size_t size(SetId Id) const { return get(Id).size(); }
  /// \returns true if \p Id has not been freed.
  bool live(SetId Id) const { return SlotOf[Id] != NoSlot; }

  /// Interns the sorted, duplicate-free \p Values.
  SetId intern(std::span<const uint32_t> Values);

  /// Counts one more slot naming \p Id.
  void retain(SetId Id) {
    if (Id != EmptySet)
      ++Entries[SlotOf[Id]].Count;
  }
  /// Counts one slot fewer naming \p Id, and frees it at zero.
  void release(SetId Id) {
    if (Id != EmptySet && --Entries[SlotOf[Id]].Count == 0)
      free(Id);
  }
  /// Frees every set interned since the last collect() that no slot names.
  void collect();

  /// A union's result: the union, and the elements it added to the
  /// destination (EmptySet when it added none).
  struct Union {
    SetId Set;
    SetId Added;
  };
  /// \returns \p Dst UNION \p Src, and \p Src MINUS \p Dst.  \p Owners
  /// is how many counts on \p Dst the caller releases right after the call.
  /// When that is all of them, a union that needs a new payload takes
  /// \p Dst's payload instead of copying it, and \p Dst may then only be
  /// released.
  Union unite(SetId Dst, SetId Src, uint32_t Owners = 0);

  /// \returns the elements of \p Src that \p Admits, memoized under
  /// (\p Src, \p Key): every call with one key must pass the same filter.
  template <typename PredT>
  SetId filter(SetId Src, uint32_t Key, PredT Admits) {
    if (Src == EmptySet)
      return EmptySet;
    uint64_t MemoKey = pack(Src, Key);
    if (auto It = Filters.find(MemoKey); It != Filters.end()) {
      if (live(It->second)) {
        ++Hits;
        return It->second;
      }
      Filters.erase(It);
    }
    Elements.clear();
    for (uint32_t Value : get(Src))
      if (Admits(Value))
        Elements.push_back(Value);
    SetId Admitted = Elements.size() == size(Src) ? Src : intern(Elements);
    Filters.emplace(MemoKey, Admitted);
    maybePurge();
    return Admitted;
  }

  /// Memo probes answered without computing.
  uint64_t memoHits() const { return Hits; }

  /// \returns true if the store agrees with \p Slots, every slot naming a
  /// set (EmptySet slots are skipped): each other live set is named by as
  /// many slots as its count, and by at least one; its hash is its
  /// contents' hash; and no two live sets have equal contents.  O(total
  /// payload), for checks.
  bool consistent(std::span<const SetId> Slots) const;

private:
  static constexpr uint32_t NoSlot = UINT32_MAX;

  struct Entry {
    CountedVector<uint32_t> Set; ///< Sorted, duplicate-free.
    uint64_t Hash = 0;
    uint32_t Count = 0; ///< Slots naming the set.
  };

  static uint64_t pack(uint32_t High, uint32_t Low) {
    return (static_cast<uint64_t>(High) << 32) | Low;
  }
  /// The hash of the sorted \p Values.
  static uint64_t hashOf(std::span<const uint32_t> Values);

  /// Interns \p Set, whose hash is \p Hash: an equal live set's id, or a
  /// new id.  Moves from \p Set only in the second case.
  SetId intern(CountedVector<uint32_t> &Set, uint64_t Hash);
  /// Takes live set \p Id out of ByHash.
  void unhash(SetId Id);
  void free(SetId Id);
  /// Drops the memo entries that name a freed set, once the memo has
  /// doubled since the last purge.
  void maybePurge();

  /// Payloads by slot.  A deque, so that interning never moves a payload.
  std::deque<Entry, Counted<Entry>> Entries;
  CountedVector<uint32_t> FreeSlots;
  CountedVector<uint32_t> SlotOf; ///< Slot of each id ever handed out.
  CountedHash<std::unordered_multimap, SetId> ByHash;
  CountedVector<SetId> Fresh; ///< Interned since the last collect().
  /// (dst, src) -> (union, added) and (src, key) -> admitted subset.
  CountedHash<std::unordered_map, Union> Unions;
  CountedHash<std::unordered_map, SetId> Filters;
  size_t PurgeAt = 1024;
  uint64_t Hits = 0;

  // Scratch reused by unite() and filter().
  CountedVector<uint32_t> Elements;
  CountedVector<uint32_t> Built;
};

} // namespace intro

#endif // SUPPORT_SETSTORE_H
