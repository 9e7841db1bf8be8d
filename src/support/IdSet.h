//===- support/IdSet.h - Adaptive dense-handle set --------------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver's points-to sets are sets of dense 32-bit handles with a
/// bimodal size distribution: most sets stay tiny, a few hub sets grow to
/// thousands of elements and absorb the bulk of the propagation work.  IdSet
/// adapts its representation to that shape:
///
///   - below the promotion threshold it is a sorted, duplicate-free vector
///     (SetUtils.h semantics: cache-friendly, 4 bytes per element);
///   - at the threshold — and only when the bitmap would be at least as
///     element-dense as one bit per 64-bit word — it switches to a packed
///     bitmap, making membership O(1).
///
/// The density condition bounds bitmap storage by 2x the vector bytes, so
/// promotion never loses the compactness of the sorted vector by more than a
/// constant factor; a sparse outlier handle (e.g. UINT32_MAX landing in a
/// small dense set) demotes back to the vector instead of allocating a
/// gigantic bitmap.
///
/// A set is built only by the batched insert the set store (SetStore.h)
/// builds unions with: insertNewSorted merges sorted elements known to be
/// absent.  Iteration is always in ascending handle order in both
/// representations, so results derived from an IdSet keep the canonical
/// sorted encoding.  Both representations' storage is Counted (Meter.h).
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_IDSET_H
#define SUPPORT_IDSET_H

#include "support/Meter.h"
#include "support/SetUtils.h"

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>

namespace intro {

/// An adaptive set of dense 32-bit handles: sorted vector when small,
/// packed bitmap when large and dense.  See the file comment.
class IdSet {
public:
  /// Element count at which promotion to the bitmap representation is
  /// first considered: below ~48 elements the sorted vector's linear memory
  /// wins; above it, mid-vector insertion shifts start to dominate and the
  /// word-wise union is strictly cheaper (DESIGN.md section 11).
  static constexpr uint32_t DefaultPromoteThreshold = 48;

  /// \returns true if the set contains \p Value.
  bool contains(uint32_t Value) const {
    if (!Dense)
      return setContains(Small, Value);
    size_t Word = Value >> 6;
    return Word < Words.size() &&
           (Words[Word] >> (Value & 63)) & uint64_t(1);
  }

  /// Merges the sorted duplicate-free \p Values, all of which must be
  /// absent from the set (the caller already knows they are new — e.g. the
  /// set store adding a union's new elements to a copy of its destination).
  void insertNewSorted(std::span<const uint32_t> Values);

  size_t size() const { return Dense ? Count : Small.size(); }
  bool empty() const { return size() == 0; }

  /// Resets to an empty small-representation set, releasing storage.
  void clear() { *this = IdSet(); }

  /// \returns true if the set currently uses the bitmap representation.
  bool isDense() const { return Dense; }

  /// Calls \p Fn(uint32_t) for every element in ascending order.
  template <typename FnT> void forEach(FnT &&Fn) const {
    if (!Dense) {
      for (uint32_t Value : Small)
        Fn(Value);
      return;
    }
    for (size_t Word = 0; Word < Words.size(); ++Word) {
      uint64_t Bits = Words[Word];
      while (Bits != 0) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Bits));
        Fn(static_cast<uint32_t>((Word << 6) + Bit));
        Bits &= Bits - 1;
      }
    }
  }

  /// Ascending-order forward iteration over both representations.
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const uint32_t *;
    using reference = uint32_t;

    uint32_t operator*() const {
      return Parent->Dense ? static_cast<uint32_t>(Pos) : Parent->Small[Pos];
    }
    const_iterator &operator++() {
      if (Parent->Dense)
        Pos = Parent->findBitFrom(Pos + 1);
      else
        ++Pos;
      return *this;
    }
    bool operator==(const const_iterator &Other) const {
      return Pos == Other.Pos;
    }
    bool operator!=(const const_iterator &Other) const {
      return Pos != Other.Pos;
    }

  private:
    friend class IdSet;
    const_iterator(const IdSet *Parent, uint64_t Pos)
        : Parent(Parent), Pos(Pos) {}
    const IdSet *Parent;
    uint64_t Pos; ///< Vector index (small) or bit position (dense).
  };

  const_iterator begin() const {
    return {this, Dense ? findBitFrom(0) : 0};
  }
  const_iterator end() const {
    return {this, Dense ? static_cast<uint64_t>(Words.size()) * 64
                        : Small.size()};
  }

  /// Structural equality over the logical contents (representations may
  /// differ).
  bool operator==(const IdSet &Other) const;

private:
  /// First set bit at or after \p From; Words.size()*64 when none.
  uint64_t findBitFrom(uint64_t From) const;

  /// Number of 64-bit words a bitmap holding \p MaxValue needs.
  static size_t wordsFor(uint32_t MaxValue) {
    return static_cast<size_t>(MaxValue >> 6) + 1;
  }

  /// Promotes to the bitmap representation when the set is past the
  /// threshold AND at least one element per word dense, which bounds bitmap
  /// bytes by 2x the vector bytes.
  void maybePromote();

  /// Rebuilds the sorted vector from the bitmap (sparse-outlier fallback).
  void demote();

  /// Grows the bitmap to cover \p MaxValue, unless the result would be
  /// sparser than the 16-bytes-per-element cap given \p FinalCount elements
  /// — in that case demotes to the vector representation and \returns
  /// false (the caller must reissue the operation on the small path).
  bool ensureDenseCapacity(uint32_t MaxValue, size_t FinalCount);

  CountedVector<uint32_t> Small; ///< Sorted-vector representation.
  CountedVector<uint64_t> Words; ///< Bitmap representation.
  size_t Count = 0;              ///< Element count (bitmap representation).
  bool Dense = false;
};

} // namespace intro

#endif // SUPPORT_IDSET_H
