//===- support/SetUtils.h - Sorted-vector set operations --------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Points-to sets are represented as sorted vectors of dense 32-bit handles.
/// This header provides the handful of set operations the solver needs:
/// membership, insertion, and normalization, and SharedIdSet, the
/// immutable shared form a result's heap projections take.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_SETUTILS_H
#define SUPPORT_SETUTILS_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace intro {

/// A set of dense handles stored as a sorted, duplicate-free vector.
using SortedIdSet = std::vector<uint32_t>;

/// \returns true if \p Set contains \p Value.
template <typename AllocT>
bool setContains(const std::vector<uint32_t, AllocT> &Set, uint32_t Value) {
  return std::binary_search(Set.begin(), Set.end(), Value);
}

/// Inserts \p Value into \p Set. \returns true if it was newly added.
template <typename T, typename AllocT>
bool setInsert(std::vector<T, AllocT> &Set, std::type_identity_t<T> Value) {
  auto It = std::lower_bound(Set.begin(), Set.end(), Value);
  if (It != Set.end() && *It == Value)
    return false;
  Set.insert(It, Value);
  return true;
}

/// Sorts \p Values and removes duplicates in place.
inline void setNormalize(SortedIdSet &Values) {
  std::sort(Values.begin(), Values.end());
  Values.erase(std::unique(Values.begin(), Values.end()), Values.end());
}

/// The one empty SortedIdSet every empty SharedIdSet reads as.  A
/// function-local static: its initialization is thread-safe and it is
/// immutable afterwards, so readers on any thread may share it.
inline const SortedIdSet &emptyIdSet() {
  static const SortedIdSet Empty;
  return Empty;
}

/// An immutable SortedIdSet that copies share instead of duplicating: a
/// handle to one payload, null when the set is empty.  Copies, moves and
/// the destruction of other holders leave the payload valid.  Equality
/// compares contents, so a shared and an unshared equal set compare equal.
class SharedIdSet {
public:
  using const_iterator = SortedIdSet::const_iterator;
  using value_type = uint32_t;

  SharedIdSet() = default;
  /// Takes \p Values, which must be sorted and duplicate-free.
  explicit SharedIdSet(SortedIdSet Values)
      : Payload(Values.empty() ? nullptr
                               : std::make_shared<const SortedIdSet>(
                                     std::move(Values))) {}

  /// The set; emptyIdSet() when it is empty.
  const SortedIdSet &get() const { return Payload ? *Payload : emptyIdSet(); }
  const_iterator begin() const { return get().begin(); }
  const_iterator end() const { return get().end(); }
  size_t size() const { return get().size(); }
  bool empty() const { return !Payload; }

  bool operator==(const SharedIdSet &Other) const {
    return Payload == Other.Payload || get() == Other.get();
  }

private:
  std::shared_ptr<const SortedIdSet> Payload;
};

} // namespace intro

#endif // SUPPORT_SETUTILS_H
