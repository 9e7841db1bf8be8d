//===- support/Meter.h - Allocation meter for one solve ---------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counts the bytes a solve's containers hold.  A container on the
/// stateless Counted allocator adds the bytes it requests (n * sizeof(T),
/// capacity included) to the thread's current MeterScope, if any, and
/// subtracts them when it frees them.  Requested sizes follow from the
/// standard library's growth policies, so the count is deterministic for
/// one standard library.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_METER_H
#define SUPPORT_METER_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace intro {

/// The thread's meter while it lives; closing restores the outer one.
/// Declare it before the containers it counts, so that they die first.
class MeterScope {
public:
  MeterScope() : Outer(std::exchange(Current, this)) {}
  ~MeterScope() {
    assert(Live == 0 && "a counted container outlived its meter");
    Current = Outer;
  }
  MeterScope(const MeterScope &) = delete;
  MeterScope &operator=(const MeterScope &) = delete;

  /// Bytes held now, and the most held at once since the scope opened.
  uint64_t live() const { return Live; }
  uint64_t peak() const { return Peak; }

private:
  template <typename T> friend struct Counted;

  /// Adds \p Bytes (negative to free) to the current meter, if any.
  static void count(int64_t Bytes) {
    if (MeterScope *M = Current) {
      M->Live += Bytes;
      M->Peak = std::max(M->Peak, M->Live);
    }
  }

  static inline thread_local MeterScope *Current = nullptr;
  MeterScope *Outer;
  uint64_t Live = 0;
  uint64_t Peak = 0;
};

/// std::allocator, counted on the thread's current MeterScope.
template <typename T> struct Counted {
  using value_type = T;
  Counted() = default;
  template <typename U> Counted(const Counted<U> &) {}
  T *allocate(size_t N) {
    T *P = std::allocator<T>().allocate(N);
    MeterScope::count(static_cast<int64_t>(N * sizeof(T)));
    return P;
  }
  void deallocate(T *P, size_t N) {
    MeterScope::count(-static_cast<int64_t>(N * sizeof(T)));
    std::allocator<T>().deallocate(P, N);
  }
  friend bool operator==(Counted, Counted) { return true; }
};

template <typename T> using CountedVector = std::vector<T, Counted<T>>;

} // namespace intro

#endif // SUPPORT_METER_H
