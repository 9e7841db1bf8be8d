//===- support/Overflow.h - Overflow-safe integer helpers -------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Saturating unsigned arithmetic for budget enforcement.  Budget checks
/// compare derived quantities (tuple counts scaled by fault-injection
/// inflation factors, byte estimates) against limits; if the derivation
/// wraps, a huge value compares as tiny and the budget silently disarms —
/// the exact opposite of the intended trip.  Saturating to the maximum
/// keeps "too big to represent" on the tripping side of every comparison.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_OVERFLOW_H
#define SUPPORT_OVERFLOW_H

#include <cstdint>
#include <limits>

namespace intro {

/// \returns A * B, or UINT64_MAX if the product does not fit in 64 bits.
inline uint64_t saturatingMul(uint64_t A, uint64_t B) {
#if defined(__GNUC__) || defined(__clang__)
  uint64_t Product;
  if (__builtin_mul_overflow(A, B, &Product))
    return std::numeric_limits<uint64_t>::max();
  return Product;
#else
  if (A != 0 && B > std::numeric_limits<uint64_t>::max() / A)
    return std::numeric_limits<uint64_t>::max();
  return A * B;
#endif
}

/// \returns A + B, or UINT64_MAX if the sum does not fit in 64 bits.
inline uint64_t saturatingAdd(uint64_t A, uint64_t B) {
  uint64_t Sum = A + B;
  return Sum < A ? std::numeric_limits<uint64_t>::max() : Sum;
}

} // namespace intro

#endif // SUPPORT_OVERFLOW_H
