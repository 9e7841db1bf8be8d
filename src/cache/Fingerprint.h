//===- cache/Fingerprint.h - Canonical program fingerprints -----*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content address for a Program: a 128-bit hash over its *normalized*
/// facts — the extracted input relations (ir/Facts.h, raw dense entity
/// ids), the entity-table shapes, and every entity's name resolved to its
/// text.  Name *handles* (StringInterner indices) never enter the hash, so
/// the fingerprint is independent of interner insertion order: two Programs
/// whose interners assigned handles differently (e.g. a frontend that
/// pre-interns strings in another order) still fingerprint identically as
/// long as their entities, names, and facts agree.
///
/// The fingerprint is what makes the Pass-A result cache (ResultCache.h)
/// sound: a cached PointsToResult stores raw dense ids, so an entry may
/// only be replayed against a Program whose id assignment and facts are
/// exactly those it was computed from — which is precisely what two equal
/// fingerprints certify (up to hash collision; 128 bits of a well-mixed
/// non-cryptographic hash, fine for a trusted cache directory, not a
/// defense against adversarial inputs).
///
//===----------------------------------------------------------------------===//

#ifndef CACHE_FINGERPRINT_H
#define CACHE_FINGERPRINT_H

#include <cstdint>
#include <string>

namespace intro {

class Program;

namespace cache {

/// A 128-bit content address of a Program.
struct Fingerprint {
  uint64_t Hi = 0;
  uint64_t Lo = 0;
  /// Entity counts a cache entry's vectors must fit; already hashed, so
  /// they are not part of equality or the entry name.
  uint32_t NumSites = 0, NumMethods = 0, NumHeaps = 0;

  friend bool operator==(const Fingerprint &A, const Fingerprint &B) {
    return A.Hi == B.Hi && A.Lo == B.Lo;
  }
  friend bool operator!=(const Fingerprint &A, const Fingerprint &B) {
    return !(A == B);
  }
};

/// Computes the canonical fingerprint of \p Prog (which must be finalized):
/// entity-space sizes, per-entity name text, entry methods, and every
/// extracted input relation, mixed into 128 bits.  Deterministic across
/// processes, platforms, and interner insertion orders.
Fingerprint fingerprintProgram(const Program &Prog);

/// \returns \p Fp as 32 lowercase hex digits (Hi then Lo); the cache's
/// on-disk entry name.
std::string toHex(const Fingerprint &Fp);

} // namespace cache
} // namespace intro

#endif // CACHE_FINGERPRINT_H
