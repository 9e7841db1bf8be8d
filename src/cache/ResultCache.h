//===- cache/ResultCache.h - Content-addressed Pass-A store -----*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An on-disk, content-addressed store for the expensive half of the
/// two-pass analysis: the summary (passASummary) of the context-insensitive
/// Pass-A PointsToResult plus its IntrospectionMetrics.  Entries are keyed
/// by the canonical Fingerprint of the analyzed Program, so
/// a warm run — a repeated batch job, a supervised retry, an escalateBelow
/// relaunch, or a flavor sweep that shares one insensitive pre-analysis —
/// reloads Pass A with one read instead of re-solving it.
///
/// Entry format (all integers little-endian, explicit byte encoding):
///
///   magic        8 bytes   "IPACHE01"
///   version      u32       FormatVersion
///   fingerprint  2 × u64   Hi, Lo — echo of the key, re-checked on load
///   length       u64       payload bytes; the payload ends the file
///   checksum     u64       FNV-1a over the payload
///   payload      length bytes
///
/// The payload holds what passASummary keeps (status, the
/// SolverStatsFields counters, analysis name, MethodReachable,
/// SiteTargets), then the eight metric vectors and DeepTuplesEstimate (a
/// hit has no points-to sets to recompute it from).  No wall clock is
/// stored, so equal programs store equal bytes.  Entries of any other
/// version are misses and are re-stored.
///
/// **Corruption is a miss, never a crash.**  Every decode failure — short
/// file, bad magic, version skew, fingerprint mismatch, checksum mismatch,
/// truncated or over-long payload, ids or lengths that do not fit the key's
/// entity counts — makes lookup() return false; the
/// caller re-solves and re-stores.  The cache can therefore be deleted,
/// truncated, or bit-flipped at any time without affecting correctness.
///
/// **Writers are atomic.**  store() encodes into a unique temp file in the
/// cache directory and renames it over the final name, so concurrent
/// writers are last-write-wins and a reader never observes a torn entry.
///
//===----------------------------------------------------------------------===//

#ifndef CACHE_RESULTCACHE_H
#define CACHE_RESULTCACHE_H

#include "analysis/Result.h"
#include "cache/Fingerprint.h"
#include "introspect/Metrics.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace intro {

class JsonValue;
class JsonWriter;

namespace cache {

/// On-disk format version; bumped whenever the entry encoding changes, or
/// a stored counter changes meaning (so that an entry written under the old
/// meaning misses, and a warm run stays byte-identical to a cold one).
/// Entries with any other version are misses.
constexpr uint32_t FormatVersion = 9;

/// Entry magic: identifies the file type and, informally, the format era.
constexpr char EntryMagic[8] = {'I', 'P', 'A', 'C', 'H', 'E', '0', '1'};

/// What one cache entry holds: the Pass-A summary and its metrics.
struct CachedPassA {
  PointsToResult Insens; ///< passASummary of the Pass-A result.
  IntrospectionMetrics Metrics;
};

/// What an entry keeps of the Pass-A result \p Insens, all a hit reads:
/// status, the SolverStatsFields counters, analysis name, MethodReachable
/// and SiteTargets.  Every other member is empty, and Stats.Seconds is 0:
/// a hit and a stored miss return equal summaries.
PointsToResult passASummary(PointsToResult Insens);

/// Monotonic counters of one ResultCache instance.
struct CacheStats {
  uint64_t Probes = 0;         ///< lookup() calls.
  uint64_t Hits = 0;           ///< Probes that returned a valid entry.
  uint64_t Misses = 0;         ///< Probes that found nothing usable.
  uint64_t CorruptEntries = 0; ///< Misses caused by an unreadable entry.
  uint64_t Stores = 0;         ///< Successful store() calls.
  uint64_t StoreFailures = 0;  ///< store() calls that could not persist.
  uint64_t Evictions = 0;      ///< Entries removed by the MaxEntries cap.

  /// Adds every counter of \p Other (per-job and batch totals).
  CacheStats &operator+=(const CacheStats &Other);
};

/// Writes \p Stats as one JSON object with all seven counters
/// (`probes`, `hits`, `misses`, `corrupt_entries`, `stores`,
/// `store_failures`, `evictions`).  The one encoding every report uses: a
/// child's run report, the batch report, the serve done frame and the
/// client report.
void writeCacheStatsJson(JsonWriter &J, const CacheStats &Stats);

/// Reads an object written by writeCacheStatsJson into \p Stats; absent
/// counters are left untouched.  \returns false when \p Value is not an
/// object (a JSON null means "no cache").
bool parseCacheStatsJson(const JsonValue &Value, CacheStats &Stats);

/// A content-addressed Pass-A result store over one directory.
///
/// Thread-safe: lookups touch only immutable files and atomic counters;
/// stores serialize on an internal mutex (within one process) and are
/// rename-atomic across processes.
class ResultCache {
public:
  struct Options {
    std::string Directory; ///< Cache directory; created on first store.
    /// Maximum number of entries kept after a store; 0 = unlimited.
    /// Eviction removes surplus entries in sorted-filename order (never
    /// the entry just stored), so it is deterministic for a given
    /// directory population.
    uint64_t MaxEntries = 0;
  };

  explicit ResultCache(Options Opts) : Opts(std::move(Opts)) {}

  /// Probes the cache for \p Fp (a fingerprintProgram key).  On a hit,
  /// fills \p Out and \returns true.  Unreadable entries of any kind are a
  /// miss.
  bool lookup(const Fingerprint &Fp, CachedPassA &Out);

  /// Persists \p Entry under \p Fp (temp file + rename; last write wins).
  /// \returns true if the entry is on disk afterwards.
  bool store(const Fingerprint &Fp, const CachedPassA &Entry);

  /// \returns the path the entry for \p Fp lives at (whether or not it
  /// exists): `<dir>/<hex32>.pac`.
  std::string entryPath(const Fingerprint &Fp) const;

  /// Snapshot of this instance's counters.
  CacheStats stats() const;

  const Options &options() const { return Opts; }

private:
  Options Opts;
  std::mutex StoreMutex; ///< Serializes store+evict within this process.

  std::atomic<uint64_t> NProbes{0};
  std::atomic<uint64_t> NHits{0};
  std::atomic<uint64_t> NMisses{0};
  std::atomic<uint64_t> NCorrupt{0};
  std::atomic<uint64_t> NStores{0};
  std::atomic<uint64_t> NStoreFailures{0};
  std::atomic<uint64_t> NEvictions{0};
};

/// Encodes passASummary(Entry.Insens) and Entry.Metrics for key \p Fp.
/// Deterministic: every container is written in its stored (id) order, so
/// equal entries encode to identical bytes.  Exposed for the adversarial
/// tests, which corrupt the bytes directly.
std::vector<uint8_t> encodeEntry(const Fingerprint &Fp,
                                 const CachedPassA &Entry);

/// Decodes \p Bytes, verifying magic, version, the fingerprint echo and
/// entity counts of \p Expect, the payload length and its checksum.
/// \returns true and fills \p Out only when the whole entry is intact.
bool decodeEntry(const std::vector<uint8_t> &Bytes, const Fingerprint &Expect,
                 CachedPassA &Out);

} // namespace cache
} // namespace intro

#endif // CACHE_RESULTCACHE_H
