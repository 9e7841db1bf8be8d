//===- cache/ResultCache.cpp - Content-addressed Pass-A store -------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "cache/ResultCache.h"

#include "support/Json.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include <unistd.h>

using namespace intro;
using namespace intro::cache;

namespace fs = std::filesystem;

namespace {

/// Uniquifies temp-file names within this process.  Process-wide, not per
/// handle: several handles over one directory (one per sweep cell or
/// writer thread) share a pid, and per-handle counters would hand two of
/// them the same temp name — two writers interleaving into one file.
std::atomic<uint64_t> TempSeq{0};

/// The counters in report order: the single table the JSON writer, the
/// reader and operator+= walk, so the three cannot drift apart.
constexpr std::pair<const char *, uint64_t CacheStats::*> StatsFields[] = {
    {"probes", &CacheStats::Probes},
    {"hits", &CacheStats::Hits},
    {"misses", &CacheStats::Misses},
    {"corrupt_entries", &CacheStats::CorruptEntries},
    {"stores", &CacheStats::Stores},
    {"store_failures", &CacheStats::StoreFailures},
    {"evictions", &CacheStats::Evictions},
};

//===----------------------------------------------------------------------===//
// Byte-level encoding.  Explicit little-endian, no struct memcpy — the
// format must not depend on host padding or endianness.
//===----------------------------------------------------------------------===//

uint64_t fnv1a(const uint8_t *Data, size_t Size) {
  uint64_t Acc = 1469598103934665603ull;
  for (size_t Index = 0; Index < Size; ++Index) {
    Acc ^= Data[Index];
    Acc *= 1099511628211ull;
  }
  return Acc;
}

struct ByteWriter {
  std::vector<uint8_t> Bytes;

  void u8(uint8_t V) { Bytes.push_back(V); }
  void u32(uint32_t V) {
    for (int Shift = 0; Shift < 32; Shift += 8)
      Bytes.push_back(static_cast<uint8_t>(V >> Shift));
  }
  void u64(uint64_t V) {
    for (int Shift = 0; Shift < 64; Shift += 8)
      Bytes.push_back(static_cast<uint8_t>(V >> Shift));
  }
  void str(const std::string &Text) {
    u64(Text.size());
    Bytes.insert(Bytes.end(), Text.begin(), Text.end());
  }
  void idSet(const SortedIdSet &Set) {
    u64(Set.size());
    for (uint32_t Id : Set)
      u32(Id);
  }
  void idSetVector(const std::vector<SortedIdSet> &Sets) {
    u64(Sets.size());
    for (const SortedIdSet &Set : Sets)
      idSet(Set);
  }
  void u64Vector(const std::vector<uint64_t> &Values) {
    u64(Values.size());
    for (uint64_t Value : Values)
      u64(Value);
  }
  void boolVector(const std::vector<bool> &Values) {
    u64(Values.size());
    for (bool Value : Values)
      u8(Value ? 1 : 0);
  }
};

/// Bounds-checked reader.  Every accessor fails soft: once Ok is false all
/// further reads return zero values, and the caller checks Ok (plus full
/// consumption) at the end — decoding garbage never touches memory out of
/// range.
struct ByteReader {
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Ok = true;

  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  bool take(size_t Count) {
    if (!Ok || Count > Size - Pos) {
      Ok = false;
      return false;
    }
    return true;
  }
  uint8_t u8() {
    if (!take(1))
      return 0;
    return Data[Pos++];
  }
  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (int Shift = 0; Shift < 32; Shift += 8)
      V |= static_cast<uint32_t>(Data[Pos++]) << Shift;
    return V;
  }
  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (int Shift = 0; Shift < 64; Shift += 8)
      V |= static_cast<uint64_t>(Data[Pos++]) << Shift;
    return V;
  }
  std::string str() {
    uint64_t Count = u64();
    if (!take(Count))
      return {};
    std::string Text(reinterpret_cast<const char *>(Data + Pos), Count);
    Pos += Count;
    return Text;
  }
  /// Guard for element counts: a corrupted length field must not trigger a
  /// huge up-front allocation.  Each element of the claimed count occupies
  /// at least MinElemBytes in the remaining payload, so anything larger is
  /// provably corrupt.
  bool plausibleCount(uint64_t Count, size_t MinElemBytes) {
    if (!Ok || Count > (Size - Pos) / MinElemBytes) {
      Ok = false;
      return false;
    }
    return true;
  }
  SortedIdSet idSet() {
    uint64_t Count = u64();
    SortedIdSet Set;
    if (!plausibleCount(Count, 4))
      return Set;
    Set.reserve(Count);
    for (uint64_t Index = 0; Index < Count && Ok; ++Index)
      Set.push_back(u32());
    return Set;
  }
  std::vector<SortedIdSet> idSetVector() {
    uint64_t Count = u64();
    std::vector<SortedIdSet> Sets;
    if (!plausibleCount(Count, 8))
      return Sets;
    Sets.reserve(Count);
    for (uint64_t Index = 0; Index < Count && Ok; ++Index)
      Sets.push_back(idSet());
    return Sets;
  }
  std::vector<uint64_t> u64Vector() {
    uint64_t Count = u64();
    std::vector<uint64_t> Values;
    if (!plausibleCount(Count, 8))
      return Values;
    Values.reserve(Count);
    for (uint64_t Index = 0; Index < Count && Ok; ++Index)
      Values.push_back(u64());
    return Values;
  }
  std::vector<bool> boolVector() {
    uint64_t Count = u64();
    std::vector<bool> Values;
    if (!plausibleCount(Count, 1))
      return Values;
    Values.reserve(Count);
    for (uint64_t Index = 0; Index < Count && Ok; ++Index)
      Values.push_back(u8() != 0);
    return Values;
  }
};

//===----------------------------------------------------------------------===//
// The payload.
//===----------------------------------------------------------------------===//

/// The metric vectors in payload order; DeepTuplesEstimate follows them.
constexpr std::vector<uint64_t> IntrospectionMetrics::*StoredMetrics[] = {
    &IntrospectionMetrics::InFlow,
    &IntrospectionMetrics::MethodTotalVolume,
    &IntrospectionMetrics::MethodMaxVarPointsTo,
    &IntrospectionMetrics::ObjectMaxFieldPointsTo,
    &IntrospectionMetrics::ObjectTotalFieldPointsTo,
    &IntrospectionMetrics::MethodMaxVarFieldPointsTo,
    &IntrospectionMetrics::PointedByVars,
    &IntrospectionMetrics::PointedByObjs};

/// The payload: the members passASummary keeps, then the metrics.
std::vector<uint8_t> encodePayload(const CachedPassA &Entry) {
  const PointsToResult &Result = Entry.Insens;
  ByteWriter W;
  W.u8(static_cast<uint8_t>(Result.Status));
  for (auto [Name, Counter] : SolverStatsFields)
    W.u64(Result.Stats.*Counter);
  W.str(Result.AnalysisName);
  W.boolVector(Result.MethodReachable);
  W.idSetVector(Result.SiteTargets);
  for (std::vector<uint64_t> IntrospectionMetrics::*Metric : StoredMetrics)
    W.u64Vector(Entry.Metrics.*Metric);
  W.u64(Entry.Metrics.DeepTuplesEstimate);
  return std::move(W.Bytes);
}

/// Inverse of encodePayload; \returns false unless \p R's bytes are
/// exactly one payload.
bool decodePayload(ByteReader &R, CachedPassA &Entry) {
  PointsToResult &Result = Entry.Insens;
  uint8_t RawStatus = R.u8();
  if (RawStatus > static_cast<uint8_t>(SolveStatus::MemoryBudgetExceeded))
    return false;
  Result.Status = static_cast<SolveStatus>(RawStatus);
  for (auto [Name, Counter] : SolverStatsFields)
    Result.Stats.*Counter = R.u64();
  Result.AnalysisName = R.str();
  Result.MethodReachable = R.boolVector();
  Result.SiteTargets = R.idSetVector();
  for (std::vector<uint64_t> IntrospectionMetrics::*Metric : StoredMetrics)
    Entry.Metrics.*Metric = R.u64Vector();
  Entry.Metrics.DeepTuplesEstimate = R.u64();
  return R.Ok && R.Pos == R.Size;
}

/// \returns true if \p Entry fits the program \p Fp was computed from:
/// every per-site, per-method and per-heap vector has that program's
/// length, and every call target is one of its methods.  The heuristics
/// index their arrays with these ids unchecked.
bool fitsProgram(const CachedPassA &Entry, const Fingerprint &Fp) {
  const PointsToResult &R = Entry.Insens;
  const IntrospectionMetrics &M = Entry.Metrics;
  auto HaveLength = [](uint32_t Length, const auto &...Vectors) {
    return ((Vectors.size() == Length) && ...);
  };
  if (!HaveLength(Fp.NumSites, R.SiteTargets, M.InFlow) ||
      !HaveLength(Fp.NumMethods, R.MethodReachable, M.MethodTotalVolume,
                  M.MethodMaxVarPointsTo, M.MethodMaxVarFieldPointsTo) ||
      !HaveLength(Fp.NumHeaps, M.ObjectMaxFieldPointsTo,
                  M.ObjectTotalFieldPointsTo, M.PointedByVars,
                  M.PointedByObjs))
    return false;
  for (const SortedIdSet &Targets : R.SiteTargets)
    for (uint32_t Target : Targets)
      if (Target >= Fp.NumMethods)
        return false;
  return true;
}

} // namespace

PointsToResult cache::passASummary(PointsToResult Insens) {
  PointsToResult Summary;
  Summary.Status = Insens.Status;
  for (auto [Name, Counter] : SolverStatsFields)
    Summary.Stats.*Counter = Insens.Stats.*Counter;
  Summary.AnalysisName = std::move(Insens.AnalysisName);
  Summary.MethodReachable = std::move(Insens.MethodReachable);
  Summary.SiteTargets = std::move(Insens.SiteTargets);
  return Summary;
}

//===----------------------------------------------------------------------===//
// Whole-entry encode/decode.
//===----------------------------------------------------------------------===//

std::vector<uint8_t> cache::encodeEntry(const Fingerprint &Fp,
                                        const CachedPassA &Entry) {
  std::vector<uint8_t> Payload = encodePayload(Entry);
  ByteWriter W;
  W.Bytes.insert(W.Bytes.end(), EntryMagic, EntryMagic + sizeof(EntryMagic));
  W.u32(FormatVersion);
  W.u64(Fp.Hi);
  W.u64(Fp.Lo);
  W.u64(Payload.size());
  W.u64(fnv1a(Payload.data(), Payload.size()));
  W.Bytes.insert(W.Bytes.end(), Payload.begin(), Payload.end());
  return std::move(W.Bytes);
}

bool cache::decodeEntry(const std::vector<uint8_t> &Bytes,
                        const Fingerprint &Expect, CachedPassA &Out) {
  ByteReader R(Bytes.data(), Bytes.size());
  if (!R.take(sizeof(EntryMagic)) ||
      std::memcmp(Bytes.data(), EntryMagic, sizeof(EntryMagic)) != 0)
    return false;
  R.Pos = sizeof(EntryMagic);
  if (R.u32() != FormatVersion)
    return false;
  Fingerprint Echo;
  Echo.Hi = R.u64();
  Echo.Lo = R.u64();
  uint64_t Length = R.u64();
  uint64_t Checksum = R.u64();
  if (!R.Ok || Echo != Expect || Length != R.Size - R.Pos ||
      fnv1a(Bytes.data() + R.Pos, Length) != Checksum)
    return false;
  CachedPassA Decoded;
  if (!decodePayload(R, Decoded) || !fitsProgram(Decoded, Expect))
    return false;
  Out = std::move(Decoded);
  return true;
}

//===----------------------------------------------------------------------===//
// ResultCache.
//===----------------------------------------------------------------------===//

std::string ResultCache::entryPath(const Fingerprint &Fp) const {
  return (fs::path(Opts.Directory) / (toHex(Fp) + ".pac")).string();
}

bool ResultCache::lookup(const Fingerprint &Fp, CachedPassA &Out) {
  TRACE_SPAN("cache.lookup");
  TRACE_COUNTER("cache.probe", 1);
  NProbes.fetch_add(1, std::memory_order_relaxed);

  // A missing file is a plain miss.  A file that exists but cannot be
  // read or decoded (short write, bit rot, foreign format, version skew) is
  // also counted corrupt; for the caller every kind is the same miss.
  std::ifstream In(entryPath(Fp), std::ios::binary | std::ios::ate);
  bool Found = static_cast<bool>(In);
  std::vector<uint8_t> Bytes;
  if (Found) {
    Bytes.resize(static_cast<size_t>(std::max<std::streamoff>(In.tellg(), 0)));
    In.seekg(0);
    In.read(reinterpret_cast<char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  }
  if (!Found || !In || !decodeEntry(Bytes, Fp, Out)) {
    TRACE_COUNTER("cache.miss", 1);
    NMisses.fetch_add(1, std::memory_order_relaxed);
    if (Found) {
      TRACE_COUNTER("cache.miss_corrupt", 1);
      NCorrupt.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }

  TRACE_COUNTER("cache.hit", 1);
  NHits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ResultCache::store(const Fingerprint &Fp, const CachedPassA &Entry) {
  TRACE_SPAN("cache.store");
  std::lock_guard<std::mutex> Lock(StoreMutex);

  std::error_code Ec;
  fs::create_directories(Opts.Directory, Ec);
  if (Ec) {
    TRACE_COUNTER("cache.store_failure", 1);
    NStoreFailures.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  std::vector<uint8_t> Bytes = encodeEntry(Fp, Entry);

  // Unique temp name per process and per store: concurrent writers each
  // write their own temp file, and the final rename is atomic within the
  // directory — last write wins, readers never see a torn entry.
  std::string TempPath =
      (fs::path(Opts.Directory) /
       (toHex(Fp) + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(TempSeq.fetch_add(1, std::memory_order_relaxed))))
          .string();
  {
    std::ofstream TmpOut(TempPath, std::ios::binary | std::ios::trunc);
    if (!TmpOut ||
        !TmpOut.write(reinterpret_cast<const char *>(Bytes.data()),
                      static_cast<std::streamsize>(Bytes.size()))) {
      TRACE_COUNTER("cache.store_failure", 1);
      NStoreFailures.fetch_add(1, std::memory_order_relaxed);
      std::remove(TempPath.c_str());
      return false;
    }
  }
  std::string FinalPath = entryPath(Fp);
  fs::rename(TempPath, FinalPath, Ec);
  if (Ec) {
    // The publish step itself failed (read-only directory, the final path
    // occupied by a directory, a filesystem boundary).  Distinct instant
    // from the plain counter so a trace shows *which* store died and with
    // what errno — a silent miss here used to look like cache churn.
    TRACE_INSTANT("cache.store_rename_failed", Ec.value());
    TRACE_COUNTER("cache.store_failure", 1);
    NStoreFailures.fetch_add(1, std::memory_order_relaxed);
    std::remove(TempPath.c_str());
    return false;
  }

  TRACE_COUNTER("cache.store", 1);
  NStores.fetch_add(1, std::memory_order_relaxed);

  if (Opts.MaxEntries > 0) {
    // Deterministic eviction: sorted-filename order, never the entry just
    // stored.  (A pure LRU would depend on probe timing; this cap is a
    // size guard, not a tuning knob.)
    std::string KeepName = toHex(Fp) + ".pac";
    std::vector<std::string> Names;
    for (const fs::directory_entry &DirEntry :
         fs::directory_iterator(Opts.Directory, Ec)) {
      if (Ec)
        break;
      std::string Name = DirEntry.path().filename().string();
      if (Name.size() == 36 && Name.ends_with(".pac"))
        Names.push_back(Name);
    }
    if (Names.size() > Opts.MaxEntries) {
      std::sort(Names.begin(), Names.end());
      size_t Surplus = Names.size() - Opts.MaxEntries;
      for (const std::string &Name : Names) {
        if (Surplus == 0)
          break;
        if (Name == KeepName)
          continue;
        fs::remove(fs::path(Opts.Directory) / Name, Ec);
        if (!Ec) {
          --Surplus;
          TRACE_COUNTER("cache.evict", 1);
          NEvictions.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
  return true;
}

CacheStats ResultCache::stats() const {
  CacheStats Stats;
  Stats.Probes = NProbes.load(std::memory_order_relaxed);
  Stats.Hits = NHits.load(std::memory_order_relaxed);
  Stats.Misses = NMisses.load(std::memory_order_relaxed);
  Stats.CorruptEntries = NCorrupt.load(std::memory_order_relaxed);
  Stats.Stores = NStores.load(std::memory_order_relaxed);
  Stats.StoreFailures = NStoreFailures.load(std::memory_order_relaxed);
  Stats.Evictions = NEvictions.load(std::memory_order_relaxed);
  return Stats;
}

CacheStats &CacheStats::operator+=(const CacheStats &Other) {
  for (const auto &[Key, Field] : StatsFields)
    this->*Field += Other.*Field;
  return *this;
}

void cache::writeCacheStatsJson(JsonWriter &J, const CacheStats &Stats) {
  J.beginObject();
  for (const auto &[Key, Field] : StatsFields) {
    J.key(Key);
    J.value(Stats.*Field);
  }
  J.endObject();
}

bool cache::parseCacheStatsJson(const JsonValue &Value, CacheStats &Stats) {
  if (!Value.isObject())
    return false;
  for (const auto &[Key, Field] : StatsFields)
    Value.getUint(Key, Stats.*Field);
  return true;
}
