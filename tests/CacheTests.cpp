//===- tests/CacheTests.cpp - Content-addressed Pass-A cache tests --------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the Pass-A result cache (cache/Fingerprint.h,
/// cache/ResultCache.h) and its integrations: fingerprint canonicality,
/// entry round-trips, the adversarial corruption suite (every truncation
/// and every flipped byte must be a miss, never a crash), concurrent
/// writers, deterministic eviction, and the driver / degradation-ladder /
/// supervised-batch warm paths — including the contract that a warm batch
/// run's deterministic report section is byte-identical to the cold run's.
///
//===----------------------------------------------------------------------===//

#include "cache/Fingerprint.h"
#include "cache/ResultCache.h"

#include "analysis/ContextPolicy.h"
#include "frontend/Parser.h"
#include "introspect/Driver.h"
#include "introspect/Resilient.h"
#include "ir/Program.h"
#include "supervise/Supervise.h"
#include "support/Json.h"
#include "support/Trace.h"
#include "workload/DaCapo.h"
#include "TempDir.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace intro;
using intro::testing::makeTwoBoxes;
using intro::testing::TempDir;
using intro::testing::TwoBoxes;
namespace fs = std::filesystem;

namespace {

/// A synthetic Pass-A entry of a program with 2 sites, 3 methods and 3
/// heaps (sampleKey).  Its result fills every projection, so the tests see
/// an entry keep only the summary.
cache::CachedPassA samplePassA() {
  cache::CachedPassA Entry;
  PointsToResult &R = Entry.Insens;
  R.Status = SolveStatus::Completed;
  R.AnalysisName = "insens";
  R.Stats.Seconds = 1.25;
  R.Stats.VarPointsToTuples = 11;
  R.Stats.FieldPointsToTuples = 22;
  R.Stats.ThrowPointsToTuples = 3;
  R.Stats.StaticFieldTuples = 4;
  R.Stats.NumVarNodes = 5;
  R.Stats.NumFieldNodes = 6;
  R.Stats.NumObjects = 7;
  R.Stats.NumContexts = 1;
  R.Stats.NumHeapContexts = 1;
  R.Stats.ReachableMethodContexts = 8;
  R.Stats.CallGraphEdges = 9;
  R.Stats.WorklistPops = 123;
  R.Stats.ApproxBytes = 4096;
  auto Ids = [](SortedIdSet Values) { return SharedIdSet(std::move(Values)); };
  R.VarHeaps = {Ids({1, 2, 3}), {}, Ids({7})};
  R.FieldHeaps = {{1, 9, Ids({8})}, {5, 1, Ids({2, 4})}, {5, 3, {}}};
  R.MethodReachable = {true, false, true};
  R.StaticFieldHeaps = {{}, Ids({0, 9}), {}, Ids({1})};
  R.MethodThrows = {Ids({4}), {}};
  R.SiteTargets = {{0}, {1, 2}};
  R.VarPointsTo = {{1, 0, 2, 0}, {2, 0, 3, 0}};
  R.FieldPointsTo = {{5, 0, 1, 2, 0}};
  R.Reachable = {{0, 0}, {2, 0}};
  R.CallGraph = {{0, 0, 1, 0}};
  R.ThrowPointsTo = {{1, 0, 4, 0}};
  R.StaticFieldPointsTo = {{3, 1, 0}};
  Entry.Metrics.InFlow = {1, 2};
  Entry.Metrics.MethodTotalVolume = {4, 5, 6};
  Entry.Metrics.MethodMaxVarPointsTo = {6, 7, 8};
  Entry.Metrics.ObjectMaxFieldPointsTo = {7, 8, 9};
  Entry.Metrics.ObjectTotalFieldPointsTo = {9, 10, 11};
  Entry.Metrics.MethodMaxVarFieldPointsTo = {10, 11, 12};
  Entry.Metrics.PointedByVars = {12, 13, 14};
  Entry.Metrics.PointedByObjs = {13, 14, 15};
  Entry.Metrics.DeepTuplesEstimate = 0x0123'4567'89ab'cdefull;
  return Entry;
}

/// A key with samplePassA's entity counts.
cache::Fingerprint sampleKey(uint64_t Hi, uint64_t Lo) {
  return cache::Fingerprint{Hi, Lo, /*NumSites=*/2, /*NumMethods=*/3,
                            /*NumHeaps=*/3};
}

// Deliberately skips Stats.Seconds: a re-solved pass records fresh
// wall-clock, and an entry stores none (RoundTripsEveryField checks it).
void expectResultsEqual(const PointsToResult &A, const PointsToResult &B) {
  EXPECT_EQ(A.Status, B.Status);
  EXPECT_EQ(A.AnalysisName, B.AnalysisName);
  EXPECT_EQ(A.Stats.WorklistPops, B.Stats.WorklistPops);
  EXPECT_EQ(A.Stats.VarPointsToTuples, B.Stats.VarPointsToTuples);
  EXPECT_EQ(A.Stats.CallGraphEdges, B.Stats.CallGraphEdges);
  EXPECT_EQ(A.Stats.ApproxBytes, B.Stats.ApproxBytes);
  EXPECT_EQ(A.VarHeaps, B.VarHeaps);
  EXPECT_EQ(A.FieldHeaps, B.FieldHeaps);
  EXPECT_EQ(A.MethodReachable, B.MethodReachable);
  EXPECT_EQ(A.StaticFieldHeaps, B.StaticFieldHeaps);
  EXPECT_EQ(A.MethodThrows, B.MethodThrows);
  EXPECT_EQ(A.SiteTargets, B.SiteTargets);
  EXPECT_EQ(A.VarPointsTo, B.VarPointsTo);
  EXPECT_EQ(A.FieldPointsTo, B.FieldPointsTo);
  EXPECT_EQ(A.Reachable, B.Reachable);
  EXPECT_EQ(A.CallGraph, B.CallGraph);
  EXPECT_EQ(A.ThrowPointsTo, B.ThrowPointsTo);
  EXPECT_EQ(A.StaticFieldPointsTo, B.StaticFieldPointsTo);
}

void expectMetricsEqual(const IntrospectionMetrics &A,
                        const IntrospectionMetrics &B) {
  EXPECT_EQ(A.InFlow, B.InFlow);
  EXPECT_EQ(A.MethodTotalVolume, B.MethodTotalVolume);
  EXPECT_EQ(A.MethodMaxVarPointsTo, B.MethodMaxVarPointsTo);
  EXPECT_EQ(A.ObjectMaxFieldPointsTo, B.ObjectMaxFieldPointsTo);
  EXPECT_EQ(A.ObjectTotalFieldPointsTo, B.ObjectTotalFieldPointsTo);
  EXPECT_EQ(A.MethodMaxVarFieldPointsTo, B.MethodMaxVarFieldPointsTo);
  EXPECT_EQ(A.PointedByVars, B.PointedByVars);
  EXPECT_EQ(A.PointedByObjs, B.PointedByObjs);
  EXPECT_EQ(A.DeepTuplesEstimate, B.DeepTuplesEstimate);
}

/// Builds a minimal finalized Program by hand.  \p InternerNoise interns
/// that many junk strings *before* any entity is added, shifting every
/// name handle — the fingerprint must not notice.  \p FieldName lets one
/// test vary nothing but a name.
Program handBuiltProgram(unsigned InternerNoise = 0,
                         const char *FieldName = "f") {
  Program P;
  for (unsigned Index = 0; Index < InternerNoise; ++Index)
    P.names().intern("noise-" + std::to_string(Index));
  TypeId Object = P.addType("Object", TypeId::invalid());
  TypeId A = P.addType("A", Object);
  P.addField(FieldName, A);
  SigId Sig = P.addSignature("main/0", 0);
  MethodId Main = P.addMethod("main", Object, Sig, /*IsStatic=*/true);
  P.addVar("x", Main);
  P.addHeap("new A", A, Main);
  P.addEntry(Main);
  P.finalize();
  return P;
}

const char *const TinySource = R"(
class Object
class Box extends Object {
  field f
  method set(p) {
    this.Box#f = p
  }
  method get() -> r {
    r = this.Box#f
  }
}
class A extends Object
class B extends Object
class Main extends Object {
  entry static method main() {
    b1 = new Box
    b2 = new Box
    a = new A
    b = new B
    b1.set(a)
    b2.set(b)
    oa = b1.get()
    ob = b2.get()
    ca = (A) oa
  }
}
)";

/// A second, structurally different valid program.
const char *const OtherSource = R"(
class Object
class C extends Object {
  method id(p) -> r {
    r = p
  }
}
class Main extends Object {
  entry static method main() {
    c = new C
    v = new Object
    w = c.id(v)
  }
}
)";

} // namespace

// --- Fingerprints ------------------------------------------------------------

TEST(Fingerprint, EqualProgramsFingerprintEqually) {
  ParseResult A = parseProgram(TinySource);
  ParseResult B = parseProgram(TinySource);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  cache::Fingerprint FpA = cache::fingerprintProgram(A.Prog);
  EXPECT_EQ(FpA, cache::fingerprintProgram(B.Prog));
  EXPECT_FALSE(FpA == cache::Fingerprint{}) << "fingerprint must be mixed";
}

TEST(Fingerprint, IndependentOfInternerInsertionOrder) {
  // Same entities, names, and facts — but the second program's interner
  // assigned every name a different handle.  The fingerprint hashes name
  // *text*, never handles, so the two must agree.
  Program Clean = handBuiltProgram(0);
  Program Shifted = handBuiltProgram(64);
  EXPECT_EQ(cache::fingerprintProgram(Clean),
            cache::fingerprintProgram(Shifted));
}

TEST(Fingerprint, SensitiveToNamesAndToFacts) {
  Program Base = handBuiltProgram(0, "f");
  Program Renamed = handBuiltProgram(0, "g");
  EXPECT_NE(cache::fingerprintProgram(Base),
            cache::fingerprintProgram(Renamed))
      << "a changed name must change the fingerprint";

  ParseResult A = parseProgram(TinySource);
  ParseResult B = parseProgram(OtherSource);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  EXPECT_NE(cache::fingerprintProgram(A.Prog),
            cache::fingerprintProgram(B.Prog));
}

TEST(Fingerprint, HexIsThirtyTwoLowercaseDigits) {
  TwoBoxes T = makeTwoBoxes();
  std::string Hex = cache::toHex(cache::fingerprintProgram(T.Prog));
  EXPECT_EQ(Hex.size(), 32u);
  EXPECT_EQ(Hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

// --- Entry encoding and the adversarial suite --------------------------------

TEST(EntryFormat, RoundTripsEveryField) {
  cache::CachedPassA Entry = samplePassA();
  cache::Fingerprint Fp =
      sampleKey(0x1234'5678'9abc'def0ull, 0x0fed'cba9'8765'4321ull);
  std::vector<uint8_t> Bytes = cache::encodeEntry(Fp, Entry);
  cache::CachedPassA Decoded;
  ASSERT_TRUE(cache::decodeEntry(Bytes, Fp, Decoded));
  expectResultsEqual(cache::passASummary(Entry.Insens), Decoded.Insens);
  EXPECT_TRUE(Decoded.Insens.VarHeaps.empty()) << "an entry keeps the summary";
  expectMetricsEqual(Entry.Metrics, Decoded.Metrics);
  EXPECT_EQ(Decoded.Insens.Stats.Seconds, 0.0)
      << "an entry stores no wall clock";
}

TEST(EntryFormat, DeepEstimateSurvivesTheRoundTrip) {
  // A hit has no points-to sets to recompute the estimate from, so the
  // entry must carry it, saturated values included.
  cache::Fingerprint Fp = sampleKey(3, 4);
  for (uint64_t Estimate :
       {uint64_t{0}, uint64_t{74}, std::numeric_limits<uint64_t>::max()}) {
    cache::CachedPassA Entry = samplePassA();
    Entry.Metrics.DeepTuplesEstimate = Estimate;
    cache::CachedPassA Decoded;
    ASSERT_TRUE(
        cache::decodeEntry(cache::encodeEntry(Fp, Entry), Fp, Decoded));
    EXPECT_EQ(Decoded.Metrics.DeepTuplesEstimate, Estimate);
  }
}

TEST(EntryFormat, EncodingIsDeterministic) {
  // Every container is written in its stored (id) order, so an entry and
  // its decoded copy encode to identical bytes.
  cache::Fingerprint Fp = sampleKey(1, 2);
  std::vector<uint8_t> Bytes = cache::encodeEntry(Fp, samplePassA());
  cache::CachedPassA Decoded;
  ASSERT_TRUE(cache::decodeEntry(Bytes, Fp, Decoded));
  EXPECT_EQ(cache::encodeEntry(Fp, Decoded), Bytes);
}

TEST(EntryFormat, EveryTruncationIsAMissNeverACrash) {
  cache::Fingerprint Fp = sampleKey(42, 43);
  std::vector<uint8_t> Bytes = cache::encodeEntry(Fp, samplePassA());
  for (size_t Length = 0; Length < Bytes.size(); ++Length) {
    std::vector<uint8_t> Prefix(Bytes.begin(), Bytes.begin() + Length);
    cache::CachedPassA Out;
    EXPECT_FALSE(cache::decodeEntry(Prefix, Fp, Out))
        << "truncation at byte " << Length << " must be a miss";
  }
}

TEST(EntryFormat, EveryFlippedByteIsAMissNeverACrash) {
  // There is no unprotected region: magic, version, and the fingerprint
  // echo are compared directly, the payload length must match the bytes
  // that follow it, and every payload byte is checksummed.
  cache::Fingerprint Fp = sampleKey(7, 9);
  std::vector<uint8_t> Bytes = cache::encodeEntry(Fp, samplePassA());
  for (size_t Index = 0; Index < Bytes.size(); ++Index) {
    std::vector<uint8_t> Mutated = Bytes;
    Mutated[Index] ^= 0x20;
    cache::CachedPassA Out;
    EXPECT_FALSE(cache::decodeEntry(Mutated, Fp, Out))
        << "flipped byte " << Index << " must be a miss";
  }
}

TEST(EntryFormat, WrongFormatVersionIsAMiss) {
  cache::Fingerprint Fp = sampleKey(1, 1);
  // Entries earlier builds wrote and one a later build will write.
  for (uint32_t Version :
       {1u, cache::FormatVersion - 1, cache::FormatVersion + 1}) {
    std::vector<uint8_t> Bytes = cache::encodeEntry(Fp, samplePassA());
    // The u32 version sits right after the 8-byte magic (little-endian).
    Bytes[8] = static_cast<uint8_t>(Version);
    cache::CachedPassA Out;
    EXPECT_FALSE(cache::decodeEntry(Bytes, Fp, Out)) << "version " << Version;
  }
}

TEST(EntryFormat, WrongFingerprintEchoIsAMiss) {
  cache::Fingerprint Stored = sampleKey(100, 200);
  std::vector<uint8_t> Bytes = cache::encodeEntry(Stored, samplePassA());
  cache::CachedPassA Out;
  cache::Fingerprint Other = sampleKey(100, 201);
  EXPECT_FALSE(cache::decodeEntry(Bytes, Other, Out))
      << "an entry renamed onto another key must not be served";
  EXPECT_TRUE(cache::decodeEntry(Bytes, Stored, Out));
}

TEST(EntryFormat, EntryThatDoesNotFitTheProgramIsAMiss) {
  // Checksum-valid entries that do not fit the key's program would index
  // past the heuristics' arrays: a vector of another length, or a call
  // target that is not one of the program's methods.
  cache::Fingerprint Fp = sampleKey(3, 4);
  cache::CachedPassA Out;
  std::vector<uint8_t> Bytes = cache::encodeEntry(Fp, samplePassA());
  ASSERT_TRUE(cache::decodeEntry(Bytes, Fp, Out));
  for (cache::Fingerprint Misfit : {cache::Fingerprint{3, 4, 3, 3, 3},
                                    cache::Fingerprint{3, 4, 2, 4, 3},
                                    cache::Fingerprint{3, 4, 2, 3, 2}})
    EXPECT_FALSE(cache::decodeEntry(Bytes, Misfit, Out))
        << Misfit.NumSites << " sites, " << Misfit.NumMethods
        << " methods, " << Misfit.NumHeaps << " heaps";

  auto DecodesEdited = [&](auto Edit) {
    cache::CachedPassA Entry = samplePassA();
    Edit(Entry);
    return cache::decodeEntry(cache::encodeEntry(Fp, Entry), Fp, Out);
  };
  EXPECT_FALSE(DecodesEdited([](cache::CachedPassA &E) {
    E.Insens.SiteTargets[1].back() = 3; // the program has 3 methods
  }));
  EXPECT_FALSE(DecodesEdited(
      [](cache::CachedPassA &E) { E.Metrics.InFlow.pop_back(); }));
  EXPECT_FALSE(DecodesEdited([](cache::CachedPassA &E) {
    E.Metrics.MethodMaxVarFieldPointsTo.push_back(0);
  }));
  EXPECT_FALSE(DecodesEdited(
      [](cache::CachedPassA &E) { E.Metrics.PointedByObjs.pop_back(); }));
  EXPECT_FALSE(DecodesEdited(
      [](cache::CachedPassA &E) { E.Insens.MethodReachable.pop_back(); }));
}

// --- The on-disk store -------------------------------------------------------

TEST(ResultCache, StoreThenLookupRoundTripsAndCounts) {
  TempDir Dir;
  cache::ResultCache Cache({Dir.Path, 0});
  cache::Fingerprint Fp = sampleKey(11, 22);

  cache::CachedPassA Missed;
  EXPECT_FALSE(Cache.lookup(Fp, Missed)) << "empty cache must miss";
  EXPECT_TRUE(Cache.store(Fp, samplePassA()));
  EXPECT_TRUE(fs::exists(Cache.entryPath(Fp)));
  EXPECT_EQ(fs::path(Cache.entryPath(Fp)).extension(), ".pac");

  cache::CachedPassA Out;
  ASSERT_TRUE(Cache.lookup(Fp, Out));
  expectResultsEqual(cache::passASummary(samplePassA().Insens), Out.Insens);

  cache::CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Probes, 2u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Stores, 1u);
  EXPECT_EQ(Stats.CorruptEntries, 0u);
}

TEST(ResultCache, CorruptFileOnDiskIsAMissAndRestorable) {
  TempDir Dir;
  cache::ResultCache Cache({Dir.Path, 0});
  cache::Fingerprint Fp = sampleKey(5, 6);
  ASSERT_TRUE(Cache.store(Fp, samplePassA()));

  // Truncate the entry mid-payload, as a crashed writer without the
  // temp+rename protocol (or a failing disk) would.
  auto Size = fs::file_size(Cache.entryPath(Fp));
  fs::resize_file(Cache.entryPath(Fp), Size / 2);

  cache::CachedPassA Out;
  EXPECT_FALSE(Cache.lookup(Fp, Out));
  EXPECT_EQ(Cache.stats().CorruptEntries, 1u);

  // The caller's protocol — re-solve, re-store — fully recovers.
  EXPECT_TRUE(Cache.store(Fp, samplePassA()));
  EXPECT_TRUE(Cache.lookup(Fp, Out));
  expectMetricsEqual(samplePassA().Metrics, Out.Metrics);
}

TEST(ResultCache, ConcurrentWritersAreLastWriteWinsNeverTorn) {
  TempDir Dir;
  cache::Fingerprint Fp = sampleKey(77, 88);
  constexpr unsigned NumWriters = 8;
  constexpr unsigned RoundsPerWriter = 8;

  std::vector<std::thread> Writers;
  for (unsigned Writer = 0; Writer < NumWriters; ++Writer)
    Writers.emplace_back([&, Writer] {
      cache::ResultCache Cache({Dir.Path, 0});
      cache::CachedPassA Entry = samplePassA();
      Entry.Insens.Stats.WorklistPops = 1000 + Writer; // writer tag
      for (unsigned Round = 0; Round < RoundsPerWriter; ++Round)
        Cache.store(Fp, Entry);
    });

  // A racing reader must only ever see a miss or a fully intact entry.
  cache::ResultCache Reader({Dir.Path, 0});
  for (unsigned Probe = 0; Probe < 64; ++Probe) {
    cache::CachedPassA Out;
    if (Reader.lookup(Fp, Out)) {
      EXPECT_GE(Out.Insens.Stats.WorklistPops, 1000u);
      EXPECT_LT(Out.Insens.Stats.WorklistPops, 1000u + NumWriters);
      EXPECT_EQ(Out.Insens.SiteTargets, samplePassA().Insens.SiteTargets);
    }
  }
  for (std::thread &Writer : Writers)
    Writer.join();
  EXPECT_EQ(Reader.stats().CorruptEntries, 0u) << "a torn read happened";

  cache::CachedPassA Final;
  ASSERT_TRUE(Reader.lookup(Fp, Final));
  EXPECT_GE(Final.Insens.Stats.WorklistPops, 1000u);
  EXPECT_LT(Final.Insens.Stats.WorklistPops, 1000u + NumWriters);
}

TEST(ResultCache, EvictionEnforcesTheCapDeterministically) {
  TempDir Dir;
  cache::ResultCache Cache({Dir.Path, 2});
  cache::Fingerprint A = sampleKey(1, 0), B = sampleKey(2, 0),
                     C = sampleKey(3, 0);
  ASSERT_TRUE(Cache.store(A, samplePassA()));
  ASSERT_TRUE(Cache.store(B, samplePassA()));
  ASSERT_TRUE(Cache.store(C, samplePassA()));

  size_t Entries = 0;
  for (const fs::directory_entry &Entry : fs::directory_iterator(Dir.Path))
    Entries += Entry.path().extension() == ".pac";
  EXPECT_EQ(Entries, 2u);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_TRUE(fs::exists(Cache.entryPath(C)))
      << "the just-stored entry must never be the eviction victim";

  // Deterministic victim selection: the lexicographically smallest entry
  // name among the survivors-to-be is removed.
  std::string HexA = cache::toHex(A), HexB = cache::toHex(B);
  cache::Fingerprint Evicted = HexA < HexB ? A : B;
  cache::Fingerprint Kept = HexA < HexB ? B : A;
  EXPECT_FALSE(fs::exists(Cache.entryPath(Evicted)));
  EXPECT_TRUE(fs::exists(Cache.entryPath(Kept)));
}

// --- Store failure injection -------------------------------------------------
//
// store() must degrade to "no entry, counted failure, temp cleaned up" when
// the filesystem refuses to cooperate.  Both injections work under root
// (unlike chmod-based ones): a cache directory that is actually a regular
// file, and a directory squatting on the final entry name so the
// temp-to-final fs::rename fails.

TEST(ResultCache, CacheDirectoryThatIsAFileFailsTheStoreNotTheProcess) {
  TempDir Dir;
  std::string NotADir = Dir.Path + "/cachefile";
  std::ofstream(NotADir) << "occupied";
  cache::ResultCache Cache({NotADir, 0});
  cache::Fingerprint Fp = sampleKey(31, 41);

  EXPECT_FALSE(Cache.store(Fp, samplePassA()));
  EXPECT_EQ(Cache.stats().StoreFailures, 1u);
  EXPECT_EQ(Cache.stats().Stores, 0u);

  // Lookups against the unusable directory stay plain misses.
  cache::CachedPassA Out;
  EXPECT_FALSE(Cache.lookup(Fp, Out));
  EXPECT_EQ(Cache.stats().CorruptEntries, 0u);
}

TEST(ResultCache, RenameFailureIsCountedTracedAndLeavesNoTempFile) {
  TempDir Dir;
  cache::ResultCache Cache({Dir.Path, 0});
  cache::Fingerprint Fp = sampleKey(59, 26);
  // A directory at the final entry path makes fs::rename(file, dir) fail
  // with EISDIR after the temp file was written successfully.
  ASSERT_TRUE(fs::create_directories(Cache.entryPath(Fp)));

  trace::Recorder Rec;
  Rec.start();
  EXPECT_FALSE(Cache.store(Fp, samplePassA()));
  Rec.stop();

  cache::CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.StoreFailures, 1u);
  EXPECT_EQ(Stats.Stores, 0u);

  // The failure leaves a trace instant naming the errno, so a run report
  // can distinguish "rename refused" from "could not create the temp".
  auto Instant = Rec.instants().find("cache.store_rename_failed");
  ASSERT_NE(Instant, Rec.instants().end());
  EXPECT_EQ(Instant->second.Count, 1u);
  EXPECT_GT(Instant->second.Sum, 0u) << "instant should carry the errno";

  // The orphaned temp file was removed: only the squatting directory
  // remains in the cache directory.
  size_t Remaining = 0;
  for (const fs::directory_entry &Entry : fs::directory_iterator(Dir.Path)) {
    EXPECT_TRUE(Entry.is_directory())
        << "leftover temp file: " << Entry.path();
    ++Remaining;
  }
  EXPECT_EQ(Remaining, 1u);

  // Removing the blockage restores normal service on the same instance.
  fs::remove(Cache.entryPath(Fp));
  EXPECT_TRUE(Cache.store(Fp, samplePassA()));
  cache::CachedPassA Out;
  EXPECT_TRUE(Cache.lookup(Fp, Out));
}

// --- Counter codec -----------------------------------------------------------

TEST(CacheStatsJson, AllSevenCountersRoundTripAndAdd) {
  cache::CacheStats Stats;
  Stats.Probes = 1;
  Stats.Hits = 2;
  Stats.Misses = 3;
  Stats.CorruptEntries = 4;
  Stats.Stores = 5;
  Stats.StoreFailures = 6;
  Stats.Evictions = 7;
  std::ostringstream Out;
  JsonWriter J(Out);
  cache::writeCacheStatsJson(J, Stats);
  JsonParseResult Parsed = parseJson(Out.str());
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  EXPECT_EQ(Parsed.Value.size(), 7u) << Out.str();

  cache::CacheStats Back;
  ASSERT_TRUE(cache::parseCacheStatsJson(Parsed.Value, Back));
  EXPECT_EQ(Back.Probes, 1u);
  EXPECT_EQ(Back.Hits, 2u);
  EXPECT_EQ(Back.Misses, 3u);
  EXPECT_EQ(Back.CorruptEntries, 4u);
  EXPECT_EQ(Back.Stores, 5u);
  EXPECT_EQ(Back.StoreFailures, 6u);
  EXPECT_EQ(Back.Evictions, 7u);

  Back += Stats;
  EXPECT_EQ(Back.Probes, 2u);
  EXPECT_EQ(Back.CorruptEntries, 8u);
  EXPECT_EQ(Back.Evictions, 14u);

  // A JSON null is how reports spell "no cache"; it decodes to nothing.
  EXPECT_FALSE(cache::parseCacheStatsJson(parseJson("null").Value, Back));
  EXPECT_EQ(Back.Probes, 2u);
}

// --- runPassA: the one Pass-A path ------------------------------------------

TEST(PassA, ArmedFaultPlanNeitherProbesNorStores) {
  TwoBoxes T = makeTwoBoxes();
  TempDir Dir;
  cache::ResultCache Cache({Dir.Path, 0});
  cache::Fingerprint Fp = cache::fingerprintProgram(T.Prog);

  // Armed but never firing: the pass completes, and must still stay out of
  // the cache in both directions.
  SolverOptions Solver;
  Solver.Faults.FailAtPop = ~uint64_t(0);
  PassAOutcome A = runPassA(T.Prog, Solver, &Cache, &Fp);
  EXPECT_TRUE(isCompleted(A.Insens.Status));
  EXPECT_EQ(Cache.stats().Probes, 0u);
  EXPECT_EQ(Cache.stats().Stores, 0u);
  cache::CachedPassA Entry;
  EXPECT_FALSE(Cache.lookup(Fp, Entry));
}

TEST(PassA, BudgetStoppedResultIsNotStored) {
  TwoBoxes T = makeTwoBoxes();
  TempDir Dir;
  cache::ResultCache Cache({Dir.Path, 0});
  cache::Fingerprint Fp = cache::fingerprintProgram(T.Prog);

  SolverOptions Solver;
  Solver.Budget.MaxTuples = 1; // guaranteed exhaustion
  PassAOutcome A = runPassA(T.Prog, Solver, &Cache, &Fp);
  EXPECT_EQ(A.Insens.Status, SolveStatus::TupleBudgetExceeded);
  // The partial result still gets metrics: runIntrospective queries them.
  EXPECT_EQ(A.Metrics.InFlow.size(), T.Prog.numSites());
  EXPECT_EQ(Cache.stats().Misses, 1u);
  EXPECT_EQ(Cache.stats().Stores, 0u);

  // A retry with headroom re-solves and stores.
  PassAOutcome Retry = runPassA(T.Prog, SolverOptions(), &Cache, &Fp);
  EXPECT_TRUE(isCompleted(Retry.Insens.Status));
  EXPECT_EQ(Cache.stats().Misses, 2u);
  EXPECT_EQ(Cache.stats().Stores, 1u);
}

TEST(PassA, WarmHitReturnsTheColdResultMetricsAndSolverStats) {
  Program Prog = generateWorkload(dacapoProfile("chart"));
  TempDir Dir;
  cache::ResultCache Cache({Dir.Path, 0});
  cache::Fingerprint Fp = cache::fingerprintProgram(Prog);

  PassAOutcome Cold = runPassA(Prog, SolverOptions(), &Cache, &Fp);
  ASSERT_TRUE(isCompleted(Cold.Insens.Status));
  PassAOutcome Warm = runPassA(Prog, SolverOptions(), &Cache, &Fp);
  EXPECT_EQ(Cache.stats().Hits, 1u);
  EXPECT_EQ(Cache.stats().Stores, 1u);

  expectResultsEqual(Cold.Insens, Warm.Insens);
  expectMetricsEqual(Cold.Metrics, Warm.Metrics);
  // The stored solver counters come back verbatim, and neither summary
  // keeps a wall clock; the outcome's own Seconds is the load time and no
  // metrics were computed.
  EXPECT_EQ(Warm.Insens.Stats.Seconds, 0.0);
  EXPECT_EQ(Cold.Insens.Stats.Seconds, 0.0);
  EXPECT_EQ(Warm.Insens.Stats.WorklistPops, Cold.Insens.Stats.WorklistPops);
  EXPECT_EQ(Warm.MetricSeconds, 0.0);

  // And it is the summary of the Pass A an uncached run computes.
  PassAOutcome Plain = runPassA(Prog);
  EXPECT_TRUE(Cold.Summary && Warm.Summary && !Plain.Summary);
  expectResultsEqual(cache::passASummary(Plain.Insens), Warm.Insens);
  expectMetricsEqual(Plain.Metrics, Warm.Metrics);
}

TEST(PassA, ColdStoresOfOneProgramWriteIdenticalBytes) {
  // No wall clock reaches an entry, so two cold solves of one program,
  // each stored into its own fresh directory, leave the same file.
  Program Prog = generateWorkload(dacapoProfile("chart"));
  cache::Fingerprint Fp = cache::fingerprintProgram(Prog);
  auto ColdEntry = [&](const TempDir &Dir) {
    cache::ResultCache Cache({Dir.Path, 0});
    PassAOutcome Cold = runPassA(Prog, SolverOptions(), &Cache, &Fp);
    EXPECT_TRUE(isCompleted(Cold.Insens.Status));
    EXPECT_EQ(Cache.stats().Stores, 1u);
    std::ifstream In(Cache.entryPath(Fp), std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(In),
                       std::istreambuf_iterator<char>());
  };
  TempDir First, Second;
  std::string FirstBytes = ColdEntry(First);
  ASSERT_FALSE(FirstBytes.empty());
  EXPECT_TRUE(FirstBytes == ColdEntry(Second))
      << "equal programs must store equal bytes";
}

// --- Driver integration ------------------------------------------------------

TEST(DriverCache, WarmRunReloadsPassAAndMatchesCold) {
  TwoBoxes T = makeTwoBoxes();
  TempDir Dir;
  cache::ResultCache Cache({Dir.Path, 0});
  cache::Fingerprint Fp = cache::fingerprintProgram(T.Prog);

  IntrospectiveOptions Options;
  Options.Heuristic = HeuristicKind::B;
  Options.Cache = &Cache;
  Options.CacheKey = &Fp;
  auto Refined = makeObjectPolicy(T.Prog, 2, 1);

  IntrospectiveOutcome Cold = runIntrospective(T.Prog, *Refined, Options);
  ASSERT_TRUE(isCompleted(Cold.FirstPass.Status));
  IntrospectiveOutcome Warm = runIntrospective(T.Prog, *Refined, Options);

  expectResultsEqual(Cold.FirstPass, Warm.FirstPass);
  expectMetricsEqual(Cold.Metrics, Warm.Metrics);
  expectResultsEqual(Cold.SecondPass, Warm.SecondPass);

  cache::CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Probes, 2u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Stores, 1u);
  EXPECT_EQ(Stats.Hits, 1u) << "the warm run must not re-solve Pass A";
}

TEST(DriverCache, ArmedFaultPlanBypassesTheCache) {
  // A warm entry must never mask an injected Pass-A failure.
  TwoBoxes T = makeTwoBoxes();
  TempDir Dir;
  cache::ResultCache Cache({Dir.Path, 0});
  cache::Fingerprint Fp = cache::fingerprintProgram(T.Prog);

  IntrospectiveOptions Options;
  Options.Cache = &Cache;
  Options.CacheKey = &Fp;
  auto Refined = makeObjectPolicy(T.Prog, 2, 1);
  runIntrospective(T.Prog, *Refined, Options); // populate the cache

  Options.FirstPassFaults.FailAtPop = 1;
  Options.FirstPassFaults.FailStatus = SolveStatus::TupleBudgetExceeded;
  IntrospectiveOutcome Faulted = runIntrospective(T.Prog, *Refined, Options);
  EXPECT_EQ(Faulted.FirstPass.Status, SolveStatus::TupleBudgetExceeded);
  EXPECT_EQ(Cache.stats().Probes, 1u)
      << "an armed fault plan must not even probe";
}

TEST(DriverCache, IncompleteFirstPassIsNotStored) {
  TwoBoxes T = makeTwoBoxes();
  TempDir Dir;
  cache::ResultCache Cache({Dir.Path, 0});
  cache::Fingerprint Fp = cache::fingerprintProgram(T.Prog);

  IntrospectiveOptions Options;
  Options.Cache = &Cache;
  Options.CacheKey = &Fp;
  Options.FirstPassBudget.MaxTuples = 1; // guaranteed exhaustion
  auto Refined = makeObjectPolicy(T.Prog, 2, 1);
  IntrospectiveOutcome Out = runIntrospective(T.Prog, *Refined, Options);
  EXPECT_FALSE(isCompleted(Out.FirstPass.Status));
  EXPECT_EQ(Cache.stats().Stores, 0u)
      << "a budget-exhausted Pass A must stay uncached";
  EXPECT_EQ(Cache.stats().Misses, 1u);
}

// --- Degradation-ladder integration ------------------------------------------

TEST(LadderCache, WarmLadderSharesPassAWithIdenticalTraceColumns) {
  TwoBoxes T = makeTwoBoxes();
  TempDir Dir;
  cache::ResultCache Cache({Dir.Path, 0});
  cache::Fingerprint Fp = cache::fingerprintProgram(T.Prog);

  ResilientOptions Options;
  Options.AttemptDeep = false; // force the pre-analysis + introspective path
  Options.Assemble = Assembly::Projections; // the results are compared
  Options.Cache = &Cache;
  Options.CacheKey = &Fp;
  std::vector<DegradationLevel> Started;
  Options.OnRungStart = [&](DegradationLevel Level, uint32_t) {
    Started.push_back(Level);
  };
  auto Refined = makeObjectPolicy(T.Prog, 2, 1);

  ResilientOutcome Cold = runResilient(T.Prog, *Refined, Options);
  std::vector<DegradationLevel> ColdStarted = std::move(Started);
  Started.clear();
  ResilientOutcome Warm = runResilient(T.Prog, *Refined, Options);

  EXPECT_EQ(Cache.stats().Hits, 1u);
  EXPECT_EQ(Cache.stats().Stores, 1u);
  EXPECT_EQ(ColdStarted, Started)
      << "a cache hit must still announce the Insensitive rung";

  // The warm trace must be column-identical to the cold one in everything
  // deterministic; only wall-clock (Attempt::Seconds) may differ.
  ASSERT_EQ(Cold.Trace.size(), Warm.Trace.size());
  for (size_t Row = 0; Row < Cold.Trace.size(); ++Row) {
    EXPECT_EQ(Cold.Trace[Row].Level, Warm.Trace[Row].Level);
    EXPECT_EQ(Cold.Trace[Row].AnalysisName, Warm.Trace[Row].AnalysisName);
    EXPECT_EQ(Cold.Trace[Row].Status, Warm.Trace[Row].Status);
    EXPECT_EQ(Cold.Trace[Row].TightenedRound, Warm.Trace[Row].TightenedRound);
    EXPECT_EQ(Cold.Trace[Row].Stats.WorklistPops,
              Warm.Trace[Row].Stats.WorklistPops)
        << "the cache-served rung must carry the stored solver stats";
    EXPECT_EQ(Cold.Trace[Row].Stats.VarPointsToTuples,
              Warm.Trace[Row].Stats.VarPointsToTuples);
  }
  EXPECT_EQ(Cold.Level, Warm.Level);
  expectResultsEqual(Cold.Result, Warm.Result);
  expectMetricsEqual(Cold.Metrics, Warm.Metrics);
}

TEST(LadderCache, ArmedInsensitiveFaultBypassesTheCache) {
  TwoBoxes T = makeTwoBoxes();
  TempDir Dir;
  cache::ResultCache Cache({Dir.Path, 0});
  cache::Fingerprint Fp = cache::fingerprintProgram(T.Prog);

  ResilientOptions Options;
  Options.AttemptDeep = false;
  Options.Cache = &Cache;
  Options.CacheKey = &Fp;
  auto Refined = makeObjectPolicy(T.Prog, 2, 1);
  runResilient(T.Prog, *Refined, Options); // populate

  Options.faultsFor(DegradationLevel::Insensitive).FailAtPop = 1;
  Options.faultsFor(DegradationLevel::Insensitive).FailStatus =
      SolveStatus::TupleBudgetExceeded;
  ResilientOutcome Faulted = runResilient(T.Prog, *Refined, Options);
  EXPECT_FALSE(Faulted.completed());
  EXPECT_EQ(Cache.stats().Probes, 1u)
      << "the fault-armed run must not have probed";
}

TEST(LadderCache, MisfitEntryUnderTheRightKeyIsACountedMissNotACrash) {
  // A checksum-valid entry under the program's own key, with one call
  // target far outside the program: decoding must reject it before the
  // heuristics index their arrays with it.
  TwoBoxes T = makeTwoBoxes();
  TempDir Dir;
  cache::ResultCache Cache({Dir.Path, 0});
  cache::Fingerprint Fp = cache::fingerprintProgram(T.Prog);
  PassAOutcome Plain = runPassA(T.Prog);
  cache::CachedPassA Entry{cache::passASummary(Plain.Insens), Plain.Metrics};
  auto Site = std::ranges::find_if(
      Entry.Insens.SiteTargets,
      [](const SortedIdSet &Targets) { return !Targets.empty(); });
  ASSERT_NE(Site, Entry.Insens.SiteTargets.end());
  Site->back() = 0x7ffffff0;
  std::vector<uint8_t> Bytes = cache::encodeEntry(Fp, Entry);
  std::ofstream(Cache.entryPath(Fp), std::ios::binary)
      .write(reinterpret_cast<const char *>(Bytes.data()),
             static_cast<std::streamsize>(Bytes.size()));

  ResilientOptions Options;
  Options.AttemptDeep = false;
  Options.Assemble = Assembly::Projections; // the results are compared
  auto Refined = makeObjectPolicy(T.Prog, 2, 1);
  ResilientOutcome Uncached = runResilient(T.Prog, *Refined, Options);
  Options.Cache = &Cache;
  Options.CacheKey = &Fp;
  ResilientOutcome Out = runResilient(T.Prog, *Refined, Options);

  EXPECT_EQ(Cache.stats().CorruptEntries, 1u);
  EXPECT_EQ(Cache.stats().Stores, 1u) << "the misfit entry is replaced";
  ASSERT_TRUE(Out.completed());
  EXPECT_EQ(Out.Level, Uncached.Level);
  expectResultsEqual(Out.Result, Uncached.Result);
  EXPECT_EQ(Out.Exceptions, Uncached.Exceptions);
}

TEST(LadderCache, InsensitiveFallbackReSolvesTheSummarizedPassA) {
  // With every introspective rung faulted the ladder falls back to Pass A.
  // The cache hands out only its summary, on the cold run (stored miss) and
  // on the warm one (hit), so a ladder that asks for the projections
  // re-solves: the outcome holds every projection of an uncached Pass A.
  TwoBoxes T = makeTwoBoxes();
  TempDir Dir;
  cache::ResultCache Cache({Dir.Path, 0});
  cache::Fingerprint Fp = cache::fingerprintProgram(T.Prog);
  PassAOutcome Plain = runPassA(T.Prog);

  ResilientOptions Options;
  Options.AttemptDeep = false;
  Options.Assemble = Assembly::Projections;
  Options.Cache = &Cache;
  Options.CacheKey = &Fp;
  for (DegradationLevel Level :
       {DegradationLevel::IntroB, DegradationLevel::IntroA,
        DegradationLevel::TightenedIntroA}) {
    Options.faultsFor(Level).FailAtPop = 1;
    Options.faultsFor(Level).FailStatus = SolveStatus::TupleBudgetExceeded;
  }
  auto Refined = makeObjectPolicy(T.Prog, 2, 1);
  ResilientOutcome Cold = runResilient(T.Prog, *Refined, Options);
  ResilientOutcome Warm = runResilient(T.Prog, *Refined, Options);
  EXPECT_EQ(Cache.stats().Stores, 1u);
  EXPECT_EQ(Cache.stats().Hits, 1u);
  for (const ResilientOutcome *Out : {&Cold, &Warm}) {
    EXPECT_EQ(Out->Level, DegradationLevel::Insensitive);
    EXPECT_TRUE(Out->completed());
    expectResultsEqual(Plain.Insens, Out->Result);
    ASSERT_FALSE(Out->Result.VarHeaps.empty()) << "the full result";
  }
}

TEST(LadderCache, StatsOnlyFallbackReturnsTheSummaryWithoutReSolving) {
  // With no refined rung to try, the ladder is Pass A and its fallback.
  // Warm, Pass A is a cache hit; the default (Assembly::Stats) fallback
  // returns that summary as it is, while Projections re-solves it.
  TwoBoxes T = makeTwoBoxes();
  TempDir Dir;
  cache::ResultCache Cache({Dir.Path, 0});
  cache::Fingerprint Fp = cache::fingerprintProgram(T.Prog);
  ResilientOptions Options;
  Options.AttemptDeep = false;
  Options.AttemptIntroB = false;
  Options.AttemptIntroA = false;
  Options.TightenedRounds = 0;
  Options.Cache = &Cache;
  Options.CacheKey = &Fp;
  auto Refined = makeObjectPolicy(T.Prog, 2, 1);
  ResilientOutcome Cold = runResilient(T.Prog, *Refined, Options); // store

  auto WarmSolves = [&](Assembly Assemble, ResilientOutcome &Out) {
    Options.Assemble = Assemble;
    trace::Recorder Rec;
    Rec.start();
    Out = runResilient(T.Prog, *Refined, Options);
    Rec.stop();
    auto Runs = Rec.counters().find("solve.runs");
    return Runs == Rec.counters().end() ? uint64_t{0} : Runs->second;
  };
  ResilientOutcome Stats, Projections;
  EXPECT_EQ(WarmSolves(Assembly::Stats, Stats), 0u);
  EXPECT_EQ(WarmSolves(Assembly::Projections, Projections), 1u);
  EXPECT_EQ(Cache.stats().Hits, 2u);

  for (const ResilientOutcome *Out : {&Cold, &Stats, &Projections}) {
    EXPECT_EQ(Out->Level, DegradationLevel::Insensitive);
    EXPECT_TRUE(Out->completed());
    ASSERT_EQ(Out->Trace.size(), 1u);
  }
  expectResultsEqual(Cold.Result, Stats.Result);
  expectResultsEqual(cache::passASummary(Projections.Result), Stats.Result);
  EXPECT_TRUE(Stats.Result.VarHeaps.empty());
  EXPECT_FALSE(Projections.Result.VarHeaps.empty());
}

// --- Supervised-batch integration --------------------------------------------

namespace {

supervise::BatchOptions batchOptions(const std::string &CacheDir) {
  supervise::BatchOptions Options;
  Options.Limits.WallDeadlineSeconds = 60;
  Options.SleepMs = [](double) {};
  Options.Ladder.AttemptDeep = false; // every job exercises the pre-analysis
  Options.CacheDir = CacheDir;
  return Options;
}

std::vector<supervise::JobSpec> twoJobs() {
  supervise::JobSpec A, B;
  A.Name = "tiny";
  A.Source = TinySource;
  B.Name = "other";
  B.Source = OtherSource;
  return {A, B};
}

/// Renders the batch report and \returns (full, deterministic-slice) where
/// the slice is the raw bytes from the "deterministic" key up to the
/// "cache" key — the cold-vs-warm byte-identity contract.  The cache
/// section sits *outside* the slice by design: its counters necessarily
/// differ between a cold and a warm run.
std::pair<std::string, std::string>
renderBatchReport(const supervise::BatchResult &Batch,
                  const supervise::BatchOptions &Options) {
  std::ostringstream Out;
  JsonWriter J(Out);
  supervise::writeBatchReportJson(J, Batch, Options);
  std::string Full = Out.str();
  size_t Begin = Full.find("\"deterministic\"");
  size_t End = Full.find("\"cache\"");
  EXPECT_NE(Begin, std::string::npos);
  EXPECT_NE(End, std::string::npos);
  EXPECT_LT(Begin, End);
  return {Full, Full.substr(Begin, End - Begin)};
}

} // namespace

TEST(BatchCache, WarmRunIsAllHitsWithAByteIdenticalDeterministicSection) {
  TempDir Dir;
  supervise::BatchOptions Options = batchOptions(Dir.Path);
  std::vector<supervise::JobSpec> Jobs = twoJobs();

  supervise::BatchResult Cold = supervise::runSupervisedBatch(Jobs, Options);
  supervise::BatchResult Warm = supervise::runSupervisedBatch(Jobs, Options);

  for (const supervise::JobResult &Job : Cold.Jobs) {
    ASSERT_EQ(Job.FinalClass, supervise::JobOutcomeClass::Clean) << Job.Name;
    ASSERT_EQ(Job.Attempts.size(), 1u);
    EXPECT_TRUE(Job.Attempts[0].CacheEnabled);
    EXPECT_EQ(Job.Attempts[0].Cache.Misses, 1u);
    EXPECT_EQ(Job.Attempts[0].Cache.Stores, 1u);
    EXPECT_EQ(Job.Attempts[0].Cache.Hits, 0u);
  }
  for (const supervise::JobResult &Job : Warm.Jobs) {
    ASSERT_EQ(Job.FinalClass, supervise::JobOutcomeClass::Clean) << Job.Name;
    ASSERT_EQ(Job.Attempts.size(), 1u);
    EXPECT_TRUE(Job.Attempts[0].CacheEnabled);
    EXPECT_EQ(Job.Attempts[0].Cache.Hits, 1u)
        << Job.Name << " did not reuse the cold run's Pass A";
    EXPECT_EQ(Job.Attempts[0].Cache.Misses, 0u);
    EXPECT_EQ(Job.Attempts[0].Cache.Stores, 0u);
  }

  auto [ColdFull, ColdSlice] = renderBatchReport(Cold, Options);
  auto [WarmFull, WarmSlice] = renderBatchReport(Warm, Options);
  EXPECT_EQ(ColdSlice, WarmSlice)
      << "the deterministic section is the cold-vs-warm identity contract";
  EXPECT_NE(ColdFull.find("\"enabled\":true"), std::string::npos);
}

TEST(BatchCache, RetryAfterAHardDeathReloadsThePredecessorsPassA) {
  // Attempt 1 solves and stores the pre-analysis, then dies hard when the
  // IntroB rung starts.  The escalateBelow relaunch must *reload* Pass A
  // instead of re-solving it: its counters show one hit and zero stores.
  TempDir Dir;
  supervise::BatchOptions Options = batchOptions(Dir.Path);
  supervise::JobSpec Job;
  Job.Name = "crashy";
  Job.Source = TinySource;
  Job.Chaos.Fault = supervise::ChaosPlan::Kind::Crash;
  Job.Chaos.AtLevel = DegradationLevel::IntroB;
  Job.Chaos.UntilAttempt = 1;

  supervise::JobResult Result = supervise::runSupervisedJob(Job, 0, Options);
  ASSERT_EQ(Result.FinalClass, supervise::JobOutcomeClass::Clean);
  ASSERT_EQ(Result.Attempts.size(), 2u);
  EXPECT_FALSE(Result.Attempts[0].CacheEnabled)
      << "a hard death delivers no report, so no counters";
  ASSERT_TRUE(Result.Attempts[1].CacheEnabled);
  EXPECT_EQ(Result.Attempts[1].Cache.Hits, 1u);
  EXPECT_EQ(Result.Attempts[1].Cache.Stores, 0u);
  EXPECT_EQ(Result.Attempts[1].Cache.Misses, 0u);
}

TEST(BatchCache, CorruptedEntryIsAMissThenRestored) {
  TempDir Dir;
  supervise::BatchOptions Options = batchOptions(Dir.Path);
  std::vector<supervise::JobSpec> Jobs = twoJobs();
  supervise::runSupervisedBatch(Jobs, Options);

  // Corrupt every stored entry byte 0 (the magic).
  size_t Corrupted = 0;
  for (const fs::directory_entry &Entry : fs::directory_iterator(Dir.Path)) {
    if (Entry.path().extension() != ".pac")
      continue;
    std::fstream File(Entry.path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    File.put('X');
    ++Corrupted;
  }
  ASSERT_EQ(Corrupted, 2u);

  supervise::BatchResult Again = supervise::runSupervisedBatch(Jobs, Options);
  for (const supervise::JobResult &Job : Again.Jobs) {
    ASSERT_EQ(Job.FinalClass, supervise::JobOutcomeClass::Clean) << Job.Name;
    EXPECT_EQ(Job.Attempts[0].Cache.Hits, 0u);
    EXPECT_EQ(Job.Attempts[0].Cache.Misses, 1u);
    EXPECT_EQ(Job.Attempts[0].Cache.CorruptEntries, 1u);
    EXPECT_EQ(Job.Attempts[0].Cache.Stores, 1u) << "must re-store after miss";
  }

  // And the re-stored entries serve the next run.
  supervise::BatchResult Warm = supervise::runSupervisedBatch(Jobs, Options);
  for (const supervise::JobResult &Job : Warm.Jobs)
    EXPECT_EQ(Job.Attempts[0].Cache.Hits, 1u);
}
