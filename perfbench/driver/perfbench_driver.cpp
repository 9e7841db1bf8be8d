//===- perfbench/driver/perfbench_driver.cpp - Benchmark helper -----------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C++ half of the layered benchmark (perfbench/README.md).  run.py
/// orchestrates; this binary does the work that needs the project's
/// libraries:
///
///   gen-dacapo SEED VARIANTS OUTDIR
///       Prints the nine DaCapo-shaped profiles (workload/DaCapo.h), each
///       at VARIANTS seeds derived from SEED, through frontend/Printer as
///       OUTDIR/<profile>-<variant>.intro.
///   gen-small SEED COUNT OUTDIR
///       Prints COUNT fuzz/Generator programs, biases in rotation, at
///       seeds derived from SEED, as OUTDIR/<bias>-<k>.intro.
///   load SOCKET JOBLIST OUT
///       Closed-loop load on an intro_serve daemon: two threads, each with
///       its own serve::Client connection, take the next job of JOBLIST as
///       soon as their previous one is done.  Records per-job
///       timestamps and the final report line, then the daemon's stats.
///   reference LADDER JOBLIST OUT SAMPLE
///       Runs every distinct program of JOBLIST through the in-process
///       ladder (no cache, no child) and writes its deterministic report
///       section — the local cold result served and warm runs must equal.
///       Programs named in the SAMPLE file (one name a line, possibly
///       none) are also checked against the
///       Datalog reference (fuzz::checkProgram, ReferenceEquivalence).
///   replay LADDER JOBLIST CACHE SUPCACHE SCRATCH OUT
///       The traced run: replays every job of JOBLIST through the public
///       entry points of each layer, recording a span around each call.
///       CACHE is the in-process replay's Pass-A cache, SUPCACHE the
///       supervised replay's; both start in the state the product run
///       started in.  SCRATCH receives the timed store() copies.
///
/// JOBLIST files hold one job per line: `name<TAB>path`.  LADDER is `deep`
/// (intro_batch's default ladder) or `no-deep` (--no-deep).  Every output
/// is one JSON document; run.py does the statistics.
///
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "cache/Fingerprint.h"
#include "cache/ResultCache.h"
#include "frontend/Parser.h"
#include "frontend/Printer.h"
#include "fuzz/Generator.h"
#include "fuzz/Oracles.h"
#include "introspect/Heuristics.h"
#include "introspect/Resilient.h"
#include "ir/Validator.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "supervise/Supervise.h"
#include "support/Json.h"
#include "support/Socket.h"
#include "workload/DaCapo.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace intro;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point Epoch = Clock::now();

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

/// splitmix64 finalizer: every input seed is a pure function of the
/// benchmark seed and the input's coordinates.
uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

uint64_t deriveSeed(uint64_t Base, uint64_t A, uint64_t B) {
  return mix(mix(mix(Base) ^ A) ^ (B << 1 | 1));
}

struct Job {
  std::string Name;
  std::string Source;
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::ostringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

void writeFile(const fs::path &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  if (!Out)
    throw std::runtime_error("cannot write " + Path.string());
}

/// Loads a JOBLIST.  Sources are read once per distinct path.
std::vector<Job> readJobList(const std::string &Path) {
  std::vector<Job> Jobs;
  std::map<std::string, std::string> Loaded;
  std::istringstream Lines(readFile(Path));
  std::string Line;
  while (std::getline(Lines, Line)) {
    size_t Tab = Line.find('\t');
    if (Tab == std::string::npos)
      throw std::runtime_error("bad job list line: " + Line);
    std::string File = Line.substr(Tab + 1);
    auto [It, Inserted] = Loaded.try_emplace(File);
    if (Inserted)
      It->second = readFile(File);
    Jobs.push_back({Line.substr(0, Tab), It->second});
  }
  return Jobs;
}

/// The ladder the product tools run: their defaults, --no-deep for the
/// served workloads, sequential as a supervised child runs it.
ResilientOptions ladderFor(const std::string &Ladder) {
  if (Ladder != "deep" && Ladder != "no-deep")
    throw std::runtime_error("LADDER must be deep or no-deep");
  ResilientOptions Options;
  Options.AttemptDeep = Ladder == "deep";
  Options.Portfolio = false;
  Options.Workers = 1;
  return Options;
}

/// Writes the deterministic section exactly as a supervised child does for
/// attempt 1 (supervise/Supervise.cpp writeChildReport).
std::string deterministicSection(const std::string &Name,
                                 const ResilientOptions &Ladder,
                                 const ResilientOutcome &Outcome) {
  std::ostringstream Out;
  JsonWriter J(Out);
  J.beginObject();
  J.key("job");
  J.value(Name);
  J.key("attempt");
  J.value(1u);
  J.key("options");
  writeResilientOptionsJson(J, Ladder);
  J.key("outcome");
  writeResilientOutcomeJson(J, Outcome);
  J.endObject();
  return Out.str();
}

void writeAttemptsJson(JsonWriter &J, const AttemptTrace &Trace) {
  J.beginArray();
  for (const Attempt &A : Trace) {
    J.beginObject();
    J.key("level");
    J.value(degradationLevelName(A.Level));
    J.key("round");
    J.value(A.TightenedRound);
    J.key("status");
    J.value(statusName(A.Status));
    J.key("tuples");
    J.value(A.Stats.VarPointsToTuples + A.Stats.FieldPointsToTuples);
    J.key("pops");
    J.value(A.Stats.WorklistPops);
    J.key("approx_bytes");
    J.value(A.Stats.ApproxBytes);
    J.key("seconds");
    J.value(A.Seconds);
    J.endObject();
  }
  J.endArray();
}

//===----------------------------------------------------------------------===//
// gen-dacapo / gen-small
//===----------------------------------------------------------------------===//

int genDacapo(uint64_t Seed, uint32_t Variants, const fs::path &Dir) {
  fs::create_directories(Dir);
  std::vector<WorkloadProfile> Profiles = dacapoProfiles();
  uint64_t Count = 0, Bytes = 0;
  for (size_t Index = 0; Index < Profiles.size(); ++Index)
    for (uint32_t Variant = 0; Variant < Variants; ++Variant) {
      WorkloadProfile P = Profiles[Index];
      P.Seed = deriveSeed(Seed, Index, Variant);
      std::string Text = printProgram(generateWorkload(P));
      writeFile(Dir / (P.Name + "-" + std::to_string(Variant) + ".intro"),
                Text);
      ++Count;
      Bytes += Text.size();
    }
  std::cout << "{\"inputs\": " << Count << ", \"bytes\": " << Bytes << "}\n";
  return 0;
}

/// A serve-small program must stay small under the served ladder: its
/// IntroB pass completes within this many tuples.  Roughly one generated
/// program in 750 explodes under 2objH-IntroB instead (seconds of solving
/// where the others take a millisecond); such a draw is replaced by the
/// next derived seed, so per-job overhead, not one solve, sets the
/// workload's cost on every seed.
constexpr uint64_t SmallTupleCap = 250'000;

bool staysSmall(const Program &Prog) {
  ResilientOptions Options = ladderFor("no-deep");
  Options.AttemptIntroA = false;
  Options.TightenedRounds = 0;
  Options.RefinedBudget.MaxTuples = SmallTupleCap;
  auto Deep = makeObjectPolicy(Prog, 2, 1);
  ResilientOutcome Outcome = runResilient(Prog, *Deep, Options);
  return Outcome.completed() && Outcome.Level == DegradationLevel::IntroB;
}

int genSmall(uint64_t Seed, uint32_t Count, const fs::path &Dir) {
  fs::create_directories(Dir);
  uint64_t Bytes = 0, Replaced = 0;
  for (uint32_t K = 0; K < Count; ++K) {
    auto Bias = static_cast<fuzz::FuzzBias>(K % fuzz::NumFuzzBiases);
    for (uint64_t Draw = 0;; ++Draw) {
      Program Prog = fuzz::generateFuzzProgram(
          deriveSeed(Seed, 1000 + static_cast<uint64_t>(Bias),
                     K + (Draw << 32)),
          Bias);
      if (!staysSmall(Prog)) {
        ++Replaced;
        continue;
      }
      std::string Text = printProgram(Prog);
      writeFile(Dir / (std::string(fuzz::fuzzBiasName(Bias)) + "-" +
                       std::to_string(K) + ".intro"),
                Text);
      Bytes += Text.size();
      break;
    }
  }
  std::cout << "{\"inputs\": " << Count << ", \"bytes\": " << Bytes
            << ", \"replaced\": " << Replaced << "}\n";
  return 0;
}

//===----------------------------------------------------------------------===//
// load
//===----------------------------------------------------------------------===//

struct LoadRecord {
  int64_t SubmitNs = 0;
  int64_t FirstLineNs = -1;
  int64_t FinalNs = -1;
  int64_t DoneNs = 0;
  bool Ok = false;
  std::string Error;
  serve::SubmitOutcome Outcome;
};

/// Client connections of the load: at most two on a 4-vCPU host.
constexpr unsigned Connections = 2;

int runLoad(const std::string &Socket, const std::vector<Job> &Jobs,
            const std::string &OutPath) {
  std::vector<std::unique_ptr<serve::Client>> Clients;
  for (unsigned C = 0; C < Connections; ++C) {
    auto Client = std::make_unique<serve::Client>();
    std::string Error;
    if (!Client->connect(Socket, Error)) {
      std::cerr << "error: " << Error << "\n";
      return 1;
    }
    Clients.push_back(std::move(Client));
  }

  std::vector<LoadRecord> Records(Jobs.size());
  std::atomic<size_t> Next{0};
  auto Worker = [&](unsigned C) {
    for (;;) {
      size_t Index = Next.fetch_add(1);
      if (Index >= Jobs.size())
        return;
      LoadRecord &R = Records[Index];
      R.SubmitNs = nowNs();
      R.Ok = Clients[C]->submit(
          Jobs[Index].Name, Jobs[Index].Source, 0, "",
          [&R](uint64_t, const std::string &Line) {
            int64_t Now = nowNs();
            if (R.FirstLineNs < 0)
              R.FirstLineNs = Now;
            if (Line.find("\"schema\"") != std::string::npos)
              R.FinalNs = Now;
          },
          R.Outcome, R.Error);
      R.DoneNs = nowNs();
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Connections; ++C)
    Threads.emplace_back(Worker, C);
  for (std::thread &T : Threads)
    T.join();

  // The daemon's own view after the last job: retention and counters.
  std::string Stats = "null", Error;
  if (!Clients[0]->send("{\"op\":\"stats\"}", Error) ||
      !Clients[0]->recv(Stats, Error))
    Stats = "null";
  for (auto &Client : Clients)
    Client->close();

  std::ofstream Out(OutPath);
  JsonWriter J(Out);
  J.beginObject();
  J.key("jobs");
  J.beginArray();
  for (size_t Index = 0; Index < Jobs.size(); ++Index) {
    const LoadRecord &R = Records[Index];
    J.beginObject();
    J.key("name");
    J.value(Jobs[Index].Name);
    J.key("submit_ns");
    J.value(static_cast<int64_t>(R.SubmitNs));
    J.key("first_line_ns");
    J.value(static_cast<int64_t>(R.FirstLineNs));
    J.key("final_ns");
    J.value(static_cast<int64_t>(R.FinalNs));
    J.key("done_ns");
    J.value(static_cast<int64_t>(R.DoneNs));
    J.key("ok");
    J.value(R.Ok);
    J.key("error");
    J.value(R.Error);
    J.key("state");
    J.value(R.Outcome.State);
    J.key("final_class");
    J.value(R.Outcome.FinalClass);
    J.key("attempts");
    J.value(R.Outcome.Attempts);
    J.key("report");
    J.value(R.Outcome.FinalReportLine);
    J.endObject();
  }
  J.endArray();
  J.key("stats");
  J.value(Stats);
  J.endObject();
  Out << '\n';
  return Out ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// reference
//===----------------------------------------------------------------------===//

int runReference(const std::string &LadderName, const std::vector<Job> &Jobs,
                 const std::string &OutPath, const std::string &SamplePath) {
  std::set<std::string> Sample;
  std::istringstream Lines(readFile(SamplePath));
  std::string Name;
  while (std::getline(Lines, Name))
    if (!Name.empty())
      Sample.insert(Name);
  ResilientOptions Ladder = ladderFor(LadderName);
  std::set<std::string> Done;
  std::ofstream Out(OutPath);
  JsonWriter J(Out);
  J.beginObject();
  J.key("jobs");
  J.beginArray();
  for (const Job &Item : Jobs) {
    if (!Done.insert(Item.Name).second)
      continue;
    ParseResult Parsed = parseProgram(Item.Source);
    std::vector<std::string> Errors = std::move(Parsed.Errors);
    if (Errors.empty())
      Errors = validateProgram(Parsed.Prog);
    J.beginObject();
    J.key("name");
    J.value(Item.Name);
    if (!Errors.empty()) {
      J.key("error");
      J.value(Errors.front());
      J.endObject();
      continue;
    }
    auto Deep = makeObjectPolicy(Parsed.Prog, 2, 1);
    ResilientOutcome Outcome = runResilient(Parsed.Prog, *Deep, Ladder);
    J.key("deterministic");
    J.value(deterministicSection(Item.Name, Ladder, Outcome));
    if (Sample.count(Item.Name)) {
      fuzz::OracleOptions Options;
      Options.Oracles = fuzz::OracleSet();
      Options.Oracles.enable(fuzz::OracleKind::ReferenceEquivalence);
      fuzz::OracleOutcome Check = fuzz::checkProgram(Parsed.Prog, Options);
      J.key("datalog_checks");
      J.value(Check.ChecksRun);
      J.key("datalog_findings");
      J.beginArray();
      for (const fuzz::Finding &F : Check.Findings)
        J.value(F.Policy + ": " + F.Detail);
      J.endArray();
    }
    J.endObject();
  }
  J.endArray();
  J.endObject();
  Out << '\n';
  return Out ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// replay (the traced run)
//===----------------------------------------------------------------------===//

/// Spans held in memory and written once at the end.  Parent is an index
/// into Spans (-1 for a job's root span).
struct Span {
  const char *Name;
  int64_t StartNs;
  int64_t EndNs;
  int64_t Parent;
  uint64_t JobId;
};

class SpanLog {
public:
  int64_t open(const char *Name, int64_t Parent, uint64_t JobId) {
    Spans.push_back({Name, nowNs(), -1, Parent, JobId});
    return static_cast<int64_t>(Spans.size() - 1);
  }
  void close(int64_t Index) { Spans[Index].EndNs = nowNs(); }
  /// Records a span whose interval the library measured itself (a ladder
  /// attempt's Attempt::Seconds), laid out inside its parent.
  int64_t add(const char *Name, int64_t StartNs, int64_t EndNs,
              int64_t Parent, uint64_t JobId) {
    Spans.push_back({Name, StartNs, EndNs, Parent, JobId});
    return static_cast<int64_t>(Spans.size() - 1);
  }
  /// Times \p Body as a span named \p Name under \p Parent.
  template <typename F>
  auto time(const char *Name, int64_t Parent, uint64_t JobId, F &&Body) {
    int64_t Index = open(Name, Parent, JobId);
    if constexpr (std::is_void_v<decltype(Body())>) {
      Body();
      close(Index);
    } else {
      auto Result = Body();
      close(Index);
      return Result;
    }
  }
  void write(JsonWriter &J) const {
    J.beginArray();
    for (const Span &S : Spans) {
      J.beginArray();
      J.value(S.Name);
      J.value(static_cast<int64_t>(S.StartNs));
      J.value(static_cast<int64_t>(S.EndNs));
      J.value(static_cast<int64_t>(S.Parent));
      J.value(S.JobId);
      J.endArray();
    }
    J.endArray();
  }

private:
  std::vector<Span> Spans;
};

const char *spanNameFor(DegradationLevel Level) {
  switch (Level) {
  case DegradationLevel::Deep:
    return "analysis.deep";
  case DegradationLevel::Insensitive:
    return "analysis.pass_a";
  default:
    return "analysis.pass_b";
  }
}

/// Lays the ladder's attempts (and the metric computation, which runs right
/// after the pre-analysis) out inside the ladder span, in trace order.
void addLadderChildren(SpanLog &Log, int64_t LadderSpan, int64_t StartNs,
                       int64_t EndNs, const ResilientOutcome &Outcome,
                       uint64_t JobId) {
  auto Ns = [](double Seconds) { return static_cast<int64_t>(Seconds * 1e9); };
  int64_t At = StartNs;
  for (const Attempt &A : Outcome.Trace) {
    int64_t End = std::min(EndNs, At + Ns(A.Seconds));
    Log.add(spanNameFor(A.Level), At, End, LadderSpan, JobId);
    At = End;
    if (A.Level == DegradationLevel::Insensitive && Outcome.MetricSeconds > 0) {
      End = std::min(EndNs, At + Ns(Outcome.MetricSeconds));
      Log.add("introspect.metrics", At, End, LadderSpan, JobId);
      At = End;
    }
  }
}

/// Splits a child's raw pipe bytes into transcript lines.
std::vector<std::string> transcriptLines(const std::string &Bytes) {
  std::vector<std::string> Lines;
  std::istringstream In(Bytes);
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

/// The frames one served job exchanges: the submit request, then a line
/// event per transcript line.  \returns the encoded byte count.
uint64_t exerciseFrameCodec(const Job &Item,
                            const std::vector<std::string> &Lines,
                            bool &Ok) {
  std::vector<std::string> Payloads;
  {
    std::ostringstream Out;
    JsonWriter J(Out);
    J.beginObject();
    J.key("op");
    J.value("submit");
    J.key("name");
    J.value(Item.Name);
    J.key("source");
    J.value(Item.Source);
    J.endObject();
    Payloads.push_back(Out.str());
  }
  for (const std::string &Line : Lines) {
    std::ostringstream Out;
    JsonWriter J(Out);
    J.beginObject();
    J.key("ok");
    J.value(true);
    J.key("event");
    J.value("line");
    J.key("attempt");
    J.value(1u);
    J.key("line");
    J.value(Line);
    J.endObject();
    Payloads.push_back(Out.str());
  }
  std::string Wire;
  for (const std::string &Payload : Payloads)
    Wire += serve::encodeFrame(Payload);
  serve::FrameDecoder Decoder;
  Decoder.feed(Wire.data(), Wire.size());
  std::string Frame, Error;
  size_t Decoded = 0;
  while (Decoder.next(Frame, Error) == serve::FrameDecoder::Status::Frame)
    Ok &= Frame == Payloads[Decoded++];
  Ok &= Decoded == Payloads.size();
  return Wire.size();
}

/// What the supervised replay of one job left behind.
struct SupervisedReplay {
  supervise::JobResult Result;
  std::string Report; ///< The child's final report line.
  bool ReportOk = false;
  uint64_t FrameBytes = 0;
  bool FramesOk = true;
};

/// Replays \p Item as the product runs it: one supervised child, then the
/// parent's report decoding and (served workloads) the frame codec.
SupervisedReplay replaySupervised(SpanLog &Log, const Job &Item, size_t Id,
                                  const supervise::BatchOptions &Batch,
                                  bool Served) {
  SupervisedReplay R;
  int64_t Root = Log.open("job", -1, Id);
  supervise::JobSpec Spec{Item.Name, Item.Source, {}};
  std::string ChildBytes;
  supervise::JobHooks Hooks;
  Hooks.OnChildOutput = [&ChildBytes](uint32_t Attempt,
                                      std::string_view Chunk) {
    if (Attempt == 1)
      ChildBytes.append(Chunk);
  };
  R.Result = Log.time("supervise.job", Root, Id, [&] {
    return supervise::runSupervisedJob(Spec, Id, Batch, Hooks);
  });
  std::vector<std::string> Lines = transcriptLines(ChildBytes);
  R.Report = Lines.empty() ? std::string() : Lines.back();
  R.ReportOk = Log.time("supervise.report_parse", Root, Id, [&] {
    JsonParseResult Doc = parseJson(R.Report);
    const JsonValue *Attempts =
        Doc.ok() ? Doc.Value.get("deterministic") : nullptr;
    Attempts = Attempts ? Attempts->get("outcome") : nullptr;
    Attempts = Attempts ? Attempts->get("attempts") : nullptr;
    AttemptTrace Trace;
    std::string Error;
    return Attempts && parseAttemptTraceJson(*Attempts, Trace, Error);
  });
  if (Served)
    R.FrameBytes = Log.time("serve.frame_codec", Root, Id, [&] {
      return exerciseFrameCodec(Item, Lines, R.FramesOk);
    });
  Log.close(Root);
  return R;
}

int runReplay(const std::string &LadderName, const std::vector<Job> &Jobs,
              const std::string &CacheDir, const std::string &SupCacheDir,
              const std::string &ScratchDir, bool Served,
              const std::string &OutPath) {
  ResilientOptions BaseLadder = ladderFor(LadderName);
  cache::ResultCache Cache({CacheDir, 0});
  cache::ResultCache Probe({CacheDir, 0});
  cache::ResultCache StoreCopy({ScratchDir, 0});
  supervise::BatchOptions Batch;
  Batch.Ladder = BaseLadder;
  Batch.Limits.WallDeadlineSeconds = 60; // intro_batch / intro_serve default
  Batch.CacheDir = SupCacheDir;

  SpanLog Log;
  int64_t Start = nowNs();
  // Supervised replays first, while this process is as small as the
  // product's parents: fork() copies the parent's page tables, and the
  // in-process phase leaves hundreds of MB of heap behind.
  std::vector<SupervisedReplay> Supervised;
  for (size_t Id = 0; Id < Jobs.size(); ++Id)
    Supervised.push_back(replaySupervised(Log, Jobs[Id], Id, Batch, Served));

  // Per-job records stream out as the in-process phase goes; spans stay in
  // memory until the end.
  std::ofstream Out(OutPath);
  JsonWriter JJ(Out);
  JJ.beginObject();
  JJ.key("jobs");
  JJ.beginArray();
  for (size_t Id = 0; Id < Jobs.size(); ++Id) {
    const Job &Item = Jobs[Id];
    int64_t Root = Log.open("job", -1, Id);
    ParseResult Parsed = Log.time("frontend.parse", Root, Id, [&] {
      return parseProgram(Item.Source);
    });
    std::vector<std::string> Errors = Log.time(
        "ir.validate", Root, Id, [&] { return validateProgram(Parsed.Prog); });
    if (!Parsed.Errors.empty() || !Errors.empty())
      throw std::runtime_error("replay input does not validate: " + Item.Name);
    cache::Fingerprint Key = Log.time("cache.fingerprint", Root, Id, [&] {
      return cache::fingerprintProgram(Parsed.Prog);
    });
    // The explicit probe is the benchmark's own timed call; the ladder
    // then probes the same directory itself, and its counters say whether
    // the job used Pass A from the cache at all.
    cache::CachedPassA Entry;
    bool ProbeHit = Log.time("cache.probe", Root, Id,
                             [&] { return Probe.lookup(Key, Entry); });

    ResilientOptions Ladder = BaseLadder;
    Ladder.Cache = &Cache;
    Ladder.CacheKey = &Key;
    cache::CacheStats Before = Cache.stats();
    int64_t LadderStart = nowNs();
    auto Deep = makeObjectPolicy(Parsed.Prog, 2, 1);
    ResilientOutcome Outcome = runResilient(Parsed.Prog, *Deep, Ladder);
    int64_t LadderEnd = nowNs();
    int64_t LadderSpan =
        Log.add("introspect.ladder", LadderStart, LadderEnd, Root, Id);
    addLadderChildren(Log, LadderSpan, LadderStart, LadderEnd, Outcome, Id);
    cache::CacheStats After = Cache.stats();
    uint64_t Hits = After.Hits - Before.Hits;
    uint64_t Misses = After.Misses - Before.Misses;

    // Heuristics and store need the Pass-A entry, which the ladder either
    // read (hit) or stored (miss); deep-rung wins never touch Pass A.
    std::error_code Ec;
    uint64_t EntryBytes = fs::file_size(Cache.entryPath(Key), Ec);
    bool HaveEntry =
        Hits + Misses > 0 && (ProbeHit || Cache.lookup(Key, Entry));
    if (HaveEntry)
      Log.time("introspect.heuristics", Root, Id, [&] {
        applyHeuristicA(Parsed.Prog, Entry.Insens, Entry.Metrics,
                        BaseLadder.ParamsA);
        applyHeuristicB(Parsed.Prog, Entry.Insens, Entry.Metrics,
                        BaseLadder.ParamsB);
      });

    // The ladder stored the miss itself; the timed store() writes the same
    // entry again into SCRATCH, so the cost is measured on real bytes.
    uint64_t WriteBytes = 0;
    if (Misses > 0 && HaveEntry) {
      Log.time("cache.store", Root, Id,
               [&] { return StoreCopy.store(Key, Entry); });
      WriteBytes = fs::file_size(StoreCopy.entryPath(Key), Ec);
      fs::remove(StoreCopy.entryPath(Key), Ec);
    }
    uint64_t ReadBytes = Hits > 0 ? EntryBytes : 0;

    std::string Deterministic = Log.time("support.json_write", Root, Id, [&] {
      return deterministicSection(Item.Name, BaseLadder, Outcome);
    });
    Log.close(Root);

    JJ.beginObject();
    JJ.key("name");
    JJ.value(Item.Name);
    JJ.key("input_bytes");
    JJ.value(static_cast<uint64_t>(Item.Source.size()));
    JJ.key("hits");
    JJ.value(Hits);
    JJ.key("misses");
    JJ.value(Misses);
    JJ.key("read_bytes");
    JJ.value(ReadBytes);
    JJ.key("write_bytes");
    JJ.value(WriteBytes);
    JJ.key("level");
    JJ.value(degradationLevelName(Outcome.Level));
    JJ.key("attempts");
    writeAttemptsJson(JJ, Outcome.Trace);
    JJ.key("deterministic");
    JJ.value(Deterministic);
    const SupervisedReplay &R = Supervised[Id];
    JJ.key("supervised_class");
    JJ.value(supervise::jobOutcomeClassName(R.Result.FinalClass));
    JJ.key("supervised_attempts");
    JJ.value(static_cast<uint64_t>(R.Result.Attempts.size()));
    JJ.key("report");
    JJ.value(R.Report);
    JJ.key("report_parsed");
    JJ.value(R.ReportOk);
    JJ.key("frame_bytes");
    JJ.value(R.FrameBytes);
    JJ.key("frames_ok");
    JJ.value(R.FramesOk);
    JJ.endObject();
  }
  int64_t End = nowNs();
  JJ.endArray();
  JJ.key("wall_ns");
  JJ.value(static_cast<int64_t>(End - Start));
  JJ.key("spans");
  Log.write(JJ);
  JJ.endObject();
  Out << '\n';
  return Out ? 0 : 1;
}

uint64_t parseNumber(const char *Text) {
  size_t Used = 0;
  uint64_t Value = std::stoull(Text, &Used, 0);
  if (Text[Used] != '\0')
    throw std::runtime_error(std::string("not a number: ") + Text);
  return Value;
}

int usage() {
  std::cerr << "usage: perfbench_driver gen-dacapo SEED VARIANTS OUTDIR\n"
               "       perfbench_driver gen-small SEED COUNT OUTDIR\n"
               "       perfbench_driver load SOCKET JOBLIST OUT\n"
               "       perfbench_driver reference LADDER JOBLIST OUT SAMPLE\n"
               "       perfbench_driver replay LADDER JOBLIST CACHE SUPCACHE "
               "SCRATCH OUT [--served]\n";
  return 2;
}

} // namespace

int main(int argc, char **argv) try {
  ignoreSigPipe();
  if (argc < 2)
    return usage();
  std::string Command = argv[1];
  if (Command == "gen-dacapo" && argc == 5)
    return genDacapo(parseNumber(argv[2]),
                     static_cast<uint32_t>(parseNumber(argv[3])), argv[4]);
  if (Command == "gen-small" && argc == 5)
    return genSmall(parseNumber(argv[2]),
                    static_cast<uint32_t>(parseNumber(argv[3])), argv[4]);
  if (Command == "load" && argc == 5)
    return runLoad(argv[2], readJobList(argv[3]), argv[4]);
  if (Command == "reference" && argc == 6)
    return runReference(argv[2], readJobList(argv[3]), argv[4], argv[5]);
  if (Command == "replay" && (argc == 8 || argc == 9)) {
    bool Served = argc == 9 && std::string(argv[8]) == "--served";
    if (argc == 9 && !Served)
      return usage();
    return runReplay(argv[2], readJobList(argv[3]), argv[4], argv[5], argv[6],
                     Served, argv[7]);
  }
  return usage();
} catch (const std::exception &Error) {
  std::cerr << "perfbench_driver: " << Error.what() << "\n";
  return 3;
}
