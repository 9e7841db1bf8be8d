//===- supervise/Supervise.cpp - Supervised batch analysis jobs -----------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "supervise/Supervise.h"

#include "analysis/ContextPolicy.h"
#include "analysis/Reports.h"
#include "frontend/Parser.h"
#include "ir/Validator.h"
#include "support/ExitCodes.h"
#include "support/Json.h"
#include "support/Overflow.h"
#include "support/ParseNum.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <cmath>
#include <csignal>
#include <cstring>
#include <future>
#include <new>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include <unistd.h>

using namespace intro;
using namespace intro::supervise;

const char *intro::supervise::jobOutcomeClassName(JobOutcomeClass Class) {
  switch (Class) {
  case JobOutcomeClass::Clean:
    return "clean";
  case JobOutcomeClass::AnalysisFailure:
    return "analysis_failure";
  case JobOutcomeClass::BadInput:
    return "bad_input";
  case JobOutcomeClass::NonzeroExit:
    return "nonzero_exit";
  case JobOutcomeClass::Signalled:
    return "signalled";
  case JobOutcomeClass::OutOfMemory:
    return "out_of_memory";
  case JobOutcomeClass::WatchdogTimeout:
    return "watchdog_timeout";
  case JobOutcomeClass::BadReport:
    return "bad_report";
  }
  return "?";
}

bool intro::supervise::isRetryable(JobOutcomeClass Class) {
  switch (Class) {
  case JobOutcomeClass::Clean:
  case JobOutcomeClass::AnalysisFailure:
  case JobOutcomeClass::BadInput:
    return false;
  case JobOutcomeClass::NonzeroExit:
  case JobOutcomeClass::Signalled:
  case JobOutcomeClass::OutOfMemory:
  case JobOutcomeClass::WatchdogTimeout:
  case JobOutcomeClass::BadReport:
    return true;
  }
  return false;
}

double intro::supervise::plannedBackoffMs(const RetryPolicy &Policy,
                                          size_t JobIndex, uint32_t Attempt) {
  if (Attempt < 2)
    return 0;
  // One draw per (seed, job, attempt): the schedule of any attempt is
  // reproducible in isolation, independent of how many draws other jobs
  // made (a shared generator would couple the jobs' schedules).
  Rng R(Policy.Seed + JobIndex * 0x9E3779B97F4A7C15ull + Attempt);
  double Unit = static_cast<double>(R.next() >> 11) *
                (1.0 / 9007199254740992.0); // 53-bit fraction in [0, 1).
  double Delay = FirstRetryDelayMs *
                 std::pow(RetryDelayGrowth, static_cast<double>(Attempt) - 2.0);
  return Delay * (1.0 + RetryDelayJitter * (2.0 * Unit - 1.0));
}

void intro::supervise::disambiguateJobNames(std::vector<JobSpec> &Jobs) {
  std::unordered_set<std::string> Taken;
  for (const JobSpec &Job : Jobs)
    Taken.insert(Job.Name);
  std::unordered_map<std::string, uint32_t> NextSuffix;
  std::unordered_set<std::string> Seen;
  for (JobSpec &Job : Jobs) {
    if (Seen.insert(Job.Name).second)
      continue;
    // Later duplicate: append the smallest ".N" (N >= 2) that collides
    // with neither an original name nor an already-assigned one.
    uint32_t &Suffix = NextSuffix[Job.Name];
    if (Suffix < 2)
      Suffix = 2;
    std::string Candidate;
    do {
      Candidate = Job.Name + "." + std::to_string(Suffix++);
    } while (Taken.count(Candidate) || Seen.count(Candidate));
    Job.Name = std::move(Candidate);
    Seen.insert(Job.Name);
  }
}

bool intro::supervise::parseSharedBatchFlag(const std::string &Arg,
                                            BatchOptions &Options,
                                            std::string &Error) {
  constexpr uint32_t U32Max = std::numeric_limits<uint32_t>::max();
  constexpr uint64_t U64Max = std::numeric_limits<uint64_t>::max();
  std::string Value;
  if (Arg == "--no-deep") {
    Options.Ladder.AttemptDeep = false;
    return true;
  }
  if (flagValue(Arg, "--cache-dir", Options.CacheDir))
    return true;
  if (flagValue(Arg, "--workers", Value)) {
    // Each worker is a thread started up front (intro_serve's pool), so
    // the count is capped, at the bench harnesses' limit.
    parseU32("--workers", Value, 1, 1024, Options.Workers, Error);
    return true;
  }
  if (flagValue(Arg, "--max-attempts", Value)) {
    parseU32("--max-attempts", Value, 1, U32Max, Options.Retry.MaxAttempts,
             Error);
    return true;
  }
  if (flagValue(Arg, "--cpu-limit", Value)) {
    parseU32("--cpu-limit", Value, 0, U32Max, Options.Limits.MaxCpuSeconds,
             Error);
    return true;
  }
  if (flagValue(Arg, "--mem-limit", Value)) {
    // MiB from the user, bytes to RLIMIT_AS.  A huge value must saturate
    // rather than shift-wrap into a tiny (or zero) limit that would starve
    // every child; 0 is rejected because RLIMIT_AS of 0 means "no address
    // space at all", not "no limit" — unlimited is the default, spelled by
    // omitting the flag.
    uint64_t MiB = 0;
    if (parseU64("--mem-limit", Value, 1, U64Max, MiB, Error))
      Options.Limits.MaxAddressSpaceBytes = saturatingMul(MiB, 1ull << 20);
    return true;
  }
  if (flagValue(Arg, "--seed", Value)) {
    parseU64("--seed", Value, 0, U64Max, Options.Retry.Seed, Error);
    return true;
  }
  if (flagValue(Arg, "--cache-max-entries", Value)) {
    parseU64("--cache-max-entries", Value, 0, U64Max, Options.CacheMaxEntries,
             Error);
    return true;
  }
  return false;
}

bool intro::supervise::checkSharedBatchFlags(const BatchOptions &Options,
                                             std::string &Error) {
  if (Options.CacheMaxEntries != 0 && Options.CacheDir.empty()) {
    Error = "--cache-max-entries=" + std::to_string(Options.CacheMaxEntries) +
            " needs --cache-dir (there is no cache to cap)";
    return false;
  }
  return true;
}

bool intro::supervise::parseChaosPlan(const std::string &Spec,
                                      ChaosPlan &Plan, std::string &Error) {
  std::vector<std::string> Parts;
  size_t Begin = 0;
  while (Begin <= Spec.size()) {
    size_t Colon = Spec.find(':', Begin);
    size_t Stop = Colon == std::string::npos ? Spec.size() : Colon;
    Parts.push_back(Spec.substr(Begin, Stop - Begin));
    Begin = Stop + 1;
    if (Colon == std::string::npos)
      break;
  }
  if (Parts.empty() || Parts.size() > 3) {
    Error = "expected KIND[:LEVEL][:UNTIL], got '" + Spec + "'";
    return false;
  }

  const std::string &Kind = Parts[0];
  if (Kind == "crash")
    Plan.Fault = ChaosPlan::Kind::Crash;
  else if (Kind == "oom")
    Plan.Fault = ChaosPlan::Kind::Oom;
  else if (Kind == "spin")
    Plan.Fault = ChaosPlan::Kind::Spin;
  else if (Kind == "exit")
    Plan.Fault = ChaosPlan::Kind::ExitNonzero;
  else if (Kind == "garbage")
    Plan.Fault = ChaosPlan::Kind::GarbageReport;
  else if (Kind == "truncate")
    Plan.Fault = ChaosPlan::Kind::TruncatedReport;
  else {
    Error = "unknown chaos kind '" + Kind +
            "' (crash|oom|spin|exit|garbage|truncate)";
    return false;
  }
  if (Parts.size() >= 2 && !Parts[1].empty() &&
      !degradationLevelFromName(Parts[1], Plan.AtLevel)) {
    Error = "unknown degradation level '" + Parts[1] + "'";
    return false;
  }
  if (Parts.size() == 3 &&
      !parseU32("chaos UNTIL", Parts[2], 1,
                std::numeric_limits<uint32_t>::max(), Plan.UntilAttempt,
                Error))
    return false;
  return true;
}

void intro::supervise::escalateBelow(ResilientOptions &Options,
                                     DegradationLevel Level) {
  // Ladder execution order: Insensitive (Pass A), Deep, IntroB, IntroA,
  // TightenedIntroA.  Dying *at* a rung disables that rung and every
  // stronger one; dying in Pass A leaves nothing to disable (it is both
  // the gate and the floor).  Pass A is stored in the cache before the
  // deep rung starts, so a relaunch after any later death reloads it.
  switch (Level) {
  case DegradationLevel::TightenedIntroA:
    Options.TightenedRounds = 0;
    [[fallthrough]];
  case DegradationLevel::IntroA:
    Options.AttemptIntroA = false;
    [[fallthrough]];
  case DegradationLevel::IntroB:
    Options.AttemptIntroB = false;
    [[fallthrough]];
  case DegradationLevel::Deep:
    Options.AttemptDeep = false;
    break;
  case DegradationLevel::Insensitive:
    break;
  }
}

namespace {

//===----------------------------------------------------------------------===//
// Child side: parse, run the ladder, stream progress + report.
//===----------------------------------------------------------------------===//

/// Burns address space until the RLIMIT_AS guard starves us.  Reservations
/// only — the pages are never touched, so without a limit the loop ends at
/// the pin-array bound and still reports OOM instead of harming the host.
[[noreturn]] void starveMemory() {
  constexpr size_t ChunkBytes = 64ull << 20;
  constexpr size_t MaxChunks = 4096;
  static void *volatile Pins[MaxChunks]; // volatile: the pins must stay.
  size_t Count = 0;
  while (Count < MaxChunks) {
    void *Chunk = ::operator new(ChunkBytes, std::nothrow);
    if (!Chunk)
      break;
    Pins[Count++] = Chunk;
  }
  (void)Pins[0];
  throw std::bad_alloc();
}

/// Fires \p Chaos if it is armed for this rung and attempt.  The caller
/// already emitted (and flushed) the rung_start progress line, so the
/// parent knows where the body is buried.
void maybeFireChaos(const ChaosPlan &Chaos, DegradationLevel Level,
                    uint32_t Attempt) {
  if (!Chaos.armed() || Level != Chaos.AtLevel || Attempt > Chaos.UntilAttempt)
    return;
  switch (Chaos.Fault) {
  case ChaosPlan::Kind::Crash:
    // Not a real SIGSEGV on purpose: sanitizer runtimes intercept SIGSEGV
    // and exit through their own reporting path, which would change the
    // classification per build flavor.  SIGKILL is uncatchable everywhere.
    ::raise(SIGKILL);
    break;
  case ChaosPlan::Kind::Oom:
    starveMemory();
  case ChaosPlan::Kind::Spin:
    for (;;)
      ::usleep(50'000);
  case ChaosPlan::Kind::ExitNonzero:
    ::_exit(13);
  case ChaosPlan::Kind::None:
  case ChaosPlan::Kind::GarbageReport:
  case ChaosPlan::Kind::TruncatedReport:
    break;
  }
}

/// Writes the child's final `intro-run-report-v1` line.  \p Outcome may be
/// null (bad-input reports carry diagnostics instead).  Every wall-clock
/// value goes to the "timing" section (writeResilientTimingJson), so the
/// "deterministic" section is byte-identical across runs of the same job,
/// served or local, cold or warm.  \p Cache (when the
/// child ran with a Pass-A cache) contributes a top-level "cache" object —
/// a sibling of "deterministic", not part of it: the counters are
/// deterministic for a given starting cache state but necessarily differ
/// between a cold and a warm run, and "deterministic" is the section whose
/// bytes must not.
void writeChildReport(std::ostream &Report, const JobSpec &Job,
                      uint32_t Attempt, const ResilientOptions &Ladder,
                      const ResilientOutcome *Outcome,
                      const std::vector<std::string> &InputErrors,
                      const cache::ResultCache *Cache = nullptr) {
  JsonWriter J(Report);
  J.beginObject();
  J.key("schema");
  J.value("intro-run-report-v1");
  J.key("deterministic");
  J.beginObject();
  J.key("job");
  J.value(Job.Name);
  J.key("attempt");
  J.value(Attempt);
  J.key("options");
  writeResilientOptionsJson(J, Ladder);
  if (!InputErrors.empty()) {
    J.key("input_errors");
    J.beginArray();
    for (const std::string &Error : InputErrors)
      J.value(Error);
    J.endArray();
  }
  if (Outcome) {
    J.key("outcome");
    writeResilientOutcomeJson(J, *Outcome);
  }
  J.endObject();
  if (Cache) {
    J.key("cache");
    cache::writeCacheStatsJson(J, Cache->stats());
  }
  J.key("timing");
  if (Outcome) {
    writeResilientTimingJson(J, *Outcome);
  } else {
    J.beginObject();
    J.key("total_seconds");
    J.value(0.0);
    J.endObject();
  }
  J.endObject();
  Report << '\n';
  Report.flush();
}

/// The analysis payload run inside the forked child.  Parsing and
/// validation happen here — the untrusted-input boundary stays inside the
/// sandbox — then the sequential degradation ladder runs with per-rung
/// progress streaming.
int childAnalyze(const JobSpec &Job, const ResilientOptions &BaseLadder,
                 uint32_t Attempt, std::ostream &Report,
                 const std::string &CacheDir, uint64_t CacheMaxEntries) {
  ParseResult Parsed = parseProgram(Job.Source);
  std::vector<std::string> InputErrors = std::move(Parsed.Errors);
  if (InputErrors.empty())
    InputErrors = validateProgram(Parsed.Prog);
  if (!InputErrors.empty()) {
    writeChildReport(Report, Job, Attempt, BaseLadder, nullptr, InputErrors);
    return ExitBadInput;
  }

  ResilientOptions Ladder = BaseLadder;

  // The child owns its cache handle: the parent's pointers cannot cross
  // the fork, and the shared directory is the actual cross-process state.
  // A retried or escalateBelow-relaunched child probes the same directory
  // its predecessor stored into, and reloads Pass A instead of re-solving.
  std::optional<cache::ResultCache> Cache;
  cache::Fingerprint CacheKey;
  if (!CacheDir.empty()) {
    Cache.emplace(cache::ResultCache::Options{CacheDir, CacheMaxEntries});
    CacheKey = cache::fingerprintProgram(Parsed.Prog);
    Ladder.Cache = &*Cache;
    Ladder.CacheKey = &CacheKey;
  }
  Ladder.OnRungStart = [&](DegradationLevel Level, uint32_t Round) {
    JsonWriter J(Report);
    J.beginObject();
    J.key("event");
    J.value("rung_start");
    J.key("level");
    J.value(degradationLevelName(Level));
    J.key("round");
    J.value(Round);
    J.endObject();
    Report << '\n';
    Report.flush();
    maybeFireChaos(Job.Chaos, Level, Attempt);
  };

  auto Deep = makeObjectPolicy(Parsed.Prog, 2, 1);
  ResilientOutcome Outcome = runResilient(Parsed.Prog, *Deep, Ladder);

  bool ReportChaos =
      Job.Chaos.armed() && Attempt <= Job.Chaos.UntilAttempt &&
      (Job.Chaos.Fault == ChaosPlan::Kind::GarbageReport ||
       Job.Chaos.Fault == ChaosPlan::Kind::TruncatedReport);
  if (ReportChaos) {
    if (Job.Chaos.Fault == ChaosPlan::Kind::GarbageReport)
      Report << "\x01\x02{{{not json\xff\xfe\n";
    else
      Report << "{\"schema\": \"intro-run-report-v1\", \"deterministic\": "
                "{\"job\": \"";
    Report.flush();
    return ExitSuccess;
  }

  writeChildReport(Report, Job, Attempt, Ladder, &Outcome, {},
                   Cache ? &*Cache : nullptr);
  return Outcome.completed() ? ExitSuccess : ExitAnalysisFailure;
}

//===----------------------------------------------------------------------===//
// Parent side: decode the pipe, classify, retry, quarantine.
//===----------------------------------------------------------------------===//

/// Decodes the child's JSONL transcript straight into the attempt record
/// and the job record: rung_start progress events (emission order IS
/// ladder execution order — Pass A, deep, then the introspective rungs —
/// so the last one seen is the rung the child was in when it stopped)
/// and at most one final report line (the line with a "schema" member).  A
/// healthy report line replaces the job's report-derived members, its
/// verbatim bytes included.  \returns true when this attempt wrote one.
bool decodeTranscript(const std::string &Output, JobAttempt &Record,
                      JobResult &Result) {
  bool HasReport = false;
  Record.ReportError = "no report line received";
  size_t Begin = 0;
  while (Begin <= Output.size()) {
    size_t End = Output.find('\n', Begin);
    size_t Stop = End == std::string::npos ? Output.size() : End;
    std::string_view Line(Output.data() + Begin, Stop - Begin);
    Begin = Stop + 1;
    if (Line.empty())
      continue;
    JsonParseResult Parsed = parseJson(Line);
    if (!Parsed.ok()) {
      // A dying child's last line may be cut mid-token; remember why in
      // case no healthy report line follows.
      Record.ReportError = "unparseable report line: " + Parsed.Error;
      continue;
    }
    const JsonValue &Doc = Parsed.Value;
    std::string Event;
    if (Doc.getString("event", Event) && Event == "rung_start") {
      std::string LevelName;
      DegradationLevel Level;
      if (Doc.getString("level", LevelName) &&
          degradationLevelFromName(LevelName, Level)) {
        Record.AnyRungStarted = true;
        Record.DeepestStartedRung = Level;
        uint64_t Round = 0;
        Doc.getUint("round", Round);
        Record.DeepestStartedRound = static_cast<uint32_t>(Round);
      }
      continue;
    }
    std::string Schema;
    if (!Doc.getString("schema", Schema))
      continue;
    if (Schema != "intro-run-report-v1") {
      Record.ReportError = "unexpected report schema '" + Schema + "'";
      continue;
    }
    const JsonValue *Det = Doc.get("deterministic");
    if (!Det || !Det->isObject()) {
      Record.ReportError = "report has no deterministic section";
      continue;
    }
    const JsonValue *Outcome = Det->get("outcome");
    const JsonValue *Attempts = Outcome ? Outcome->get("attempts") : nullptr;
    AttemptTrace Ladder;
    std::string TraceError;
    if (Attempts && !parseAttemptTraceJson(*Attempts, Ladder, TraceError)) {
      Record.ReportError = "bad attempt trace: " + TraceError;
      continue;
    }

    HasReport = true;
    Record.ReportError.clear();
    Record.Ladder = std::move(Ladder);
    const JsonValue *Cache = Doc.get("cache");
    Record.CacheEnabled =
        Cache && cache::parseCacheStatsJson(*Cache, Record.Cache);
    Result.ReportLine = std::string(Line);
    Result.InputErrors.clear();
    if (const JsonValue *Errors = Det->get("input_errors");
        Errors && Errors->isArray())
      for (const JsonValue &Error : Errors->elements())
        if (Error.isString())
          Result.InputErrors.push_back(Error.asString());
    Result.ResultLevel.clear();
    Result.ResultStatus.clear();
    Result.ResultCompleted = false;
    if (Outcome) { // Absent from bad-input reports.
      Outcome->getString("level", Result.ResultLevel);
      Outcome->getString("status", Result.ResultStatus);
      Outcome->getBool("completed", Result.ResultCompleted);
    }
  }
  return HasReport;
}

/// Combines the process-level fate with the transcript into the taxonomy.
/// \p CompletedReport: the attempt wrote a healthy report of a completed
/// ladder.
JobOutcomeClass classifyAttempt(const ChildResult &Child,
                                bool CompletedReport) {
  switch (Child.Status) {
  case ChildStatus::WatchdogKill:
    return JobOutcomeClass::WatchdogTimeout;
  case ChildStatus::OutOfMemory:
    return JobOutcomeClass::OutOfMemory;
  case ChildStatus::Signalled:
    // SIGXCPU is the kernel's CPU-time watchdog; same taxonomy bucket as
    // the parent's wall-clock one.
    return Child.TermSignal == SIGXCPU ? JobOutcomeClass::WatchdogTimeout
                                       : JobOutcomeClass::Signalled;
  case ChildStatus::NonzeroExit:
    if (Child.ExitCode == ExitBadInput)
      return JobOutcomeClass::BadInput;
    if (Child.ExitCode == ExitAnalysisFailure)
      return JobOutcomeClass::AnalysisFailure;
    return JobOutcomeClass::NonzeroExit;
  case ChildStatus::CleanExit:
    // The child's contract: exit 0 if and only if a completed result with
    // a healthy report.  Any inconsistency means the report channel is not
    // trustworthy.
    return CompletedReport ? JobOutcomeClass::Clean
                           : JobOutcomeClass::BadReport;
  }
  return JobOutcomeClass::NonzeroExit;
}

/// Strips supervisor-owned members from the configured ladder: callbacks
/// and tokens cannot cross the process boundary.
ResilientOptions sanitizeLadder(const ResilientOptions &Ladder) {
  ResilientOptions Clean = Ladder;
  Clean.Cancel = nullptr;
  Clean.OnRungStart = nullptr;
  // Cache pointers are per-process: the child opens its own ResultCache
  // over BatchOptions::CacheDir instead of inheriting the parent's handle.
  Clean.Cache = nullptr;
  Clean.CacheKey = nullptr;
  return Clean;
}

} // namespace

JobResult intro::supervise::runSupervisedJob(const JobSpec &Job,
                                             size_t JobIndex,
                                             const BatchOptions &Options,
                                             const JobHooks &Hooks) {
  JobResult Result;
  Result.Name = Job.Name;
  ResilientOptions Ladder = sanitizeLadder(Options.Ladder);

  // The hooks' kill switch rides along in the per-job limits copy; the
  // shared BatchOptions stay untouched so concurrent jobs cannot see each
  // other's cancel flags.
  ChildLimits Limits = Options.Limits;
  if (Hooks.CancelChild)
    Limits.Cancel = Hooks.CancelChild;

  for (uint32_t Attempt = 1;; ++Attempt) {
    ChildOutputSink Sink;
    if (Hooks.OnChildOutput)
      Sink = [&Hooks, Attempt](std::string_view Chunk) {
        Hooks.OnChildOutput(Attempt, Chunk);
      };
    ChildResult Child = runSupervisedChild(
        Limits,
        [&Job, &Ladder, &Options, Attempt](std::ostream &R) {
          return childAnalyze(Job, Ladder, Attempt, R, Options.CacheDir,
                              Options.CacheMaxEntries);
        },
        Sink);

    JobAttempt Record;
    Record.Status = Child.Status;
    Record.ExitCode = Child.ExitCode;
    Record.TermSignal = Child.TermSignal;
    Record.Seconds = Child.Seconds;
    bool HasReport = decodeTranscript(Child.Output, Record, Result);
    Record.Class = classifyAttempt(Child, HasReport && Result.ResultCompleted);

    bool Aborted = Hooks.ShouldAbort && Hooks.ShouldAbort();
    bool Retry = !Aborted && isRetryable(Record.Class) &&
                 Attempt < Options.Retry.MaxAttempts;
    if (Retry)
      Record.PlannedDelayMs =
          plannedBackoffMs(Options.Retry, JobIndex, Attempt + 1);
    Result.Attempts.push_back(std::move(Record));
    const JobAttempt &Last = Result.Attempts.back();

    if (!Aborted && Last.Class == JobOutcomeClass::Clean) {
      Result.FinalClass = JobOutcomeClass::Clean;
      return Result;
    }
    if (Aborted) {
      // The caller ended the loop (a cancelled service request): record
      // the last class verbatim, skip quarantine — the job is not bad,
      // just unwanted.
      Result.FinalClass = Last.Class;
      Result.Aborted = true;
      return Result;
    }
    if (!Retry) {
      TRACE_INSTANT("supervise.quarantine", 1);
      Result.FinalClass = Last.Class;
      Result.Quarantined = true;
      return Result;
    }

    // Plan the relaunch: back off (deterministically planned, injectable
    // actual sleep), and after a hard mid-ladder death resume strictly
    // below the rung that killed the child.
    TRACE_SPAN("supervise.retry");
    bool HardDeath = Last.Class == JobOutcomeClass::Signalled ||
                     Last.Class == JobOutcomeClass::OutOfMemory ||
                     Last.Class == JobOutcomeClass::WatchdogTimeout;
    if (HardDeath && Last.AnyRungStarted)
      escalateBelow(Ladder, Last.DeepestStartedRung);
    if (Options.SleepMs)
      Options.SleepMs(Last.PlannedDelayMs);
    else if (Last.PlannedDelayMs > 0)
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          Last.PlannedDelayMs));
  }
}

BatchResult
intro::supervise::runSupervisedBatch(const std::vector<JobSpec> &Jobs,
                                     const BatchOptions &Options) {
  Timer Total;
  BatchResult Batch;
  Batch.Jobs.resize(Jobs.size());
  auto RunOne = [&Jobs, &Batch, &Options](size_t Index) {
    Batch.Jobs[Index] = runSupervisedJob(Jobs[Index], Index, Options);
  };
  unsigned Workers = std::max(1u, Options.Workers);
  if (Workers <= 1 || Jobs.size() <= 1) {
    for (size_t Index = 0; Index < Jobs.size(); ++Index)
      RunOne(Index);
  } else {
    ThreadPool Pool(std::min<unsigned>(Workers, Jobs.size()));
    std::vector<std::future<void>> Pending;
    Pending.reserve(Jobs.size());
    for (size_t Index = 0; Index < Jobs.size(); ++Index)
      Pending.push_back(Pool.submit([&RunOne, Index] { RunOne(Index); }));
    for (std::future<void> &F : Pending)
      F.get();
  }
  Batch.TotalSeconds = Total.seconds();
  return Batch;
}

namespace {

/// One attempt of the child ladder, deterministic columns only: the
/// wall-clock members of Attempt/SolverStats stay out of the deterministic
/// report section by construction.
void writeDeterministicLadderJson(JsonWriter &J, const AttemptTrace &Trace) {
  J.beginArray();
  for (const Attempt &A : Trace) {
    J.beginObject();
    J.key("level");
    J.value(degradationLevelName(A.Level));
    J.key("tightened_round");
    J.value(A.TightenedRound);
    J.key("analysis");
    J.value(A.AnalysisName);
    J.key("status");
    J.value(statusName(A.Status));
    J.key("tuples");
    J.value(A.Stats.VarPointsToTuples + A.Stats.FieldPointsToTuples);
    J.key("worklist_pops");
    J.value(A.Stats.WorklistPops);
    J.endObject();
  }
  J.endArray();
}

} // namespace

void intro::supervise::writeBatchReportJson(JsonWriter &J,
                                            const BatchResult &Batch,
                                            const BatchOptions &Options) {
  size_t ClassCounts[8] = {};
  uint64_t Retries = 0;
  size_t Quarantined = 0;
  for (const JobResult &Job : Batch.Jobs) {
    ++ClassCounts[static_cast<size_t>(Job.FinalClass)];
    Retries += Job.Attempts.empty() ? 0 : Job.Attempts.size() - 1;
    Quarantined += Job.Quarantined ? 1 : 0;
  }

  J.beginObject();
  J.key("schema");
  J.value("intro-batch-report-v1");
  J.key("deterministic");
  J.beginObject();
  J.key("retry_policy");
  J.beginObject();
  J.key("max_attempts");
  J.value(Options.Retry.MaxAttempts);
  J.key("seed");
  J.value(Options.Retry.Seed);
  J.endObject();
  J.key("limits");
  J.beginObject();
  J.key("max_address_space_bytes");
  J.value(Options.Limits.MaxAddressSpaceBytes);
  J.key("max_cpu_seconds");
  J.value(Options.Limits.MaxCpuSeconds);
  J.key("wall_deadline_seconds");
  J.value(Options.Limits.WallDeadlineSeconds);
  J.endObject();
  J.key("ladder_options");
  writeResilientOptionsJson(J, Options.Ladder);
  J.key("jobs");
  J.beginArray();
  for (size_t Index = 0; Index < Batch.Jobs.size(); ++Index) {
    const JobResult &Job = Batch.Jobs[Index];
    J.beginObject();
    J.key("index");
    J.value(static_cast<uint64_t>(Index + 1));
    J.key("name");
    J.value(Job.Name);
    J.key("final_class");
    J.value(jobOutcomeClassName(Job.FinalClass));
    J.key("quarantined");
    J.value(Job.Quarantined);
    J.key("result");
    if (Job.FinalClass == JobOutcomeClass::Clean) {
      J.beginObject();
      J.key("level");
      J.value(Job.ResultLevel);
      J.key("status");
      J.value(Job.ResultStatus);
      J.key("completed");
      J.value(Job.ResultCompleted);
      J.endObject();
    } else {
      J.null();
    }
    J.key("input_errors");
    J.beginArray();
    for (const std::string &Error : Job.InputErrors)
      J.value(Error);
    J.endArray();
    J.key("attempts");
    J.beginArray();
    for (size_t AttemptIndex = 0; AttemptIndex < Job.Attempts.size();
         ++AttemptIndex) {
      const JobAttempt &A = Job.Attempts[AttemptIndex];
      J.beginObject();
      J.key("attempt");
      J.value(static_cast<uint64_t>(AttemptIndex + 1));
      J.key("child_status");
      J.value(childStatusName(A.Status));
      J.key("class");
      J.value(jobOutcomeClassName(A.Class));
      J.key("exit_code");
      J.value(A.ExitCode);
      J.key("term_signal");
      J.value(A.TermSignal);
      J.key("planned_delay_ms");
      J.value(A.PlannedDelayMs);
      J.key("deepest_started_rung");
      if (A.AnyRungStarted)
        J.value(degradationLevelName(A.DeepestStartedRung));
      else
        J.null();
      J.key("report_error");
      J.value(A.ReportError);
      J.key("ladder");
      writeDeterministicLadderJson(J, A.Ladder);
      J.endObject();
    }
    J.endArray();
    J.endObject();
  }
  J.endArray();
  J.key("totals");
  J.beginObject();
  J.key("jobs");
  J.value(static_cast<uint64_t>(Batch.Jobs.size()));
  for (size_t Class = 0; Class < 8; ++Class) {
    J.key(jobOutcomeClassName(static_cast<JobOutcomeClass>(Class)));
    J.value(static_cast<uint64_t>(ClassCounts[Class]));
  }
  J.key("quarantined");
  J.value(static_cast<uint64_t>(Quarantined));
  J.key("retries");
  J.value(Retries);
  J.endObject();
  J.endObject();

  // Pass-A cache accounting.  Deterministic for a given starting cache
  // state, but a warm run's counts necessarily differ from a cold run's —
  // which is why this is a sibling of "deterministic", not part of it.
  J.key("cache");
  J.beginObject();
  J.key("enabled");
  J.value(!Options.CacheDir.empty());
  cache::CacheStats Totals;
  J.key("jobs");
  J.beginArray();
  for (const JobResult &Job : Batch.Jobs) {
    J.beginObject();
    J.key("name");
    J.value(Job.Name);
    J.key("attempts");
    J.beginArray();
    for (const JobAttempt &A : Job.Attempts) {
      if (!A.CacheEnabled) {
        J.null(); // Hard death / bad report: no cache counters came back.
        continue;
      }
      Totals += A.Cache;
      cache::writeCacheStatsJson(J, A.Cache);
    }
    J.endArray();
    J.endObject();
  }
  J.endArray();
  J.key("totals");
  cache::writeCacheStatsJson(J, Totals);
  J.endObject();

  J.key("timing");
  J.beginObject();
  J.key("total_seconds");
  J.value(Batch.TotalSeconds);
  J.key("jobs");
  J.beginArray();
  for (const JobResult &Job : Batch.Jobs) {
    J.beginObject();
    J.key("name");
    J.value(Job.Name);
    J.key("attempt_seconds");
    J.beginArray();
    for (const JobAttempt &A : Job.Attempts)
      J.value(A.Seconds);
    J.endArray();
    J.endObject();
  }
  J.endArray();
  J.endObject();
  J.endObject();
}
