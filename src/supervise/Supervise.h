//===- supervise/Supervise.h - Supervised batch analysis jobs ---*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The supervision layer: runs each analysis job in a forked, rlimit-guarded
/// child process (support/Subprocess.h) and turns whatever happens to that
/// child into a classified, retried, reported event.  The cooperative
/// resilience stack (degradation ladder, budgets, cancellation) handles
/// failures the solver can *see*; this layer handles the ones it cannot —
/// segfaults, OOM kills, hangs, corrupted inputs — which is what a
/// production service actually meets when it analyzes untrusted workloads.
///
/// The flow per job:
///
///   1. fork a child; the child parses + validates the input (the untrusted
///      boundary stays inside the sandbox), then runs the sequential
///      degradation ladder (runResilient) and writes an
///      `intro-run-report-v1` line over the pipe.  Before each rung (Pass A
///      first, then deep and the introspective rungs) it streams a
///      one-line rung_start progress event, so the parent knows the rung
///      the child was in even if the child dies hard.
///   2. decode the transcript once, straight into the JobAttempt/JobResult
///      records (the report line itself is kept verbatim), and classify the
///      outcome (JobOutcomeClass below) from the exit code / signal /
///      report;
///   3. retry transient classes with exponential backoff + deterministic
///      seeded jitter, relaunching hard deaths with the rungs at-and-above
///      the one that killed the child disabled (escalateBelow) — the child
///      resumes the ladder where its predecessor died, reloading Pass A
///      from the cache when one is configured (Pass A is stored before
///      the deep rung starts);
///   4. quarantine jobs that are deterministically bad (parse errors,
///      ladder floor failed) or that exhausted their retry budget.
///
/// The batch report (`intro-batch-report-v1`) separates a "deterministic"
/// section — classes, planned backoff delays, rung progressions, solver
/// counters — from a "timing" section holding every wall-clock value, so
/// the deterministic bytes are identical across retry timing and worker
/// counts for deterministic child behavior (the same contract the fig
/// harness reports follow).  The child's `intro-run-report-v1` line keeps
/// the same split: its ladder wall clock sits in its own "timing" object.
///
//===----------------------------------------------------------------------===//

#ifndef SUPERVISE_SUPERVISE_H
#define SUPERVISE_SUPERVISE_H

#include "cache/ResultCache.h"
#include "introspect/Resilient.h"
#include "support/Subprocess.h"

#include <functional>
#include <string>
#include <vector>

namespace intro::supervise {

/// The failure taxonomy: what one supervised attempt amounted to, after
/// combining the child's process-level fate with its report.
enum class JobOutcomeClass : uint8_t {
  Clean,           ///< Completed; a usable result with a report.
  AnalysisFailure, ///< Ladder floor failed deterministically; not retried.
  BadInput,        ///< Parse/validation errors; deterministic, not retried.
  NonzeroExit,     ///< Unexplained nonzero exit; retried.
  Signalled,       ///< Killed by a signal (segfault, abort); retried.
  OutOfMemory,     ///< Starved under RLIMIT_AS; retried on a tighter rung.
  WatchdogTimeout, ///< Watchdog (wall) or RLIMIT_CPU (SIGXCPU); retried.
  BadReport,       ///< Exited clean but the report is missing/garbled.
};

/// \returns a stable lower-snake-case name for \p Class (report vocabulary).
const char *jobOutcomeClassName(JobOutcomeClass Class);

/// \returns true if \p Class is transient enough to retry.  Deterministic
/// verdicts (Clean, BadInput, AnalysisFailure) are not: retrying them
/// reproduces them.
bool isRetryable(JobOutcomeClass Class);

/// Deterministic fault injection for the *process* level — the hard-death
/// counterpart of the solver's FaultPlan.  Inert by default.  The chaos
/// fires inside the child when the given rung starts (report kinds fire at
/// report-writing time instead), and only while the 1-based attempt number
/// is <= UntilAttempt — so a plan with UntilAttempt=1 crashes the first
/// attempt and lets the retry succeed.
struct ChaosPlan {
  enum class Kind : uint8_t {
    None,            ///< No injected fault.
    Crash,           ///< raise(SIGKILL): an uncatchable hard death.
    Oom,             ///< Allocate until the address-space limit starves us.
    Spin,            ///< Sleep forever; only the watchdog ends it.
    ExitNonzero,     ///< _exit(13) mid-ladder, skipping the report.
    GarbageReport,   ///< Exit clean but write binary garbage as the report.
    TruncatedReport, ///< Exit clean but cut the report mid-object.
  };
  Kind Fault = Kind::None;
  /// The rung whose start triggers mid-ladder kinds.
  DegradationLevel AtLevel = DegradationLevel::Deep;
  /// Fire only on attempts <= this (1-based); default: every attempt.
  uint32_t UntilAttempt = ~0u;

  bool armed() const { return Fault != Kind::None; }
};

/// Parses a chaos SPEC of the form `KIND[:LEVEL][:UNTIL]` (the payload of
/// intro_batch's `--chaos=SPEC@NAME` and of the serve protocol's submit
/// "chaos" member) into \p Plan.  KIND is one of crash / oom / spin / exit
/// / garbage / truncate; LEVEL a degradation-level name; UNTIL a 1-based
/// attempt bound.  \returns false and sets \p Error on bad syntax.
bool parseChaosPlan(const std::string &Spec, ChaosPlan &Plan,
                    std::string &Error);

/// One input to analyze: a named textual-IR program.
struct JobSpec {
  std::string Name;   ///< Stable identifier (file name) used in reports.
  std::string Source; ///< Textual IR; parsed inside the child.
  ChaosPlan Chaos;    ///< Injected process-level fault (tests/smoke only).
};

/// Makes every JobSpec name unique, in place, preserving order: the second
/// job named "app" becomes "app.2", the third "app.3", and so on; suffixed
/// names that would collide with a *later* literal name keep counting up.
/// Names are report keys and quarantine file stems — two inputs from
/// different directories sharing a basename must not overwrite each
/// other's quarantine copy or alias each other in the report.
void disambiguateJobNames(std::vector<JobSpec> &Jobs);

/// Retry policy: how many attempts a job gets, and the seed of the backoff
/// jitter.  The delay schedule itself is fixed (FirstRetryDelayMs and the
/// constants below it).  Delays are planned deterministically from (Seed,
/// job index, attempt) via the repo's xorshift Rng, so the planned schedule
/// is part of the deterministic report even though actual sleeping is not.
struct RetryPolicy {
  uint32_t MaxAttempts = 3; ///< Total attempts per job (first + retries).
  uint64_t Seed = 0x5eed;   ///< Jitter seed (reproducible schedules).
};

/// Backoff before the first retry, in ms.
inline constexpr double FirstRetryDelayMs = 50;
/// Each further retry multiplies the backoff by this factor.
inline constexpr double RetryDelayGrowth = 2.0;
/// A planned delay varies by +/- this fraction of its nominal value.
inline constexpr double RetryDelayJitter = 0.5;

/// \returns the planned backoff in ms before retry number \p Attempt
/// (2-based: the delay planned after attempt Attempt-1 failed) of job
/// \p JobIndex: FirstRetryDelayMs * RetryDelayGrowth^(Attempt-2), within
/// +/- RetryDelayJitter of that.  Pure function of its arguments.
double plannedBackoffMs(const RetryPolicy &Policy, size_t JobIndex,
                        uint32_t Attempt);

/// Disables every ladder rung at or above \p Level in \p Options, so a
/// relaunched child resumes strictly below the rung that killed its
/// predecessor.  Insensitive (Pass A, which runs first and is the floor)
/// disables nothing — there is nothing below the floor to resume at.
void escalateBelow(ResilientOptions &Options, DegradationLevel Level);

/// Everything recorded about one child launch of one job.
struct JobAttempt {
  ChildStatus Status = ChildStatus::CleanExit; ///< Process-level fate.
  JobOutcomeClass Class = JobOutcomeClass::Clean;
  int ExitCode = 0;
  int TermSignal = 0;
  /// Last rung the child reported starting (progress lines arrive in
  /// ladder execution order), i.e. the rung it was in when it stopped;
  /// valid only when AnyRungStarted.
  DegradationLevel DeepestStartedRung = DegradationLevel::Deep;
  uint32_t DeepestStartedRound = 0;
  bool AnyRungStarted = false;
  /// Why the child's report could not be used (empty when it could).
  std::string ReportError;
  /// Backoff planned after this attempt (0 when no retry follows).
  double PlannedDelayMs = 0;
  /// Child ladder history decoded from the report (empty on hard deaths).
  AttemptTrace Ladder;
  /// True when the child ran with a Pass-A cache (BatchOptions::CacheDir);
  /// Cache then holds the child's cache counters decoded from its report.
  bool CacheEnabled = false;
  cache::CacheStats Cache;
  double Seconds = 0; ///< Wall clock of the attempt (timing-only).
};

/// The final record of one job after retries settled.
struct JobResult {
  std::string Name;
  JobOutcomeClass FinalClass = JobOutcomeClass::Clean;
  bool Quarantined = false; ///< Deterministically bad or retries exhausted.
  /// True when JobHooks::ShouldAbort stopped the retry loop: the last
  /// attempt's class stands but the job was neither retried nor
  /// quarantined — the caller (the analysis service, for a cancelled
  /// request) asked for the loop to end and owns the interpretation.
  bool Aborted = false;
  std::vector<JobAttempt> Attempts;
  // The members below are decoded from the last healthy report line any
  // attempt wrote; a later attempt's healthy report replaces them.
  /// Parse/validation diagnostics (BadInput jobs).
  std::vector<std::string> InputErrors;
  /// Winning rung/status of the ladder (meaningful for Clean jobs).
  std::string ResultLevel;
  std::string ResultStatus;
  bool ResultCompleted = false;
  /// The `intro-run-report-v1` line verbatim as the child wrote it, without
  /// its newline; empty when no attempt wrote a healthy one.  The analysis
  /// service streams the same bytes to its clients, so this is what both
  /// intro_batch modes write for --job-reports.
  std::string ReportLine;
};

/// Batch-level configuration.
struct BatchOptions {
  /// The base degradation-ladder configuration every job starts from.
  /// Cancel/OnRungStart/Cache are per-process and ignored: each child
  /// installs its own progress callback and cache handle.
  ResilientOptions Ladder;
  /// Hard limits applied to every child.
  ChildLimits Limits;
  RetryPolicy Retry;
  /// Supervisor threads running jobs concurrently (1 = serial; the
  /// `--workers` flag accepts 1..1024).  The deterministic report section
  /// is identical for any value.
  unsigned Workers = 1;
  /// Injectable sleeper for backoff delays; tests swap in a no-op to prove
  /// the deterministic report does not depend on retry timing.  Null means
  /// actually sleep.
  std::function<void(double Ms)> SleepMs;
  /// Pass-A cache directory, shared across jobs and retries.  Empty
  /// disables caching.  Each child opens its own ResultCache over this
  /// directory (pointers cannot cross the fork), so a retried or
  /// escalateBelow-relaunched child reloads the pre-analysis its
  /// predecessor stored instead of re-solving it.
  std::string CacheDir;
  /// ResultCache::Options::MaxEntries for the shared directory (0 = no cap).
  uint64_t CacheMaxEntries = 0;
};

/// Parses \p Arg if it is one of the supervision flags intro_batch and
/// intro_serve share — `--workers=N`, `--max-attempts=N`,
/// `--cpu-limit=SECONDS`, `--mem-limit=MB`, `--seed=N`, `--cache-dir=DIR`,
/// `--cache-max-entries=N` and `--no-deep` — into \p Options.  \returns
/// false if \p Arg is none of them; otherwise true, with \p Error set to a
/// diagnostic naming the flag when its value is malformed or out of range.
bool parseSharedBatchFlag(const std::string &Arg, BatchOptions &Options,
                          std::string &Error);

/// Checks the shared supervision flags against each other once parsing is
/// done: a nonzero `--cache-max-entries` caps the cache `--cache-dir`
/// names, so without `--cache-dir` it is a usage error rather than a
/// silent no-op.  \returns false and sets \p Error naming the flag when
/// \p Options is inconsistent.
bool checkSharedBatchFlags(const BatchOptions &Options, std::string &Error);

/// The outcome of a whole batch.
struct BatchResult {
  std::vector<JobResult> Jobs; ///< In input order, independent of Workers.
  double TotalSeconds = 0;     ///< Wall clock of the batch (timing-only).
};

/// Per-job supervision hooks.  All optional; the plain batch runner uses
/// none of them.  The analysis service (src/serve) uses every one: it
/// streams child output to the requesting client as it arrives, kills the
/// running child when the client cancels, and stops the retry loop for a
/// cancelled job instead of burning the remaining attempts.
struct JobHooks {
  /// Observes the child's raw pipe bytes incrementally (supervising
  /// thread, pipe-read chunk boundaries) — for live streaming only: the
  /// decoded record, report line included, is on the returned JobResult.
  /// \p Attempt is the 1-based attempt the bytes belong to, so a streamer
  /// splitting lines can reset its buffer between attempts.
  std::function<void(uint32_t Attempt, std::string_view Chunk)> OnChildOutput;
  /// Checked after each attempt settles; returning true ends the retry
  /// loop immediately (JobResult::Aborted) regardless of retry budget.
  std::function<bool()> ShouldAbort;
  /// Kill switch wired into ChildLimits::Cancel for every attempt: when it
  /// becomes true the in-flight child is SIGKILLed (classified
  /// Signalled/SIGKILL).  Pair with ShouldAbort to stop the loop too.
  const std::atomic<bool> *CancelChild = nullptr;
};

/// Runs one job under supervision: launch, classify, retry with backoff
/// and ladder escalation, quarantine.  \p JobIndex seeds the jitter;
/// \p Hooks are optional (see JobHooks).
JobResult runSupervisedJob(const JobSpec &Job, size_t JobIndex,
                           const BatchOptions &Options,
                           const JobHooks &Hooks = {});

/// Runs every job (optionally on several supervisor threads) and collects
/// results in input order.
BatchResult runSupervisedBatch(const std::vector<JobSpec> &Jobs,
                               const BatchOptions &Options);

/// Writes the `intro-batch-report-v1` document: a "deterministic" object
/// (policy, limits, ladder options, per-job classes / attempts / planned
/// delays / rung progressions / deterministic solver counters, totals), a
/// "cache" object (per-job and total probe/hit/miss/store/evict counters
/// when BatchOptions::CacheDir is set — deterministic for a given starting
/// cache state, but by construction different between a cold and a warm
/// run, so it lives *outside* the "deterministic" section whose bytes are
/// the cold-vs-warm identity contract), and a "timing" object (every
/// wall-clock value).
void writeBatchReportJson(JsonWriter &J, const BatchResult &Batch,
                          const BatchOptions &Options);

} // namespace intro::supervise

#endif // SUPERVISE_SUPERVISE_H
