//===- support/Subprocess.h - Supervised child processes --------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hard, process-level isolation for one analysis job.  The in-process
/// layers (tuple/time/memory budgets, the degradation ladder) only help when
/// the code under analysis cooperates; a segfault, a runaway allocation the
/// book-keeping missed, or a hang in a pathological input kills the whole
/// service.  runSupervisedChild() forks, applies setrlimit guards
/// (RLIMIT_AS, RLIMIT_CPU) in the child, runs a payload that writes its
/// result to a pipe, and supervises from the parent with a monotonic
/// watchdog deadline — draining the pipe the whole time so a chatty child
/// can never deadlock against a full pipe buffer.
///
/// The watchdog deadline and the cancel switch share one kill site in the
/// drain loop.  Reaping is a single blocking wait4 on the exact pid after
/// the pipe reaches EOF: the child drops every inherited descriptor except
/// stdio and its own report pipe at start, and closes that pipe only as it
/// exits, so EOF means the child is gone (or our SIGKILL is in flight).
/// Supervision never leaks zombies; supervise_tests asserts this with
/// waitpid(-1) accounting after every scenario.
///
/// Classification, not diagnosis: the parent reports *how* the child ended
/// (clean exit / nonzero exit / signal / out-of-memory / watchdog kill);
/// interpreting the payload's report bytes is the caller's job (see
/// supervise/Supervise.h).
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_SUBPROCESS_H
#define SUPPORT_SUBPROCESS_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>

namespace intro {

/// Hard limits applied inside the forked child before the payload runs.
struct ChildLimits {
  /// RLIMIT_AS in bytes; 0 leaves the limit untouched.  When the limit is
  /// hit, allocation fails in the child; the harness turns that into the
  /// dedicated OOM exit code (OomExitCode) rather than a crash.
  uint64_t MaxAddressSpaceBytes = 0;
  /// RLIMIT_CPU in seconds; 0 leaves the limit untouched.  Exceeding it
  /// delivers SIGXCPU (default: kill), a CPU-time cousin of the watchdog.
  uint32_t MaxCpuSeconds = 0;
  /// Parent-side wall-clock watchdog on the Timer (steady) clock; past the
  /// deadline the child is SIGKILLed and reported as WatchdogKill.  0
  /// disables the watchdog.
  double WallDeadlineSeconds = 0;
  /// Runtime-only cooperative kill switch (not a limit, but enforced by
  /// the same parent supervision loop): when it becomes true the child is
  /// SIGKILLed and the run classifies naturally as Signalled/SIGKILL —
  /// deliberately *not* WatchdogKill, which is reserved for the deadline.
  /// The analysis service uses this for its cancel requests.  Must outlive
  /// the runSupervisedChild call; never serialized into reports.
  const std::atomic<bool> *Cancel = nullptr;
};

/// How a supervised child ended, from the parent's perspective.
enum class ChildStatus : uint8_t {
  CleanExit,    ///< _exit(0); the payload's report (if any) is in Output.
  NonzeroExit,  ///< _exit(code != 0); code preserved in ExitCode.
  Signalled,    ///< Killed by a signal (segfault, abort, SIGXCPU, ...).
  OutOfMemory,  ///< Allocation failed under RLIMIT_AS (see OomExitCode).
  WatchdogKill, ///< The parent killed it past WallDeadlineSeconds.
};

/// \returns a stable lower-case name for \p Status (used in reports).
const char *childStatusName(ChildStatus Status);

/// Exit code the child harness uses to report an allocation failure —
/// deliberately outside the tool exit-code space (support/ExitCodes.h) so
/// the supervisor can tell "the analysis failed" from "the process starved".
inline constexpr int OomExitCode = 97;
/// Exit code for a payload that threw an unexpected exception.
inline constexpr int ChildExceptionExitCode = 98;

/// Everything the parent learns about one supervised child run.
struct ChildResult {
  ChildStatus Status = ChildStatus::CleanExit;
  int ExitCode = 0;    ///< Valid when the child exited.
  int TermSignal = 0;  ///< Valid when Status == Signalled (raw signo).
  std::string Output;  ///< Every byte the payload wrote to its pipe.
  double Seconds = 0;  ///< Wall clock from fork to reap (timing-only).
  /// The child's peak resident set in KiB, from the reap's rusage
  /// (ru_maxrss; timing-only, like Seconds).
  uint64_t MaxRssKb = 0;
};

/// The payload a child runs: writes its report to the stream (backed by
/// the pipe) and returns the process exit code.  It must not assume any
/// parent state beyond what it captured by value or reads read-only —
/// after fork there is exactly one thread.
using ChildPayload = std::function<int(std::ostream &Report)>;

/// Incremental observer of the child's pipe bytes, invoked on the
/// supervising thread as each chunk is drained — *before* the child has
/// necessarily exited.  The analysis service streams per-rung progress to
/// its clients through this.  Chunks are raw bytes in write order (the
/// same bytes accumulated into ChildResult::Output); chunk boundaries are
/// pipe-read boundaries, not line boundaries.
using ChildOutputSink = std::function<void(std::string_view Chunk)>;

/// Forks; the child applies \p Limits, runs \p Payload, and _exit()s with
/// its return value (std::bad_alloc => OomExitCode, any other exception =>
/// ChildExceptionExitCode).  The parent captures the pipe, enforces the
/// watchdog (and the Limits.Cancel kill switch), reaps the child, and
/// classifies the outcome.  A non-null \p Sink additionally observes every
/// drained chunk as it arrives.
///
/// Safe to call concurrently from several supervisor threads: fork() is
/// serialized internally and each caller waits on its own pid only.
ChildResult runSupervisedChild(const ChildLimits &Limits,
                               const ChildPayload &Payload,
                               const ChildOutputSink &Sink = nullptr);

} // namespace intro

#endif // SUPPORT_SUBPROCESS_H
