//===- tests/SuperviseTests.cpp - Supervision subsystem tests -------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the process-isolation layer (support/Subprocess.h) and the
/// supervised batch runner (supervise/Supervise.h): every outcome class is
/// demonstrated with an injected-fault child, classification / retry /
/// ladder escalation are checked end to end, the batch report's
/// deterministic section is proven byte-identical across retry timing and
/// worker counts, and each process-spawning test asserts that no child was
/// leaked (waitpid accounting).
///
//===----------------------------------------------------------------------===//

#include "supervise/Supervise.h"

#include "analysis/Reports.h"
#include "support/ExitCodes.h"
#include "support/Json.h"
#include "support/Subprocess.h"
#include "TempDir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SUPERVISE_TESTS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SUPERVISE_TESTS_SANITIZED 1
#endif
#endif

using namespace intro;
using namespace intro::supervise;

namespace {

/// The classic two-boxes program: parses, validates, and every ladder rung
/// solves it in well under a millisecond.
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

/// Deliberately malformed: unclosed class body and call parenthesis.
const char *const BrokenSource = R"(
class Object
class Leaky extends Object {
  method oops(p) {
    q = oops(p
)";

/// Batch options tuned for tests: a generous wall deadline so nothing runs
/// away, and a no-op sleeper so retries do not actually wait.
BatchOptions fastOptions() {
  BatchOptions Options;
  Options.Limits.WallDeadlineSeconds = 60;
  Options.SleepMs = [](double) {};
  return Options;
}

JobSpec tinyJob(std::string Name = "tiny") {
  JobSpec Job;
  Job.Name = std::move(Name);
  Job.Source = TinySource;
  return Job;
}

/// After every supervised scenario the parent must have reaped every child
/// it forked: waitpid(-1) with WNOHANG must report "no children at all".
void expectNoLeakedChildren() {
  int Status = 0;
  errno = 0;
  EXPECT_EQ(waitpid(-1, &Status, WNOHANG), -1)
      << "a child process was leaked or left unreaped";
  EXPECT_EQ(errno, ECHILD);
}

/// Serializes the batch report and returns (full document, deterministic
/// section).  The deterministic slice is everything between the
/// "deterministic" key and the "timing" key — raw bytes, so a comparison
/// between two runs is a byte-identity check, not a structural one.
std::pair<std::string, std::string>
renderReport(const BatchResult &Batch, const BatchOptions &Options) {
  std::ostringstream Out;
  JsonWriter J(Out);
  writeBatchReportJson(J, Batch, Options);
  std::string Full = Out.str();
  size_t Begin = Full.find("\"deterministic\"");
  size_t End = Full.find("\"timing\"");
  EXPECT_NE(Begin, std::string::npos);
  EXPECT_NE(End, std::string::npos);
  EXPECT_LT(Begin, End);
  return {Full, Full.substr(Begin, End - Begin)};
}

/// The deterministic section of a child's `intro-run-report-v1` line, as
/// raw bytes: from the "deterministic" key up to the next top-level
/// sibling ("cache" when the child ran with a cache, else "timing").
std::string childDeterministicSlice(const std::string &ReportLine) {
  size_t Begin = ReportLine.find("\"deterministic\":");
  size_t End = std::min(ReportLine.find("\"cache\":", Begin),
                        ReportLine.find("\"timing\":", Begin));
  EXPECT_NE(Begin, std::string::npos) << ReportLine;
  EXPECT_NE(End, std::string::npos) << ReportLine;
  if (Begin == std::string::npos || End == std::string::npos)
    return ReportLine;
  return ReportLine.substr(Begin, End - Begin);
}

} // namespace

// --- Process isolation primitive (runSupervisedChild) ------------------------

TEST(Subprocess, CleanChildExitsZeroAndDeliversOutput) {
  ChildLimits Limits;
  ChildResult Result = runSupervisedChild(Limits, [](std::ostream &Out) {
    Out << "hello from the child\n";
    return 0;
  });
  EXPECT_EQ(Result.Status, ChildStatus::CleanExit);
  EXPECT_EQ(Result.ExitCode, 0);
  EXPECT_EQ(Result.Output, "hello from the child\n");
  EXPECT_GT(Result.MaxRssKb, 0u) << "the reap returns the child's rusage";
  expectNoLeakedChildren();
}

TEST(Subprocess, NonzeroChildExitIsReported) {
  ChildLimits Limits;
  ChildResult Result =
      runSupervisedChild(Limits, [](std::ostream &) { return 5; });
  EXPECT_EQ(Result.Status, ChildStatus::NonzeroExit);
  EXPECT_EQ(Result.ExitCode, 5);
  expectNoLeakedChildren();
}

TEST(Subprocess, SignalledChildIsReportedWithItsSignal) {
  ChildLimits Limits;
  ChildResult Result = runSupervisedChild(Limits, [](std::ostream &) {
    raise(SIGKILL);
    return 0;
  });
  EXPECT_EQ(Result.Status, ChildStatus::Signalled);
  EXPECT_EQ(Result.TermSignal, SIGKILL);
  expectNoLeakedChildren();
}

TEST(Subprocess, BadAllocInChildBecomesOutOfMemory) {
  // The harness maps std::bad_alloc onto the dedicated OOM exit code, so
  // allocation failure is distinguishable from an arbitrary nonzero exit.
  ChildLimits Limits;
  ChildResult Result = runSupervisedChild(
      Limits, [](std::ostream &) -> int { throw std::bad_alloc(); });
  EXPECT_EQ(Result.Status, ChildStatus::OutOfMemory);
  EXPECT_EQ(Result.ExitCode, OomExitCode);
  expectNoLeakedChildren();
}

TEST(Subprocess, WatchdogKillsAChildThatSleepsPastTheDeadline) {
  ChildLimits Limits;
  Limits.WallDeadlineSeconds = 0.5;
  ChildResult Result = runSupervisedChild(Limits, [](std::ostream &Out) {
    Out << "about to hang\n";
    Out.flush();
    for (;;)
      usleep(100000);
    return 0;
  });
  EXPECT_EQ(Result.Status, ChildStatus::WatchdogKill);
  EXPECT_EQ(Result.TermSignal, SIGKILL);
  // Output produced before the hang still arrives.
  EXPECT_EQ(Result.Output, "about to hang\n");
  expectNoLeakedChildren();
}

TEST(Subprocess, LargeChildOutputDoesNotDeadlockThePipe) {
  // 1 MiB is far beyond any kernel pipe buffer; the parent must drain
  // concurrently or both sides deadlock.
  constexpr size_t Bytes = 1 << 20;
  ChildLimits Limits;
  Limits.WallDeadlineSeconds = 60; // Converts a deadlock into a failure.
  ChildResult Result = runSupervisedChild(Limits, [](std::ostream &Out) {
    std::string Line(1023, 'x');
    Line += '\n';
    for (size_t Written = 0; Written < Bytes; Written += Line.size())
      Out << Line;
    return 0;
  });
  EXPECT_EQ(Result.Status, ChildStatus::CleanExit);
  EXPECT_EQ(Result.Output.size(), Bytes);
  expectNoLeakedChildren();
}

TEST(Subprocess, ChildHoldsOnlyItsReportPipe) {
  // The stray pipe stands in for a sibling job's report pipe (forked
  // concurrently on another supervisor thread) or a daemon socket.  Were it
  // inherited, the child would hold that other job's EOF hostage.
  int Stray[2];
  ASSERT_EQ(pipe(Stray), 0);
  ChildLimits Limits;
  ChildResult Result = runSupervisedChild(Limits, [](std::ostream &Out) {
    DIR *Dir = opendir("/proc/self/fd");
    if (!Dir)
      return 1;
    while (const dirent *Entry = readdir(Dir))
      if (Entry->d_name[0] != '.' && std::atoi(Entry->d_name) != dirfd(Dir))
        Out << Entry->d_name << '\n';
    closedir(Dir);
    return 0;
  });
  close(Stray[0]);
  close(Stray[1]);
  ASSERT_EQ(Result.Status, ChildStatus::CleanExit);

  std::set<int> Open;
  std::istringstream Lines(Result.Output);
  for (std::string Line; std::getline(Lines, Line);)
    Open.insert(std::atoi(Line.c_str()));
  EXPECT_EQ(Open.count(Stray[0]), 0u) << Result.Output;
  EXPECT_EQ(Open.count(Stray[1]), 0u) << Result.Output;
  // Beyond stdio, exactly one descriptor: the child's own report pipe.
  EXPECT_EQ(std::count_if(Open.begin(), Open.end(),
                          [](int Fd) { return Fd > 2; }),
            1)
      << Result.Output;
  expectNoLeakedChildren();
}

TEST(Subprocess, ChildStatusNamesAreStable) {
  EXPECT_STREQ(childStatusName(ChildStatus::CleanExit), "clean-exit");
  EXPECT_STREQ(childStatusName(ChildStatus::NonzeroExit), "nonzero-exit");
  EXPECT_STREQ(childStatusName(ChildStatus::Signalled), "signalled");
  EXPECT_STREQ(childStatusName(ChildStatus::OutOfMemory), "out-of-memory");
  EXPECT_STREQ(childStatusName(ChildStatus::WatchdogKill), "watchdog-kill");
}

// --- Classification vocabulary ----------------------------------------------

TEST(Taxonomy, OutcomeClassNamesAreStable) {
  EXPECT_STREQ(jobOutcomeClassName(JobOutcomeClass::Clean), "clean");
  EXPECT_STREQ(jobOutcomeClassName(JobOutcomeClass::AnalysisFailure),
               "analysis_failure");
  EXPECT_STREQ(jobOutcomeClassName(JobOutcomeClass::BadInput), "bad_input");
  EXPECT_STREQ(jobOutcomeClassName(JobOutcomeClass::NonzeroExit),
               "nonzero_exit");
  EXPECT_STREQ(jobOutcomeClassName(JobOutcomeClass::Signalled), "signalled");
  EXPECT_STREQ(jobOutcomeClassName(JobOutcomeClass::OutOfMemory),
               "out_of_memory");
  EXPECT_STREQ(jobOutcomeClassName(JobOutcomeClass::WatchdogTimeout),
               "watchdog_timeout");
  EXPECT_STREQ(jobOutcomeClassName(JobOutcomeClass::BadReport), "bad_report");
}

TEST(Taxonomy, OnlyTransientClassesAreRetryable) {
  // Deterministic verdicts reproduce on retry; everything else is worth
  // another launch.
  EXPECT_FALSE(isRetryable(JobOutcomeClass::Clean));
  EXPECT_FALSE(isRetryable(JobOutcomeClass::AnalysisFailure));
  EXPECT_FALSE(isRetryable(JobOutcomeClass::BadInput));
  EXPECT_TRUE(isRetryable(JobOutcomeClass::NonzeroExit));
  EXPECT_TRUE(isRetryable(JobOutcomeClass::Signalled));
  EXPECT_TRUE(isRetryable(JobOutcomeClass::OutOfMemory));
  EXPECT_TRUE(isRetryable(JobOutcomeClass::WatchdogTimeout));
  EXPECT_TRUE(isRetryable(JobOutcomeClass::BadReport));
}

TEST(Taxonomy, EscalateBelowDisablesTheRungAndEverythingStronger) {
  {
    ResilientOptions Options;
    escalateBelow(Options, DegradationLevel::Deep);
    EXPECT_FALSE(Options.AttemptDeep);
    EXPECT_TRUE(Options.AttemptIntroB);
    EXPECT_TRUE(Options.AttemptIntroA);
    EXPECT_EQ(Options.TightenedRounds, 2u);
  }
  {
    ResilientOptions Options;
    escalateBelow(Options, DegradationLevel::IntroA);
    EXPECT_FALSE(Options.AttemptDeep);
    EXPECT_FALSE(Options.AttemptIntroB);
    EXPECT_FALSE(Options.AttemptIntroA);
    EXPECT_EQ(Options.TightenedRounds, 2u);
  }
  {
    ResilientOptions Options;
    escalateBelow(Options, DegradationLevel::TightenedIntroA);
    EXPECT_FALSE(Options.AttemptDeep);
    EXPECT_FALSE(Options.AttemptIntroB);
    EXPECT_FALSE(Options.AttemptIntroA);
    EXPECT_EQ(Options.TightenedRounds, 0u);
  }
  {
    // The floor has nothing below it to resume at.
    ResilientOptions Options;
    escalateBelow(Options, DegradationLevel::Insensitive);
    EXPECT_TRUE(Options.AttemptDeep);
    EXPECT_TRUE(Options.AttemptIntroB);
    EXPECT_TRUE(Options.AttemptIntroA);
    EXPECT_EQ(Options.TightenedRounds, 2u);
  }
}

TEST(Taxonomy, DegradationLevelNamesRoundTrip) {
  for (DegradationLevel Level :
       {DegradationLevel::Deep, DegradationLevel::IntroB,
        DegradationLevel::IntroA, DegradationLevel::TightenedIntroA,
        DegradationLevel::Insensitive}) {
    DegradationLevel Parsed;
    ASSERT_TRUE(degradationLevelFromName(degradationLevelName(Level), Parsed));
    EXPECT_EQ(Parsed, Level);
  }
  DegradationLevel Parsed;
  EXPECT_FALSE(degradationLevelFromName("no-such-rung", Parsed));
  EXPECT_FALSE(degradationLevelFromName("", Parsed));
}

// --- Backoff planning ---------------------------------------------------------

TEST(Backoff, IsAPureFunctionOfItsArguments) {
  RetryPolicy Policy;
  for (uint32_t Attempt = 2; Attempt <= 5; ++Attempt)
    for (size_t Job = 0; Job < 4; ++Job)
      EXPECT_EQ(plannedBackoffMs(Policy, Job, Attempt),
                plannedBackoffMs(Policy, Job, Attempt));
}

TEST(Backoff, IsFiftyMsDoublingPerRetryWithinHalfJitter) {
  // Retry k (2-based) waits 50 ms * 2^(k-2), within +/-50%.
  EXPECT_EQ(FirstRetryDelayMs, 50);
  EXPECT_EQ(RetryDelayGrowth, 2);
  EXPECT_EQ(RetryDelayJitter, 0.5);
  RetryPolicy Policy;
  EXPECT_EQ(plannedBackoffMs(Policy, 0, 1), 0); // No delay before attempt 1.
  for (size_t Job = 0; Job < 8; ++Job) {
    double Nominal = 50;
    for (uint32_t Attempt = 2; Attempt <= 5; ++Attempt) {
      double Delay = plannedBackoffMs(Policy, Job, Attempt);
      EXPECT_GE(Delay, Nominal * 0.5);
      EXPECT_LE(Delay, Nominal * 1.5);
      Nominal *= 2;
    }
  }
}

// --- Supervised jobs: the five outcome classes -------------------------------

TEST(Supervise, CleanJobCompletesAtTheDeepRung) {
  BatchOptions Options = fastOptions();
  JobResult Result = runSupervisedJob(tinyJob(), 0, Options);
  EXPECT_EQ(Result.FinalClass, JobOutcomeClass::Clean);
  EXPECT_FALSE(Result.Quarantined);
  ASSERT_EQ(Result.Attempts.size(), 1u);
  EXPECT_EQ(Result.Attempts[0].Status, ChildStatus::CleanExit);
  EXPECT_EQ(Result.Attempts[0].Class, JobOutcomeClass::Clean);
  EXPECT_TRUE(Result.Attempts[0].ReportError.empty());
  EXPECT_FALSE(Result.Attempts[0].Ladder.empty());
  EXPECT_TRUE(Result.ResultCompleted);
  EXPECT_EQ(Result.ResultLevel, "deep");
  expectNoLeakedChildren();
}

TEST(Supervise, BadInputIsQuarantinedWithoutRetry) {
  BatchOptions Options = fastOptions();
  JobSpec Job;
  Job.Name = "broken";
  Job.Source = BrokenSource;
  JobResult Result = runSupervisedJob(Job, 0, Options);
  EXPECT_EQ(Result.FinalClass, JobOutcomeClass::BadInput);
  EXPECT_TRUE(Result.Quarantined);
  // Deterministic verdict: exactly one launch, no retries.
  ASSERT_EQ(Result.Attempts.size(), 1u);
  EXPECT_EQ(Result.Attempts[0].ExitCode, ExitBadInput);
  ASSERT_FALSE(Result.InputErrors.empty());
  // Diagnostics carry line numbers for the operator reading the report.
  EXPECT_NE(Result.InputErrors[0].find("line"), std::string::npos);
  expectNoLeakedChildren();
}

TEST(Supervise, NonzeroExitIsRetriedWithAPlannedDelayAndRecovers) {
  BatchOptions Options = fastOptions();
  JobSpec Job = tinyJob("flaky-exit");
  Job.Chaos.Fault = ChaosPlan::Kind::ExitNonzero;
  Job.Chaos.UntilAttempt = 1;
  JobResult Result = runSupervisedJob(Job, 3, Options);
  EXPECT_EQ(Result.FinalClass, JobOutcomeClass::Clean);
  EXPECT_FALSE(Result.Quarantined);
  ASSERT_EQ(Result.Attempts.size(), 2u);
  EXPECT_EQ(Result.Attempts[0].Class, JobOutcomeClass::NonzeroExit);
  EXPECT_EQ(Result.Attempts[0].Status, ChildStatus::NonzeroExit);
  EXPECT_EQ(Result.Attempts[0].ExitCode, 13);
  // The planned delay is the deterministic schedule entry for retry #2.
  EXPECT_DOUBLE_EQ(Result.Attempts[0].PlannedDelayMs,
                   plannedBackoffMs(Options.Retry, 3, 2));
  EXPECT_EQ(Result.Attempts[1].Class, JobOutcomeClass::Clean);
  EXPECT_DOUBLE_EQ(Result.Attempts[1].PlannedDelayMs, 0);
  // An unexplained exit is not a hard death, so the ladder is not
  // escalated: the retry completes at the deep rung again.
  EXPECT_EQ(Result.ResultLevel, "deep");
  expectNoLeakedChildren();
}

TEST(Supervise, CrashIsClassifiedSignalledAndResumesBelowTheDeathRung) {
  BatchOptions Options = fastOptions();
  JobSpec Job = tinyJob("crashy");
  Job.Chaos.Fault = ChaosPlan::Kind::Crash;
  Job.Chaos.AtLevel = DegradationLevel::Deep;
  // The chaos stays armed on every attempt; only escalation (which skips
  // the deep rung on the retry) lets the job recover.
  JobResult Result = runSupervisedJob(Job, 0, Options);
  EXPECT_EQ(Result.FinalClass, JobOutcomeClass::Clean);
  ASSERT_EQ(Result.Attempts.size(), 2u);
  const JobAttempt &First = Result.Attempts[0];
  EXPECT_EQ(First.Status, ChildStatus::Signalled);
  EXPECT_EQ(First.Class, JobOutcomeClass::Signalled);
  EXPECT_EQ(First.TermSignal, SIGKILL);
  // The progress stream told the parent where the body is buried.
  EXPECT_TRUE(First.AnyRungStarted);
  EXPECT_EQ(First.DeepestStartedRung, DegradationLevel::Deep);
  // The relaunch resumed strictly below the death rung.
  EXPECT_EQ(Result.Attempts[1].Class, JobOutcomeClass::Clean);
  EXPECT_EQ(Result.ResultLevel, "introB");
  for (const Attempt &Rung : Result.Attempts[1].Ladder)
    EXPECT_NE(Rung.Level, DegradationLevel::Deep);
  expectNoLeakedChildren();
}

TEST(Supervise, OomUnderAddressSpaceLimitIsClassifiedAndEscapedByRetry) {
#ifdef SUPERVISE_TESTS_SANITIZED
  GTEST_SKIP() << "RLIMIT_AS is incompatible with sanitizer shadow memory";
#else
  BatchOptions Options = fastOptions();
  Options.Limits.MaxAddressSpaceBytes = 1ull << 30; // 1 GiB.
  JobSpec Job = tinyJob("hungry");
  Job.Chaos.Fault = ChaosPlan::Kind::Oom;
  Job.Chaos.AtLevel = DegradationLevel::Deep;
  JobResult Result = runSupervisedJob(Job, 0, Options);
  EXPECT_EQ(Result.FinalClass, JobOutcomeClass::Clean);
  ASSERT_EQ(Result.Attempts.size(), 2u);
  EXPECT_EQ(Result.Attempts[0].Status, ChildStatus::OutOfMemory);
  EXPECT_EQ(Result.Attempts[0].Class, JobOutcomeClass::OutOfMemory);
  EXPECT_TRUE(Result.Attempts[0].AnyRungStarted);
  EXPECT_EQ(Result.Attempts[0].DeepestStartedRung, DegradationLevel::Deep);
  // OOM is a hard death: the retry runs on a tighter rung.
  EXPECT_EQ(Result.ResultLevel, "introB");
  expectNoLeakedChildren();
#endif
}

TEST(Supervise, OomInTheDeepRungRetryReloadsPassAFromTheCache) {
#ifdef SUPERVISE_TESTS_SANITIZED
  GTEST_SKIP() << "RLIMIT_AS is incompatible with sanitizer shadow memory";
#else
  // Pass A runs, and is stored, before the deep rung starts.  So after the
  // child dies hard in the deep rung, the escalated relaunch reloads Pass
  // A instead of re-solving it, then resumes below the deep rung.
  intro::testing::TempDir Dir;
  BatchOptions Options = fastOptions();
  Options.Limits.MaxAddressSpaceBytes = 1ull << 30; // 1 GiB.
  Options.CacheDir = Dir.Path;
  JobSpec Job = tinyJob("hungry");
  Job.Chaos.Fault = ChaosPlan::Kind::Oom;
  Job.Chaos.AtLevel = DegradationLevel::Deep;
  Job.Chaos.UntilAttempt = 1;
  JobResult Result = runSupervisedJob(Job, 0, Options);
  EXPECT_EQ(Result.FinalClass, JobOutcomeClass::Clean);
  ASSERT_EQ(Result.Attempts.size(), 2u);
  EXPECT_EQ(Result.Attempts[0].Class, JobOutcomeClass::OutOfMemory);
  EXPECT_EQ(Result.Attempts[0].DeepestStartedRung, DegradationLevel::Deep);
  const JobAttempt &Retry = Result.Attempts[1];
  ASSERT_TRUE(Retry.CacheEnabled);
  EXPECT_EQ(Retry.Cache.Hits, 1u);
  EXPECT_EQ(Retry.Cache.Misses, 0u);
  for (const Attempt &Rung : Retry.Ladder)
    EXPECT_NE(Rung.Level, DegradationLevel::Deep);
  EXPECT_EQ(Result.ResultLevel, "introB");
  expectNoLeakedChildren();
#endif
}

TEST(Supervise, WatchdogTimeoutIsClassifiedAndEscapedByRetry) {
  BatchOptions Options = fastOptions();
  Options.Limits.WallDeadlineSeconds = 1.0;
  JobSpec Job = tinyJob("spinny");
  Job.Chaos.Fault = ChaosPlan::Kind::Spin;
  Job.Chaos.AtLevel = DegradationLevel::Deep;
  JobResult Result = runSupervisedJob(Job, 0, Options);
  EXPECT_EQ(Result.FinalClass, JobOutcomeClass::Clean);
  ASSERT_EQ(Result.Attempts.size(), 2u);
  EXPECT_EQ(Result.Attempts[0].Status, ChildStatus::WatchdogKill);
  EXPECT_EQ(Result.Attempts[0].Class, JobOutcomeClass::WatchdogTimeout);
  EXPECT_TRUE(Result.Attempts[0].AnyRungStarted);
  EXPECT_EQ(Result.Attempts[0].DeepestStartedRung, DegradationLevel::Deep);
  EXPECT_EQ(Result.ResultLevel, "introB");
  expectNoLeakedChildren();
}

TEST(Supervise, GarbageReportIsBadReportAndRetried) {
  BatchOptions Options = fastOptions();
  JobSpec Job = tinyJob("garbled");
  Job.Chaos.Fault = ChaosPlan::Kind::GarbageReport;
  Job.Chaos.UntilAttempt = 1;
  JobResult Result = runSupervisedJob(Job, 0, Options);
  EXPECT_EQ(Result.FinalClass, JobOutcomeClass::Clean);
  ASSERT_EQ(Result.Attempts.size(), 2u);
  EXPECT_EQ(Result.Attempts[0].Status, ChildStatus::CleanExit);
  EXPECT_EQ(Result.Attempts[0].Class, JobOutcomeClass::BadReport);
  EXPECT_FALSE(Result.Attempts[0].ReportError.empty());
  expectNoLeakedChildren();
}

TEST(Supervise, TruncatedReportIsBadReportAndRetried) {
  BatchOptions Options = fastOptions();
  JobSpec Job = tinyJob("cutoff");
  Job.Chaos.Fault = ChaosPlan::Kind::TruncatedReport;
  Job.Chaos.UntilAttempt = 1;
  JobResult Result = runSupervisedJob(Job, 0, Options);
  EXPECT_EQ(Result.FinalClass, JobOutcomeClass::Clean);
  ASSERT_EQ(Result.Attempts.size(), 2u);
  EXPECT_EQ(Result.Attempts[0].Class, JobOutcomeClass::BadReport);
  EXPECT_FALSE(Result.Attempts[0].ReportError.empty());
  expectNoLeakedChildren();
}

TEST(Supervise, ReportLineIsKeptVerbatimOnlyWhenHealthy) {
  BatchOptions Options = fastOptions();
  JobResult Clean = runSupervisedJob(tinyJob(), 0, Options);
  ASSERT_EQ(Clean.FinalClass, JobOutcomeClass::Clean);
  JsonParseResult Parsed = parseJson(Clean.ReportLine);
  ASSERT_TRUE(Parsed.ok()) << Clean.ReportLine;
  std::string Schema;
  EXPECT_TRUE(Parsed.Value.getString("schema", Schema));
  EXPECT_EQ(Schema, "intro-run-report-v1");
  EXPECT_EQ(Clean.ReportLine.find('\n'), std::string::npos);

  // Every attempt cuts its report mid-object: no attempt's bytes — alone
  // or spliced onto the next attempt's progress lines — become the line.
  JobSpec Job = tinyJob("cutoff");
  Job.Chaos.Fault = ChaosPlan::Kind::TruncatedReport;
  JobResult Cut = runSupervisedJob(Job, 0, Options);
  EXPECT_EQ(Cut.FinalClass, JobOutcomeClass::BadReport);
  EXPECT_EQ(Cut.Attempts.size(), Options.Retry.MaxAttempts);
  EXPECT_TRUE(Cut.ReportLine.empty()) << Cut.ReportLine;
  expectNoLeakedChildren();
}

TEST(Supervise, PersistentFailureExhaustsRetriesAndQuarantines) {
  BatchOptions Options = fastOptions();
  Options.Retry.MaxAttempts = 3;
  JobSpec Job = tinyJob("doomed");
  Job.Chaos.Fault = ChaosPlan::Kind::ExitNonzero; // Fires on every attempt.
  JobResult Result = runSupervisedJob(Job, 0, Options);
  EXPECT_EQ(Result.FinalClass, JobOutcomeClass::NonzeroExit);
  EXPECT_TRUE(Result.Quarantined);
  ASSERT_EQ(Result.Attempts.size(), 3u);
  for (const JobAttempt &A : Result.Attempts)
    EXPECT_EQ(A.Class, JobOutcomeClass::NonzeroExit);
  // No retry follows the last attempt, so no delay is planned for it.
  EXPECT_GT(Result.Attempts[0].PlannedDelayMs, 0);
  EXPECT_GT(Result.Attempts[1].PlannedDelayMs, 0);
  EXPECT_DOUBLE_EQ(Result.Attempts[2].PlannedDelayMs, 0);
  expectNoLeakedChildren();
}

TEST(Supervise, PersistentCrashAtTheFloorCannotEscalateAndQuarantines) {
  // The insensitive pre-analysis is the ladder floor; a crash there has
  // nothing below it to resume at, so every retry dies the same way.  The
  // upper rungs are disabled so the floor is actually reached (a tiny
  // program otherwise completes at the deep rung and never runs it).
  BatchOptions Options = fastOptions();
  Options.Ladder.AttemptDeep = false;
  Options.Ladder.AttemptIntroB = false;
  Options.Ladder.AttemptIntroA = false;
  Options.Ladder.TightenedRounds = 0;
  Options.Retry.MaxAttempts = 2;
  JobSpec Job = tinyJob("floor-crash");
  Job.Chaos.Fault = ChaosPlan::Kind::Crash;
  Job.Chaos.AtLevel = DegradationLevel::Insensitive;
  JobResult Result = runSupervisedJob(Job, 0, Options);
  EXPECT_EQ(Result.FinalClass, JobOutcomeClass::Signalled);
  EXPECT_TRUE(Result.Quarantined);
  ASSERT_EQ(Result.Attempts.size(), 2u);
  for (const JobAttempt &A : Result.Attempts) {
    EXPECT_EQ(A.Class, JobOutcomeClass::Signalled);
    EXPECT_TRUE(A.AnyRungStarted);
    EXPECT_EQ(A.DeepestStartedRung, DegradationLevel::Insensitive);
  }
  expectNoLeakedChildren();
}

// --- Batches and the deterministic report ------------------------------------

namespace {

/// A mixed batch exercising clean, bad-input, crash-then-recover, and
/// exit-then-recover jobs in one run.
std::vector<JobSpec> mixedBatch() {
  std::vector<JobSpec> Jobs;
  Jobs.push_back(tinyJob("alpha"));
  JobSpec Broken;
  Broken.Name = "broken";
  Broken.Source = BrokenSource;
  Jobs.push_back(Broken);
  JobSpec Crashy = tinyJob("crashy");
  Crashy.Chaos.Fault = ChaosPlan::Kind::Crash;
  Crashy.Chaos.AtLevel = DegradationLevel::Deep;
  Crashy.Chaos.UntilAttempt = 1;
  Jobs.push_back(Crashy);
  JobSpec Flaky = tinyJob("flaky");
  Flaky.Chaos.Fault = ChaosPlan::Kind::ExitNonzero;
  Flaky.Chaos.UntilAttempt = 1;
  Jobs.push_back(Flaky);
  return Jobs;
}

} // namespace

TEST(Batch, ResultsArriveInInputOrderRegardlessOfWorkers) {
  std::vector<JobSpec> Jobs = mixedBatch();
  BatchOptions Options = fastOptions();
  Options.Workers = 4;
  BatchResult Batch = runSupervisedBatch(Jobs, Options);
  ASSERT_EQ(Batch.Jobs.size(), Jobs.size());
  for (size_t Index = 0; Index < Jobs.size(); ++Index)
    EXPECT_EQ(Batch.Jobs[Index].Name, Jobs[Index].Name);
  EXPECT_EQ(Batch.Jobs[0].FinalClass, JobOutcomeClass::Clean);
  EXPECT_EQ(Batch.Jobs[1].FinalClass, JobOutcomeClass::BadInput);
  EXPECT_EQ(Batch.Jobs[2].FinalClass, JobOutcomeClass::Clean);
  EXPECT_EQ(Batch.Jobs[3].FinalClass, JobOutcomeClass::Clean);
  expectNoLeakedChildren();
}

TEST(Batch, DeterministicSectionIsByteIdenticalAcrossTimingAndWorkers) {
  std::vector<JobSpec> Jobs = mixedBatch();

  // Run 1: serial, no sleeping at all.
  BatchOptions Fast = fastOptions();
  Fast.Workers = 1;
  BatchResult First = runSupervisedBatch(Jobs, Fast);

  // Run 2: parallel supervisors and a sleeper that actually waits (scaled
  // down), i.e. completely different retry timing.
  BatchOptions Slow = fastOptions();
  Slow.Workers = 4;
  Slow.SleepMs = [](double Ms) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long>(Ms * 10)));
  };
  BatchResult Second = runSupervisedBatch(Jobs, Slow);

  auto [FullFirst, DetFirst] = renderReport(First, Fast);
  auto [FullSecond, DetSecond] = renderReport(Second, Slow);
  EXPECT_EQ(DetFirst, DetSecond)
      << "deterministic report section depends on timing or workers";

  // Both documents are valid JSON carrying the schema marker.
  for (const std::string &Full : {FullFirst, FullSecond}) {
    JsonParseResult Parsed = parseJson(Full);
    ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
    std::string Schema;
    ASSERT_TRUE(Parsed.Value.getString("schema", Schema));
    EXPECT_EQ(Schema, "intro-batch-report-v1");
  }
  expectNoLeakedChildren();
}

TEST(Batch, ReportTotalsMatchTheJobRecords) {
  std::vector<JobSpec> Jobs = mixedBatch();
  BatchOptions Options = fastOptions();
  BatchResult Batch = runSupervisedBatch(Jobs, Options);
  auto [Full, Det] = renderReport(Batch, Options);
  JsonParseResult Parsed = parseJson(Full);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;

  const JsonValue *Deterministic = Parsed.Value.get("deterministic");
  ASSERT_NE(Deterministic, nullptr);
  const JsonValue *JobsJson = Deterministic->get("jobs");
  ASSERT_NE(JobsJson, nullptr);
  ASSERT_TRUE(JobsJson->isArray());
  EXPECT_EQ(JobsJson->size(), Jobs.size());

  const JsonValue *Totals = Deterministic->get("totals");
  ASSERT_NE(Totals, nullptr);
  uint64_t TotalJobs = 0, Quarantined = 0, Retries = 0, Clean = 0, Bad = 0;
  ASSERT_TRUE(Totals->getUint("jobs", TotalJobs));
  ASSERT_TRUE(Totals->getUint("quarantined", Quarantined));
  ASSERT_TRUE(Totals->getUint("retries", Retries));
  ASSERT_TRUE(Totals->getUint("clean", Clean));
  ASSERT_TRUE(Totals->getUint("bad_input", Bad));
  EXPECT_EQ(TotalJobs, Jobs.size());
  EXPECT_EQ(Quarantined, 1u); // Only the broken input.
  EXPECT_EQ(Clean, 3u);
  EXPECT_EQ(Bad, 1u);
  uint64_t ExpectedRetries = 0;
  for (const JobResult &Job : Batch.Jobs)
    ExpectedRetries += Job.Attempts.size() - 1;
  EXPECT_EQ(Retries, ExpectedRetries);

  // Wall-clock values live only in the timing section.
  EXPECT_EQ(Det.find("\"seconds\""), std::string::npos);
  EXPECT_EQ(Det.find("total_seconds"), std::string::npos);
  EXPECT_EQ(Det.find("max_rss"), std::string::npos);

  // Beside each job's attempt_seconds, one positive peak RSS per attempt.
  const JsonValue *Timing = Parsed.Value.get("timing");
  ASSERT_NE(Timing, nullptr);
  const JsonValue *TimedJobs = Timing->get("jobs");
  ASSERT_NE(TimedJobs, nullptr);
  ASSERT_EQ(TimedJobs->size(), Batch.Jobs.size());
  for (size_t Index = 0; Index < Batch.Jobs.size(); ++Index) {
    const JsonValue *Rss = TimedJobs->elements()[Index].get("attempt_max_rss_kb");
    ASSERT_NE(Rss, nullptr);
    ASSERT_TRUE(Rss->isArray());
    ASSERT_EQ(Rss->size(), Batch.Jobs[Index].Attempts.size());
    for (const JsonValue &Kb : Rss->elements()) {
      ASSERT_TRUE(Kb.isNumber());
      EXPECT_GT(Kb.asUint(), 0u);
    }
  }
  expectNoLeakedChildren();
}

TEST(Batch, AttemptWithoutRusageWritesANullPeakRss) {
  BatchResult Batch;
  JobResult &Job = Batch.Jobs.emplace_back();
  Job.Name = "job";
  Job.Attempts.resize(2);
  Job.Attempts[1].MaxRssKb = 2048;
  auto [Full, Det] = renderReport(Batch, fastOptions());
  EXPECT_NE(Full.find("\"attempt_max_rss_kb\":[null,2048]"), std::string::npos)
      << Full;
}

TEST(Supervise, ChildReportDeterministicSectionIsByteIdenticalAcrossRuns) {
  std::ifstream In(std::string(CORPUS_DIR) + "/factory.intro");
  ASSERT_TRUE(In) << CORPUS_DIR;
  JobSpec Job;
  Job.Name = "factory";
  Job.Source.assign(std::istreambuf_iterator<char>(In),
                    std::istreambuf_iterator<char>());

  // Two runs of the default ladder without a cache.
  BatchOptions Options = fastOptions();
  JobResult First = runSupervisedJob(Job, 0, Options);
  JobResult Second = runSupervisedJob(Job, 0, Options);
  ASSERT_EQ(First.FinalClass, JobOutcomeClass::Clean);
  ASSERT_EQ(Second.FinalClass, JobOutcomeClass::Clean);
  EXPECT_EQ(childDeterministicSlice(First.ReportLine),
            childDeterministicSlice(Second.ReportLine));

  // A cold run and a warm run over one cache: the warm run reloads Pass A.
  intro::testing::TempDir Dir;
  Options.CacheDir = Dir.Path;
  Options.Ladder.AttemptDeep = false;
  JobResult Cold = runSupervisedJob(Job, 0, Options);
  JobResult Warm = runSupervisedJob(Job, 0, Options);
  ASSERT_EQ(Cold.FinalClass, JobOutcomeClass::Clean);
  ASSERT_EQ(Warm.FinalClass, JobOutcomeClass::Clean);
  ASSERT_EQ(Warm.Attempts.size(), 1u);
  EXPECT_EQ(Warm.Attempts[0].Cache.Hits, 1u);
  EXPECT_EQ(childDeterministicSlice(Cold.ReportLine),
            childDeterministicSlice(Warm.ReportLine));
  expectNoLeakedChildren();
}

// --- Attempt-trace serialization round trips ---------------------------------

TEST(ResilientJson, AttemptTraceSurvivesARoundTrip) {
  ResilientOutcome Outcome;
  Attempt First;
  First.Level = DegradationLevel::Deep;
  First.AnalysisName = "2objH";
  First.Status = SolveStatus::TupleBudgetExceeded;
  First.Stats.WorklistPops = 99;
  First.Seconds = 1.25;
  Outcome.Trace.push_back(First);
  Attempt Second;
  Second.Level = DegradationLevel::TightenedIntroA;
  Second.AnalysisName = "introA";
  Second.Status = SolveStatus::Completed;
  Second.TightenedRound = 2;
  Outcome.Trace.push_back(Second);
  Outcome.Metrics.DeepTuplesEstimate = 12345;

  std::ostringstream Out;
  JsonWriter J(Out);
  writeResilientOutcomeJson(J, Outcome);
  JsonParseResult Parsed = parseJson(Out.str());
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  uint64_t Estimate = 0;
  EXPECT_TRUE(Parsed.Value.getUint("deep_estimate", Estimate));
  EXPECT_EQ(Estimate, 12345u);
  const JsonValue *Attempts = Parsed.Value.get("attempts");
  ASSERT_NE(Attempts, nullptr);

  AttemptTrace Back;
  std::string Error;
  ASSERT_TRUE(parseAttemptTraceJson(*Attempts, Back, Error)) << Error;
  ASSERT_EQ(Back.size(), 2u);
  EXPECT_EQ(Back[0].Level, DegradationLevel::Deep);
  EXPECT_EQ(Back[0].AnalysisName, "2objH");
  EXPECT_EQ(Back[0].Status, SolveStatus::TupleBudgetExceeded);
  EXPECT_EQ(Back[0].Stats.WorklistPops, 99u);
  EXPECT_EQ(Back[1].Level, DegradationLevel::TightenedIntroA);
  EXPECT_EQ(Back[1].TightenedRound, 2u);
}

TEST(ResilientJson, WallClockIsWrittenOnlyByTheTimingWriter) {
  ResilientOutcome Outcome;
  Outcome.Result.Stats.Seconds = 0.75;
  Outcome.MetricSeconds = 0.5;
  Outcome.TotalSeconds = 2.5;
  for (double Seconds : {0.25, 1.0, 0.125}) {
    Attempt A;
    A.Level = DegradationLevel::Insensitive;
    A.Status = SolveStatus::Completed;
    A.Stats.Seconds = Seconds;
    A.Seconds = Seconds;
    Outcome.Trace.push_back(A);
  }

  std::ostringstream Det;
  JsonWriter DetWriter(Det);
  writeResilientOutcomeJson(DetWriter, Outcome);
  EXPECT_EQ(Det.str().find("seconds\""), std::string::npos) << Det.str();

  std::ostringstream Timing;
  JsonWriter TimingWriter(Timing);
  writeResilientTimingJson(TimingWriter, Outcome);
  JsonParseResult Parsed = parseJson(Timing.str());
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  double Total = 0, Metric = 0;
  EXPECT_TRUE(Parsed.Value.getDouble("total_seconds", Total));
  EXPECT_TRUE(Parsed.Value.getDouble("metric_seconds", Metric));
  EXPECT_DOUBLE_EQ(Total, 2.5);
  EXPECT_DOUBLE_EQ(Metric, 0.5);
  const JsonValue *PerAttempt = Parsed.Value.get("attempt_seconds");
  ASSERT_NE(PerAttempt, nullptr);
  ASSERT_TRUE(PerAttempt->isArray());
  ASSERT_EQ(PerAttempt->size(), Outcome.Trace.size());
  for (size_t Index = 0; Index < Outcome.Trace.size(); ++Index)
    EXPECT_DOUBLE_EQ(PerAttempt->elements()[Index].asDouble(),
                     Outcome.Trace[Index].Seconds);
}

TEST(ResilientJson, AttemptTraceParserReportsThePositionOfBadEntries) {
  JsonParseResult Parsed = parseJson(
      "[{\"level\": \"deep\", \"status\": \"Completed\"},"
      " {\"level\": \"deep\", \"status\": \"frobnicated\"}]");
  ASSERT_TRUE(Parsed.ok());
  AttemptTrace Back;
  std::string Error;
  EXPECT_FALSE(parseAttemptTraceJson(Parsed.Value, Back, Error));
  EXPECT_NE(Error.find("attempt 2"), std::string::npos) << Error;
}

TEST(ResilientJson, SolverStatsRoundTrip) {
  SolverStats Stats;
  Stats.VarPointsToTuples = 10;
  Stats.FieldPointsToTuples = 20;
  Stats.WorklistPops = 30;
  Stats.NumContexts = 40;

  std::ostringstream Out;
  JsonWriter J(Out);
  writeSolverStatsJson(J, Stats);
  JsonParseResult Parsed = parseJson(Out.str());
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;

  SolverStats Back;
  ASSERT_TRUE(parseSolverStatsJson(Parsed.Value, Back));
  EXPECT_EQ(Back.VarPointsToTuples, 10u);
  EXPECT_EQ(Back.FieldPointsToTuples, 20u);
  EXPECT_EQ(Back.WorklistPops, 30u);
  EXPECT_EQ(Back.NumContexts, 40u);

  JsonParseResult NotAnObject = parseJson("[1, 2]");
  ASSERT_TRUE(NotAnObject.ok());
  EXPECT_FALSE(parseSolverStatsJson(NotAnObject.Value, Back));
}

// --- The JSON reader under hostile input -------------------------------------
//
// The supervisor feeds whatever bytes a (possibly dying) child wrote into
// parseJson, so the reader must reject garbage with a diagnostic instead
// of crashing or looping.

TEST(JsonReader, TruncatedDocumentsFailWithADiagnostic) {
  for (const char *Text :
       {"", "{", "[1, 2", "{\"a\": ", "\"unterminated", "{\"a\": 1,", "tru"}) {
    JsonParseResult Parsed = parseJson(Text);
    EXPECT_FALSE(Parsed.ok()) << "accepted: " << Text;
    EXPECT_FALSE(Parsed.Error.empty());
  }
}

TEST(JsonReader, BinaryGarbageFailsCleanly) {
  std::string Garbage = "\x01\x02{{{not json\xff\xfe\n";
  JsonParseResult Parsed = parseJson(Garbage);
  EXPECT_FALSE(Parsed.ok());
  std::string WithNul = std::string("{\"a\": \"b") + '\0' + "\"}";
  EXPECT_FALSE(parseJson(WithNul).ok());
}

TEST(JsonReader, ErrorsCarryTheLineNumber) {
  JsonParseResult Parsed = parseJson("{\n  \"a\": 1,\n  \"b\": !\n}");
  ASSERT_FALSE(Parsed.ok());
  EXPECT_EQ(Parsed.Line, 3u);
}

TEST(JsonReader, NestingBeyondTheDepthCapIsRejected) {
  std::string Deep(100000, '[');
  JsonParseResult Parsed = parseJson(Deep);
  EXPECT_FALSE(Parsed.ok());
  // A legal document within the cap still parses.
  std::string Ok = std::string(64, '[') + std::string(64, ']');
  EXPECT_TRUE(parseJson(Ok).ok());
}

// --- Job-name disambiguation -------------------------------------------------

TEST(JobNames, UniqueNamesAreLeftAlone) {
  std::vector<JobSpec> Jobs;
  for (const char *Name : {"alpha", "beta", "gamma"})
    Jobs.push_back(tinyJob(Name));
  disambiguateJobNames(Jobs);
  EXPECT_EQ(Jobs[0].Name, "alpha");
  EXPECT_EQ(Jobs[1].Name, "beta");
  EXPECT_EQ(Jobs[2].Name, "gamma");
}

TEST(JobNames, BasenameCollisionsGetOrderedSuffixes) {
  // Two inputs from different directories sharing a basename used to
  // collide: one quarantine copy silently overwrote the other.  The later
  // duplicates get ".2", ".3", ... in input order; the first keeps the
  // plain name.
  std::vector<JobSpec> Jobs;
  for (const char *Name : {"app", "lib", "app", "app"})
    Jobs.push_back(tinyJob(Name));
  disambiguateJobNames(Jobs);
  EXPECT_EQ(Jobs[0].Name, "app");
  EXPECT_EQ(Jobs[1].Name, "lib");
  EXPECT_EQ(Jobs[2].Name, "app.2");
  EXPECT_EQ(Jobs[3].Name, "app.3");
}

TEST(JobNames, SuffixesSkipLiteralNamesAlreadyTaken) {
  // A literal input named "app.2" must not be aliased by a generated
  // suffix, no matter where it appears in the input order.
  std::vector<JobSpec> Jobs;
  for (const char *Name : {"app", "app", "app.2", "app"})
    Jobs.push_back(tinyJob(Name));
  disambiguateJobNames(Jobs);
  EXPECT_EQ(Jobs[0].Name, "app");
  EXPECT_EQ(Jobs[1].Name, "app.3") << "app.2 is taken by a literal input";
  EXPECT_EQ(Jobs[2].Name, "app.2");
  EXPECT_EQ(Jobs[3].Name, "app.4");
  std::set<std::string> Unique;
  for (const JobSpec &Job : Jobs)
    Unique.insert(Job.Name);
  EXPECT_EQ(Unique.size(), Jobs.size());
}

TEST(JobNames, DisambiguationIsDeterministic) {
  std::vector<JobSpec> A, B;
  for (const char *Name : {"x", "x", "x.2", "y", "x", "y"}) {
    A.push_back(tinyJob(Name));
    B.push_back(tinyJob(Name));
  }
  disambiguateJobNames(A);
  disambiguateJobNames(B);
  for (size_t Index = 0; Index < A.size(); ++Index)
    EXPECT_EQ(A[Index].Name, B[Index].Name);
}
