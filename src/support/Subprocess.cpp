//===- support/Subprocess.cpp - Supervised child processes ----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Subprocess.h"

#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <new>
#include <streambuf>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace intro;

const char *intro::childStatusName(ChildStatus Status) {
  switch (Status) {
  case ChildStatus::CleanExit:
    return "clean-exit";
  case ChildStatus::NonzeroExit:
    return "nonzero-exit";
  case ChildStatus::Signalled:
    return "signalled";
  case ChildStatus::OutOfMemory:
    return "out-of-memory";
  case ChildStatus::WatchdogKill:
    return "watchdog-kill";
  }
  return "?";
}

namespace {

/// Unbuffered streambuf over a pipe write end: every overflow/xsputn goes
/// straight to write(2), so whatever the child managed to emit before a
/// crash is visible to the parent — no stdio buffer dies with the process.
class FdStreamBuf : public std::streambuf {
public:
  explicit FdStreamBuf(int Fd) : Fd(Fd) {}

private:
  int_type overflow(int_type Ch) override {
    if (Ch == traits_type::eof())
      return traits_type::not_eof(Ch);
    char Byte = static_cast<char>(Ch);
    return writeAll(&Byte, 1) ? Ch : traits_type::eof();
  }

  std::streamsize xsputn(const char *Data, std::streamsize Count) override {
    return writeAll(Data, static_cast<size_t>(Count))
               ? Count
               : std::streamsize(0);
  }

  bool writeAll(const char *Data, size_t Count) {
    while (Count > 0) {
      ssize_t Written = ::write(Fd, Data, Count);
      if (Written < 0) {
        if (errno == EINTR)
          continue;
        return false; // Parent gone (EPIPE with SIGPIPE ignored) — drop.
      }
      Data += Written;
      Count -= static_cast<size_t>(Written);
    }
    return true;
  }

  int Fd;
};

/// Applies the rlimit guards inside the child.  Failures are ignored on
/// purpose: a container that forbids setrlimit should degrade to "no hard
/// limit", not to "no analysis".
void applyChildLimits(const ChildLimits &Limits) {
  if (Limits.MaxAddressSpaceBytes > 0) {
    rlimit Limit;
    Limit.rlim_cur = static_cast<rlim_t>(Limits.MaxAddressSpaceBytes);
    Limit.rlim_max = static_cast<rlim_t>(Limits.MaxAddressSpaceBytes);
    (void)setrlimit(RLIMIT_AS, &Limit);
  }
  if (Limits.MaxCpuSeconds > 0) {
    rlimit Limit;
    Limit.rlim_cur = Limits.MaxCpuSeconds;
    // Hard limit one second above soft: if the SIGXCPU default disposition
    // was somehow masked, the kernel follows up with SIGKILL.
    Limit.rlim_max = Limits.MaxCpuSeconds + 1;
    (void)setrlimit(RLIMIT_CPU, &Limit);
  }
}

/// Closes every descriptor the child inherited except stdio and its own
/// report pipe.  fork() copies the whole descriptor table: a sibling job's
/// report-pipe write end (forked concurrently on another supervisor
/// thread) would otherwise stay open here and hold back that job's EOF
/// until this unrelated child exits, and the daemon's listen and session
/// sockets have no business inside an analysis sandbox.
void closeInheritedFds(int KeepFd) {
  unsigned Keep = static_cast<unsigned>(KeepFd);
  if (Keep > 3)
    (void)::close_range(3, Keep - 1, 0);
  (void)::close_range(std::max(3u, Keep + 1), ~0u, 0);
}

/// The child side of runSupervisedChild: runs the payload with the report
/// stream and never returns.  _exit (not exit) keeps the parent's atexit
/// handlers, stdio flushes, and static destructors from running twice.
[[noreturn]] void runChild(int WriteFd, const ChildLimits &Limits,
                           const ChildPayload &Payload) {
  // A parent that gave up must not turn our report write into SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  closeInheritedFds(WriteFd);
  applyChildLimits(Limits);
  int Code = ChildExceptionExitCode;
  try {
    FdStreamBuf Buf(WriteFd);
    std::ostream Report(&Buf);
    Code = Payload(Report);
  } catch (const std::bad_alloc &) {
    Code = OomExitCode;
  } catch (...) {
    Code = ChildExceptionExitCode;
  }
  ::close(WriteFd);
  ::_exit(Code);
}

/// fork() is serialized across supervisor threads: glibc makes
/// malloc-after-fork safe via atfork handlers, but two simultaneous forks
/// copying pipe fds racing with fcntl would be needless exposure.
std::mutex &forkMutex() {
  static std::mutex M;
  return M;
}

/// Turns the raw wait status into a ChildStatus.  Two deliberate
/// wrinkles: (a) a watchdog kill wins over whatever the status word says —
/// the parent pulled the trigger, so the signal is ours, not the child's;
/// (b) under an armed RLIMIT_AS, SIGABRT is read as out-of-memory, because
/// sanitizer runtimes abort on allocation failure instead of letting
/// std::bad_alloc propagate to the harness.
void classify(ChildResult &Result, int Status, bool WatchdogFired,
              const ChildLimits &Limits) {
  if (WatchdogFired) {
    Result.Status = ChildStatus::WatchdogKill;
    Result.TermSignal = SIGKILL;
    return;
  }
  if (WIFEXITED(Status)) {
    Result.ExitCode = WEXITSTATUS(Status);
    if (Result.ExitCode == 0)
      Result.Status = ChildStatus::CleanExit;
    else if (Result.ExitCode == OomExitCode)
      Result.Status = ChildStatus::OutOfMemory;
    else
      Result.Status = ChildStatus::NonzeroExit;
    return;
  }
  if (WIFSIGNALED(Status)) {
    Result.TermSignal = WTERMSIG(Status);
    if (Result.TermSignal == SIGABRT && Limits.MaxAddressSpaceBytes > 0)
      Result.Status = ChildStatus::OutOfMemory;
    else
      Result.Status = ChildStatus::Signalled;
    return;
  }
  // Stopped/continued should be impossible without WUNTRACED; treat as a
  // nonzero exit so the supervisor retries rather than trusting garbage.
  Result.Status = ChildStatus::NonzeroExit;
  Result.ExitCode = ChildExceptionExitCode;
}

} // namespace

ChildResult intro::runSupervisedChild(const ChildLimits &Limits,
                                      const ChildPayload &Payload,
                                      const ChildOutputSink &Sink) {
  TRACE_SPAN("supervise.launch");
  ChildResult Result;
  Timer Clock;

  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Result.Status = ChildStatus::NonzeroExit;
    Result.ExitCode = ChildExceptionExitCode;
    Result.Output = "";
    return Result;
  }

  // Buffered stdout/stderr must not be duplicated into the child (it would
  // replay the parent's pending output on its own exit path via write(2)
  // inside the payload's own printing, if any).
  std::fflush(stdout);
  std::fflush(stderr);

  pid_t Pid;
  {
    std::lock_guard<std::mutex> Lock(forkMutex());
    Pid = ::fork();
  }
  if (Pid < 0) {
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    Result.Status = ChildStatus::NonzeroExit;
    Result.ExitCode = ChildExceptionExitCode;
    return Result;
  }
  if (Pid == 0) {
    ::close(Pipe[0]);
    runChild(Pipe[1], Limits, Payload); // Never returns.
  }

  // --- Parent: drain the pipe under the watchdog, then reap. --------------
  ::close(Pipe[1]);
  int ReadFd = Pipe[0];
  bool Killed = false;
  bool WatchdogFired = false;
  const bool Armed = Limits.WallDeadlineSeconds > 0 || Limits.Cancel;

  {
    TRACE_SPAN("supervise.wait");
    char Buffer[4096];
    while (true) {
      // The one kill site.  Past the deadline the child is SIGKILLed and
      // classified WatchdogKill; the cancel switch SIGKILLs it too, but the
      // classification stays Signalled/SIGKILL — a cancel is the caller's
      // decision, not a resource verdict, and callers that cancel interpret
      // the death themselves.  After the kill, drain to EOF unbounded.
      double Remaining = Limits.WallDeadlineSeconds - Clock.seconds();
      if (Armed && !Killed) {
        bool Expired = Limits.WallDeadlineSeconds > 0 && Remaining <= 0;
        if (Expired ||
            (Limits.Cancel && Limits.Cancel->load(std::memory_order_relaxed))) {
          TRACE_SPAN("supervise.kill");
          TRACE_INSTANT(Expired ? "supervise.watchdog_fired"
                                : "supervise.cancel_kill",
                        1);
          ::kill(Pid, SIGKILL);
          Killed = true;
          WatchdogFired = Expired;
        }
      }
      pollfd Poll;
      Poll.fd = ReadFd;
      Poll.events = POLLIN;
      Poll.revents = 0;
      // While armed, cap the slice so the deadline (and the cancel flag) is
      // honored within ~50ms even if the child neither writes nor exits.
      int TimeoutMs = -1;
      if (Armed && !Killed) {
        double SliceMs = Limits.WallDeadlineSeconds > 0 ? Remaining * 1000 : 50;
        TimeoutMs = static_cast<int>(std::clamp(SliceMs, 1.0, 50.0));
      }
      int Ready = ::poll(&Poll, 1, TimeoutMs);
      if (Ready < 0) {
        if (errno == EINTR)
          continue;
        break;
      }
      if (Ready == 0)
        continue; // Timeout slice: re-check the deadline.
      ssize_t Count = ::read(ReadFd, Buffer, sizeof(Buffer));
      if (Count > 0) {
        Result.Output.append(Buffer, static_cast<size_t>(Count));
        if (Sink)
          Sink(std::string_view(Buffer, static_cast<size_t>(Count)));
        continue;
      }
      if (Count < 0 && errno == EINTR)
        continue;
      // EOF (the child exited or was killed) or a hard poll/read error,
      // which our own pipe cannot produce short of kernel memory failure.
      break;
    }
  }
  ::close(ReadFd);

  // One blocking reap.  EOF means the child's write end is closed, and
  // runChild closes it only immediately before _exit (no other process
  // holds a copy: children drop inherited descriptors at start), so the
  // child has exited or our SIGKILL is in flight.
  int Status = 0;
  struct rusage Usage {};
  while (::wait4(Pid, &Status, 0, &Usage) < 0 && errno == EINTR) {
  }
  classify(Result, Status, WatchdogFired, Limits);
  Result.MaxRssKb = static_cast<uint64_t>(Usage.ru_maxrss);
  Result.Seconds = Clock.seconds();
  return Result;
}
