//===- tools/intro_serve.cpp - Persistent analysis service daemon ---------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Long-running front of the supervision layer: listens on a Unix-domain
/// socket, accepts analysis jobs over the intro-serve-v1 frame protocol
/// (serve/Protocol.h), runs each in its own forked, rlimit-guarded child,
/// and streams the child's transcript back to the submitting client.  See
/// DESIGN.md section 12 and the README walkthrough.
///
/// Usage, options and exit codes: the Usage text below, which
/// `intro_serve --help` prints.
///
/// SIGTERM and SIGINT drain: in-flight jobs finish (children reaped), the
/// socket file is removed, and the process exits 0.  SIGPIPE is ignored
/// (support/Socket.h policy): a client hanging up mid-stream cancels its
/// job, it never kills the server.
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "support/ExitCodes.h"
#include "support/ParseNum.h"
#include "support/Socket.h"

#include <atomic>
#include <csignal>
#include <exception>
#include <iostream>
#include <string>

using namespace intro;
using namespace intro::serve;

namespace {

/// The usage text: printed to stdout by --help and -h, and to stderr
/// on a usage error.
constexpr const char *Usage = R"(usage: intro_serve --socket=PATH [options]

  --socket=PATH        Unix-domain socket to listen on (required)
  --workers=N          concurrent supervised jobs, 1..1024 (default 2)
  --deadline=SECONDS   default per-job wall watchdog (default 60)
  --max-deadline=SECONDS  clamp on a request's deadline_seconds
                       (default 600; --deadline may not exceed it)
  --max-attempts=N     attempts per job before giving up (default 3)
  --cpu-limit=SECONDS  per-child RLIMIT_CPU (default 0 = off)
  --mem-limit=MB       per-child RLIMIT_AS (default 0 = off)
  --seed=N             retry-jitter seed (default 0x5eed)
  --cache-dir=DIR      Pass-A cache shared across all served jobs
  --cache-max-entries=N  cap on cached entries (default 0 = no cap;
                       a nonzero cap needs --cache-dir)
  --no-deep            skip the deep ladder rung

SIGTERM and SIGINT drain in-flight jobs, remove the socket and exit 0.

Exit codes (support/ExitCodes.h): 0 clean shutdown; 2 bad usage; 3
internal error.
)";

/// Written by the signal handler, polled by the accept loop.  A plain
/// store is the only async-signal-safe thing a handler may do here.
std::atomic<bool> GStop{false};

void onStopSignal(int) { GStop.store(true, std::memory_order_relaxed); }

int parseCli(int argc, char **argv, ServerOptions &Options) {
  std::string Error;
  for (int Index = 1; Index < argc; ++Index) {
    std::string Arg = argv[Index];
    std::string Value;
    if (Arg == "--help" || Arg == "-h") {
      std::cout << Usage;
      return ExitSuccess;
    }
    if (flagValue(Arg, "--socket", Options.SocketPath))
      continue;
    if (supervise::parseSharedBatchFlag(Arg, Options.Batch, Error)) {
      if (!Error.empty())
        break;
      continue;
    }
    if (flagValue(Arg, "--deadline", Value)) {
      if (!parseF64("--deadline", Value, 0.001, 1e9,
                    Options.Batch.Limits.WallDeadlineSeconds, Error))
        break;
      continue;
    }
    if (flagValue(Arg, "--max-deadline", Value)) {
      if (!parseF64("--max-deadline", Value, 0.001, 1e9,
                    Options.MaxDeadlineSeconds, Error))
        break;
      continue;
    }
    std::cerr << "error: unknown flag '" << Arg << "'\n";
    return ExitBadInput;
  }
  if (!Error.empty() ||
      !supervise::checkSharedBatchFlags(Options.Batch, Error)) {
    std::cerr << "error: " << Error << "\n";
    return ExitBadInput;
  }
  // handleSubmit clamps only a request's own deadline_seconds; a default
  // above the clamp would let every deadline-less submit outlive it.
  const double Deadline = Options.Batch.Limits.WallDeadlineSeconds;
  if (Deadline > Options.MaxDeadlineSeconds) {
    std::cerr << "error: --deadline=" << Deadline
              << " exceeds --max-deadline=" << Options.MaxDeadlineSeconds
              << "\n";
    return ExitBadInput;
  }
  if (Options.SocketPath.empty()) {
    std::cerr << Usage;
    return ExitBadInput;
  }
  return -1;
}

} // namespace

int main(int argc, char **argv) try {
  ignoreSigPipe();

  ServerOptions Options;
  Options.Batch.Limits.WallDeadlineSeconds = 60;
  Options.Batch.Workers = 2;
  if (int Code = parseCli(argc, argv, Options); Code >= 0)
    return Code;

  struct sigaction Action = {};
  Action.sa_handler = onStopSignal;
  ::sigaction(SIGTERM, &Action, nullptr);
  ::sigaction(SIGINT, &Action, nullptr);

  Server Daemon(Options);
  std::string Error;
  if (!Daemon.start(Error)) {
    std::cerr << "error: " << Error << "\n";
    return ExitBadInput;
  }
  // CI and scripts wait for this line (flushed) as the readiness signal.
  std::cout << "intro_serve listening on " << Options.SocketPath << std::endl;

  int Code = Daemon.run(GStop);
  std::cout << "intro_serve drained; exiting\n";
  return Code;
} catch (const std::exception &Error) {
  std::cerr << "internal error: " << Error.what() << "\n";
  return ExitInternalError;
} catch (...) {
  std::cerr << "internal error: unknown exception\n";
  return ExitInternalError;
}
