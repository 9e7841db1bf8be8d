//===- serve/Server.h - Persistent analysis service -------------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running analysis daemon behind tools/intro_serve: accepts jobs
/// over a Unix-domain socket (serve/Protocol.h), runs each one through the
/// same supervised-child machinery as intro_batch (supervise/Supervise.h),
/// and streams the child's JSONL transcript back to the submitting client
/// as it is produced.  The design invariants:
///
///   - **Crash isolation.**  Every analysis runs in a forked, rlimit-guarded
///     child; a segfaulting, OOMing, or hanging job is classified and
///     retried by the supervision layer and can never take the server down.
///   - **Concurrency.**  Jobs from any number of connections multiplex onto
///     one support/ThreadPool; sessions are one thread each, so status /
///     cancel / stats requests are served while jobs run.
///   - **Warm cache.**  All jobs share one Pass-A ResultCache directory, so
///     a resubmitted program skips the pre-analysis regardless of which
///     connection first submitted it.
///   - **Determinism.**  A served job's child runs byte-identically to an
///     intro_batch job's child: the rung_start events and the
///     intro-run-report-v1 line stream to the client verbatim, and the
///     report's deterministic section is byte-equal to a local run with the
///     same ladder (asserted by serve_tests).
///   - **Deadlines.**  Every job runs under a wall watchdog: the request's
///     deadline_seconds clamped to MaxDeadlineSeconds, or the configured
///     default.  There is no unwatched mode on the server.
///   - **Clean drain.**  A drain request (or SIGTERM in intro_serve)
///     refuses new submits, waits for in-flight jobs, answers, and shuts
///     down with every child reaped and the socket file removed.
///
//===----------------------------------------------------------------------===//

#ifndef SERVE_SERVER_H
#define SERVE_SERVER_H

#include "supervise/Supervise.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

namespace intro::serve {

struct ServerOptions {
  /// Filesystem path of the Unix-domain listening socket.
  std::string SocketPath;
  /// Ladder, child limits, retry policy, Pass-A cache configuration and
  /// worker count — exactly the knobs intro_batch exposes, applied to
  /// every served job.  Limits.WallDeadlineSeconds is the *default*
  /// per-job deadline; Workers is how many jobs run concurrently.
  supervise::BatchOptions Batch;
  /// Upper clamp on a request's deadline_seconds.  A client cannot buy
  /// more wall clock than the operator allows.
  double MaxDeadlineSeconds = 600;
};

/// Monotonic counters reported by the stats op (and used by tests).
struct ServerCounters {
  uint64_t Connections = 0;
  uint64_t Frames = 0;
  uint64_t Submits = 0;
  uint64_t Completed = 0;
  uint64_t Cancelled = 0;
  uint64_t Errors = 0;
};

/// The service.  Lifecycle: construct, start() (bind + listen), run()
/// (blocks until a drain request or the stop flag), destruct.  run() owns
/// every session thread and every job; when it returns, all children are
/// reaped, all threads joined, and the socket file is gone.
class Server {
public:
  explicit Server(ServerOptions Options);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens on the socket.  \returns false with \p Error set
  /// (path too long, another live server, permission).
  bool start(std::string &Error);

  /// Accept-and-serve loop.  Returns after a drain op completes, or after
  /// \p Stop becomes true (the SIGTERM path: drains in-flight jobs first).
  /// \returns a process exit code (support/ExitCodes.h).
  int run(const std::atomic<bool> &Stop);

  /// Counter snapshot (thread-safe; tests poll this).
  ServerCounters counters() const;

private:
  struct JobState;
  struct Session;

  void serveSession(Session &S);
  /// \returns false when the connection should close.
  bool handleRequest(Session &S, const std::string &Payload);
  bool handleSubmit(Session &S, const JsonValue &Doc);
  bool handleStatus(Session &S, const JsonValue &Doc);
  bool handleCancel(Session &S, const JsonValue &Doc);
  bool handleStats(Session &S);
  bool handleDrain(Session &S);

  void runJob(Session &S, JobState &Job, const supervise::JobSpec &Spec,
              double DeadlineSeconds, size_t JobIndex);
  void finishJob(JobState &Job);
  std::string doneFrameFor(JobState &Job);

  bool sendFrame(Session &S, std::string_view Payload);
  bool sendError(Session &S, const char *Code, const std::string &Message,
                 uint32_t Line);

  std::shared_ptr<JobState> findJob(uint64_t Id);
  const char *jobStateName(const JobState &Job);
  void drainJobs();
  void reapSessions(bool JoinAll);

  ServerOptions Options;
  int ListenFd = -1;
  std::unique_ptr<ThreadPool> Pool;

  mutable std::mutex JobsMutex;
  std::condition_variable JobsIdle;
  std::unordered_map<uint64_t, std::shared_ptr<JobState>> Jobs;
  uint64_t NextJobId = 1;
  size_t ActiveJobs = 0;
  bool Draining = false;

  std::atomic<bool> Stopping{false};

  std::mutex SessionsMutex;
  std::list<std::unique_ptr<Session>> Sessions;

  std::atomic<uint64_t> NConnections{0};
  std::atomic<uint64_t> NFrames{0};
  std::atomic<uint64_t> NSubmits{0};
  std::atomic<uint64_t> NCompleted{0};
  std::atomic<uint64_t> NCancelled{0};
  std::atomic<uint64_t> NErrors{0};
};

} // namespace intro::serve

#endif // SERVE_SERVER_H
