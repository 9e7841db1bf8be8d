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
///   - **Bounded retention.**  The job registry holds queued and running
///     jobs only.  A job's result travels to its submitting session through
///     the pool future; once the job finishes, the server keeps one byte
///     per id (done or cancelled) so status and cancel can still name it.
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
#include <vector>

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
  /// A job's lifecycle.  Done and Cancelled are terminal: finishJob freezes
  /// one of them, and nothing changes it afterwards.
  enum class JobPhase : uint8_t { Queued, Running, Done, Cancelled };

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

  supervise::JobResult runJob(Session &S, JobState &Job,
                              const supervise::JobSpec &Spec,
                              double DeadlineSeconds, size_t JobIndex);
  void finishJob(JobState &Job);
  std::string doneFrameFor(const JobState &Job,
                           const supervise::JobResult &Result);

  bool sendFrame(Session &S, std::string_view Payload);
  bool sendError(Session &S, const char *Code, const std::string &Message,
                 uint32_t Line);

  /// \returns the state name of job \p Id, or nullptr for an id never
  /// issued; \p Live is its record while it is queued or running, else
  /// null.  The caller holds JobsMutex.
  const char *jobStateNameLocked(uint64_t Id, JobState *&Live);
  void drainJobs();
  void reapSessions(bool JoinAll);

  ServerOptions Options;
  int ListenFd = -1;
  std::unique_ptr<ThreadPool> Pool;

  mutable std::mutex JobsMutex;
  std::condition_variable JobsIdle;
  /// The queued and running jobs; finishJob erases each one.
  std::unordered_map<uint64_t, std::shared_ptr<JobState>> Jobs;
  /// Indexed by job id - 1, one entry per id ever issued: the terminal
  /// phase of a finished job (a live job's entry is unused).
  std::vector<JobPhase> Phases;
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
