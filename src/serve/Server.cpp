//===- serve/Server.cpp - Persistent analysis service ---------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "serve/Protocol.h"
#include "support/ExitCodes.h"
#include "support/Socket.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <sstream>

#include <sys/socket.h>
#include <unistd.h>

using namespace intro;
using namespace intro::serve;

namespace {

/// How often a session waiting on its job checks whether the client hung up.
constexpr std::chrono::milliseconds HangupPollInterval{50};

} // namespace

//===----------------------------------------------------------------------===//
// Internal state
//===----------------------------------------------------------------------===//

/// One submitted job, visible to every session (status/cancel cross
/// connections).  Phase moves Queued -> Running -> Done; CancelRequested is
/// both the queued-stage tombstone and the running-stage kill switch
/// (wired into ChildLimits::Cancel).
struct Server::JobState {
  uint64_t Id = 0;
  std::string Name;
  std::atomic<bool> CancelRequested{false};
  std::atomic<uint8_t> Phase{0}; // 0 queued, 1 running, 2 done.
  std::mutex Mutex;              // Guards Result.
  supervise::JobResult Result;
};

/// One accepted connection: a reader thread plus a send mutex, because job
/// workers stream line events into the same fd the session thread writes
/// responses to.
struct Server::Session {
  int Fd = -1;
  std::mutex SendMutex;
  std::atomic<bool> PeerGone{false};
  std::atomic<bool> Finished{false};
  std::thread Thread;
};

Server::Server(ServerOptions Opts) : Options(std::move(Opts)) {}

Server::~Server() {
  reapSessions(/*JoinAll=*/true);
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ::unlink(Options.SocketPath.c_str());
  }
}

bool Server::start(std::string &Error) {
  ListenFd = listenUnix(Options.SocketPath, /*Backlog=*/64, Error);
  if (ListenFd < 0)
    return false;
  Pool = std::make_unique<ThreadPool>(std::max(1u, Options.Batch.Workers));
  return true;
}

ServerCounters Server::counters() const {
  ServerCounters C;
  C.Connections = NConnections.load(std::memory_order_relaxed);
  C.Frames = NFrames.load(std::memory_order_relaxed);
  C.Submits = NSubmits.load(std::memory_order_relaxed);
  C.Completed = NCompleted.load(std::memory_order_relaxed);
  C.Cancelled = NCancelled.load(std::memory_order_relaxed);
  C.Errors = NErrors.load(std::memory_order_relaxed);
  return C;
}

//===----------------------------------------------------------------------===//
// Frame plumbing
//===----------------------------------------------------------------------===//

bool Server::sendFrame(Session &S, std::string_view Payload) {
  std::lock_guard<std::mutex> Lock(S.SendMutex);
  if (S.PeerGone.load(std::memory_order_relaxed))
    return false;
  std::string Frame = encodeFrame(Payload);
  if (!sendAll(S.Fd, Frame.data(), Frame.size())) {
    // EPIPE policy: the client hanging up on its own progress stream is a
    // clean stop, not a server error.  Remember it so nothing else tries.
    S.PeerGone.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

bool Server::sendError(Session &S, const char *Code,
                       const std::string &Message, uint32_t Line) {
  std::ostringstream Out;
  JsonWriter J(Out);
  J.beginObject();
  J.key("ok");
  J.value(false);
  J.key("error");
  J.beginObject();
  J.key("code");
  J.value(Code);
  J.key("message");
  J.value(Message);
  if (Line > 0) {
    J.key("line");
    J.value(Line);
  }
  J.endObject();
  J.endObject();
  return sendFrame(S, Out.str());
}

//===----------------------------------------------------------------------===//
// Accept loop and sessions
//===----------------------------------------------------------------------===//

int Server::run(const std::atomic<bool> &Stop) {
  TRACE_SPAN("serve.run");
  while (!Stopping.load(std::memory_order_relaxed)) {
    if (Stop.load(std::memory_order_relaxed)) {
      // SIGTERM path: same contract as the drain op — finish what is
      // in flight, then leave nothing behind.
      TRACE_INSTANT("serve.stop_requested", 1);
      drainJobs();
      break;
    }
    reapSessions(/*JoinAll=*/false);
    int Ready = pollIn(ListenFd, 200);
    if (Ready < 0)
      break;
    if (Ready == 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    NConnections.fetch_add(1, std::memory_order_relaxed);
    TRACE_COUNTER("serve.connection", 1);
    auto S = std::make_unique<Session>();
    S->Fd = Fd;
    Session *Raw = S.get();
    {
      std::lock_guard<std::mutex> Lock(SessionsMutex);
      Sessions.push_back(std::move(S));
    }
    Raw->Thread = std::thread([this, Raw] {
      // A supervision primitive throwing (fork failure, bad_alloc in the
      // parent) must cost one connection, never the whole server.
      try {
        serveSession(*Raw);
      } catch (...) {
        NErrors.fetch_add(1, std::memory_order_relaxed);
      }
      Raw->Finished.store(true, std::memory_order_release);
    });
  }

  // Shutdown: no new jobs can exist (drained), every session must wind
  // down.  shutdown(2) wakes sessions blocked in poll/read; their job
  // futures already resolved because drainJobs() waited for ActiveJobs.
  drainJobs();
  Stopping.store(true, std::memory_order_relaxed);
  ::close(ListenFd);
  ListenFd = -1;
  reapSessions(/*JoinAll=*/true);
  ::unlink(Options.SocketPath.c_str());
  return ExitSuccess;
}

void Server::reapSessions(bool JoinAll) {
  std::list<std::unique_ptr<Session>> Dead;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    for (auto It = Sessions.begin(); It != Sessions.end();) {
      Session &S = **It;
      if (JoinAll && !S.Finished.load(std::memory_order_acquire))
        ::shutdown(S.Fd, SHUT_RDWR); // Wake the reader; it will exit.
      if (JoinAll || S.Finished.load(std::memory_order_acquire)) {
        Dead.push_back(std::move(*It));
        It = Sessions.erase(It);
      } else {
        ++It;
      }
    }
  }
  for (std::unique_ptr<Session> &S : Dead) {
    if (S->Thread.joinable())
      S->Thread.join();
    ::close(S->Fd);
  }
}

void Server::serveSession(Session &S) {
  TRACE_SPAN("serve.session");
  {
    std::ostringstream Out;
    JsonWriter J(Out);
    J.beginObject();
    J.key("ok");
    J.value(true);
    J.key("event");
    J.value("hello");
    J.key("protocol");
    J.value(ProtocolName);
    J.endObject();
    if (!sendFrame(S, Out.str()))
      return;
  }

  FrameDecoder Decoder;
  char Buffer[4096];
  bool Close = false;
  while (!Close && !Stopping.load(std::memory_order_relaxed)) {
    int Ready = pollIn(S.Fd, 200);
    if (Ready < 0)
      break;
    if (Ready == 0)
      continue;
    long Count = readSome(S.Fd, Buffer, sizeof(Buffer));
    if (Count < 0)
      break;
    if (Count == 0) {
      // EOF.  A half-sent frame means the peer died (or gave up)
      // mid-request; name the condition so a flaky client can tell its
      // own truncation from a server fault.
      if (Decoder.hasPartial()) {
        NErrors.fetch_add(1, std::memory_order_relaxed);
        sendError(S, "truncated_frame", "connection closed mid-frame", 0);
      }
      break;
    }
    Decoder.feed(Buffer, static_cast<size_t>(Count));
    std::string Payload;
    std::string FrameError;
    while (!Close) {
      FrameDecoder::Status Status = Decoder.next(Payload, FrameError);
      if (Status == FrameDecoder::Status::NeedMore)
        break;
      if (Status == FrameDecoder::Status::Error) {
        NErrors.fetch_add(1, std::memory_order_relaxed);
        sendError(S, "oversized_frame", FrameError, 0);
        Close = true; // The stream position is unrecoverable.
        break;
      }
      NFrames.fetch_add(1, std::memory_order_relaxed);
      Close = !handleRequest(S, Payload);
    }
  }
}

//===----------------------------------------------------------------------===//
// Request dispatch
//===----------------------------------------------------------------------===//

bool Server::handleRequest(Session &S, const std::string &Payload) {
  JsonParseResult Parsed = parseJson(Payload);
  if (!Parsed.ok()) {
    NErrors.fetch_add(1, std::memory_order_relaxed);
    return sendError(S, "bad_json", Parsed.Error, Parsed.Line);
  }
  std::string Op;
  if (!Parsed.Value.isObject() || !Parsed.Value.getString("op", Op)) {
    NErrors.fetch_add(1, std::memory_order_relaxed);
    return sendError(S, "bad_request",
                     "expected an object with a string \"op\" member", 0);
  }
  if (Op == "submit")
    return handleSubmit(S, Parsed.Value);
  if (Op == "status")
    return handleStatus(S, Parsed.Value);
  if (Op == "cancel")
    return handleCancel(S, Parsed.Value);
  if (Op == "stats")
    return handleStats(S);
  if (Op == "drain")
    return handleDrain(S);
  NErrors.fetch_add(1, std::memory_order_relaxed);
  return sendError(S, "unknown_op", "unknown op '" + Op + "'", 0);
}

std::shared_ptr<Server::JobState> Server::findJob(uint64_t Id) {
  std::lock_guard<std::mutex> Lock(JobsMutex);
  auto It = Jobs.find(Id);
  return It == Jobs.end() ? nullptr : It->second;
}

const char *Server::jobStateName(const JobState &Job) {
  uint8_t Phase = Job.Phase.load(std::memory_order_acquire);
  if (Phase == 2)
    return Job.CancelRequested.load(std::memory_order_relaxed) ? "cancelled"
                                                               : "done";
  if (Job.CancelRequested.load(std::memory_order_relaxed))
    return "cancelling";
  return Phase == 1 ? "running" : "queued";
}

bool Server::handleSubmit(Session &S, const JsonValue &Doc) {
  supervise::JobSpec Spec;
  if (!Doc.getString("name", Spec.Name) ||
      !Doc.getString("source", Spec.Source) || Spec.Name.empty())
    return sendError(
        S, "bad_request",
        "submit needs a nonempty string \"name\" and a string \"source\"", 0);
  std::string ChaosSpec;
  if (Doc.getString("chaos", ChaosSpec)) {
    std::string ChaosError;
    if (!supervise::parseChaosPlan(ChaosSpec, Spec.Chaos, ChaosError))
      return sendError(S, "bad_request", "bad chaos spec: " + ChaosError, 0);
  }
  double Deadline = Options.Batch.Limits.WallDeadlineSeconds;
  double Requested = 0;
  if (Doc.getDouble("deadline_seconds", Requested)) {
    if (!(Requested > 0))
      return sendError(S, "bad_request", "deadline_seconds must be positive",
                       0);
    Deadline = std::min(Requested, Options.MaxDeadlineSeconds);
  }

  std::shared_ptr<JobState> Job;
  {
    std::lock_guard<std::mutex> Lock(JobsMutex);
    if (Draining)
      return sendError(S, "draining",
                       "server is draining and accepts no new jobs", 0);
    Job = std::make_shared<JobState>();
    Job->Id = NextJobId++;
    Job->Name = Spec.Name;
    Jobs.emplace(Job->Id, Job);
    ++ActiveJobs;
  }
  NSubmits.fetch_add(1, std::memory_order_relaxed);
  TRACE_COUNTER("serve.submit", 1);

  {
    std::ostringstream Out;
    JsonWriter J(Out);
    J.beginObject();
    J.key("ok");
    J.value(true);
    J.key("event");
    J.value("accepted");
    J.key("job");
    J.value(Job->Id);
    J.key("name");
    J.value(Job->Name);
    J.endObject();
    sendFrame(S, Out.str());
  }

  // The session thread waits on the worker future — responses to this
  // connection stay in request order — while other sessions keep being
  // served (each has its own thread) and other jobs keep running (the
  // pool has Batch.Workers slots).  The jitter seed is the job id, so a
  // job's planned backoff schedule is reproducible from its done frame.
  size_t JobIndex = static_cast<size_t>(Job->Id - 1);
  auto Future =
      Pool->submit([this, &S, Job, Spec = std::move(Spec), Deadline,
                    JobIndex]() mutable {
        runJob(S, *Job, Spec, Deadline, JobIndex);
      });
  // While it waits, the session polls its connection: a client that hung
  // up has orphaned the job, which is cancelled rather than run for nobody
  // (the stop a failed transcript write also triggers, in runJob).
  while (Future.wait_for(HangupPollInterval) != std::future_status::ready)
    if (!Job->CancelRequested.load(std::memory_order_acquire) &&
        peerHungUp(S.Fd)) {
      TRACE_INSTANT("serve.client_gone", 1);
      S.PeerGone.store(true, std::memory_order_relaxed);
      Job->CancelRequested.store(true, std::memory_order_release);
    }
  Future.get();

  bool Sent = sendFrame(S, doneFrameFor(*Job));
  return Sent && !Stopping.load(std::memory_order_relaxed);
}

void Server::runJob(Session &S, JobState &Job, const supervise::JobSpec &Spec,
                    double DeadlineSeconds, size_t JobIndex) {
  TRACE_SPAN("serve.job");
  if (Job.CancelRequested.load(std::memory_order_acquire)) {
    // Cancelled while still queued: never launch a child.
    {
      std::lock_guard<std::mutex> Lock(Job.Mutex);
      Job.Result.Name = Spec.Name;
      Job.Result.Aborted = true;
    }
    finishJob(Job);
    return;
  }
  Job.Phase.store(1, std::memory_order_release);

  supervise::BatchOptions JobOptions = Options.Batch;
  // The server never runs an unwatched child; a hung analysis must not pin
  // a worker slot forever.
  JobOptions.Limits.WallDeadlineSeconds =
      DeadlineSeconds > 0 ? DeadlineSeconds : Options.MaxDeadlineSeconds;

  supervise::JobHooks Hooks;
  Hooks.CancelChild = &Job.CancelRequested;
  Hooks.ShouldAbort = [&Job] {
    return Job.CancelRequested.load(std::memory_order_acquire);
  };
  std::string LineBuffer;
  uint32_t LastAttempt = 0;
  Hooks.OnChildOutput = [&](uint32_t Attempt, std::string_view Chunk) {
    if (Attempt != LastAttempt) {
      LineBuffer.clear();
      LastAttempt = Attempt;
    }
    LineBuffer.append(Chunk);
    size_t Newline;
    while ((Newline = LineBuffer.find('\n')) != std::string::npos) {
      std::string Line = LineBuffer.substr(0, Newline);
      LineBuffer.erase(0, Newline + 1);
      if (Line.empty())
        continue;
      std::ostringstream Out;
      JsonWriter J(Out);
      J.beginObject();
      J.key("ok");
      J.value(true);
      J.key("event");
      J.value("line");
      J.key("job");
      J.value(Job.Id);
      J.key("attempt");
      J.value(Attempt);
      J.key("line");
      J.value(Line);
      J.endObject();
      if (!sendFrame(S, Out.str()) &&
          !Job.CancelRequested.load(std::memory_order_relaxed)) {
        // The client vanished mid-stream.  Per the EPIPE policy that is a
        // clean stop — and an orphaned analysis is pointless work, so the
        // job is cancelled rather than run to completion for nobody.
        TRACE_INSTANT("serve.client_gone", 1);
        Job.CancelRequested.store(true, std::memory_order_release);
      }
    }
  };

  supervise::JobResult Result;
  try {
    Result = supervise::runSupervisedJob(Spec, JobIndex, JobOptions, Hooks);
  } catch (...) {
    // Supervision itself failed (fork, pipe, allocation).  The job still
    // has to settle — a leaked ActiveJobs slot would deadlock drain.
    Result.Name = Spec.Name;
    Result.FinalClass = supervise::JobOutcomeClass::NonzeroExit;
    Result.Aborted = true;
  }
  {
    std::lock_guard<std::mutex> Lock(Job.Mutex);
    Job.Result = std::move(Result);
  }
  finishJob(Job);
}

void Server::finishJob(JobState &Job) {
  Job.Phase.store(2, std::memory_order_release);
  if (Job.CancelRequested.load(std::memory_order_relaxed)) {
    NCancelled.fetch_add(1, std::memory_order_relaxed);
    TRACE_COUNTER("serve.cancelled", 1);
  } else {
    NCompleted.fetch_add(1, std::memory_order_relaxed);
    TRACE_COUNTER("serve.completed", 1);
  }
  std::lock_guard<std::mutex> Lock(JobsMutex);
  --ActiveJobs;
  JobsIdle.notify_all();
}

std::string Server::doneFrameFor(JobState &Job) {
  std::lock_guard<std::mutex> Lock(Job.Mutex);
  const supervise::JobResult &R = Job.Result;
  bool Cancelled = Job.CancelRequested.load(std::memory_order_relaxed);

  std::ostringstream Out;
  JsonWriter J(Out);
  J.beginObject();
  J.key("ok");
  J.value(true);
  J.key("event");
  J.value("done");
  J.key("job");
  J.value(Job.Id);
  J.key("name");
  J.value(Job.Name);
  J.key("state");
  J.value(Cancelled ? "cancelled" : "done");
  J.key("final_class");
  if (R.Attempts.empty())
    J.null(); // Cancelled before any child launched.
  else
    J.value(supervise::jobOutcomeClassName(R.FinalClass));
  J.key("quarantined");
  J.value(R.Quarantined);
  J.key("aborted");
  J.value(R.Aborted);
  J.key("attempts");
  J.value(static_cast<uint64_t>(R.Attempts.size()));
  J.key("result");
  if (!Cancelled && !R.Attempts.empty() &&
      R.FinalClass == supervise::JobOutcomeClass::Clean) {
    J.beginObject();
    J.key("level");
    J.value(R.ResultLevel);
    J.key("status");
    J.value(R.ResultStatus);
    J.key("completed");
    J.value(R.ResultCompleted);
    J.endObject();
  } else {
    J.null();
  }
  J.key("input_errors");
  J.beginArray();
  for (const std::string &Error : R.InputErrors)
    J.value(Error);
  J.endArray();

  // Cache counters summed over the attempts that ran with a cache — the
  // same aggregation writeBatchReportJson totals use, so a client report
  // built from done frames matches a batch report built locally.
  cache::CacheStats Total;
  bool CacheEnabled = false;
  for (const supervise::JobAttempt &A : R.Attempts) {
    if (!A.CacheEnabled)
      continue;
    CacheEnabled = true;
    Total += A.Cache;
  }
  J.key("cache");
  if (CacheEnabled)
    cache::writeCacheStatsJson(J, Total);
  else
    J.null();
  J.endObject();
  return Out.str();
}

bool Server::handleStatus(Session &S, const JsonValue &Doc) {
  uint64_t Id = 0;
  if (!Doc.getUint("job", Id))
    return sendError(S, "bad_request", "status needs a numeric \"job\"", 0);
  std::shared_ptr<JobState> Job = findJob(Id);
  if (!Job) {
    NErrors.fetch_add(1, std::memory_order_relaxed);
    return sendError(S, "unknown_job", "no such job id: " + std::to_string(Id),
                     0);
  }
  std::ostringstream Out;
  JsonWriter J(Out);
  J.beginObject();
  J.key("ok");
  J.value(true);
  J.key("event");
  J.value("status");
  J.key("job");
  J.value(Job->Id);
  J.key("name");
  J.value(Job->Name);
  J.key("state");
  J.value(jobStateName(*Job));
  J.endObject();
  return sendFrame(S, Out.str());
}

bool Server::handleCancel(Session &S, const JsonValue &Doc) {
  uint64_t Id = 0;
  if (!Doc.getUint("job", Id))
    return sendError(S, "bad_request", "cancel needs a numeric \"job\"", 0);
  std::shared_ptr<JobState> Job = findJob(Id);
  if (!Job) {
    NErrors.fetch_add(1, std::memory_order_relaxed);
    return sendError(S, "unknown_job", "no such job id: " + std::to_string(Id),
                     0);
  }
  const char *Was = jobStateName(*Job);
  Job->CancelRequested.store(true, std::memory_order_release);
  TRACE_INSTANT("serve.cancel", 1);
  std::ostringstream Out;
  JsonWriter J(Out);
  J.beginObject();
  J.key("ok");
  J.value(true);
  J.key("event");
  J.value("cancel");
  J.key("job");
  J.value(Job->Id);
  J.key("was");
  J.value(Was);
  J.endObject();
  return sendFrame(S, Out.str());
}

bool Server::handleStats(Session &S) {
  size_t Active;
  size_t TotalJobs;
  bool IsDraining;
  {
    std::lock_guard<std::mutex> Lock(JobsMutex);
    Active = ActiveJobs;
    TotalJobs = Jobs.size();
    IsDraining = Draining;
  }
  ServerCounters C = counters();
  std::ostringstream Out;
  JsonWriter J(Out);
  J.beginObject();
  J.key("ok");
  J.value(true);
  J.key("event");
  J.value("stats");
  J.key("protocol");
  J.value(ProtocolName);
  J.key("workers");
  J.value(static_cast<uint64_t>(std::max(1u, Options.Batch.Workers)));
  J.key("connections");
  J.value(C.Connections);
  J.key("frames");
  J.value(C.Frames);
  J.key("submits");
  J.value(C.Submits);
  J.key("completed");
  J.value(C.Completed);
  J.key("cancelled");
  J.value(C.Cancelled);
  J.key("errors");
  J.value(C.Errors);
  J.key("active_jobs");
  J.value(static_cast<uint64_t>(Active));
  J.key("jobs");
  J.value(static_cast<uint64_t>(TotalJobs));
  J.key("draining");
  J.value(IsDraining);
  J.key("cache_enabled");
  J.value(!Options.Batch.CacheDir.empty());
  J.endObject();
  return sendFrame(S, Out.str());
}

void Server::drainJobs() {
  std::unique_lock<std::mutex> Lock(JobsMutex);
  Draining = true;
  JobsIdle.wait(Lock, [this] { return ActiveJobs == 0; });
}

bool Server::handleDrain(Session &S) {
  TRACE_SPAN("serve.drain");
  drainJobs();
  ServerCounters C = counters();
  std::ostringstream Out;
  JsonWriter J(Out);
  J.beginObject();
  J.key("ok");
  J.value(true);
  J.key("event");
  J.value("drained");
  J.key("completed");
  J.value(C.Completed);
  J.key("cancelled");
  J.value(C.Cancelled);
  J.endObject();
  sendFrame(S, Out.str());
  Stopping.store(true, std::memory_order_relaxed);
  return false; // Close this connection; run() exits on its next poll tick.
}
