//===- tests/ServeTests.cpp - Analysis service tests ----------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the persistent analysis service (serve/Protocol.h,
/// serve/Server.h, serve/Client.h): frame codec unit tests, an adversarial
/// framing suite (every truncation prefix of valid requests, oversized
/// length headers, binary garbage, pipelined requests, clients vanishing
/// mid-stream — all answered with coded errors while the server keeps
/// serving), end-to-end submits with the byte-identity contract against a
/// local supervised run, cross-connection cancellation, frozen terminal
/// states and a registry that keeps only live jobs, the shared warm Pass-A
/// cache, chaos-injected crash retries, and drain/SIGTERM shutdown with no
/// leaked children.
///
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

#include "supervise/Supervise.h"
#include "support/ExitCodes.h"
#include "support/Json.h"
#include "support/Socket.h"
#include "TempDir.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace intro;
using namespace intro::serve;
using intro::testing::TempDir;
namespace fs = std::filesystem;

namespace {

/// The classic two-boxes program; every ladder rung solves it instantly.
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

/// After every scenario the parent must have reaped every child it forked.
void expectNoLeakedChildren() {
  int Status = 0;
  errno = 0;
  EXPECT_EQ(waitpid(-1, &Status, WNOHANG), -1)
      << "a child process was leaked or left unreaped";
  EXPECT_EQ(errno, ECHILD);
}

/// Server options for tests: a generous per-job watchdog and no real
/// retry sleeping.
ServerOptions testOptions(const std::string &SocketPath, unsigned Workers = 2) {
  ServerOptions Options;
  Options.SocketPath = SocketPath;
  Options.Batch.Limits.WallDeadlineSeconds = 60;
  Options.Batch.SleepMs = [](double) {};
  Options.Batch.Workers = Workers;
  return Options;
}

/// A server on a background thread.  The destructor raises the stop flag
/// (the SIGTERM path) and joins, so every test ends with a full drain.
struct Harness {
  explicit Harness(ServerOptions Options) : Daemon(std::move(Options)) {
    std::string Error;
    Started = Daemon.start(Error);
    EXPECT_TRUE(Started) << Error;
    if (Started)
      Runner = std::thread([this] { Exit = Daemon.run(Stop); });
  }
  ~Harness() { stop(); }

  void stop() {
    if (Runner.joinable()) {
      Stop.store(true, std::memory_order_relaxed);
      Runner.join();
    }
  }

  Server Daemon;
  std::atomic<bool> Stop{false};
  std::thread Runner;
  int Exit = -1;
  bool Started = false;
};

/// A raw connection speaking bytes, for the adversarial framing tests; the
/// well-behaved path goes through serve::Client.
struct RawConn {
  explicit RawConn(const std::string &SocketPath) {
    std::string Error;
    Fd = connectUnix(SocketPath, Error);
    EXPECT_GE(Fd, 0) << Error;
  }
  ~RawConn() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool write(std::string_view Bytes) {
    return sendAll(Fd, Bytes.data(), Bytes.size());
  }

  /// Blocks for the next frame; false at EOF, on error, or after 10s.
  bool readFrame(std::string &Payload) {
    char Buffer[4096];
    std::string FrameError;
    while (true) {
      FrameDecoder::Status Status = Decoder.next(Payload, FrameError);
      if (Status == FrameDecoder::Status::Frame)
        return true;
      if (Status == FrameDecoder::Status::Error)
        return false;
      if (pollIn(Fd, 10000) <= 0)
        return false;
      long Count = readSome(Fd, Buffer, sizeof(Buffer));
      if (Count <= 0)
        return false;
      Decoder.feed(Buffer, static_cast<size_t>(Count));
    }
  }

  /// True when the server has closed its end (and no frame remains).
  bool atEof() {
    std::string Ignored, FrameError;
    if (Decoder.next(Ignored, FrameError) == FrameDecoder::Status::Frame)
      return false;
    char Buffer[256];
    if (pollIn(Fd, 10000) <= 0)
      return false;
    return readSome(Fd, Buffer, sizeof(Buffer)) == 0;
  }

  int Fd = -1;
  FrameDecoder Decoder;
};

/// Reads the hello frame and asserts the protocol name.
void expectHello(RawConn &Conn) {
  std::string Payload;
  ASSERT_TRUE(Conn.readFrame(Payload)) << "no hello frame";
  JsonParseResult Parsed = parseJson(Payload);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  std::string Protocol;
  ASSERT_TRUE(Parsed.Value.getString("protocol", Protocol));
  EXPECT_EQ(Protocol, ProtocolName);
}

/// Asserts \p Payload is {"ok":false,"error":{"code":ExpectedCode,...}}
/// and returns the error's "line" member (0 when absent).
uint64_t expectErrorFrame(const std::string &Payload,
                          const std::string &ExpectedCode) {
  JsonParseResult Parsed = parseJson(Payload);
  EXPECT_TRUE(Parsed.ok()) << Parsed.Error;
  if (!Parsed.ok())
    return 0;
  bool Ok = true;
  EXPECT_TRUE(Parsed.Value.getBool("ok", Ok));
  EXPECT_FALSE(Ok) << Payload;
  const JsonValue *Detail = Parsed.Value.get("error");
  EXPECT_NE(Detail, nullptr) << Payload;
  if (!Detail)
    return 0;
  std::string Code, Message;
  EXPECT_TRUE(Detail->getString("code", Code));
  EXPECT_EQ(Code, ExpectedCode) << Payload;
  EXPECT_TRUE(Detail->getString("message", Message));
  EXPECT_FALSE(Message.empty());
  uint64_t Line = 0;
  Detail->getUint("line", Line);
  return Line;
}

/// Round-trips one stats request on a fresh connection: the liveness probe
/// every adversarial test ends with.
void expectServerStillServes(const std::string &SocketPath) {
  RawConn Conn(SocketPath);
  expectHello(Conn);
  ASSERT_TRUE(Conn.write(encodeFrame(R"({"op":"stats"})")));
  std::string Payload;
  ASSERT_TRUE(Conn.readFrame(Payload));
  JsonParseResult Parsed = parseJson(Payload);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  std::string Event;
  ASSERT_TRUE(Parsed.Value.getString("event", Event));
  EXPECT_EQ(Event, "stats");
}

/// Sends one request on \p C and \returns its parsed reply.
JsonValue request(Client &C, const std::string &Json) {
  std::string Error, Payload;
  EXPECT_TRUE(C.send(Json, Error)) << Error;
  EXPECT_TRUE(C.recv(Payload, Error)) << Error;
  JsonParseResult Parsed = parseJson(Payload);
  EXPECT_TRUE(Parsed.ok()) << Parsed.Error;
  return Parsed.Value;
}

/// The "state" member of a status reply for job \p Id, or the error code
/// when the server answers with one.
std::string statusOf(Client &C, uint64_t Id) {
  JsonValue Reply =
      request(C, R"({"op":"status","job":)" + std::to_string(Id) + "}");
  std::string State;
  if (Reply.getString("state", State))
    return State;
  if (const JsonValue *Detail = Reply.get("error"))
    Detail->getString("code", State);
  return State;
}

/// The run report's deterministic section, as raw bytes: everything from
/// the "deterministic" key up to the "timing" key (the "cache" sibling,
/// when present, deliberately stays outside the identity contract — these
/// tests compare cacheless runs).
std::string deterministicSlice(const std::string &ReportLine) {
  size_t Begin = ReportLine.find("\"deterministic\"");
  size_t End = ReportLine.find("\"timing\"");
  EXPECT_NE(Begin, std::string::npos) << ReportLine;
  EXPECT_NE(End, std::string::npos) << ReportLine;
  if (Begin == std::string::npos || End == std::string::npos)
    return ReportLine;
  return ReportLine.substr(Begin, End - Begin);
}

/// The child report embeds per-attempt wall clock inside its outcome (the
/// batch parent folds it into the timing section).  Those values are the
/// only legitimately nondeterministic bytes in the deterministic slice, so
/// the identity contract is byte equality *after* pinning each one.
std::string scrubWallClock(std::string Slice) {
  for (const char *Key : {"\"seconds\":", "\"total_seconds\":",
                          "\"metric_seconds\":"}) {
    size_t KeyLen = std::strlen(Key);
    for (size_t At = Slice.find(Key); At != std::string::npos;
         At = Slice.find(Key, At + KeyLen)) {
      size_t ValueBegin = At + KeyLen;
      size_t ValueEnd = Slice.find_first_of(",}]", ValueBegin);
      if (ValueEnd == std::string::npos)
        break;
      Slice.replace(ValueBegin, ValueEnd - ValueBegin, "#");
    }
  }
  return Slice;
}

} // namespace

// --- Frame codec -------------------------------------------------------------

TEST(FrameCodec, RoundTripsPayloadsIncludingEmptyByteAtATime) {
  for (size_t Size : {size_t(0), size_t(1), size_t(3), size_t(4), size_t(5),
                      size_t(1000), size_t(70000)}) {
    std::string Payload(Size, 'x');
    for (size_t Index = 0; Index < Size; ++Index)
      Payload[Index] = static_cast<char>('a' + Index % 26);
    std::string Frame = encodeFrame(Payload);
    ASSERT_EQ(Frame.size(), Size + 4);

    FrameDecoder Decoder;
    std::string Out, Error;
    // Feeding one byte at a time must never yield a premature frame.
    for (size_t Index = 0; Index + 1 < Frame.size(); ++Index) {
      Decoder.feed(&Frame[Index], 1);
      if (Index + 1 < 4 || Size > 0) {
        EXPECT_EQ(Decoder.next(Out, Error), FrameDecoder::Status::NeedMore);
      }
    }
    Decoder.feed(&Frame[Frame.size() - 1], 1);
    ASSERT_EQ(Decoder.next(Out, Error), FrameDecoder::Status::Frame);
    EXPECT_EQ(Out, Payload);
    EXPECT_EQ(Decoder.next(Out, Error), FrameDecoder::Status::NeedMore);
    EXPECT_FALSE(Decoder.hasPartial());
  }
}

TEST(FrameCodec, ExtractsPipelinedFramesFromOneFeed) {
  std::string Stream =
      encodeFrame("first") + encodeFrame("") + encodeFrame("third");
  FrameDecoder Decoder;
  Decoder.feed(Stream.data(), Stream.size());
  std::string Out, Error;
  ASSERT_EQ(Decoder.next(Out, Error), FrameDecoder::Status::Frame);
  EXPECT_EQ(Out, "first");
  ASSERT_EQ(Decoder.next(Out, Error), FrameDecoder::Status::Frame);
  EXPECT_EQ(Out, "");
  ASSERT_EQ(Decoder.next(Out, Error), FrameDecoder::Status::Frame);
  EXPECT_EQ(Out, "third");
  EXPECT_EQ(Decoder.next(Out, Error), FrameDecoder::Status::NeedMore);
}

TEST(FrameCodec, OversizedLengthHeaderPoisonsTheDecoder) {
  // Length header far beyond MaxFramePayload: 0xFFFFFFFF.
  const char Huge[4] = {'\xff', '\xff', '\xff', '\xff'};
  FrameDecoder Decoder;
  Decoder.feed(Huge, sizeof(Huge));
  std::string Out, Error;
  EXPECT_EQ(Decoder.next(Out, Error), FrameDecoder::Status::Error);
  EXPECT_FALSE(Error.empty());
  // Poisoned for good: even a perfectly valid frame cannot resynchronize,
  // because the stream position is lost.
  std::string Valid = encodeFrame("{}");
  Decoder.feed(Valid.data(), Valid.size());
  EXPECT_EQ(Decoder.next(Out, Error), FrameDecoder::Status::Error);
  EXPECT_FALSE(Decoder.hasPartial());
}

TEST(FrameCodec, PartialFrameIsTrackedForTruncationDiagnosis) {
  FrameDecoder Decoder;
  EXPECT_FALSE(Decoder.hasPartial());
  std::string Frame = encodeFrame("payload");
  Decoder.feed(Frame.data(), 3); // Half a length header.
  std::string Out, Error;
  EXPECT_EQ(Decoder.next(Out, Error), FrameDecoder::Status::NeedMore);
  EXPECT_TRUE(Decoder.hasPartial());
  Decoder.feed(Frame.data() + 3, Frame.size() - 3);
  ASSERT_EQ(Decoder.next(Out, Error), FrameDecoder::Status::Frame);
  EXPECT_FALSE(Decoder.hasPartial());
}

// --- End-to-end submits ------------------------------------------------------

TEST(Serve, SubmitRunsAJobAndStreamsItsTranscript) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  Client C;
  std::string Error;
  ASSERT_TRUE(C.connect(Socket, Error)) << Error;

  std::vector<std::string> Lines;
  std::vector<uint64_t> LineAttempts;
  SubmitOutcome Outcome;
  ASSERT_TRUE(C.submit("tiny", TinySource, /*DeadlineSeconds=*/0,
                       /*ChaosSpec=*/"",
                       [&](uint64_t Attempt, const std::string &Line) {
                         LineAttempts.push_back(Attempt);
                         Lines.push_back(Line);
                       },
                       Outcome, Error))
      << Error;

  EXPECT_EQ(Outcome.JobId, 1u);
  EXPECT_EQ(Outcome.State, "done");
  EXPECT_EQ(Outcome.FinalClass, "clean");
  EXPECT_FALSE(Outcome.Quarantined);
  EXPECT_FALSE(Outcome.Aborted);
  EXPECT_EQ(Outcome.Attempts, 1u);
  EXPECT_EQ(Outcome.ResultLevel, "deep");
  EXPECT_TRUE(Outcome.ResultCompleted);
  EXPECT_FALSE(Outcome.CacheEnabled) << "no cache directory was configured";

  // The transcript streamed verbatim: rung_start progress first (Pass A,
  // then the deep rung), then the final intro-run-report-v1 line, all from
  // attempt 1.
  ASSERT_GE(Lines.size(), 3u);
  EXPECT_NE(Lines.front().find("rung_start"), std::string::npos);
  EXPECT_NE(Lines.front().find("\"insensitive\""), std::string::npos);
  EXPECT_NE(Lines[1].find("rung_start"), std::string::npos);
  EXPECT_NE(Lines[1].find("\"deep\""), std::string::npos);
  EXPECT_NE(Lines.back().find("intro-run-report-v1"), std::string::npos);
  EXPECT_EQ(Outcome.FinalReportLine, Lines.back());
  for (uint64_t Attempt : LineAttempts)
    EXPECT_EQ(Attempt, 1u);

  ServerCounters Counters = H.Daemon.counters();
  EXPECT_EQ(Counters.Submits, 1u);
  EXPECT_EQ(Counters.Completed, 1u);
  EXPECT_EQ(Counters.Cancelled, 0u);

  C.close();
  H.stop();
  EXPECT_EQ(H.Exit, ExitSuccess);
  expectNoLeakedChildren();
}

TEST(Serve, ServedReportIsByteIdenticalToALocalRun) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  ServerOptions Options = testOptions(Socket);
  Harness H(Options);

  Client C;
  std::string Error;
  ASSERT_TRUE(C.connect(Socket, Error)) << Error;
  SubmitOutcome Served;
  ASSERT_TRUE(C.submit("ident", TinySource, 0, "", nullptr, Served, Error))
      << Error;
  ASSERT_EQ(Served.FinalClass, "clean");
  ASSERT_FALSE(Served.FinalReportLine.empty());

  // The same job run locally through the same supervised machinery, which
  // keeps the child's report line verbatim on the job record.
  supervise::JobSpec Spec;
  Spec.Name = "ident";
  Spec.Source = TinySource;
  supervise::JobResult Local =
      supervise::runSupervisedJob(Spec, /*JobIndex=*/0, Options.Batch);
  ASSERT_EQ(Local.FinalClass, supervise::JobOutcomeClass::Clean);
  ASSERT_FALSE(Local.ReportLine.empty());

  // The determinism contract: byte equality of the deterministic section
  // modulo wall-clock fields, not structural equivalence.
  EXPECT_EQ(scrubWallClock(deterministicSlice(Served.FinalReportLine)),
            scrubWallClock(deterministicSlice(Local.ReportLine)));
  expectNoLeakedChildren();
}

TEST(Serve, BadInputIsReportedWithDiagnosticsNotRetried) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  Client C;
  std::string Error;
  ASSERT_TRUE(C.connect(Socket, Error)) << Error;
  SubmitOutcome Outcome;
  ASSERT_TRUE(C.submit("broken", "class Object\nclass Leaky extends Object {",
                       0, "", nullptr, Outcome, Error))
      << Error;
  EXPECT_EQ(Outcome.State, "done");
  EXPECT_EQ(Outcome.FinalClass, "bad_input");
  EXPECT_TRUE(Outcome.Quarantined);
  EXPECT_EQ(Outcome.Attempts, 1u) << "deterministic verdicts are not retried";
  ASSERT_FALSE(Outcome.InputErrors.empty());
  expectNoLeakedChildren();
}

TEST(Serve, CrashChaosIsRetriedBelowTheDeathRungAndRecovers) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  Client C;
  std::string Error;
  ASSERT_TRUE(C.connect(Socket, Error)) << Error;
  std::vector<uint64_t> LineAttempts;
  SubmitOutcome Outcome;
  // Crash at the deep rung on attempt 1 only: the retry escalates below
  // the death rung and completes at introB.
  ASSERT_TRUE(C.submit("crashy", TinySource, 0, "crash:deep:1",
                       [&](uint64_t Attempt, const std::string &) {
                         LineAttempts.push_back(Attempt);
                       },
                       Outcome, Error))
      << Error;
  EXPECT_EQ(Outcome.State, "done");
  EXPECT_EQ(Outcome.FinalClass, "clean");
  EXPECT_EQ(Outcome.Attempts, 2u);
  EXPECT_EQ(Outcome.ResultLevel, "introB");
  // Lines streamed from both attempts, in attempt order.
  ASSERT_FALSE(LineAttempts.empty());
  EXPECT_EQ(LineAttempts.front(), 1u);
  EXPECT_EQ(LineAttempts.back(), 2u);
  expectNoLeakedChildren();
}

TEST(Serve, BadChaosSpecAndBadDeadlineAreBadRequests) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  RawConn Conn(Socket);
  expectHello(Conn);
  ASSERT_TRUE(Conn.write(encodeFrame(
      R"({"op":"submit","name":"j","source":"class Object","chaos":"frobnicate"})")));
  std::string Payload;
  ASSERT_TRUE(Conn.readFrame(Payload));
  expectErrorFrame(Payload, "bad_request");

  ASSERT_TRUE(Conn.write(encodeFrame(
      R"({"op":"submit","name":"j","source":"class Object","deadline_seconds":-5})")));
  ASSERT_TRUE(Conn.readFrame(Payload));
  expectErrorFrame(Payload, "bad_request");

  // Both were rejected before any job was created.
  EXPECT_EQ(H.Daemon.counters().Submits, 0u);
  expectServerStillServes(Socket);
}

// --- Adversarial framing -----------------------------------------------------

TEST(ServeFuzz, EveryTruncationPrefixGetsACodedErrorAndTheServerSurvives) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  // Two valid requests: the smallest interesting one and a submit.  Every
  // strict prefix of either, followed by EOF, is a truncated frame.
  const std::string Requests[] = {
      encodeFrame(R"({"op":"stats"})"),
      encodeFrame(
          R"({"op":"submit","name":"tiny","source":"class Object"})"),
  };
  for (const std::string &Frame : Requests) {
    for (size_t PrefixLen = 0; PrefixLen < Frame.size(); ++PrefixLen) {
      RawConn Conn(Socket);
      expectHello(Conn);
      if (PrefixLen > 0) {
        ASSERT_TRUE(Conn.write(Frame.substr(0, PrefixLen)));
      }
      ::shutdown(Conn.Fd, SHUT_WR);
      std::string Payload;
      if (PrefixLen == 0) {
        // A clean immediate EOF is not an error: no frame, just close.
        EXPECT_FALSE(Conn.readFrame(Payload));
      } else {
        ASSERT_TRUE(Conn.readFrame(Payload))
            << "no error frame for prefix length " << PrefixLen;
        expectErrorFrame(Payload, "truncated_frame");
        EXPECT_TRUE(Conn.atEof())
            << "connection must close after a framing error";
      }
    }
  }
  expectServerStillServes(Socket);
  EXPECT_EQ(H.Daemon.counters().Submits, 0u)
      << "no truncated submit may ever reach the job layer";
}

TEST(ServeFuzz, OversizedLengthHeaderIsACodedErrorAndCloses) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  for (uint32_t Length :
       {MaxFramePayload + 1, 0x7fffffffu, 0xffffffffu}) {
    RawConn Conn(Socket);
    expectHello(Conn);
    char Header[4] = {static_cast<char>(Length & 0xff),
                      static_cast<char>((Length >> 8) & 0xff),
                      static_cast<char>((Length >> 16) & 0xff),
                      static_cast<char>((Length >> 24) & 0xff)};
    ASSERT_TRUE(Conn.write(std::string_view(Header, sizeof(Header))));
    std::string Payload;
    ASSERT_TRUE(Conn.readFrame(Payload));
    expectErrorFrame(Payload, "oversized_frame");
    EXPECT_TRUE(Conn.atEof());
  }
  expectServerStillServes(Socket);
}

TEST(ServeFuzz, BinaryGarbagePayloadIsBadJsonAndTheConnectionRecovers) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  RawConn Conn(Socket);
  expectHello(Conn);
  std::string Garbage = "\x01\x02{{{not json\xff\xfe";
  ASSERT_TRUE(Conn.write(encodeFrame(Garbage)));
  std::string Payload;
  ASSERT_TRUE(Conn.readFrame(Payload));
  uint64_t Line = expectErrorFrame(Payload, "bad_json");
  EXPECT_GE(Line, 1u) << "bad_json must carry the parser's line number";

  // Malformed JSON in a well-formed frame is recoverable: the very same
  // connection keeps working.
  ASSERT_TRUE(Conn.write(encodeFrame(R"({"op":"stats"})")));
  ASSERT_TRUE(Conn.readFrame(Payload));
  JsonParseResult Parsed = parseJson(Payload);
  ASSERT_TRUE(Parsed.ok());
  std::string Event;
  ASSERT_TRUE(Parsed.Value.getString("event", Event));
  EXPECT_EQ(Event, "stats");
}

TEST(ServeFuzz, MalformedRequestsGetStableCodesOnOneLivingConnection) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  RawConn Conn(Socket);
  expectHello(Conn);
  const std::pair<const char *, const char *> Cases[] = {
      {R"([1, 2, 3])", "bad_request"},
      {R"({"not_an_op": 1})", "bad_request"},
      {R"({"op": "frobnicate"})", "unknown_op"},
      {R"({"op": "submit", "name": "x"})", "bad_request"},
      {R"({"op": "submit", "name": "", "source": "s"})", "bad_request"},
      {R"({"op": "status"})", "bad_request"},
      {R"({"op": "status", "job": 999})", "unknown_job"},
      {R"({"op": "cancel", "job": 999})", "unknown_job"},
  };
  for (const auto &[Request, Code] : Cases) {
    ASSERT_TRUE(Conn.write(encodeFrame(Request))) << Request;
    std::string Payload;
    ASSERT_TRUE(Conn.readFrame(Payload)) << Request;
    expectErrorFrame(Payload, Code);
  }
  // After the whole gauntlet the connection still answers real requests.
  ASSERT_TRUE(Conn.write(encodeFrame(R"({"op":"stats"})")));
  std::string Payload;
  ASSERT_TRUE(Conn.readFrame(Payload));
  JsonParseResult Parsed = parseJson(Payload);
  ASSERT_TRUE(Parsed.ok());
  std::string Event;
  ASSERT_TRUE(Parsed.Value.getString("event", Event));
  EXPECT_EQ(Event, "stats");
}

TEST(ServeFuzz, PipelinedRequestsInOneWriteAnswerInOrder) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  RawConn Conn(Socket);
  expectHello(Conn);
  std::string Burst = encodeFrame(R"({"op":"stats"})") +
                      encodeFrame(R"({"op":"status","job":42})") +
                      encodeFrame(R"({"op":"stats"})");
  ASSERT_TRUE(Conn.write(Burst));

  std::string Payload;
  ASSERT_TRUE(Conn.readFrame(Payload));
  JsonParseResult First = parseJson(Payload);
  ASSERT_TRUE(First.ok());
  std::string Event;
  ASSERT_TRUE(First.Value.getString("event", Event));
  EXPECT_EQ(Event, "stats");

  ASSERT_TRUE(Conn.readFrame(Payload));
  expectErrorFrame(Payload, "unknown_job");

  ASSERT_TRUE(Conn.readFrame(Payload));
  JsonParseResult Third = parseJson(Payload);
  ASSERT_TRUE(Third.ok());
  ASSERT_TRUE(Third.Value.getString("event", Event));
  EXPECT_EQ(Event, "stats");
  // Exactly three request frames were counted.
  EXPECT_EQ(H.Daemon.counters().Frames, 3u);
}

// --- Cancellation ------------------------------------------------------------

TEST(Serve, CancelFromAnotherConnectionAbortsARunningJob) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  // Connection A submits a job that spins forever at the deep rung; only
  // the cancel (not the generous watchdog) can end it quickly.
  std::string SubmitError;
  SubmitOutcome Outcome;
  std::thread Submitter([&] {
    Client A;
    if (!A.connect(Socket, SubmitError))
      return;
    A.submit("spinny", TinySource, 0, "spin", nullptr, Outcome, SubmitError);
  });

  // Connection B polls status until the job is running, then cancels it.
  Client B;
  std::string Error;
  ASSERT_TRUE(B.connect(Socket, Error)) << Error;
  bool Running = false;
  for (int Tries = 0; Tries < 500 && !Running; ++Tries) {
    ASSERT_TRUE(B.send(R"({"op":"status","job":1})", Error)) << Error;
    std::string Payload;
    ASSERT_TRUE(B.recv(Payload, Error)) << Error;
    JsonParseResult Parsed = parseJson(Payload);
    ASSERT_TRUE(Parsed.ok());
    std::string State;
    if (Parsed.Value.getString("state", State) && State == "running")
      Running = true;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(Running) << "job 1 never reached the running state";

  ASSERT_TRUE(B.send(R"({"op":"cancel","job":1})", Error)) << Error;
  std::string Payload;
  ASSERT_TRUE(B.recv(Payload, Error)) << Error;
  JsonParseResult Parsed = parseJson(Payload);
  ASSERT_TRUE(Parsed.ok());
  std::string Event, Was;
  ASSERT_TRUE(Parsed.Value.getString("event", Event));
  EXPECT_EQ(Event, "cancel");
  ASSERT_TRUE(Parsed.Value.getString("was", Was));
  EXPECT_EQ(Was, "running");

  Submitter.join();
  ASSERT_TRUE(SubmitError.empty()) << SubmitError;
  EXPECT_EQ(Outcome.State, "cancelled");
  EXPECT_TRUE(Outcome.Aborted);
  // The spinning child died by the cancel kill switch, not the watchdog.
  EXPECT_EQ(Outcome.FinalClass, "signalled");
  EXPECT_EQ(H.Daemon.counters().Cancelled, 1u);
  EXPECT_EQ(H.Daemon.counters().Completed, 0u);

  // A status probe after the fact names the terminal state.
  ASSERT_TRUE(B.send(R"({"op":"status","job":1})", Error)) << Error;
  ASSERT_TRUE(B.recv(Payload, Error)) << Error;
  JsonParseResult After = parseJson(Payload);
  ASSERT_TRUE(After.ok());
  std::string State;
  ASSERT_TRUE(After.Value.getString("state", State));
  EXPECT_EQ(State, "cancelled");

  H.stop();
  expectNoLeakedChildren();
}

TEST(Serve, CancelAfterDoneLeavesTheJobDone) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  Client C;
  std::string Error;
  ASSERT_TRUE(C.connect(Socket, Error)) << Error;
  SubmitOutcome Outcome;
  ASSERT_TRUE(C.submit("tiny", TinySource, 0, "", nullptr, Outcome, Error))
      << Error;
  ASSERT_EQ(Outcome.State, "done");
  ServerCounters Before = H.Daemon.counters();

  // A finished job's state is frozen: the cancel names it and changes
  // nothing, neither later status answers nor the counters.
  JsonValue Reply = request(C, R"({"op":"cancel","job":1})");
  std::string Event, Was;
  ASSERT_TRUE(Reply.getString("event", Event));
  EXPECT_EQ(Event, "cancel");
  ASSERT_TRUE(Reply.getString("was", Was));
  EXPECT_EQ(Was, "done");
  EXPECT_EQ(statusOf(C, 1), "done");

  ServerCounters After = H.Daemon.counters();
  EXPECT_EQ(After.Completed, Before.Completed);
  EXPECT_EQ(After.Cancelled, Before.Cancelled);

  C.close();
  H.stop();
  expectNoLeakedChildren();
}

TEST(Serve, ClientGoneMidStreamCancelsTheOrphanedJob) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  {
    // A raw submitter that hangs up as soon as the job is accepted: the
    // next streamed line hits a dead peer, and per the EPIPE policy the
    // server cancels the orphan instead of computing for nobody.
    RawConn Conn(Socket);
    expectHello(Conn);
    ASSERT_TRUE(Conn.write(encodeFrame(
        R"({"op":"submit","name":"orphan","source":")" +
        JsonWriter::escape(TinySource) + R"(","chaos":"spin"})")));
    std::string Payload;
    ASSERT_TRUE(Conn.readFrame(Payload)); // accepted
  } // RawConn destructor closes the socket mid-stream.

  // The job must settle as cancelled without any client asking for it.
  bool Settled = false;
  for (int Tries = 0; Tries < 500 && !Settled; ++Tries) {
    if (H.Daemon.counters().Cancelled == 1)
      Settled = true;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(Settled) << "orphaned job was never cancelled";

  expectServerStillServes(Socket);
  H.stop();
  EXPECT_EQ(H.Exit, ExitSuccess);
  expectNoLeakedChildren();
}

TEST(Serve, ClientGoneAfterTheLastLineCancelsTheOrphanedJob) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  {
    // A spinning child writes its first rung_start line and then nothing.
    // Hanging up after that line leaves no later write to fail, so only
    // the session's hangup polling can find the orphan before the 60 s
    // watchdog.
    RawConn Conn(Socket);
    expectHello(Conn);
    ASSERT_TRUE(Conn.write(encodeFrame(
        R"({"op":"submit","name":"orphan","source":")" +
        JsonWriter::escape(TinySource) + R"(","chaos":"spin"})")));
    std::string Payload;
    ASSERT_TRUE(Conn.readFrame(Payload)); // accepted
    ASSERT_TRUE(Conn.readFrame(Payload)); // the rung_start line
    EXPECT_NE(Payload.find(R"("event":"line")"), std::string::npos)
        << Payload;
  }

  bool Settled = false;
  for (int Tries = 0; Tries < 500 && !Settled; ++Tries) {
    if (H.Daemon.counters().Cancelled == 1)
      Settled = true;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(Settled) << "orphaned job was left to its watchdog";

  expectServerStillServes(Socket);
  H.stop();
  EXPECT_EQ(H.Exit, ExitSuccess);
  expectNoLeakedChildren();
}

// --- Retention ---------------------------------------------------------------

TEST(Serve, FinishedJobsLeaveTheRegistryButKeepTheirState) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  constexpr int JobsPerConnection = 25;
  std::string Errors[2];
  std::thread Submitters[2];
  for (int Conn = 0; Conn < 2; ++Conn)
    Submitters[Conn] = std::thread([&, Conn] {
      Client C;
      if (!C.connect(Socket, Errors[Conn]))
        return;
      for (int Index = 0; Index < JobsPerConnection; ++Index) {
        SubmitOutcome Outcome;
        if (!C.submit("tiny", TinySource, 0, "", nullptr, Outcome,
                      Errors[Conn]))
          return;
        if (Outcome.State != "done")
          Errors[Conn] = "job " + std::to_string(Outcome.JobId) + " ended " +
                         Outcome.State;
      }
    });
  for (std::thread &T : Submitters)
    T.join();
  ASSERT_TRUE(Errors[0].empty()) << Errors[0];
  ASSERT_TRUE(Errors[1].empty()) << Errors[1];

  Client C;
  std::string Error;
  ASSERT_TRUE(C.connect(Socket, Error)) << Error;
  JsonValue Stats = request(C, R"({"op":"stats"})");
  uint64_t LiveJobs = 1, Submits = 0;
  ASSERT_TRUE(Stats.getUint("jobs", LiveJobs));
  ASSERT_TRUE(Stats.getUint("submits", Submits));
  EXPECT_EQ(LiveJobs, 0u) << "finished jobs stayed in the registry";
  EXPECT_EQ(Submits, 2u * JobsPerConnection);

  // Every finished id still names its terminal state; the next id was
  // never issued.
  for (uint64_t Id = 1; Id <= 2 * JobsPerConnection; ++Id)
    EXPECT_EQ(statusOf(C, Id), "done") << "job " << Id;
  EXPECT_EQ(statusOf(C, 2 * JobsPerConnection + 1), "unknown_job");

  C.close();
  H.stop();
  EXPECT_EQ(H.Exit, ExitSuccess);
  expectNoLeakedChildren();
}

// --- The shared warm cache ---------------------------------------------------

TEST(Serve, SecondSubmitOfTheSameProgramHitsTheSharedCache) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  ServerOptions Options = testOptions(Socket);
  Options.Batch.CacheDir = Dir.Path + "/cache";
  // Skip the deep rung so every job runs the two-pass introspective
  // analysis — the Pass-A pre-analysis is what the cache holds.
  Options.Batch.Ladder.AttemptDeep = false;
  Harness H(Options);

  std::string Error;
  SubmitOutcome Cold, Warm;
  {
    Client C;
    ASSERT_TRUE(C.connect(Socket, Error)) << Error;
    ASSERT_TRUE(C.submit("first", TinySource, 0, "", nullptr, Cold, Error))
        << Error;
  }
  {
    // A different connection: the cache is keyed by program content, not
    // by session or job name.
    Client C;
    ASSERT_TRUE(C.connect(Socket, Error)) << Error;
    ASSERT_TRUE(C.submit("second", TinySource, 0, "", nullptr, Warm, Error))
        << Error;
  }

  EXPECT_EQ(Cold.FinalClass, "clean");
  EXPECT_EQ(Warm.FinalClass, "clean");
  ASSERT_TRUE(Cold.CacheEnabled);
  ASSERT_TRUE(Warm.CacheEnabled);
  EXPECT_EQ(Cold.Cache.Hits, 0u);
  EXPECT_GE(Cold.Cache.Misses, 1u);
  EXPECT_GE(Cold.Cache.Stores, 1u);
  EXPECT_GE(Warm.Cache.Hits, 1u) << "the warm submit re-solved Pass A";
  EXPECT_EQ(Warm.Cache.Misses, 0u);
  EXPECT_EQ(Warm.Cache.StoreFailures, 0u);
  expectNoLeakedChildren();
}

// --- Drain and shutdown ------------------------------------------------------

TEST(Serve, DrainAnswersFinishesAndShutsDownCleanly) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  std::string Error;
  {
    Client C;
    ASSERT_TRUE(C.connect(Socket, Error)) << Error;
    SubmitOutcome Outcome;
    ASSERT_TRUE(C.submit("tiny", TinySource, 0, "", nullptr, Outcome, Error))
        << Error;
    ASSERT_EQ(Outcome.FinalClass, "clean");
  }
  {
    Client C;
    ASSERT_TRUE(C.connect(Socket, Error)) << Error;
    ASSERT_TRUE(C.drain(Error)) << Error;
  }

  H.Runner.join();
  EXPECT_EQ(H.Exit, ExitSuccess);
  EXPECT_FALSE(fs::exists(Socket)) << "socket file must be unlinked";
  // Nothing is listening anymore.
  std::string ConnectError;
  EXPECT_LT(connectUnix(Socket, ConnectError), 0);
  expectNoLeakedChildren();
}

TEST(Serve, StopFlagDrainsLikeSigterm) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  Harness H(testOptions(Socket));

  Client C;
  std::string Error;
  ASSERT_TRUE(C.connect(Socket, Error)) << Error;
  SubmitOutcome Outcome;
  ASSERT_TRUE(C.submit("tiny", TinySource, 0, "", nullptr, Outcome, Error))
      << Error;
  EXPECT_EQ(Outcome.FinalClass, "clean");
  C.close();

  // The SIGTERM path: raise the stop flag, expect a clean drain.
  H.stop();
  EXPECT_EQ(H.Exit, ExitSuccess);
  EXPECT_FALSE(fs::exists(Socket));
  expectNoLeakedChildren();
}

TEST(Serve, StaleSocketFileFromADeadServerIsReplaced) {
  TempDir Dir;
  std::string Socket = Dir.Path + "/serve.sock";
  // A server that died hard leaves its socket file behind with nothing
  // listening: bind the path and close the fd without unlinking.
  int Stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Stale, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  ASSERT_LT(Socket.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, Socket.c_str(), Socket.size() + 1);
  ASSERT_EQ(::bind(Stale, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  ::close(Stale);
  ASSERT_TRUE(fs::exists(Socket));

  Harness H(testOptions(Socket));
  ASSERT_TRUE(H.Started) << "stale socket file was not detected and replaced";
  expectServerStillServes(Socket);
}
