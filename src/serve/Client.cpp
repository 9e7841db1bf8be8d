//===- serve/Client.cpp - intro-serve-v1 client ---------------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"

#include "support/Json.h"
#include "support/Socket.h"

#include <sstream>

#include <unistd.h>

using namespace intro;
using namespace intro::serve;

Client::~Client() { close(); }

void Client::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool Client::connect(const std::string &SocketPath, std::string &Error) {
  Fd = connectUnix(SocketPath, Error);
  if (Fd < 0)
    return false;
  std::string Hello;
  if (!recv(Hello, Error))
    return false;
  JsonParseResult Parsed = parseJson(Hello);
  std::string Protocol;
  if (!Parsed.ok() || !Parsed.Value.getString("protocol", Protocol) ||
      Protocol != ProtocolName) {
    Error = "server did not greet with " + std::string(ProtocolName);
    close();
    return false;
  }
  return true;
}

bool Client::send(std::string_view Json, std::string &Error) {
  std::string Frame = encodeFrame(Json);
  if (!sendAll(Fd, Frame.data(), Frame.size())) {
    Error = "server connection closed while sending";
    return false;
  }
  return true;
}

bool Client::recv(std::string &Json, std::string &Error) {
  char Buffer[4096];
  while (true) {
    std::string FrameError;
    FrameDecoder::Status Status = Decoder.next(Json, FrameError);
    if (Status == FrameDecoder::Status::Frame)
      return true;
    if (Status == FrameDecoder::Status::Error) {
      Error = "bad frame from server: " + FrameError;
      return false;
    }
    if (pollIn(Fd, -1) < 0) {
      Error = "poll failed on server connection";
      return false;
    }
    long Count = readSome(Fd, Buffer, sizeof(Buffer));
    if (Count < 0) {
      Error = "read failed on server connection";
      return false;
    }
    if (Count == 0) {
      Error = "server closed the connection";
      return false;
    }
    Decoder.feed(Buffer, static_cast<size_t>(Count));
  }
}

namespace {

/// Pulls an error frame's code/message into a single diagnostic.
bool extractError(const JsonValue &Doc, std::string &Error) {
  bool Ok = true;
  if (Doc.getBool("ok", Ok) && !Ok) {
    std::string Code = "error";
    std::string Message;
    if (const JsonValue *Detail = Doc.get("error")) {
      Detail->getString("code", Code);
      Detail->getString("message", Message);
    }
    Error = Code + ": " + Message;
    return true;
  }
  return false;
}

} // namespace

bool Client::submit(
    const std::string &Name, const std::string &Source, double DeadlineSeconds,
    const std::string &ChaosSpec,
    const std::function<void(uint64_t Attempt, const std::string &Line)>
        &OnLine,
    SubmitOutcome &Out, std::string &Error) {
  std::ostringstream Request;
  {
    JsonWriter J(Request);
    J.beginObject();
    J.key("op");
    J.value("submit");
    J.key("name");
    J.value(Name);
    J.key("source");
    J.value(Source);
    if (DeadlineSeconds > 0) {
      J.key("deadline_seconds");
      J.value(DeadlineSeconds);
    }
    if (!ChaosSpec.empty()) {
      J.key("chaos");
      J.value(ChaosSpec);
    }
    J.endObject();
  }
  if (!send(Request.str(), Error))
    return false;

  while (true) {
    std::string Payload;
    if (!recv(Payload, Error))
      return false;
    JsonParseResult Parsed = parseJson(Payload);
    if (!Parsed.ok()) {
      Error = "unparseable frame from server: " + Parsed.Error;
      return false;
    }
    const JsonValue &Doc = Parsed.Value;
    if (extractError(Doc, Error))
      return false;
    std::string Event;
    Doc.getString("event", Event);
    if (Event == "accepted") {
      Doc.getUint("job", Out.JobId);
      continue;
    }
    if (Event == "line") {
      std::string Line;
      uint64_t Attempt = 0;
      Doc.getString("line", Line);
      Doc.getUint("attempt", Attempt);
      if (Line.find("\"schema\"") != std::string::npos)
        Out.FinalReportLine = Line;
      if (OnLine)
        OnLine(Attempt, Line);
      continue;
    }
    if (Event != "done") {
      Error = "unexpected event '" + Event + "' while awaiting done";
      return false;
    }
    Doc.getUint("job", Out.JobId);
    Doc.getString("state", Out.State);
    Doc.getString("final_class", Out.FinalClass);
    Doc.getBool("quarantined", Out.Quarantined);
    Doc.getBool("aborted", Out.Aborted);
    Doc.getUint("attempts", Out.Attempts);
    if (const JsonValue *Result = Doc.get("result");
        Result && Result->isObject()) {
      Result->getString("level", Out.ResultLevel);
      Result->getString("status", Out.ResultStatus);
      Result->getBool("completed", Out.ResultCompleted);
    }
    if (const JsonValue *Errors = Doc.get("input_errors");
        Errors && Errors->isArray())
      for (const JsonValue &E : Errors->elements())
        if (E.isString())
          Out.InputErrors.push_back(E.asString());
    if (const JsonValue *Cache = Doc.get("cache"))
      Out.CacheEnabled = cache::parseCacheStatsJson(*Cache, Out.Cache);
    return true;
  }
}

bool Client::drain(std::string &Error) {
  if (!send(R"({"op":"drain"})", Error))
    return false;
  std::string Payload;
  if (!recv(Payload, Error))
    return false;
  JsonParseResult Parsed = parseJson(Payload);
  if (!Parsed.ok()) {
    Error = "unparseable frame from server: " + Parsed.Error;
    return false;
  }
  if (extractError(Parsed.Value, Error))
    return false;
  std::string Event;
  Parsed.Value.getString("event", Event);
  if (Event != "drained") {
    Error = "expected a drained acknowledgement, got '" + Event + "'";
    return false;
  }
  return true;
}
