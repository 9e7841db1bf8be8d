//===- tests/TraceTests.cpp - Tracing and run-report tests ----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the structured tracing layer (support/Trace.h), the streaming
/// JSON writer, the machine-readable run-report exports, and the
/// divide-by-zero / degenerate-knob fixes that ride along with them:
///
///   - span nesting and per-name summaries,
///   - counter aggregation across threads,
///   - multi-thread merge determinism (content-identical for any worker
///     count),
///   - valid JSON from both export formats (checked by a tiny in-test
///     recursive-descent parser, so the tests need no external tooling),
///   - a no-allocation assertion for the disabled (no recorder) path,
///   - solver / resilient-driver integration (counters, rung spans, trip
///     instants, normalization notes, win/loss flags),
///   - the solver's metered ApproxBytes against the peak live heap,
///   - empty-program statistics, zero-knob options, and empty attempt
///     traces.
///
//===----------------------------------------------------------------------===//

#include "analysis/Reports.h"
#include "analysis/Solver.h"
#include "analysis/Statistics.h"
#include "introspect/Resilient.h"
#include "ir/ProgramBuilder.h"
#include "support/Json.h"
#include "support/TableWriter.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workload/DaCapo.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <malloc.h>
#include <new>
#include <sstream>

using namespace intro;
using intro::testing::makeTwoBoxes;
using intro::testing::TwoBoxes;

//===----------------------------------------------------------------------===//
// Allocation counting (for the disabled-path no-allocation assertion) and
// live-heap tracking (for the memory-estimate bounds).
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> GlobalAllocCount{0};
/// Bytes of operator-new blocks currently allocated, as malloc sized them.
std::atomic<int64_t> LiveBytes{0};
/// High-water mark of LiveBytes; tests reset it to LiveBytes to start.
std::atomic<int64_t> PeakLiveBytes{0};
} // namespace

// GCC's allocator pairing analysis cannot see that these replacements form
// a matched malloc/free pair, and warns at inlined call sites.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *operator new(std::size_t Size) {
  GlobalAllocCount.fetch_add(1, std::memory_order_relaxed);
  void *Ptr = std::malloc(Size ? Size : 1);
  if (!Ptr)
    throw std::bad_alloc();
  int64_t Bytes = static_cast<int64_t>(malloc_usable_size(Ptr));
  int64_t Live = LiveBytes.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
  int64_t Peak = PeakLiveBytes.load(std::memory_order_relaxed);
  while (Live > Peak && !PeakLiveBytes.compare_exchange_weak(
                            Peak, Live, std::memory_order_relaxed)) {
  }
  return Ptr;
}

void operator delete(void *Ptr) noexcept {
  if (Ptr)
    LiveBytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(Ptr)),
                        std::memory_order_relaxed);
  std::free(Ptr);
}
void operator delete(void *Ptr, std::size_t) noexcept { operator delete(Ptr); }

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON validator: enough of RFC 8259 to reject malformed output.
//===----------------------------------------------------------------------===//

class JsonChecker {
public:
  explicit JsonChecker(const std::string &Text) : Text(Text) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == Text.size();
  }

private:
  bool value() {
    if (Pos >= Text.size())
      return false;
    switch (Text[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipWs();
    if (peek('}'))
      return true;
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"' || !string())
        return false;
      skipWs();
      if (!peek(':'))
        return false;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek('}'))
        return true;
      if (!peek(','))
        return false;
    }
  }

  bool array() {
    ++Pos; // '['
    skipWs();
    if (peek(']'))
      return true;
    while (true) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek(']'))
        return true;
      if (!peek(','))
        return false;
    }
  }

  bool string() {
    ++Pos; // '"'
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return false; // Unescaped control character.
      if (C == '\\') {
        ++Pos;
        if (Pos >= Text.size())
          return false;
        char E = Text[Pos];
        if (E == 'u') {
          for (int Digit = 0; Digit < 4; ++Digit)
            if (++Pos >= Text.size() || !std::isxdigit(
                    static_cast<unsigned char>(Text[Pos])))
              return false;
        } else if (!std::strchr("\"\\/bfnrt", E)) {
          return false;
        }
      }
      ++Pos;
    }
    return false;
  }

  bool number() {
    size_t Start = Pos;
    if (peek('-')) {
    }
    if (!digits())
      return false;
    if (peek('.') && !digits())
      return false;
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (!digits())
        return false;
    }
    return Pos > Start;
  }

  bool digits() {
    size_t Start = Pos;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    return Pos > Start;
  }

  bool literal(const char *Word) {
    size_t Length = std::strlen(Word);
    if (Text.compare(Pos, Length, Word) != 0)
      return false;
    Pos += Length;
    return true;
  }

  bool peek(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  const std::string &Text;
  size_t Pos = 0;
};

bool isValidJson(const std::string &Text) {
  return JsonChecker(Text).valid();
}

std::string deterministicSummary(trace::Recorder &Rec) {
  std::ostringstream Out;
  JsonWriter J(Out);
  Rec.writeDeterministicSummary(J);
  return Out.str();
}

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

TEST(JsonWriterTest, NestedStructureIsValid) {
  std::ostringstream Out;
  JsonWriter J(Out);
  J.beginObject();
  J.key("name");
  J.value("qu\"ote\\back\nline");
  J.key("count");
  J.value(uint64_t(42));
  J.key("negative");
  J.value(int64_t(-7));
  J.key("pi");
  J.value(3.25);
  J.key("flag");
  J.value(true);
  J.key("nothing");
  J.null();
  J.key("list");
  J.beginArray();
  J.value(uint64_t(1));
  J.beginObject();
  J.endObject();
  J.beginArray();
  J.endArray();
  J.endArray();
  J.endObject();
  EXPECT_TRUE(isValidJson(Out.str())) << Out.str();
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  std::ostringstream Out;
  JsonWriter J(Out);
  J.beginArray();
  J.value(std::numeric_limits<double>::quiet_NaN());
  J.value(std::numeric_limits<double>::infinity());
  J.value(-std::numeric_limits<double>::infinity());
  J.value(1.5);
  J.endArray();
  EXPECT_EQ(Out.str(), "[null,null,null,1.5]");
}

//===----------------------------------------------------------------------===//
// Recorder basics
//===----------------------------------------------------------------------===//

TEST(TraceTest, SpanNestingAndSummaries) {
  trace::Recorder Rec;
  Rec.start();
  {
    TRACE_SPAN("outer");
    {
      TRACE_SPAN("inner");
      TRACE_COUNTER("work", 2);
    }
    {
      TRACE_SPAN("inner");
      TRACE_COUNTER("work", 3);
    }
  }
  Rec.stop();

  const auto &Spans = Rec.spans();
  ASSERT_EQ(Spans.count("outer"), 1u);
  ASSERT_EQ(Spans.count("inner"), 1u);
  EXPECT_EQ(Spans.at("outer").Count, 1u);
  EXPECT_EQ(Spans.at("inner").Count, 2u);
  // The outer span encloses both inner spans on the monotonic clock.
  EXPECT_GE(Spans.at("outer").TotalNs, Spans.at("inner").TotalNs);

  EXPECT_EQ(Rec.counters().at("work"), 5u);

  // Event stream: B(outer) B(inner) E(inner) B(inner) E(inner) E(outer).
  const auto &Events = Rec.events();
  ASSERT_EQ(Events.size(), 6u);
  EXPECT_EQ(Events.front().K, trace::Event::Kind::Begin);
  EXPECT_STREQ(Events.front().Name, "outer");
  EXPECT_EQ(Events.back().K, trace::Event::Kind::End);
  EXPECT_STREQ(Events.back().Name, "outer");
}

TEST(TraceTest, InstantValuesSum) {
  trace::Recorder Rec;
  Rec.start();
  TRACE_INSTANT("mark", 10);
  TRACE_INSTANT("mark", 32);
  Rec.stop();
  EXPECT_EQ(Rec.instants().at("mark").Count, 2u);
  EXPECT_EQ(Rec.instants().at("mark").Sum, 42u);
}

TEST(TraceTest, NoRecorderMeansNoEffect) {
  ASSERT_EQ(trace::active(), nullptr);
  TRACE_SPAN("ignored");
  TRACE_COUNTER("ignored", 1);
  TRACE_INSTANT("ignored", 1);
  EXPECT_EQ(trace::active(), nullptr);
}

TEST(TraceTest, CounterAggregationAcrossThreads) {
  trace::Recorder Rec;
  Rec.start();
  {
    ThreadPool Pool(4);
    std::vector<std::future<void>> Tasks;
    for (int Index = 0; Index < 16; ++Index)
      Tasks.push_back(Pool.submit([] {
        TRACE_COUNTER("thread.items", 5);
        TRACE_COUNTER("thread.calls", 1);
      }));
    for (auto &Task : Tasks)
      Task.get();
  } // Pool joins its workers here: the flush happens-before edge.
  Rec.stop();
  EXPECT_EQ(Rec.counters().at("thread.items"), 80u);
  EXPECT_EQ(Rec.counters().at("thread.calls"), 16u);
}

// The tentpole determinism property: the merged summary (names, counters,
// span/instant counts and sums) is byte-identical for any worker count.
TEST(TraceTest, MergeDeterminismAcrossWorkerCounts) {
  auto RunWorkload = [](unsigned Workers) {
    trace::Recorder Rec;
    Rec.start();
    {
      ThreadPool Pool(Workers);
      std::vector<std::future<void>> Tasks;
      for (uint64_t Index = 0; Index < 12; ++Index)
        Tasks.push_back(Pool.submit([Index] {
          trace::ScopedSpan Span("work.task");
          TRACE_COUNTER("work.items", 3);
          TRACE_INSTANT("work.mark", Index);
        }));
      for (auto &Task : Tasks)
        Task.get();
    }
    Rec.stop();
    return deterministicSummary(Rec);
  };

  std::string At1 = RunWorkload(1);
  std::string At2 = RunWorkload(2);
  std::string At4 = RunWorkload(4);
  EXPECT_EQ(At1, At2);
  EXPECT_EQ(At1, At4);
  EXPECT_TRUE(isValidJson(At1)) << At1;
  // Spot-check the content: 12 span pairs, 36 items, instant sum 0+..+11.
  EXPECT_NE(At1.find("\"work.items\":36"), std::string::npos) << At1;
  EXPECT_NE(At1.find("\"sum\":66"), std::string::npos) << At1;
}

TEST(TraceTest, ChromeTraceIsValidJson) {
  trace::Recorder Rec;
  Rec.start();
  {
    TRACE_SPAN("chrome.span");
    TRACE_INSTANT("chrome.instant", 7);
    TRACE_COUNTER("chrome.counter", 3);
  }
  Rec.stop();
  std::ostringstream Out;
  Rec.writeChromeTrace(Out);
  const std::string Text = Out.str();
  EXPECT_TRUE(isValidJson(Text)) << Text;
  // The object format chrome://tracing expects, with our event names.
  EXPECT_NE(Text.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(Text.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(Text.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(Text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Text.find("\"ph\":\"C\""), std::string::npos);
}

TEST(TraceTest, RestartAfterStopRecordsFreshContent) {
  trace::Recorder First;
  First.start();
  TRACE_COUNTER("restart.count", 1);
  First.stop();

  trace::Recorder Second;
  Second.start();
  TRACE_COUNTER("restart.count", 5);
  Second.stop();

  EXPECT_EQ(First.counters().at("restart.count"), 1u);
  EXPECT_EQ(Second.counters().at("restart.count"), 5u);
}

// The disabled path (no recorder installed) must not allocate: it is the
// path every production run without --trace pays at every event site.
TEST(TraceTest, DisabledModeDoesNotAllocate) {
  ASSERT_EQ(trace::active(), nullptr);
  uint64_t Before = GlobalAllocCount.load(std::memory_order_relaxed);
  for (int Index = 0; Index < 1000; ++Index) {
    TRACE_SPAN("disabled.span");
    TRACE_COUNTER("disabled.counter", 1);
    TRACE_INSTANT("disabled.instant", 2);
  }
  uint64_t After = GlobalAllocCount.load(std::memory_order_relaxed);
  EXPECT_EQ(Before, After);
}

//===----------------------------------------------------------------------===//
// Solver integration
//===----------------------------------------------------------------------===//

TEST(TraceSolverTest, SolverEmitsCounters) {
  TwoBoxes T = makeTwoBoxes();
  trace::Recorder Rec;
  Rec.start();
  {
    auto Policy = makeInsensitivePolicy();
    ContextTable Table;
    PointsToResult Result = solvePointsTo(T.Prog, *Policy, Table);
    ASSERT_TRUE(isCompleted(Result.Status));
  }
  Rec.stop();
  const auto &Counters = Rec.counters();
  EXPECT_EQ(Counters.at("solve.runs"), 1u);
  EXPECT_GT(Counters.at("solve.pops"), 0u);
  EXPECT_GT(Counters.at("solve.tuples"), 0u);
  EXPECT_GT(Counters.at("solve.call_graph_edges"), 0u);
  EXPECT_EQ(Rec.spans().at("solve.run").Count, 1u);
}

TEST(TraceSolverTest, BudgetTripEmitsInstant) {
  TwoBoxes T = makeTwoBoxes();
  trace::Recorder Rec;
  Rec.start();
  {
    auto Policy = makeInsensitivePolicy();
    ContextTable Table;
    SolverOptions Options;
    Options.Budget.MaxTuples = 1; // Trips almost immediately.
    PointsToResult Result = solvePointsTo(T.Prog, *Policy, Table, Options);
    ASSERT_EQ(Result.Status, SolveStatus::TupleBudgetExceeded);
  }
  Rec.stop();
  EXPECT_EQ(Rec.instants().count("solve.trip.tuple_budget"), 1u);
}

TEST(TraceSolverTest, SolverStatsJsonIsValid) {
  TwoBoxes T = makeTwoBoxes();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult Result = solvePointsTo(T.Prog, *Policy, Table);
  std::ostringstream Out;
  JsonWriter J(Out);
  writeSolverStatsJson(J, Result.Stats);
  EXPECT_TRUE(isValidJson(Out.str())) << Out.str();
  EXPECT_NE(Out.str().find("\"worklist_pops\":"), std::string::npos);
}

// ApproxBytes is the peak of the bytes the solve's containers request
// (support/Meter.h); this pins it between 0.60 of the solve's real peak
// live heap and that peak, so the memory budget neither overshoots real
// allocation nor drifts far below it.
TEST(TraceSolverTest, ApproxBytesBoundsThePeakLiveHeap) {
  Program Prog = generateWorkload(dacapoProfile("chart"));
  std::unique_ptr<ContextPolicy> Policies[] = {makeInsensitivePolicy(),
                                               makeObjectPolicy(Prog, 2, 1)};
  for (const auto &Policy : Policies) {
    ContextTable Table;
    int64_t Before = LiveBytes.load(std::memory_order_relaxed);
    PeakLiveBytes.store(Before, std::memory_order_relaxed);
    PointsToResult Result = solvePointsTo(Prog, *Policy, Table);
    uint64_t Peak = static_cast<uint64_t>(
        PeakLiveBytes.load(std::memory_order_relaxed) - Before);
    ASSERT_TRUE(isCompleted(Result.Status)) << Policy->name();
    EXPECT_LE(Result.Stats.ApproxBytes, Peak) << Policy->name();
    EXPECT_GE(Result.Stats.ApproxBytes * 100, Peak * 60) << Policy->name();
  }
}

//===----------------------------------------------------------------------===//
// Resilient-driver integration: rung spans, win/loss JSON
//===----------------------------------------------------------------------===//

TEST(TraceResilientTest, RungSpansAndWinFlag) {
  TwoBoxes T = makeTwoBoxes();
  auto Refined = makeObjectPolicy(T.Prog, 2, 1);
  trace::Recorder Rec;
  ResilientOutcome Outcome;
  Rec.start();
  Outcome = runResilient(T.Prog, *Refined);
  Rec.stop();

  ASSERT_TRUE(Outcome.completed());
  EXPECT_EQ(Outcome.Level, DegradationLevel::Deep);
  EXPECT_EQ(Rec.spans().at("rung.deep").Count, 1u);
  EXPECT_EQ(Rec.spans().at("rung.insensitive").Count, 1u);

  std::ostringstream Out;
  JsonWriter J(Out);
  writeResilientOutcomeJson(J, Outcome);
  const std::string Text = Out.str();
  EXPECT_TRUE(isValidJson(Text)) << Text;
  // Exactly one attempt won.
  size_t FirstWon = Text.find("\"won\":true");
  ASSERT_NE(FirstWon, std::string::npos);
  EXPECT_EQ(Text.find("\"won\":true", FirstWon + 1), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Empty-input robustness (the bugfix sweep)
//===----------------------------------------------------------------------===//

TEST(EmptyInputTest, AttemptTraceJsonEmpty) {
  std::ostringstream Out;
  JsonWriter J(Out);
  writeResilientOutcomeJson(J, ResilientOutcome());
  EXPECT_NE(Out.str().find("\"attempts\":[]"), std::string::npos) << Out.str();
}

TEST(EmptyInputTest, TableWriterNoRows) {
  TableWriter Table({"alpha", "b"});
  std::ostringstream Out;
  Table.print(Out);
  EXPECT_EQ(Out.str(), "| alpha | b |\n|-------|---|\n");
}

TEST(EmptyInputTest, TableWriterNoColumns) {
  TableWriter Table({});
  std::ostringstream Out;
  Table.print(Out);
  EXPECT_EQ(Out.str(), "(empty table)\n");
}

TEST(EmptyInputTest, EmptyProgramStatisticsAreFinite) {
  ProgramBuilder B;
  Program Prog = B.take();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  SolverOptions Options;
  Options.Assemble = Assembly::Tuples;
  PointsToResult Result = solvePointsTo(Prog, *Policy, Table, Options);
  EXPECT_TRUE(isCompleted(Result.Status));

  ContextStatistics Stats = computeContextStatistics(Prog, Result);
  EXPECT_EQ(Stats.ReachableMethods, 0u);
  EXPECT_EQ(Stats.TotalMethodContexts, 0u);
  // The former bug: 0 / 0 propagated NaN into the report tables.
  EXPECT_TRUE(std::isfinite(Stats.MeanContextsPerMethod));
  EXPECT_EQ(Stats.MeanContextsPerMethod, 0.0);
  EXPECT_TRUE(Stats.TopByContexts.empty());
  EXPECT_TRUE(Stats.TopByTuples.empty());

  // And the pretty-printer must render it without degenerate tokens.
  std::ostringstream Out;
  printContextStatistics(Prog, Stats, Out);
  EXPECT_EQ(Out.str().find("nan"), std::string::npos);
  EXPECT_EQ(Out.str().find("inf"), std::string::npos);
}

TEST(EmptyInputTest, EmptyRecorderExportsAreValid) {
  trace::Recorder Rec;
  Rec.start();
  Rec.stop();
  std::ostringstream Chrome;
  Rec.writeChromeTrace(Chrome);
  EXPECT_TRUE(isValidJson(Chrome.str())) << Chrome.str();
  std::string Summary = deterministicSummary(Rec);
  EXPECT_TRUE(isValidJson(Summary)) << Summary;
  EXPECT_EQ(Summary, "{\"counters\":{},\"spans\":[],\"instants\":[]}");
}

} // namespace
