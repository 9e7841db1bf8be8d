//===- support/Trace.h - Structured solver tracing --------------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A structured event recorder for the analysis pipeline: spans (timed
/// begin/end pairs), integer counters, and instant events, recorded into
/// per-thread buffers and merged at flush.  The paper's whole method is
/// *measuring* an analysis to decide how to run it; this is the layer that
/// makes our own runs measurable.
///
/// Design constraints, in order:
///
///  1. **Near-zero cost when off.**  An event site with no recorder
///     installed costs one relaxed atomic load and a predictable branch —
///     no allocation, no lock (asserted by trace_tests and priced by
///     bench/micro_engine).
///
///  2. **Lock-free-enough when on.**  Each recording thread appends to its
///     own buffer and bumps its own counter table; the recorder's mutex is
///     taken only on a thread's *first* event (buffer registration) and at
///     flush.  No event-path contention between threads.
///
///  3. **Deterministic content.**  Event *names* are compile-time string
///     literals; counters merge by name-sorted sum; span/instant summaries
///     merge by name-sorted count+sum.  For a deterministic workload the
///     merged summary is byte-identical for any thread count or schedule —
///     only timestamps (and their Chrome export) vary run to run.
///
/// Flush contract: finish() (and the exporters, which call it) must only
/// run after every recording thread has quiesced with a happens-before
/// edge to the caller — join the threads or destroy the pool first.  This
/// is the same contract the portfolio engine already obeys for results.
///
/// Event taxonomy and the determinism argument are documented in
/// DESIGN.md §8.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_TRACE_H
#define SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace intro {

class JsonWriter;

namespace trace {

/// One recorded event.  Name must have static storage duration (the
/// TRACE_* macros pass string literals); timestamps are nanoseconds on the
/// recorder's monotonic clock.
struct Event {
  enum class Kind : uint8_t {
    Begin,   ///< Span opened.
    End,     ///< Span closed.
    Counter, ///< Counter delta (aggregated at flush).
    Instant, ///< Point event carrying a value.
  };
  Kind K;
  const char *Name;
  uint64_t TimeNs;
  uint64_t Value;
};

/// Name-merged statistics of one event name after flush.
struct NameSummary {
  uint64_t Count = 0;   ///< Events (span pairs / instants) with this name.
  uint64_t Sum = 0;     ///< Counter total or instant-value sum.
  uint64_t TotalNs = 0; ///< Span-only: summed wall-clock inside the span.
};

class Recorder;

/// \returns the currently installed recorder, or nullptr (relaxed load;
/// this is the only cost an event site pays when tracing is off).
Recorder *active();

/// A structured event recorder.  Install with start(), record through the
/// TRACE_* macros (or the member functions), then stop() and export.
/// At most one recorder is active at a time; nesting is a caller bug.
class Recorder {
public:
  Recorder();
  ~Recorder(); ///< Uninstalls if still active.

  Recorder(const Recorder &) = delete;
  Recorder &operator=(const Recorder &) = delete;

  /// Installs this recorder as the active event sink and starts the clock.
  void start();

  /// Uninstalls the recorder and merges all per-thread buffers.  See the
  /// flush contract in the file comment.  Idempotent.
  void stop();

  // --- Recording (called through the TRACE_* macros) ---------------------

  void beginSpan(const char *Name) { append(Event::Kind::Begin, Name, 0); }
  void endSpan(const char *Name) { append(Event::Kind::End, Name, 0); }
  void counterAdd(const char *Name, uint64_t Delta);
  void instant(const char *Name, uint64_t Value) {
    append(Event::Kind::Instant, Name, Value);
  }

  // --- Exports (implicitly stop() first) ---------------------------------

  /// All merged events in (thread-registration-order, record-order).
  const std::vector<Event> &events();

  /// Counter totals merged by name (deterministic).
  const std::map<std::string, uint64_t> &counters();

  /// Span summaries merged by name: pair count + total nanoseconds.
  const std::map<std::string, NameSummary> &spans();

  /// Instant summaries merged by name: count + value sum.
  const std::map<std::string, NameSummary> &instants();

  /// Writes the Chrome trace_event JSON object format — loadable in
  /// chrome://tracing and Perfetto: {"traceEvents": [...], ...}.
  /// Timestamps are microseconds from recorder start.
  void writeChromeTrace(std::ostream &Out);

  /// Writes the deterministic trace summary (counters, span summaries
  /// without timings, instant summaries) as one JSON object.  For a
  /// deterministic workload this section is byte-identical across thread
  /// counts; run reports embed it as their "trace" member.
  void writeDeterministicSummary(JsonWriter &J);

private:
  struct ThreadLog {
    std::vector<Event> Events;
    /// Per-thread counter cells, append-ordered; looked up linearly (the
    /// instrumented code uses a handful of distinct counters).
    std::vector<std::pair<const char *, uint64_t>> Counters;
    uint32_t Tid = 0;
  };

  /// \returns this thread's log, registering it on first use.
  ThreadLog &localLog();
  void append(Event::Kind K, const char *Name, uint64_t Value);
  uint64_t nowNs() const;
  void mergeLogs();

  std::mutex LogMutex;
  std::vector<std::unique_ptr<ThreadLog>> Logs;

  uint64_t StartNs = 0;
  uint64_t Generation = 0;
  bool Stopped = true;

  std::vector<Event> Merged;
  std::map<std::string, uint64_t> MergedCounters;
  std::map<std::string, NameSummary> SpanSummaries;
  std::map<std::string, NameSummary> InstantSummaries;
};

/// RAII span: opens on construction, closes on destruction.  Captures the
/// recorder once, so a span that straddles a stop() still closes into the
/// same recorder (stop() tolerates post-stop appends from the owning
/// thread; see Trace.cpp).
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name) : R(active()), Name(Name) {
    if (R)
      R->beginSpan(Name);
  }
  ~ScopedSpan() {
    if (R)
      R->endSpan(Name);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Recorder *R;
  const char *Name;
};

inline void counterAdd(const char *Name, uint64_t Delta) {
  if (Recorder *R = active())
    R->counterAdd(Name, Delta);
}

inline void instant(const char *Name, uint64_t Value) {
  if (Recorder *R = active())
    R->instant(Name, Value);
}

} // namespace trace
} // namespace intro

// --- Macros -----------------------------------------------------------------
//
// TRACE_SPAN("name")            — RAII span covering the enclosing scope.
// TRACE_COUNTER("name", delta)  — adds delta to a named counter.
// TRACE_INSTANT("name", value)  — point event carrying a value.
//
// Names MUST be string literals (static storage; the recorder stores the
// pointer).

#define INTRO_TRACE_CONCAT_IMPL(A, B) A##B
#define INTRO_TRACE_CONCAT(A, B) INTRO_TRACE_CONCAT_IMPL(A, B)

#define TRACE_SPAN(NAME)                                                       \
  ::intro::trace::ScopedSpan INTRO_TRACE_CONCAT(TraceSpan_, __LINE__)(NAME)
#define TRACE_COUNTER(NAME, DELTA) ::intro::trace::counterAdd(NAME, DELTA)
#define TRACE_INSTANT(NAME, VALUE) ::intro::trace::instant(NAME, VALUE)

#endif // SUPPORT_TRACE_H
