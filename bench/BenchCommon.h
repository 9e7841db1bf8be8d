//===- bench/BenchCommon.h - Shared harness plumbing ------------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the figure-reproduction harnesses: the common resource
/// budget (the stand-in for the paper's 90-minute / 24 GB limit), analysis
/// runners, result formatting, and the one command-line parser.
///
//===----------------------------------------------------------------------===//

#ifndef BENCH_BENCHCOMMON_H
#define BENCH_BENCHCOMMON_H

#include "analysis/ContextPolicy.h"
#include "analysis/PrecisionMetrics.h"
#include "analysis/Solver.h"
#include "cache/ResultCache.h"
#include "introspect/Driver.h"
#include "ir/Program.h"
#include "support/ExitCodes.h"
#include "support/Json.h"
#include "support/ParseNum.h"
#include "support/Socket.h"
#include "support/TableWriter.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workload/DaCapo.h"

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

namespace intro::bench {

/// The deep-analysis resource budget.  Exceeding it is reported as the
/// paper's "did not terminate in 90 minutes".  Tuple-based, so the
/// bimodality verdicts are machine-independent.
inline SolveBudget deepBudget() {
  SolveBudget Budget;
  Budget.MaxTuples = 12'000'000;
  Budget.MaxSeconds = 120.0;
  return Budget;
}

/// Context-sensitivity flavors evaluated in Figures 5-7.
enum class Flavor { Object, Type, CallSite };

inline const char *flavorName(Flavor F) {
  switch (F) {
  case Flavor::Object:
    return "2objH";
  case Flavor::Type:
    return "2typeH";
  case Flavor::CallSite:
    return "2callH";
  }
  return "?";
}

inline std::unique_ptr<ContextPolicy> makeFlavor(Flavor F,
                                                 const Program &Prog) {
  switch (F) {
  case Flavor::Object:
    return makeObjectPolicy(Prog, 2, 1);
  case Flavor::Type:
    return makeTypePolicy(Prog, 2, 1);
  case Flavor::CallSite:
    return makeCallSitePolicy(2, 1);
  }
  return nullptr;
}

/// One analysis run's reportable outcome.
struct RunOutcome {
  std::string Analysis;
  std::string Status; ///< SolveStatus name of the (final) solver run.
  bool Completed = false;
  double Seconds = 0;
  PrecisionMetrics Precision;
  uint64_t Tuples = 0;
  SolverStats Stats;          ///< Full counters of the (final) solver run.
  RefinementStats Refinement; ///< Only for introspective runs.
};

/// Runs \p Policy on \p Prog under the deep budget.
inline RunOutcome runPlain(const Program &Prog, const ContextPolicy &Policy) {
  ContextTable Table;
  SolverOptions Options;
  Options.Budget = deepBudget();
  PointsToResult Result = solvePointsTo(Prog, Policy, Table, Options);
  RunOutcome Outcome;
  Outcome.Analysis = Policy.name();
  Outcome.Status = statusName(Result.Status);
  Outcome.Completed = isCompleted(Result.Status);
  Outcome.Seconds = Result.Stats.Seconds;
  Outcome.Tuples =
      Result.Stats.VarPointsToTuples + Result.Stats.FieldPointsToTuples;
  Outcome.Stats = Result.Stats;
  Outcome.Precision = computePrecision(Prog, Result);
  return Outcome;
}

/// Runs the full two-pass introspective analysis with \p Heuristic.  A
/// non-null \p Cache (plus \p CacheKey) lets the driver reload the shared
/// context-insensitive pre-analysis instead of re-solving it — the IntroA
/// and IntroB cells of one subject have an identical Pass A, and a warm
/// rerun of the whole figure skips every Pass A.
inline RunOutcome runIntro(const Program &Prog, Flavor F,
                           HeuristicKind Heuristic,
                           cache::ResultCache *Cache = nullptr,
                           const cache::Fingerprint *CacheKey = nullptr) {
  IntrospectiveOptions Options;
  Options.Heuristic = Heuristic;
  Options.SecondPassBudget = deepBudget();
  Options.Cache = Cache;
  Options.CacheKey = CacheKey;
  auto Refined = makeFlavor(F, Prog);
  IntrospectiveOutcome Out = runIntrospective(Prog, *Refined, Options);
  RunOutcome Outcome;
  Outcome.Analysis = Out.SecondPass.AnalysisName;
  Outcome.Status = statusName(Out.SecondPass.Status);
  Outcome.Completed = isCompleted(Out.SecondPass.Status);
  Outcome.Seconds = Out.SecondPassSeconds;
  Outcome.Tuples = Out.SecondPass.Stats.VarPointsToTuples +
                   Out.SecondPass.Stats.FieldPointsToTuples;
  Outcome.Stats = Out.SecondPass.Stats;
  Outcome.Precision = computePrecision(Prog, Out.SecondPass);
  Outcome.Refinement = Out.Stats;
  return Outcome;
}

/// Formats a time cell: seconds, or the paper's "did not terminate".
inline std::string timeCell(const RunOutcome &Outcome) {
  if (!Outcome.Completed)
    return "DNF";
  return TableWriter::num(Outcome.Seconds, 2) + " s";
}

/// Formats a precision cell, blank for non-terminating runs (as in the
/// paper's figures, where timed-out analyses have no precision bars).
inline std::string precCell(const RunOutcome &Outcome, uint64_t Value) {
  if (!Outcome.Completed)
    return "-";
  return TableWriter::num(Value);
}

/// Which flags a harness implements: the figure harnesses take all three,
/// the ablations only `--workers` (they neither trace nor cache).
enum class HarnessKind { Figure, Ablation };

/// The parsed command line of a figure or ablation harness.
struct HarnessArgs {
  /// Sweep pool size: `--workers=N`, else one per hardware thread.
  /// `--workers=1` reproduces the sequential behaviour (including its
  /// single-run timing fidelity; concurrent cells contend for cores, so
  /// per-cell seconds are only comparable within one worker count).
  uint32_t Workers = 0;
  /// `--trace=FILE`: Chrome trace_event JSON; the flat run report lands
  /// next to it (see TraceSession).  Empty when absent.
  std::string TracePath;
  /// `--cache-dir=DIR`: the Pass-A result-cache directory shared by the
  /// introspective cells (and by reruns of the harness).  Empty when
  /// absent, which disables caching.
  std::string CacheDir;
};

/// Strict command-line parse for the figure and ablation harnesses: every
/// argument must be a well-formed flag that \p Kind implements.  \returns
/// -1 to continue with \p Args filled in, or the exit code to bail with
/// (ExitBadInput plus a diagnostic naming the flag on stderr) — a typo like
/// `--worker=8` must not silently benchmark the wrong configuration.
inline int parseHarnessArgs(int argc, char **argv, HarnessKind Kind,
                            HarnessArgs &Args) {
  // Every harness passes through here first, so this is the one spot that
  // arms the repo's SIGPIPE policy for all of them: `fig5 | head` must
  // finish its sweep and report EPIPE-aware, not die on signal 13 the
  // moment the pager closes (support/Socket.h).
  ignoreSigPipe();
  const bool Figure = Kind == HarnessKind::Figure;
  for (int Index = 1; Index < argc; ++Index) {
    std::string_view Arg = argv[Index];
    size_t Equals = Arg.find('=');
    std::string_view Flag = Arg.substr(0, Equals);
    std::string_view Value =
        Equals == std::string_view::npos ? "" : Arg.substr(Equals + 1);
    if (Equals != std::string_view::npos && Flag == "--workers") {
      std::string Error;
      if (!parseU32(Flag, Value, 1, 1024, Args.Workers, Error)) {
        std::cerr << "error: " << Error << "\n";
        return ExitBadInput;
      }
    } else if (Equals != std::string_view::npos && Figure &&
               (Flag == "--trace" || Flag == "--cache-dir")) {
      bool Trace = Flag == "--trace";
      if (Value.empty()) {
        std::cerr << "error: " << Flag << " needs a "
                  << (Trace ? "file path" : "directory path") << "\n";
        return ExitBadInput;
      }
      (Trace ? Args.TracePath : Args.CacheDir) = Value;
    } else {
      std::cerr << "error: unknown argument '" << Arg << "' (known: "
                << (Figure ? "--workers=N, --trace=FILE, --cache-dir=DIR"
                           : "--workers=N")
                << ")\n";
      return ExitBadInput;
    }
  }
  if (Args.Workers == 0)
    Args.Workers = ThreadPool::defaultWorkerCount();
  return -1;
}

/// \returns the run-report path belonging to trace path \p TracePath:
/// `out.json` -> `out.report.json`; any other name just appends
/// `.report.json`.
inline std::string reportPathFor(const std::string &TracePath) {
  const std::string Suffix = ".json";
  if (TracePath.size() > Suffix.size() &&
      TracePath.compare(TracePath.size() - Suffix.size(), Suffix.size(),
                        Suffix) == 0)
    return TracePath.substr(0, TracePath.size() - Suffix.size()) +
           ".report.json";
  return TracePath + ".report.json";
}

/// Harness-side tracing session: installs a trace::Recorder when the
/// `--trace=FILE` flag is present, and on finish() writes
///
///   FILE             — Chrome trace_event JSON (chrome://tracing, Perfetto)
///   *.report.json    — the flat machine-readable run report:
///                      { "schema": ..., "deterministic": {...},
///                        "timing": {...} }
///
/// The "deterministic" object (trace counters/span counts + the
/// harness-provided bench section) is byte-identical across worker counts
/// for a deterministic workload; everything wall-clock lives under
/// "timing".  The two writer callbacks must each emit exactly one JSON
/// value (the bench sections).
class TraceSession {
public:
  explicit TraceSession(std::string TracePath) : Path(std::move(TracePath)) {
    if (enabled())
      Rec.start();
  }

  bool enabled() const { return !Path.empty(); }

  /// Stops recording and writes both files.  Call after all worker threads
  /// have been joined (the flush contract of support/Trace.h); the sweep
  /// runner's pool is destroyed before runSweep returns, so calling this
  /// after runSweep is safe.
  template <typename DeterministicFn, typename TimingFn>
  void finish(DeterministicFn &&WriteDeterministicBench,
              TimingFn &&WriteTimingBench) {
    if (!enabled())
      return;
    Rec.stop();

    std::ofstream TraceOut(Path);
    if (!TraceOut) {
      std::cerr << "error: cannot write trace file: " << Path << "\n";
      return;
    }
    Rec.writeChromeTrace(TraceOut);

    std::string ReportPath = reportPathFor(Path);
    std::ofstream ReportOut(ReportPath);
    if (!ReportOut) {
      std::cerr << "error: cannot write run report: " << ReportPath << "\n";
      return;
    }
    JsonWriter J(ReportOut);
    J.beginObject();
    J.key("schema");
    J.value("intro-bench-report-v1");
    J.key("deterministic");
    J.beginObject();
    J.key("trace");
    Rec.writeDeterministicSummary(J);
    J.key("bench");
    WriteDeterministicBench(J);
    J.endObject();
    J.key("timing");
    J.beginObject();
    J.key("span_seconds");
    J.beginObject();
    for (const auto &[Name, Summary] : Rec.spans()) {
      J.key(Name);
      J.value(static_cast<double>(Summary.TotalNs) / 1e9);
    }
    J.endObject();
    J.key("bench");
    WriteTimingBench(J);
    J.endObject();
    J.endObject();
    ReportOut << '\n';
    std::cout << "\ntrace written: " << Path << "\nrun report: " << ReportPath
              << "\n";
  }

private:
  std::string Path;
  trace::Recorder Rec;
};

} // namespace intro::bench

#endif // BENCH_BENCHCOMMON_H
