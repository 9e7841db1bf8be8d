//===- introspect/Resilient.h - Degradation-ladder driver -------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A resilience layer around the solver and the introspective driver.  The
/// paper's central observation is that deep context-sensitive analyses are
/// *bimodal*: they either scale or explode.  A service cannot simply report
/// "TupleBudgetExceeded" and return a useless result; it must degrade to the
/// strongest analysis that completes.  runResilient() first runs the
/// context-insensitive pre-analysis (Pass A, via runPassA in Driver.h — the
/// same path runIntrospective uses, Pass-A cache included), then walks a
/// ladder of progressively cheaper configurations:
///
///   1. the refined deep analysis as given (e.g. plain 2objH), under a
///      tuple cap derived from Pass A's size (deepTupleCap) — the paper's
///      §3 point that the cheap pass tells scaling runs from exploding ones.
///      When Pass A's DeepTuplesEstimate predicts more than DeepSkipFactor
///      times that cap (skipDeepRung), the rung is not run at all: the trace
///      records it as TupleBudgetExceeded with zero stats,
///   2. introspective Heuristic B (sacrifices the least precision),
///   3. introspective Heuristic A (more aggressive),
///   4. Heuristic A with exponentially tightened thresholds (round r
///      divides K/L/M by 4^r, excluding ever more elements from
///      refinement),
///   5. the context-insensitive Pass A result itself (always cheap).
///
/// If Pass A does not complete, the deep rung runs under its absolute
/// budget; the introspective rungs need Pass A's metrics and are skipped.
///
/// Every attempt — including failed ones — is recorded in an AttemptTrace;
/// the outcome carries the deepest completed result tagged with its
/// DegradationLevel.
///
/// Deterministic fault injection (FaultPlan, per rung) lets tests exercise
/// every rung without constructing programs that genuinely blow up.
///
//===----------------------------------------------------------------------===//

#ifndef INTROSPECT_RESILIENT_H
#define INTROSPECT_RESILIENT_H

#include "introspect/Driver.h"

#include <array>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace intro {

class JsonValue;
class JsonWriter;

/// The rungs of the degradation ladder, in descending analysis strength.
/// Also indexes ResilientOptions::LevelFaults.
enum class DegradationLevel : uint8_t {
  Deep = 0,        ///< The refined policy as given, no introspection.
  IntroB,          ///< Introspective Heuristic B.
  IntroA,          ///< Introspective Heuristic A.
  TightenedIntroA, ///< Heuristic A with backoff-tightened thresholds.
  Insensitive,     ///< The context-insensitive pre-analysis itself.
};

/// Number of DegradationLevel values.
inline constexpr size_t NumDegradationLevels = 5;

/// \returns a stable human-readable name for \p Level.
const char *degradationLevelName(DegradationLevel Level);

/// Inverse of degradationLevelName: \returns true and stores into \p Level
/// when \p Name matches a level name exactly.  Used when decoding reports.
bool degradationLevelFromName(std::string_view Name, DegradationLevel &Level);

/// One solver attempt of a resilient run, completed or not.
struct Attempt {
  DegradationLevel Level;   ///< The rung this attempt belongs to.
  std::string AnalysisName; ///< Solver-reported analysis name.
  SolveStatus Status;       ///< How the attempt ended.
  SolverStats Stats;        ///< Full solver counters of the attempt.
  double Seconds = 0;       ///< Wall-clock cost of the attempt.
  /// For TightenedIntroA: the 1-based tightening round; 0 otherwise.
  uint32_t TightenedRound = 0;
};

/// The chronological record of every attempt of a resilient run.  Note the
/// insensitive pre-analysis runs *first* (before the deep attempt), because
/// its size caps the deep rung and the introspective rungs need its result;
/// it is recorded at that position with Level == Insensitive.
using AttemptTrace = std::vector<Attempt>;

/// Options of a resilient run.
struct ResilientOptions {
  /// Absolute budget of the deep (rung 1) attempt.  When Pass A completes,
  /// the attempt's tuple limit is further capped by deepTupleCap, and the
  /// attempt is skipped when skipDeepRung predicts it passes that cap.
  SolveBudget DeepBudget;
  /// Budget of each introspective second pass (rungs 2-4).
  SolveBudget RefinedBudget;
  /// Budget of the context-insensitive pre-analysis / final rung.
  SolveBudget FirstPassBudget;

  /// Rungs can be skipped, e.g. a service that knows the deep analysis
  /// never scales on its workload starts directly at an introspective rung.
  bool AttemptDeep = true;
  bool AttemptIntroB = true;
  bool AttemptIntroA = true;
  /// How many tightened-Heuristic-A rounds to try before giving up and
  /// falling back to the insensitive result.  Round r divides ParamsA's
  /// K/L/M thresholds by 4^r.
  uint32_t TightenedRounds = 2;

  /// Heuristic thresholds of the first IntroA/IntroB rungs.
  HeuristicAParams ParamsA;
  HeuristicBParams ParamsB;

  /// What the deep, introspective and tightened rungs and the Insensitive
  /// fallback assemble: Stats or Projections.  The ladder reads only their
  /// status, name and stats, so by default they skip the heap projections;
  /// a caller that reads Outcome.Result's projections asks for
  /// Projections.  The ladder never dumps tuples: Tuples assembles as
  /// Projections.  Pass A always assembles Projections, because the
  /// metrics read them.  Not written by writeResilientOptionsJson.
  Assembly Assemble = Assembly::Stats;

  /// Fired just before each rung's solver attempt starts (the rung level
  /// and, for TightenedIntroA, the 1-based tightening round).  The
  /// supervision layer uses this from a forked child to stream per-rung
  /// progress over its report pipe, so a parent that sees the child die a
  /// hard death (segfault, OOM kill, watchdog) knows the rung the child was
  /// in and can resume the ladder strictly below it.
  std::function<void(DegradationLevel Level, uint32_t TightenedRound)>
      OnRungStart;

  /// Ignored; the ladder is sequential. Kept only because perfbench/driver
  /// assigns it; deleted with the next benchmark change.
  bool Portfolio = false;
  /// Ignored; the ladder is sequential. Kept only because perfbench/driver
  /// assigns it; deleted with the next benchmark change.
  unsigned Workers = 0;

  /// Optional content-addressed Pass-A store (runtime-only, like
  /// OnRungStart: never serialized by writeResilientOptionsJson; a
  /// supervisor re-creates it in the child from its own --cache-dir),
  /// handed to runPassA.  When both Cache and CacheKey are set, the
  /// insensitive pre-analysis probes the cache: a hit restores the stored
  /// summary and metrics — every introspective rung then shares the cached
  /// Pass A, and an escalateBelow relaunch reloads instead of re-solving —
  /// while a completed miss is stored for the next run.  The Insensitive
  /// fallback returns the summary under Assembly::Stats, and otherwise
  /// re-solves it without the cache.  The trace row of a
  /// cache-served pre-analysis carries the *stored* solver stats, so the
  /// deterministic report columns are identical to a cold run's.  The
  /// cache is bypassed while the Insensitive fault plan is armed, so
  /// fault injection is never masked by a warm entry.
  cache::ResultCache *Cache = nullptr;
  const cache::Fingerprint *CacheKey = nullptr;

  /// Deterministic fault injection, indexed by DegradationLevel (tests
  /// only; inert by default).  The Insensitive entry applies to the
  /// pre-analysis run.  The TightenedIntroA entry applies to every
  /// tightening round.
  std::array<FaultPlan, NumDegradationLevels> LevelFaults{};

  /// \returns the fault plan of \p Level.
  const FaultPlan &faultsFor(DegradationLevel Level) const {
    return LevelFaults[static_cast<size_t>(Level)];
  }
  FaultPlan &faultsFor(DegradationLevel Level) {
    return LevelFaults[static_cast<size_t>(Level)];
  }
};

/// Everything a resilient run produces.
struct ResilientOutcome {
  /// The deepest completed result — or, if every rung failed, Pass A's
  /// partial result, whose Status says why — assembled as
  /// ResilientOptions::Assemble asks: under Assembly::Stats it holds what a
  /// cache summary holds, and may be one.
  PointsToResult Result;
  /// The rung Result came from.
  DegradationLevel Level = DegradationLevel::Insensitive;
  /// Chronological record of every attempt, completed or not.
  AttemptTrace Trace;
  /// Metrics of the insensitive pre-analysis whenever it completed, deep
  /// wins included; empty vectors otherwise.
  IntrospectionMetrics Metrics;
  /// Refinement exceptions of the winning introspective rung; empty for
  /// Deep / Insensitive outcomes.
  RefinementExceptions Exceptions;
  /// Cost of computing the introspection metrics (0 when Pass A did not
  /// complete or was served from the cache).
  double MetricSeconds = 0;
  /// Total wall-clock of the whole ladder (attempts + metrics).
  double TotalSeconds = 0;

  /// \returns true if Result is a completed (fixpoint) analysis.
  bool completed() const { return isCompleted(Result.Status); }
};

/// The deep rung's cap relative to Pass A (DESIGN.md §6).  Completed 2objH
/// runs stay within a few times their Pass-A tuple count; exploding ones
/// pass DeepCapRatio times it long before the absolute budget.
inline constexpr uint64_t DeepCapRatio = 10;
/// Below this many tuples the deep rung is cheap, so no ratio applies.
inline constexpr uint64_t DeepCapFloorTuples = 2'000'000;

/// \returns the tuple limit of the deep rung after a completed Pass A of
/// \p PassATuples (VarPointsTo + FldPointsTo) tuples:
/// min(Absolute.MaxTuples, max(DeepCapFloorTuples, DeepCapRatio *
/// PassATuples)), the product saturating instead of wrapping.
uint64_t deepTupleCap(const SolveBudget &Absolute, uint64_t PassATuples);

/// The deep rung is skipped when Pass A predicts more than this many times
/// the tuples of its cap (DESIGN.md §6).  Completed 2objH runs predict at
/// most about 1× their cap; exploding ones 3× and more.
inline constexpr uint64_t DeepSkipFactor = 2;

/// \returns true if the ladder skips a deep rung capped at \p DeepCap
/// tuples: Pass A ended with \p PassAStatus completed and its
/// DeepTuplesEstimate \p Estimate exceeds DeepSkipFactor × DeepCap (the
/// product saturating).
bool skipDeepRung(SolveStatus PassAStatus, uint64_t Estimate,
                  uint64_t DeepCap);

/// Writes the deterministic part of \p Outcome as one JSON object: winning
/// level/analysis/status, the completion flag, the winner's solver
/// counters, Pass A's `deep_estimate` (0 when it did not complete), and
/// the attempt trace where each attempt carries a `"won"` flag
/// (exactly one attempt wins unless nothing completed).  No wall-clock
/// value is written, so two runs of the same job give the same bytes;
/// writeResilientTimingJson writes the rest.
void writeResilientOutcomeJson(JsonWriter &J, const ResilientOutcome &Outcome);

/// Writes the wall-clock part of \p Outcome as one JSON object:
/// `total_seconds`, `metric_seconds`, and `attempt_seconds` (one value per
/// trace row, in trace order).  A run report places it in its `timing`
/// section, next to the deterministic writeResilientOutcomeJson object.
void writeResilientTimingJson(JsonWriter &J, const ResilientOutcome &Outcome);

/// Writes the *configuration* part of \p Options as one JSON object —
/// budgets, rung toggles, tightening rounds, heuristic parameters, and
/// any armed fault plans — so a run report records the ladder it ran.
/// Runtime-only members (OnRungStart, Cache), Assemble and the two
/// ignored fields are not represented.  The JSON is a record, not a transport: a
/// supervised child is forked and inherits its options in memory.
void writeResilientOptionsJson(JsonWriter &J, const ResilientOptions &Options);

/// Decodes the `attempts` array of writeResilientOutcomeJson (as embedded
/// in `intro-run-report-v1` reports) back into an AttemptTrace, so the
/// supervisor can splice a child's partial ladder history into the batch
/// report.  The `"won"` member is accepted and ignored; the report carries
/// no wall clock, so every Seconds stays 0.  \returns false
/// and sets \p Error on malformed input; \p Trace then holds the attempts
/// decoded before the error.
bool parseAttemptTraceJson(const JsonValue &Value, AttemptTrace &Trace,
                           std::string &Error);

/// Runs the degradation ladder on \p Prog with \p RefinedPolicy (e.g.
/// 2objH) as the deep rung, returning the deepest analysis that completes
/// within its budget.
ResilientOutcome
runResilient(const Program &Prog, const ContextPolicy &RefinedPolicy,
             const ResilientOptions &Options = ResilientOptions());

} // namespace intro

#endif // INTROSPECT_RESILIENT_H
