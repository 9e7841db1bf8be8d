//===- introspect/Resilient.cpp - Degradation-ladder driver ---------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "introspect/Resilient.h"

#include "analysis/Reports.h"
#include "ir/Program.h"
#include "support/Json.h"
#include "support/Overflow.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cmath>
#include <utility>

using namespace intro;

const char *intro::degradationLevelName(DegradationLevel Level) {
  switch (Level) {
  case DegradationLevel::Deep:
    return "deep";
  case DegradationLevel::IntroB:
    return "introB";
  case DegradationLevel::IntroA:
    return "introA";
  case DegradationLevel::TightenedIntroA:
    return "introA-tightened";
  case DegradationLevel::Insensitive:
    return "insensitive";
  }
  return "?";
}

bool intro::degradationLevelFromName(std::string_view Name,
                                     DegradationLevel &Level) {
  static constexpr DegradationLevel All[] = {
      DegradationLevel::Deep, DegradationLevel::IntroB,
      DegradationLevel::IntroA, DegradationLevel::TightenedIntroA,
      DegradationLevel::Insensitive};
  for (DegradationLevel Candidate : All)
    if (Name == degradationLevelName(Candidate)) {
      Level = Candidate;
      return true;
    }
  return false;
}

namespace {

/// Static-storage span name of one ladder rung (trace event names must
/// outlive the recorder; see support/Trace.h).
const char *rungSpanName(DegradationLevel Level) {
  switch (Level) {
  case DegradationLevel::Deep:
    return "rung.deep";
  case DegradationLevel::IntroB:
    return "rung.introB";
  case DegradationLevel::IntroA:
    return "rung.introA";
  case DegradationLevel::TightenedIntroA:
    return "rung.introA_tightened";
  case DegradationLevel::Insensitive:
    return "rung.insensitive";
  }
  return "rung.unknown";
}

/// Each tightening round divides Heuristic A's K/L/M thresholds by this
/// factor once more (exponential backoff).
constexpr double TighteningFactor = 4.0;

/// Divides every Heuristic A threshold by TighteningFactor^Round.  Past
/// the double range the factor is inf and every threshold drops to 0.
HeuristicAParams tightened(const HeuristicAParams &Base, uint32_t Round) {
  double Factor = std::pow(TighteningFactor, Round);
  HeuristicAParams Params;
  Params.K = static_cast<uint64_t>(static_cast<double>(Base.K) / Factor);
  Params.L = static_cast<uint64_t>(static_cast<double>(Base.L) / Factor);
  Params.M = static_cast<uint64_t>(static_cast<double>(Base.M) / Factor);
  return Params;
}

/// The solver options of one rung's attempt, polling the caller's token.
SolverOptions rungSolverOptions(const ResilientOptions &Options,
                                DegradationLevel Level,
                                const SolveBudget &Budget) {
  SolverOptions SolverOpts;
  SolverOpts.Budget = Budget;
  SolverOpts.Cancel = Options.Cancel;
  SolverOpts.Faults = Options.faultsFor(Level);
  return SolverOpts;
}

/// Pass A's solver options: its budget, the caller's token and the
/// Insensitive fault plan.
SolverOptions passASolverOptions(const ResilientOptions &Options) {
  return rungSolverOptions(Options, DegradationLevel::Insensitive,
                           Options.FirstPassBudget);
}

/// Pass A as the fallback outcome: a cache \p Summary is re-solved without
/// the cache.  A cancelled run keeps the summary, also when the token
/// stops the re-solve, which sets \p Cancelled.
PointsToResult insensitiveFallback(const Program &Prog,
                                   const ResilientOptions &Options,
                                   PointsToResult PassA, bool Summary,
                                   bool &Cancelled) {
  if (!Summary || Cancelled)
    return PassA;
  trace::ScopedSpan Span(rungSpanName(DegradationLevel::Insensitive));
  ContextTable Table;
  PointsToResult Full = solvePointsTo(Prog, *makeInsensitivePolicy(), Table,
                                      passASolverOptions(Options));
  Cancelled = Full.Status == SolveStatus::Cancelled;
  return Cancelled ? std::move(PassA) : std::move(Full);
}

/// The deep rung's budget: \p Absolute, its tuple limit capped by
/// deepTupleCap when \p PassA completed.
SolveBudget deepBudget(const SolveBudget &Absolute,
                       const PointsToResult &PassA) {
  SolveBudget Budget = Absolute;
  if (isCompleted(PassA.Status))
    Budget.MaxTuples =
        deepTupleCap(Absolute, PassA.Stats.VarPointsToTuples +
                                   PassA.Stats.FieldPointsToTuples);
  return Budget;
}

/// The trace result of a deep rung that skipDeepRung skipped: the cap it
/// was predicted to pass, no solver work.
PointsToResult skippedDeepResult(const ContextPolicy &Refined) {
  PointsToResult R;
  R.AnalysisName = Refined.name();
  R.Status = SolveStatus::TupleBudgetExceeded;
  return R;
}

/// Shared per-run state of the ladder walk.
class Ladder {
public:
  Ladder(const Program &Prog, const ContextPolicy &RefinedPolicy,
         const ResilientOptions &Options)
      : Prog(Prog), Refined(RefinedPolicy), Options(Options) {}

  ResilientOutcome run() {
    Timer Total;
    auto Insensitive = makeInsensitivePolicy();

    // Pass A first: its size caps the deep rung, every introspective rung
    // needs its metrics, and it is the ladder's last resort.  It may be
    // reloaded from the Pass-A cache, in which case the trace row carries
    // the *stored* solver stats, so its deterministic columns match a cold
    // run's.  The rung "starts" either way: supervision learns via
    // OnRungStart that the pre-analysis is underway.
    if (Options.OnRungStart)
      Options.OnRungStart(DegradationLevel::Insensitive, 0);
    PassAOutcome PassA =
        runPassA(Prog, passASolverOptions(Options), Options.Cache,
                 Options.CacheKey, rungSpanName(DegradationLevel::Insensitive));
    PointsToResult &FirstPass = PassA.Insens;
    Out.Trace.push_back({DegradationLevel::Insensitive,
                         FirstPass.AnalysisName, FirstPass.Status,
                         FirstPass.Stats, PassA.Seconds, 0});
    bool PassAOk = isCompleted(FirstPass.Status);
    if (PassAOk) {
      Out.Metrics = std::move(PassA.Metrics);
      Out.MetricSeconds = PassA.MetricSeconds;
    } else if (FirstPass.Status == SolveStatus::Cancelled) {
      Out.Cancelled = true;
      Stopped = true;
    }

    // Rung 1: the refined deep analysis as given, capped by Pass A's size,
    // or recorded as over that cap when Pass A predicts it explodes.
    if (Options.AttemptDeep && !ladderCancelled()) {
      SolveBudget Budget = deepBudget(Options.DeepBudget, FirstPass);
      if (skipDeepRung(FirstPass.Status, Out.Metrics.DeepTuplesEstimate,
                       Budget.MaxTuples)) {
        PointsToResult R = skippedDeepResult(Refined);
        Out.Trace.push_back({DegradationLevel::Deep, R.AnalysisName, R.Status,
                             R.Stats, 0, 0});
      } else if (finished(DegradationLevel::Deep,
                          attempt(DegradationLevel::Deep, Refined, Budget))) {
        return seal(Total);
      }
    }

    // The introspective rungs need the metrics of a completed Pass A.
    if (PassAOk && !Stopped && introRungsWin(FirstPass, *Insensitive))
      return seal(Total);

    // Every refined rung failed (or the ladder was cancelled): fall back to
    // Pass A — completed, or the partial result whose Status says why.
    Out.Result = insensitiveFallback(Prog, Options, std::move(FirstPass),
                                     PassA.Summary, Out.Cancelled);
    Out.Level = DegradationLevel::Insensitive;
    Out.Exceptions = RefinementExceptions();
    return seal(Total);
  }

private:
  /// Walks the introspective rungs on \p FirstPass's metrics.  \returns
  /// true if one completed.
  bool introRungsWin(const PointsToResult &FirstPass,
                     const ContextPolicy &Insensitive) {
    if (Options.AttemptIntroB &&
        introAttempt(DegradationLevel::IntroB, "-IntroB",
                     applyHeuristicB(Prog, FirstPass, Out.Metrics,
                                     Options.ParamsB),
                     Insensitive))
      return true;

    if (!Stopped && Options.AttemptIntroA &&
        introAttempt(DegradationLevel::IntroA, "-IntroA",
                     applyHeuristicA(Prog, FirstPass, Out.Metrics,
                                     Options.ParamsA),
                     Insensitive))
      return true;

    for (uint32_t Round = 1; !Stopped && Round <= Options.TightenedRounds;
         ++Round) {
      HeuristicAParams Params =
          tightened(Options.ParamsA, Round);
      std::string Suffix = "-IntroA-tight" + std::to_string(Round);
      if (introAttempt(DegradationLevel::TightenedIntroA, Suffix.c_str(),
                       applyHeuristicA(Prog, FirstPass, Out.Metrics, Params),
                       Insensitive, Round))
        return true;
    }
    return false;
  }

  /// Runs one solver attempt and records it in the trace.
  PointsToResult attempt(DegradationLevel Level, const ContextPolicy &Policy,
                         const SolveBudget &Budget, uint32_t Round = 0) {
    ContextTable Table;
    SolverOptions SolverOpts = rungSolverOptions(Options, Level, Budget);
    if (Options.OnRungStart)
      Options.OnRungStart(Level, Round);
    trace::ScopedSpan RungSpan(rungSpanName(Level));
    Timer Clock;
    PointsToResult R = solvePointsTo(Prog, Policy, Table, SolverOpts);
    Out.Trace.push_back(
        {Level, R.AnalysisName, R.Status, R.Stats, Clock.seconds(), Round});
    return R;
  }

  /// If \p R completed, installs it as the outcome (it is the deepest rung
  /// reached so far, by construction).  If \p R was cancelled, stops the
  /// ladder: the caller wants out, not a cheaper answer.  \returns true if
  /// the walk is over with a completed result.
  bool finished(DegradationLevel Level, PointsToResult R,
                RefinementExceptions Exceptions = {}) {
    if (isCompleted(R.Status)) {
      Out.Result = std::move(R);
      Out.Level = Level;
      Out.Exceptions = std::move(Exceptions);
      return true;
    }
    if (R.Status == SolveStatus::Cancelled) {
      Out.Cancelled = true;
      Stopped = true;
    }
    return false;
  }

  /// Between-rung cancellation check: even if no solver poll observed the
  /// token (an attempt shorter than CancelPollInterval iterations), the
  /// ladder must not start another expensive attempt after a cancel.
  bool ladderCancelled() {
    if (!Stopped && Options.Cancel && Options.Cancel->isCancelled()) {
      Out.Cancelled = true;
      Stopped = true;
    }
    return Stopped;
  }

  /// Runs one introspective rung: installs \p Exceptions into the refined
  /// policy and solves under the refined budget.  \returns true if the
  /// ladder is done (rung completed).
  bool introAttempt(DegradationLevel Level, const char *NameSuffix,
                    RefinementExceptions Exceptions,
                    const ContextPolicy &Insensitive, uint32_t Round = 0) {
    if (ladderCancelled())
      return false;
    auto Policy = makeIntrospectivePolicy(Refined.name() + NameSuffix,
                                          Insensitive, Refined, Exceptions);
    PointsToResult R = attempt(Level, *Policy, Options.RefinedBudget, Round);
    return finished(Level, std::move(R), std::move(Exceptions));
  }

  ResilientOutcome seal(const Timer &Total) {
    Out.TotalSeconds = Total.seconds();
    return std::move(Out);
  }

  const Program &Prog;
  const ContextPolicy &Refined;
  const ResilientOptions &Options;
  ResilientOutcome Out;
  bool Stopped = false; ///< Cancellation fired; no further rungs.
};

/// One attempt as a JSON object; \p Won marks the rung the outcome came
/// from.
void writeAttemptJson(JsonWriter &J, const Attempt &A, size_t Index,
                      bool Won) {
  J.beginObject();
  J.key("index");
  J.value(static_cast<uint64_t>(Index + 1));
  J.key("level");
  J.value(degradationLevelName(A.Level));
  J.key("tightened_round");
  J.value(A.TightenedRound);
  J.key("analysis");
  J.value(A.AnalysisName);
  J.key("status");
  J.value(statusName(A.Status));
  J.key("won");
  J.value(Won);
  J.key("stats");
  writeSolverStatsJson(J, A.Stats);
  J.endObject();
}

} // namespace

uint64_t intro::deepTupleCap(const SolveBudget &Absolute,
                             uint64_t PassATuples) {
  return std::min(Absolute.MaxTuples,
                  std::max(DeepCapFloorTuples,
                           saturatingMul(DeepCapRatio, PassATuples)));
}

bool intro::skipDeepRung(SolveStatus PassAStatus, uint64_t Estimate,
                         uint64_t DeepCap) {
  return isCompleted(PassAStatus) &&
         Estimate > saturatingMul(DeepSkipFactor, DeepCap);
}

void intro::writeResilientOutcomeJson(JsonWriter &J,
                                      const ResilientOutcome &Outcome) {
  // The winning attempt: the first trace row that completed on the winning
  // rung under the winning analysis name.  At most one row matches; none
  // match when nothing completed (all-failed or cancelled runs).
  size_t WinnerIndex = Outcome.Trace.size();
  if (Outcome.completed())
    for (size_t Index = 0; Index < Outcome.Trace.size(); ++Index) {
      const Attempt &A = Outcome.Trace[Index];
      if (isCompleted(A.Status) && A.Level == Outcome.Level &&
          A.AnalysisName == Outcome.Result.AnalysisName) {
        WinnerIndex = Index;
        break;
      }
    }

  J.beginObject();
  J.key("level");
  J.value(degradationLevelName(Outcome.Level));
  J.key("analysis");
  J.value(Outcome.Result.AnalysisName);
  J.key("status");
  J.value(statusName(Outcome.Result.Status));
  J.key("completed");
  J.value(Outcome.completed());
  J.key("cancelled");
  J.value(Outcome.Cancelled);
  J.key("stats");
  writeSolverStatsJson(J, Outcome.Result.Stats);
  J.key("deep_estimate");
  J.value(Outcome.Metrics.DeepTuplesEstimate);
  J.key("attempts");
  J.beginArray();
  for (size_t Index = 0; Index < Outcome.Trace.size(); ++Index)
    writeAttemptJson(J, Outcome.Trace[Index], Index, Index == WinnerIndex);
  J.endArray();
  J.endObject();
}

void intro::writeResilientTimingJson(JsonWriter &J,
                                     const ResilientOutcome &Outcome) {
  J.beginObject();
  J.key("total_seconds");
  J.value(Outcome.TotalSeconds);
  J.key("metric_seconds");
  J.value(Outcome.MetricSeconds);
  J.key("attempt_seconds");
  J.beginArray();
  for (const Attempt &A : Outcome.Trace)
    J.value(A.Seconds);
  J.endArray();
  J.endObject();
}

namespace {

/// One SolveBudget as a JSON object.
void writeBudgetJson(JsonWriter &J, const SolveBudget &Budget) {
  J.beginObject();
  J.key("max_tuples");
  J.value(Budget.MaxTuples);
  J.key("max_seconds");
  J.value(Budget.MaxSeconds);
  J.key("max_bytes");
  J.value(Budget.MaxBytes);
  J.endObject();
}

} // namespace

void intro::writeResilientOptionsJson(JsonWriter &J,
                                      const ResilientOptions &Options) {
  J.beginObject();
  J.key("deep_budget");
  writeBudgetJson(J, Options.DeepBudget);
  J.key("refined_budget");
  writeBudgetJson(J, Options.RefinedBudget);
  J.key("first_pass_budget");
  writeBudgetJson(J, Options.FirstPassBudget);
  J.key("attempt_deep");
  J.value(Options.AttemptDeep);
  J.key("attempt_intro_b");
  J.value(Options.AttemptIntroB);
  J.key("attempt_intro_a");
  J.value(Options.AttemptIntroA);
  J.key("tightened_rounds");
  J.value(Options.TightenedRounds);
  J.key("params_a");
  J.beginObject();
  J.key("k");
  J.value(Options.ParamsA.K);
  J.key("l");
  J.value(Options.ParamsA.L);
  J.key("m");
  J.value(Options.ParamsA.M);
  J.endObject();
  J.key("params_b");
  J.beginObject();
  J.key("p");
  J.value(Options.ParamsB.P);
  J.key("q");
  J.value(Options.ParamsB.Q);
  J.endObject();
  // Only armed fault plans are written, keyed by level name.
  J.key("level_faults");
  J.beginArray();
  for (size_t Index = 0; Index < NumDegradationLevels; ++Index) {
    const FaultPlan &Plan = Options.LevelFaults[Index];
    if (!Plan.armed())
      continue;
    J.beginObject();
    J.key("level");
    J.value(degradationLevelName(static_cast<DegradationLevel>(Index)));
    J.key("fail_at_pop");
    J.value(Plan.FailAtPop);
    J.key("fail_status");
    J.value(statusName(Plan.FailStatus));
    J.key("tuple_inflation");
    J.value(Plan.TupleInflation);
    J.endObject();
  }
  J.endArray();
  J.endObject();
}

bool intro::parseAttemptTraceJson(const JsonValue &Value, AttemptTrace &Trace,
                                  std::string &Error) {
  if (!Value.isArray()) {
    Error = "attempt trace: expected an array";
    return false;
  }
  for (size_t Index = 0; Index < Value.elements().size(); ++Index) {
    const JsonValue &Entry = Value.elements()[Index];
    std::string Position = "attempt " + std::to_string(Index + 1);
    if (!Entry.isObject()) {
      Error = Position + ": expected an object";
      return false;
    }
    Attempt A;
    std::string LevelName;
    if (!Entry.getString("level", LevelName) ||
        !degradationLevelFromName(LevelName, A.Level)) {
      Error = Position + ": bad level '" + LevelName + "'";
      return false;
    }
    std::string StatusText;
    if (!Entry.getString("status", StatusText) ||
        !statusFromName(StatusText, A.Status)) {
      Error = Position + ": bad status '" + StatusText + "'";
      return false;
    }
    Entry.getString("analysis", A.AnalysisName);
    uint64_t Round = 0;
    if (Entry.getUint("tightened_round", Round))
      A.TightenedRound = static_cast<uint32_t>(Round);
    if (const JsonValue *Stats = Entry.get("stats"))
      if (!parseSolverStatsJson(*Stats, A.Stats)) {
        Error = Position + ": stats must be an object";
        return false;
      }
    Trace.push_back(std::move(A));
  }
  return true;
}

ResilientOutcome intro::runResilient(const Program &Prog,
                                     const ContextPolicy &RefinedPolicy,
                                     const ResilientOptions &Options) {
  return Ladder(Prog, RefinedPolicy, Options).run();
}
