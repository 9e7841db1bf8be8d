//===- analysis/Result.h - Points-to analysis results -----------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output of one solver run: status (completed or budget-exhausted, the
/// moral equivalent of the paper's 90-minute timeout), size statistics, the
/// context-insensitive projections every client consumes, and — optionally —
/// the full context-sensitive tuple dump used by the Datalog oracle tests.
/// SolverOptions::Assemble (an Assembly) picks how much of it a run fills.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_RESULT_H
#define ANALYSIS_RESULT_H

#include "support/Ids.h"
#include "support/SetUtils.h"

#include <algorithm>
#include <array>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace intro {

/// Why the solver stopped.
enum class SolveStatus : uint8_t {
  Completed,            ///< Fixpoint reached.
  TupleBudgetExceeded,  ///< Relation sizes blew past the budget ("timeout").
  TimeBudgetExceeded,   ///< Wall clock blew past the budget ("timeout").
  MemoryBudgetExceeded, ///< Metered solver footprint blew past MaxBytes.
};

/// \returns true if \p Status denotes a completed (non-timeout) run.
inline bool isCompleted(SolveStatus Status) {
  return Status == SolveStatus::Completed;
}

/// \returns a stable human-readable name for \p Status.
inline const char *statusName(SolveStatus Status) {
  switch (Status) {
  case SolveStatus::Completed:
    return "Completed";
  case SolveStatus::TupleBudgetExceeded:
    return "TupleBudgetExceeded";
  case SolveStatus::TimeBudgetExceeded:
    return "TimeBudgetExceeded";
  case SolveStatus::MemoryBudgetExceeded:
    return "MemoryBudgetExceeded";
  }
  return "?";
}

/// Inverse of statusName: \returns true and stores into \p Status when
/// \p Name matches a status name exactly.  Used when decoding reports.
inline bool statusFromName(std::string_view Name, SolveStatus &Status) {
  static constexpr SolveStatus All[] = {
      SolveStatus::Completed, SolveStatus::TupleBudgetExceeded,
      SolveStatus::TimeBudgetExceeded, SolveStatus::MemoryBudgetExceeded};
  for (SolveStatus Candidate : All)
    if (Name == statusName(Candidate)) {
      Status = Candidate;
      return true;
    }
  return false;
}

/// How much of a PointsToResult a solver run assembles; each level fills
/// the members of the one before it and more.  The counters are the same
/// at every level.
enum class Assembly : uint8_t {
  /// Status, AnalysisName, Stats, MethodReachable and SiteTargets: what a
  /// Pass-A cache summary holds.  The four heap projections stay empty.
  Stats,
  /// Also VarHeaps, FieldHeaps, StaticFieldHeaps and MethodThrows.
  Projections,
  /// Also the context-sensitive tuple dumps (VarPointsTo ...).
  Tuples,
};

/// Resource budget for a solver run.  Exceeding any limit aborts the run
/// with the matching exhaustion status; the paper's blow-ups are detected
/// primarily via the (machine-independent) tuple limit.
struct SolveBudget {
  uint64_t MaxTuples = 100'000'000; ///< VarPointsTo + FldPointsTo tuples.
  double MaxSeconds = 300.0;        ///< Wall-clock limit.
  /// Solver heap footprint limit in bytes: the peak of the bytes its
  /// containers request (support/Meter.h).  0 disables the limit.
  uint64_t MaxBytes = 0;
};

/// Size/performance counters of a solver run.
struct SolverStats {
  double Seconds = 0.0;
  uint64_t VarPointsToTuples = 0;   ///< Context-sensitive |VARPOINTSTO|.
  uint64_t FieldPointsToTuples = 0; ///< Context-sensitive |FLDPOINTSTO|.
  uint64_t ThrowPointsToTuples = 0; ///< Context-sensitive |THROWPOINTSTO|.
  uint64_t StaticFieldTuples = 0;   ///< |SFLDPOINTSTO|.
  uint64_t NumVarNodes = 0;         ///< Distinct (var, ctx) pairs.
  uint64_t NumFieldNodes = 0;       ///< Distinct (object, field) pairs.
  uint64_t NumObjects = 0;          ///< Distinct (heap, hctx) pairs.
  uint64_t NumContexts = 0;         ///< |C| materialized.
  uint64_t NumHeapContexts = 0;     ///< |HC| materialized.
  uint64_t ReachableMethodContexts = 0; ///< |REACHABLE| (meth, ctx) pairs.
  uint64_t CallGraphEdges = 0;      ///< Insensitive (site, target) edges.
  uint64_t WorklistPops = 0;        ///< Solver iterations.
  uint64_t ApproxBytes = 0;         ///< Peak metered solver footprint.

  // In-memory-only propagation diagnostics (see SolverStatsFields).
  uint64_t BatchUnions = 0;    ///< Whole-delta set unions (batched edges).
  uint64_t ElementProbes = 0;  ///< Single-element insert attempts.
  uint64_t DistinctPointsToSets = 0; ///< Distinct sets nodes' Pts name.
  uint64_t MemoHits = 0; ///< Unions and filters the set memo answered.
};

/// The persisted counters with their JSON names, in order: the single table
/// the stats JSON (Reports.cpp) and the Pass-A cache entry (ResultCache.cpp)
/// walk; neither stores Seconds.  The order is part of the on-disk entry
/// format, so adding a row orphans every entry written by earlier builds.
/// The propagation diagnostics (BatchUnions, ElementProbes,
/// DistinctPointsToSets, MemoHits) are deliberately not listed: they
/// describe how the fixpoint was computed, not what it is, so they read as
/// zero on a cache hit and stay out of reports that must be byte-identical
/// between a cold solve and a cache-warm replay.
inline constexpr std::pair<const char *, uint64_t SolverStats::*>
    SolverStatsFields[] = {
        {"var_points_to_tuples", &SolverStats::VarPointsToTuples},
        {"field_points_to_tuples", &SolverStats::FieldPointsToTuples},
        {"throw_points_to_tuples", &SolverStats::ThrowPointsToTuples},
        {"static_field_tuples", &SolverStats::StaticFieldTuples},
        {"var_nodes", &SolverStats::NumVarNodes},
        {"field_nodes", &SolverStats::NumFieldNodes},
        {"objects", &SolverStats::NumObjects},
        {"contexts", &SolverStats::NumContexts},
        {"heap_contexts", &SolverStats::NumHeapContexts},
        {"reachable_method_contexts", &SolverStats::ReachableMethodContexts},
        {"call_graph_edges", &SolverStats::CallGraphEdges},
        {"worklist_pops", &SolverStats::WorklistPops},
        {"approx_bytes", &SolverStats::ApproxBytes},
};

/// One (base heap, field) cell of PointsToResult::FieldHeaps: the heaps
/// stored in \p Field of any object allocated at \p BaseHeap, contexts
/// collapsed.
struct FieldCell {
  uint32_t BaseHeap = 0; ///< Raw HeapId of the base object.
  uint32_t Field = 0;    ///< Raw FieldId.
  SharedIdSet Heaps;     ///< Raw HeapIds.

  std::pair<uint32_t, uint32_t> key() const { return {BaseHeap, Field}; }
  bool operator==(const FieldCell &) const = default;
};

/// The result of a points-to analysis run.  Every projection is indexed by
/// a dense id or sorted by one, so equal results hold equal sets and
/// iterate in the same order.  The four heap projections are SharedIdSets:
/// targets whose nodes name one points-to set share one payload (so their
/// accessors may answer one address), and copies of a result share its
/// payloads.  Under Assembly::Stats the four heap projections are empty,
/// and the accessors answer the empty set.
class PointsToResult {
public:
  SolveStatus Status = SolveStatus::Completed;
  SolverStats Stats;
  std::string AnalysisName;

  /// Per-variable points-to set, projected to allocation sites (contexts
  /// collapsed).  Indexed by VarId; values are raw HeapIds.
  std::vector<SharedIdSet> VarHeaps;

  /// Per-(base heap, field) points-to sets, contexts collapsed: one cell
  /// per pair that has a field node (empty cells included), sorted by
  /// (BaseHeap, Field) with no two cells sharing a pair.
  std::vector<FieldCell> FieldHeaps;

  /// Reachability per method (in any context).
  std::vector<bool> MethodReachable;

  /// Per-static-field points-to set, contexts collapsed.  Indexed by
  /// FieldId; values are raw HeapIds.
  std::vector<SharedIdSet> StaticFieldHeaps;

  /// Per-method escaping-exception set, contexts collapsed.  Indexed by
  /// MethodId; values are raw HeapIds.
  std::vector<SharedIdSet> MethodThrows;

  /// Per-call-site resolved targets (contexts collapsed).  Indexed by
  /// SiteId; values are raw MethodIds.  Static sites have exactly their
  /// fixed target once their caller is reachable.
  std::vector<SortedIdSet> SiteTargets;

  /// Full tuple dumps; populated only under Assembly::Tuples.
  /// VARPOINTSTO(var, ctx, heap, hctx)
  std::vector<std::array<uint32_t, 4>> VarPointsTo;
  /// FLDPOINTSTO(baseHeap, baseHCtx, fld, heap, hctx)
  std::vector<std::array<uint32_t, 5>> FieldPointsTo;
  /// REACHABLE(meth, ctx)
  std::vector<std::array<uint32_t, 2>> Reachable;
  /// CALLGRAPH(invo, callerCtx, meth, calleeCtx)
  std::vector<std::array<uint32_t, 4>> CallGraph;
  /// THROWPOINTSTO(meth, ctx, heap, hctx)
  std::vector<std::array<uint32_t, 4>> ThrowPointsTo;
  /// SFLDPOINTSTO(fld, heap, hctx)
  std::vector<std::array<uint32_t, 3>> StaticFieldPointsTo;

  /// \returns true if \p Method is reachable in any context.
  bool isReachable(MethodId Method) const {
    return Method.raw() < MethodReachable.size() &&
           MethodReachable[Method.raw()];
  }

  /// \returns the heaps that \p Var may point to (contexts collapsed).
  /// Out-of-range (or invalid) ids yield the shared empty set.
  const SortedIdSet &pointsTo(VarId Var) const {
    return Var.raw() < VarHeaps.size() ? VarHeaps[Var.raw()].get()
                                       : emptySet();
  }

  /// \returns the methods that the call at \p Site may invoke.
  /// Out-of-range (or invalid) ids yield the shared empty set.
  const SortedIdSet &callTargets(SiteId Site) const {
    return Site.raw() < SiteTargets.size() ? SiteTargets[Site.raw()]
                                           : emptySet();
  }

  /// \returns the heaps stored in \p Field of objects allocated at
  /// \p BaseHeap (contexts collapsed); the shared empty set when no such
  /// cell exists.  A binary search over FieldHeaps.
  const SortedIdSet &fieldPointsTo(HeapId BaseHeap, FieldId Field) const {
    std::pair Key(BaseHeap.raw(), Field.raw());
    auto It = std::ranges::lower_bound(FieldHeaps, Key, {}, &FieldCell::key);
    return It != FieldHeaps.end() && It->key() == Key ? It->Heaps.get()
                                                      : emptySet();
  }

  /// \returns the heaps static field \p Field may point to.
  /// Out-of-range (or invalid) ids yield the shared empty set.
  const SortedIdSet &staticPointsTo(FieldId Field) const {
    return Field.raw() < StaticFieldHeaps.size()
               ? StaticFieldHeaps[Field.raw()].get()
               : emptySet();
  }

  /// \returns the exception objects escaping \p Method (ctxs collapsed).
  /// Out-of-range (or invalid) ids yield the shared empty set.
  const SortedIdSet &throwsOf(MethodId Method) const {
    return Method.raw() < MethodThrows.size()
               ? MethodThrows[Method.raw()].get()
               : emptySet();
  }

  /// The shared empty set returned for ids outside the analyzed program
  /// and for empty projections: emptyIdSet(), a function-local `static
  /// const` that concurrent readers — e.g. clients querying a result from
  /// several threads — can all hold references to without synchronization.
  static const SortedIdSet &emptySet() { return emptyIdSet(); }
};

} // namespace intro

#endif // ANALYSIS_RESULT_H
