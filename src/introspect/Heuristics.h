//===- introspect/Heuristics.h - Heuristics A and B -------------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's two heuristic combinations of the Section 3 cost metrics.
/// Each maps the metrics of the context-insensitive first pass to the set
/// of program elements that should *not* be refined (complement form):
///
///   Heuristic A — refine all allocation sites except those with
///   pointed-by-vars > K; refine all call sites except those with in-flow
///   > L or whose target method has max var-field points-to > M.
///   Paper defaults: K=100, L=100, M=200.
///
///   Heuristic B — refine all call sites except those invoking methods with
///   total points-to volume > P; refine all allocations except those whose
///   (total field points-to x pointed-by-vars) product exceeds Q.
///   Paper defaults: P=Q=10000.
///
//===----------------------------------------------------------------------===//

#ifndef INTROSPECT_HEURISTICS_H
#define INTROSPECT_HEURISTICS_H

#include "analysis/ContextPolicy.h"
#include "introspect/Metrics.h"

namespace intro {

class Program;
class PointsToResult;

/// Tunable constants of Heuristic A (paper Section 3).
struct HeuristicAParams {
  uint64_t K = 100; ///< pointed-by-vars threshold for objects.
  uint64_t L = 100; ///< in-flow threshold for call sites.
  uint64_t M = 200; ///< max var-field points-to threshold for targets.
};

/// Tunable constants of Heuristic B (paper Section 3).
struct HeuristicBParams {
  uint64_t P = 10000; ///< total points-to volume threshold for targets.
  uint64_t Q = 10000; ///< (total field pts x pointed-by-vars) threshold.
};

/// Which heuristic an introspective run uses.
enum class HeuristicKind : uint8_t { A, B };

/// Applies Heuristic A: applyCustomHeuristic with heuristicASpec(Params)
/// (introspect/Custom.h).  \p Insens must be the first-pass result that
/// \p Metrics was computed from, or its cache summary: only its call
/// targets are read.
RefinementExceptions applyHeuristicA(const Program &Prog,
                                     const PointsToResult &Insens,
                                     const IntrospectionMetrics &Metrics,
                                     const HeuristicAParams &Params = {});

/// Applies Heuristic B: applyCustomHeuristic with heuristicBSpec(Params).
RefinementExceptions applyHeuristicB(const Program &Prog,
                                     const PointsToResult &Insens,
                                     const IntrospectionMetrics &Metrics,
                                     const HeuristicBParams &Params = {});

/// Statistics matching the paper's Figure 4: how many call sites / objects
/// were selected to not be refined, as a share of the refinable population.
struct RefinementStats {
  uint64_t TotalCallSites = 0;    ///< Call sites in reachable methods.
  uint64_t ExcludedCallSites = 0; ///< ... selected to not be refined.
  uint64_t TotalObjects = 0;      ///< Allocation sites in reachable methods.
  uint64_t ExcludedObjects = 0;   ///< ... selected to not be refined.

  double callSitePercent() const {
    return TotalCallSites == 0
               ? 0.0
               : 100.0 * static_cast<double>(ExcludedCallSites) /
                     static_cast<double>(TotalCallSites);
  }
  double objectPercent() const {
    return TotalObjects == 0 ? 0.0
                             : 100.0 * static_cast<double>(ExcludedObjects) /
                                   static_cast<double>(TotalObjects);
  }
};

/// Computes Figure 4-style statistics for \p Exceptions.
RefinementStats computeRefinementStats(const Program &Prog,
                                       const PointsToResult &Insens,
                                       const RefinementExceptions &Exceptions);

} // namespace intro

#endif // INTROSPECT_HEURISTICS_H
