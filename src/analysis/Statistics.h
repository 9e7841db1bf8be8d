//===- analysis/Statistics.h - Context-growth diagnostics -------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Diagnostics for the failure mode the paper studies: which methods
/// accumulate how many contexts, and which carry the bulk of the
/// VARPOINTSTO tuples.  This is the tool one reaches for when a deep
/// analysis blows up — it points straight at the program elements the
/// introspection heuristics should be catching.
///
/// Requires a result produced under Assembly::Tuples.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_STATISTICS_H
#define ANALYSIS_STATISTICS_H

#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

namespace intro {

class PointsToResult;
class Program;

/// Context-growth statistics of one analysis run.
struct ContextStatistics {
  uint64_t ReachableMethods = 0;
  uint64_t TotalMethodContexts = 0; ///< |REACHABLE| (method, ctx) pairs.
  uint64_t MaxContextsPerMethod = 0;
  double MeanContextsPerMethod = 0.0;
  /// Methods with the most contexts: (raw MethodId, context count), sorted
  /// descending.
  std::vector<std::pair<uint32_t, uint64_t>> TopByContexts;
  /// Methods whose locals carry the most context-sensitive VARPOINTSTO
  /// tuples: (raw MethodId, tuple count), sorted descending.
  std::vector<std::pair<uint32_t, uint64_t>> TopByTuples;
};

/// Computes the statistics for \p Result (which must have been produced
/// under Assembly::Tuples, otherwise counts are zero), keeping the \p TopN
/// worst methods per category.
ContextStatistics computeContextStatistics(const Program &Prog,
                                           const PointsToResult &Result,
                                           size_t TopN = 10);

/// Pretty-prints \p Stats with method names resolved.
void printContextStatistics(const Program &Prog,
                            const ContextStatistics &Stats,
                            std::ostream &Out);

} // namespace intro

#endif // ANALYSIS_STATISTICS_H
