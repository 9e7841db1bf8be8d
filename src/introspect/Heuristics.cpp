//===- introspect/Heuristics.cpp - Heuristics A and B ---------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "introspect/Heuristics.h"

#include "analysis/Result.h"
#include "introspect/Custom.h"
#include "ir/Program.h"

using namespace intro;

RefinementExceptions
intro::applyHeuristicA(const Program &Prog, const PointsToResult &Insens,
                       const IntrospectionMetrics &Metrics,
                       const HeuristicAParams &Params) {
  return applyCustomHeuristic(Prog, Insens, Metrics, heuristicASpec(Params));
}

RefinementExceptions
intro::applyHeuristicB(const Program &Prog, const PointsToResult &Insens,
                       const IntrospectionMetrics &Metrics,
                       const HeuristicBParams &Params) {
  return applyCustomHeuristic(Prog, Insens, Metrics, heuristicBSpec(Params));
}

RefinementStats
intro::computeRefinementStats(const Program &Prog,
                              const PointsToResult &Insens,
                              const RefinementExceptions &Exceptions) {
  RefinementStats Stats;
  for (uint32_t SiteIndex = 0; SiteIndex < Prog.numSites(); ++SiteIndex) {
    if (!Insens.isReachable(Prog.site(SiteId(SiteIndex)).InMethod))
      continue;
    ++Stats.TotalCallSites;
    if (SiteIndex < Exceptions.NoRefineSites.size() &&
        !Exceptions.NoRefineSites[SiteIndex].empty())
      ++Stats.ExcludedCallSites;
  }
  for (uint32_t HeapIndex = 0; HeapIndex < Prog.numHeaps(); ++HeapIndex) {
    if (!Insens.isReachable(Prog.heap(HeapId(HeapIndex)).InMethod))
      continue;
    ++Stats.TotalObjects;
    if (Exceptions.skipsHeap(HeapId(HeapIndex)))
      ++Stats.ExcludedObjects;
  }
  return Stats;
}
