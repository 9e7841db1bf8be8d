//===- introspect/Heuristics.cpp - Heuristics A and B ---------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "introspect/Heuristics.h"

#include "analysis/Result.h"
#include "ir/Program.h"

using namespace intro;

namespace {

/// Excludes (site, target) pairs for which \p ShouldExclude holds; covers
/// every target the first pass resolved for the site.
template <typename Predicate>
void excludeSites(const Program &Prog, const PointsToResult &Insens,
                  RefinementExceptions &Exceptions, Predicate ShouldExclude) {
  for (uint32_t SiteIndex = 0; SiteIndex < Prog.numSites(); ++SiteIndex) {
    SiteId Site(SiteIndex);
    for (uint32_t TargetRaw : Insens.callTargets(Site))
      if (ShouldExclude(Site, MethodId(TargetRaw)))
        Exceptions.excludeSite(Site, MethodId(TargetRaw));
  }
}

} // namespace

RefinementExceptions
intro::applyHeuristicA(const Program &Prog, const PointsToResult &Insens,
                       const IntrospectionMetrics &Metrics,
                       const HeuristicAParams &Params) {
  RefinementExceptions Exceptions(Prog);

  // Objects: exclude allocation sites with pointed-by-vars (#5) > K.
  for (uint32_t HeapIndex = 0; HeapIndex < Prog.numHeaps(); ++HeapIndex)
    if (Metrics.PointedByVars[HeapIndex] > Params.K)
      Exceptions.excludeHeap(HeapId(HeapIndex));

  // Call sites: exclude those with in-flow (#1) > L, or whose target method
  // has max var-field points-to (#4) > M.
  excludeSites(Prog, Insens, Exceptions,
               [&](SiteId Site, MethodId Target) {
                 return Metrics.InFlow[Site.index()] > Params.L ||
                        Metrics.MethodMaxVarFieldPointsTo[Target.index()] >
                            Params.M;
               });
  return Exceptions;
}

RefinementExceptions
intro::applyHeuristicB(const Program &Prog, const PointsToResult &Insens,
                       const IntrospectionMetrics &Metrics,
                       const HeuristicBParams &Params) {
  RefinementExceptions Exceptions(Prog);

  // Objects: exclude allocations whose (total field points-to (#3 variant)
  // x pointed-by-vars (#5)) product — the object's "total potential for
  // weighing down the analysis" — exceeds Q.
  for (uint32_t HeapIndex = 0; HeapIndex < Prog.numHeaps(); ++HeapIndex)
    if (Metrics.ObjectTotalFieldPointsTo[HeapIndex] *
            Metrics.PointedByVars[HeapIndex] >
        Params.Q)
      Exceptions.excludeHeap(HeapId(HeapIndex));

  // Call sites: exclude those invoking methods with total points-to volume
  // (#2) above P.
  excludeSites(Prog, Insens, Exceptions, [&](SiteId, MethodId Target) {
    return Metrics.MethodTotalVolume[Target.index()] > Params.P;
  });
  return Exceptions;
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
