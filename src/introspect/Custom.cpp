//===- introspect/Custom.cpp - Composable heuristics ----------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "introspect/Custom.h"

#include "analysis/Result.h"
#include "ir/Program.h"

#include <cassert>

using namespace intro;

bool intro::isSiteMetric(Metric M) { return M == Metric::InFlow; }

bool intro::isMethodMetric(Metric M) {
  return M == Metric::MethodTotalVolume ||
         M == Metric::MethodMaxVarPointsTo ||
         M == Metric::MethodMaxVarFieldPointsTo;
}

bool intro::isObjectMetric(Metric M) {
  return M == Metric::ObjectMaxFieldPointsTo ||
         M == Metric::ObjectTotalFieldPointsTo ||
         M == Metric::PointedByVars || M == Metric::PointedByObjs;
}

namespace {

/// Reads a per-method metric value.
uint64_t methodMetric(const IntrospectionMetrics &M, Metric Kind,
                      uint32_t MethodRaw) {
  switch (Kind) {
  case Metric::MethodTotalVolume:
    return M.MethodTotalVolume[MethodRaw];
  case Metric::MethodMaxVarPointsTo:
    return M.MethodMaxVarPointsTo[MethodRaw];
  case Metric::MethodMaxVarFieldPointsTo:
    return M.MethodMaxVarFieldPointsTo[MethodRaw];
  default:
    assert(false && "not a method metric");
    return 0;
  }
}

/// Reads a per-object metric value; Metric::None reads as the neutral 1.
uint64_t objectMetric(const IntrospectionMetrics &M, Metric Kind,
                      uint32_t HeapRaw) {
  switch (Kind) {
  case Metric::None:
    return 1;
  case Metric::ObjectMaxFieldPointsTo:
    return M.ObjectMaxFieldPointsTo[HeapRaw];
  case Metric::ObjectTotalFieldPointsTo:
    return M.ObjectTotalFieldPointsTo[HeapRaw];
  case Metric::PointedByVars:
    return M.PointedByVars[HeapRaw];
  case Metric::PointedByObjs:
    return M.PointedByObjs[HeapRaw];
  default:
    assert(false && "not an object metric");
    return 0;
  }
}

} // namespace

CustomHeuristic intro::heuristicASpec(const HeuristicAParams &Params) {
  return {.Name = "A",
          .SiteRules = {{SiteProperty::CallSite, Metric::InFlow, Params.L},
                        {SiteProperty::TargetMethod,
                         Metric::MethodMaxVarFieldPointsTo, Params.M}},
          .ObjectRules = {{Metric::PointedByVars, Metric::None, Params.K}}};
}

CustomHeuristic intro::heuristicBSpec(const HeuristicBParams &Params) {
  return {.Name = "B",
          .SiteRules = {{SiteProperty::TargetMethod, Metric::MethodTotalVolume,
                         Params.P}},
          .ObjectRules = {{Metric::ObjectTotalFieldPointsTo,
                           Metric::PointedByVars, Params.Q}}};
}

RefinementExceptions
intro::applyCustomHeuristic(const Program &Prog, const PointsToResult &Insens,
                            const IntrospectionMetrics &Metrics,
                            const CustomHeuristic &Heuristic) {
#ifndef NDEBUG
  for (const SiteRule &Rule : Heuristic.SiteRules)
    assert((Rule.On == SiteProperty::CallSite
                ? isSiteMetric(Rule.MetricKind)
                : isMethodMetric(Rule.MetricKind)) &&
           "site rule metric does not match its domain");
  for (const ObjectRule &Rule : Heuristic.ObjectRules) {
    assert(isObjectMetric(Rule.First) && "object rule needs object metric");
    assert((Rule.Second == Metric::None || isObjectMetric(Rule.Second)) &&
           "product factor must be an object metric");
  }
#endif

  RefinementExceptions Exceptions(Prog);

  for (uint32_t HeapRaw = 0; HeapRaw < Prog.numHeaps(); ++HeapRaw)
    for (const ObjectRule &Rule : Heuristic.ObjectRules) {
      uint64_t Product = objectMetric(Metrics, Rule.First, HeapRaw) *
                         objectMetric(Metrics, Rule.Second, HeapRaw);
      if (Product > Rule.Threshold) {
        Exceptions.excludeHeap(HeapId(HeapRaw));
        break;
      }
    }

  for (uint32_t SiteRaw = 0; SiteRaw < Prog.numSites(); ++SiteRaw) {
    SiteId Site(SiteRaw);
    for (uint32_t TargetRaw : Insens.callTargets(Site))
      for (const SiteRule &Rule : Heuristic.SiteRules) {
        uint64_t Value = Rule.On == SiteProperty::CallSite
                             ? Metrics.InFlow[SiteRaw]
                             : methodMetric(Metrics, Rule.MetricKind,
                                            TargetRaw);
        if (Value > Rule.Threshold) {
          Exceptions.excludeSite(Site, MethodId(TargetRaw));
          break;
        }
      }
  }
  return Exceptions;
}
