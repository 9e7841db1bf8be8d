//===- introspect/Custom.h - Composable heuristics --------------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3 stresses that the cost metrics "can [be] mix-and-match[ed] to
/// create introspective analysis heuristics".  This header makes that
/// concrete: a small declarative description of a heuristic — threshold
/// rules over single metrics or metric products, OR-combined — from which
/// refinement exceptions are computed.  The paper's Heuristics A and B are
/// two instances (heuristicASpec/heuristicBSpec); applyHeuristicA/B in
/// introspect/Heuristics.h evaluate them here.
///
/// Example — "exclude objects that many variables point to, and call sites
/// whose target hoards points-to facts or whose arguments are fat":
/// \code
///   CustomHeuristic H;
///   H.Name = "mine";
///   H.ObjectRules.push_back({Metric::PointedByVars, Metric::None, 150});
///   H.SiteRules.push_back({SiteProperty::TargetMethod,
///                          Metric::MethodTotalVolume, 5000});
///   H.SiteRules.push_back({SiteProperty::CallSite, Metric::InFlow, 80});
///   RefinementExceptions E = applyCustomHeuristic(Prog, Insens, M, H);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef INTROSPECT_CUSTOM_H
#define INTROSPECT_CUSTOM_H

#include "introspect/Heuristics.h"

#include <string>
#include <vector>

namespace intro {

/// The six Section 3 metrics (plus variants), addressable by name.
enum class Metric : uint8_t {
  None, ///< Placeholder for "no second factor" in product rules.
  // Per call site:
  InFlow, ///< #1
  // Per method:
  MethodTotalVolume,         ///< #2
  MethodMaxVarPointsTo,      ///< #2 (max variant)
  MethodMaxVarFieldPointsTo, ///< #4
  // Per object:
  ObjectMaxFieldPointsTo,   ///< #3 (max variant)
  ObjectTotalFieldPointsTo, ///< #3
  PointedByVars,            ///< #5
  PointedByObjs,            ///< #6
};

/// \returns true if \p M is defined on call sites.
bool isSiteMetric(Metric M);
/// \returns true if \p M is defined on methods.
bool isMethodMetric(Metric M);
/// \returns true if \p M is defined on objects (allocation sites).
bool isObjectMetric(Metric M);

/// What a site rule's metric is evaluated on.
enum class SiteProperty : uint8_t {
  CallSite,     ///< A per-site metric (InFlow).
  TargetMethod, ///< A per-method metric of the resolved target.
};

/// Excludes a (site, target) pair when `metric > Threshold`.
struct SiteRule {
  SiteProperty On = SiteProperty::CallSite;
  Metric MetricKind = Metric::InFlow;
  uint64_t Threshold = 0;
};

/// Excludes an object when `first * second > Threshold` (second factor 1 if
/// \p Second is Metric::None).
struct ObjectRule {
  Metric First = Metric::PointedByVars;
  Metric Second = Metric::None;
  uint64_t Threshold = 0;
};

/// A heuristic: rules are OR-combined (any rule firing excludes the
/// element from refinement).
struct CustomHeuristic {
  std::string Name;
  std::vector<SiteRule> SiteRules;
  std::vector<ObjectRule> ObjectRules;
};

/// The paper's Heuristic A as a CustomHeuristic.
CustomHeuristic heuristicASpec(const HeuristicAParams &Params = {});
/// The paper's Heuristic B as a CustomHeuristic.
CustomHeuristic heuristicBSpec(const HeuristicBParams &Params = {});

/// Evaluates \p Heuristic over the first-pass \p Insens result.
/// Site rules with method metrics apply to every target the first pass
/// resolved for the site.  Rules whose metric kind does not match their
/// domain are rejected with an assert.
RefinementExceptions applyCustomHeuristic(const Program &Prog,
                                          const PointsToResult &Insens,
                                          const IntrospectionMetrics &Metrics,
                                          const CustomHeuristic &Heuristic);

} // namespace intro

#endif // INTROSPECT_CUSTOM_H
