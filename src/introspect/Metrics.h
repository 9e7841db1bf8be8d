//===- introspect/Metrics.h - Cost metrics of Section 3 ---------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The six cost metrics of the paper's Section 3, computed as short queries
/// over the result of the context-insensitive first pass.  Every metric
/// estimates how much a program element would cost if analyzed with deeper
/// context:
///   1. argument in-flow of a call site,
///   2. total points-to volume of a method (and the max-var variant),
///   3. max/total field points-to of an object,
///   4. max var-field points-to of a method,
///   5. pointed-by-vars of an object,
///   6. pointed-by-objects of an object.
///
//===----------------------------------------------------------------------===//

#ifndef INTROSPECT_METRICS_H
#define INTROSPECT_METRICS_H

#include <cstdint>
#include <vector>

namespace intro {

class PointsToResult;
class Program;

/// All six metrics, indexed by the raw id of the respective entity.
struct IntrospectionMetrics {
  /// #1: per call site, the cumulative points-to size of its actual
  /// arguments (the call's argument "in-flow").  Zero for sites whose
  /// caller is unreachable.
  std::vector<uint64_t> InFlow;

  /// #2: per method, the cumulative points-to size over all its local
  /// variables (its "total points-to volume").
  std::vector<uint64_t> MethodTotalVolume;
  /// #2 (variant): per method, the maximum points-to size over its locals.
  std::vector<uint64_t> MethodMaxVarPointsTo;

  /// #3: per object, the maximum field-points-to size over its fields.
  std::vector<uint64_t> ObjectMaxFieldPointsTo;
  /// #3 (variant): per object, the total field-points-to size.
  std::vector<uint64_t> ObjectTotalFieldPointsTo;

  /// #4: per method, the maximum ObjectMaxFieldPointsTo over all objects
  /// pointed to by the method's locals.
  std::vector<uint64_t> MethodMaxVarFieldPointsTo;

  /// #5: per object, the number of local variables pointing to it.
  std::vector<uint64_t> PointedByVars;

  /// #6: per object, the number of (object, field) pairs pointing to it.
  std::vector<uint64_t> PointedByObjs;

  bool operator==(const IntrospectionMetrics &) const = default;
};

/// Computes all metrics from \p Insens, the result of a (context-
/// insensitive) first analysis pass over \p Prog.  Three sequential
/// sweeps (sites, field cells, methods), each one trace span.  Pipelines
/// reach this through runPassA (introspect/Driver.h), which also caches
/// the result.
IntrospectionMetrics computeIntrospectionMetrics(const Program &Prog,
                                                 const PointsToResult &Insens);

} // namespace intro

#endif // INTROSPECT_METRICS_H
