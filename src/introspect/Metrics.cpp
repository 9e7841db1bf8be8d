//===- introspect/Metrics.cpp - Cost metrics of Section 3 -----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "introspect/Metrics.h"

#include "analysis/Result.h"
#include "ir/Program.h"
#include "support/Trace.h"

#include <algorithm>

using namespace intro;

namespace {

void initMetrics(IntrospectionMetrics &M, const Program &Prog) {
  M.InFlow.assign(Prog.numSites(), 0);
  M.MethodTotalVolume.assign(Prog.numMethods(), 0);
  M.MethodMaxVarPointsTo.assign(Prog.numMethods(), 0);
  M.ObjectMaxFieldPointsTo.assign(Prog.numHeaps(), 0);
  M.ObjectTotalFieldPointsTo.assign(Prog.numHeaps(), 0);
  M.MethodMaxVarFieldPointsTo.assign(Prog.numMethods(), 0);
  M.PointedByVars.assign(Prog.numHeaps(), 0);
  M.PointedByObjs.assign(Prog.numHeaps(), 0);
}

/// Metric #1 — in-flow: the Datalog query of Section 3,
///   HEAPSPERINVOCATIONPERARG(invo, arg, heap) <- CALLGRAPH(invo, _, _, _),
///     ACTUALARG(invo, _, arg), VARPOINTSTO(arg, _, heap, _).
///   INFLOW(invo, count(...)).
void computeInFlow(const Program &Prog, const PointsToResult &Insens,
                   IntrospectionMetrics &M) {
  for (uint32_t SiteIndex = 0; SiteIndex < Prog.numSites(); ++SiteIndex) {
    SiteId Site(SiteIndex);
    if (Insens.callTargets(Site).empty())
      continue; // No CALLGRAPH(invo, ...) fact.
    uint64_t Total = 0;
    for (VarId Actual : Prog.site(Site).Actuals)
      Total += Insens.pointsTo(Actual).size();
    M.InFlow[SiteIndex] = Total;
  }
}

/// Metrics #3 and #6 — per-object field points-to sizes and
/// pointed-by-objs, one sweep over the (base heap, field) -> heaps cells.
/// Every fold is a commutative integer sum or max, so the FieldHeaps hash
/// order cannot leak into the result.
void computeFieldCells(const PointsToResult &Insens, IntrospectionMetrics &M) {
  for (const auto &[Key, Heaps] : Insens.FieldHeaps) {
    uint32_t BaseHeap = static_cast<uint32_t>(Key >> 32);
    uint64_t Size = Heaps.size();
    M.ObjectTotalFieldPointsTo[BaseHeap] += Size;
    M.ObjectMaxFieldPointsTo[BaseHeap] =
        std::max(M.ObjectMaxFieldPointsTo[BaseHeap], Size);
    for (uint32_t Pointee : Heaps)
      ++M.PointedByObjs[Pointee];
  }
}

/// Metrics #2, #4, #5 — per-method volumes and pointed-by-vars, one sweep
/// over all (var, heap) pairs.  Reads ObjectMaxFieldPointsTo, so this
/// sweep must run after metric #3 is final.
void computeMethods(const Program &Prog, const PointsToResult &Insens,
                    IntrospectionMetrics &M) {
  for (uint32_t MethodIndex = 0; MethodIndex < Prog.numMethods();
       ++MethodIndex) {
    const MethodInfo &Info = Prog.method(MethodId(MethodIndex));
    uint64_t Volume = 0;
    uint64_t MaxVar = 0;
    uint64_t MaxVarField = 0;
    for (VarId Var : Info.Locals) {
      const SortedIdSet &Heaps = Insens.pointsTo(Var);
      Volume += Heaps.size();
      MaxVar = std::max(MaxVar, static_cast<uint64_t>(Heaps.size()));
      for (uint32_t HeapRaw : Heaps) {
        ++M.PointedByVars[HeapRaw];
        MaxVarField =
            std::max(MaxVarField, M.ObjectMaxFieldPointsTo[HeapRaw]);
      }
    }
    M.MethodTotalVolume[MethodIndex] = Volume;
    M.MethodMaxVarPointsTo[MethodIndex] = MaxVar;
    M.MethodMaxVarFieldPointsTo[MethodIndex] = MaxVarField;
  }
}

} // namespace

IntrospectionMetrics
intro::computeIntrospectionMetrics(const Program &Prog,
                                   const PointsToResult &Insens) {
  IntrospectionMetrics M;
  initMetrics(M, Prog);
  {
    TRACE_SPAN("metrics.in_flow");
    computeInFlow(Prog, Insens, M);
  }
  {
    TRACE_SPAN("metrics.field_cells");
    computeFieldCells(Insens, M);
  }
  {
    TRACE_SPAN("metrics.methods");
    computeMethods(Prog, Insens, M);
  }
  return M;
}
