//===- introspect/Metrics.cpp - Cost metrics of Section 3 -----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "introspect/Metrics.h"

#include "analysis/Result.h"
#include "ir/Program.h"
#include "support/Overflow.h"
#include "support/Trace.h"

#include <algorithm>
#include <utility>

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
void computeFieldCells(const PointsToResult &Insens, IntrospectionMetrics &M) {
  for (const FieldCell &Cell : Insens.FieldHeaps) {
    uint64_t Size = Cell.Heaps.size();
    M.ObjectTotalFieldPointsTo[Cell.BaseHeap] += Size;
    M.ObjectMaxFieldPointsTo[Cell.BaseHeap] =
        std::max(M.ObjectMaxFieldPointsTo[Cell.BaseHeap], Size);
    for (uint32_t Pointee : Cell.Heaps)
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

/// The static step of the estimate: each non-entry callee in \p Callers
/// (distinct (callee, caller) pairs sorted by callee) takes max(1, the sum
/// of its callers' \p Values as they were before this step).  One level
/// only: a recursive static chain does not feed itself.
void sumOverStaticCallers(
    const std::vector<std::pair<uint32_t, uint32_t>> &Callers,
    const std::vector<bool> &IsEntry, std::vector<uint64_t> &Values) {
  std::vector<uint64_t> Before = Values;
  for (size_t Begin = 0, End; Begin < Callers.size(); Begin = End) {
    uint32_t Callee = Callers[Begin].first;
    uint64_t Sum = 0;
    for (End = Begin; End < Callers.size() && Callers[End].first == Callee;
         ++End)
      Sum = saturatingAdd(Sum, Before[Callers[End].second]);
    if (!IsEntry[Callee])
      Values[Callee] = std::max<uint64_t>(1, Sum);
  }
}

/// The deep-analysis size estimate (IntrospectionMetrics::
/// DeepTuplesEstimate).  Reads MethodTotalVolume, so it runs after the
/// method sweep.
uint64_t estimateDeepTuples(const Program &Prog, const PointsToResult &Insens,
                            const IntrospectionMetrics &M) {
  size_t NumMethods = Prog.numMethods();
  std::vector<bool> IsEntry(NumMethods, false);
  for (MethodId Entry : Prog.entries())
    IsEntry[Entry.raw()] = true;
  // Distinct (callee, caller) pairs of static calls in reachable callers.
  std::vector<std::pair<uint32_t, uint32_t>> StaticCallers;
  for (uint32_t SiteIndex = 0; SiteIndex < Prog.numSites(); ++SiteIndex) {
    const SiteInfo &Site = Prog.site(SiteId(SiteIndex));
    if (Site.IsStatic && !Insens.callTargets(SiteId(SiteIndex)).empty())
      StaticCallers.emplace_back(Site.StaticTarget.raw(),
                                 Site.InMethod.raw());
  }
  std::sort(StaticCallers.begin(), StaticCallers.end());
  StaticCallers.erase(std::unique(StaticCallers.begin(), StaticCallers.end()),
                      StaticCallers.end());

  auto thisHeaps = [&](uint32_t MethodIndex) -> const SortedIdSet * {
    const MethodInfo &Info = Prog.method(MethodId(MethodIndex));
    if (Info.IsStatic || !Insens.isReachable(MethodId(MethodIndex)))
      return nullptr;
    return &Insens.pointsTo(Info.This);
  };
  std::vector<uint64_t> Recv(NumMethods, 1);
  for (uint32_t MethodIndex = 0; MethodIndex < NumMethods; ++MethodIndex)
    if (const SortedIdSet *This = thisHeaps(MethodIndex))
      Recv[MethodIndex] = std::max<uint64_t>(1, This->size());
  sumOverStaticCallers(StaticCallers, IsEntry, Recv);

  std::vector<uint64_t> Ctx(NumMethods, 1);
  for (uint32_t MethodIndex = 0; MethodIndex < NumMethods; ++MethodIndex)
    if (const SortedIdSet *This = thisHeaps(MethodIndex)) {
      uint64_t Sum = 0;
      for (uint32_t HeapRaw : *This)
        Sum = saturatingAdd(
            Sum, Recv[Prog.heap(HeapId(HeapRaw)).InMethod.raw()]);
      Ctx[MethodIndex] = std::max<uint64_t>(1, Sum);
    }
  sumOverStaticCallers(StaticCallers, IsEntry, Ctx);

  uint64_t Estimate = 0;
  for (uint32_t MethodIndex = 0; MethodIndex < NumMethods; ++MethodIndex)
    if (Insens.isReachable(MethodId(MethodIndex)))
      Estimate = saturatingAdd(
          Estimate,
          saturatingMul(M.MethodTotalVolume[MethodIndex], Ctx[MethodIndex]));
  return Estimate;
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
    M.DeepTuplesEstimate = estimateDeepTuples(Prog, Insens, M);
  }
  return M;
}
