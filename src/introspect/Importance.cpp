//===- introspect/Importance.cpp - Element-importance estimation ----------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "introspect/Importance.h"

#include "analysis/Result.h"
#include "ir/Program.h"

#include <vector>

using namespace intro;

ImportanceMetrics intro::computeImportance(const Program &Prog,
                                           const PointsToResult &Insens) {
  ImportanceMetrics Importance;
  Importance.ObjectImportance.assign(Prog.numHeaps(), 0);
  Importance.MethodImportance.assign(Prog.numMethods(), 0);

  for (uint32_t MethodIndex = 0; MethodIndex < Prog.numMethods();
       ++MethodIndex) {
    MethodId Method(MethodIndex);
    if (!Insens.isReachable(Method))
      continue;
    uint64_t LocalClientOps = 0;
    for (const Instruction &Instr : Prog.method(Method).Body) {
      if (Instr.Kind == InstrKind::Cast) {
        ++LocalClientOps;
        // Every object the cast source may hold matters for the
        // casts-may-fail client.
        for (uint32_t HeapRaw : Insens.pointsTo(Instr.From))
          ++Importance.ObjectImportance[HeapRaw];
      }
      if (Instr.Kind == InstrKind::Call) {
        const SiteInfo &Site = Prog.site(Instr.Site);
        if (Site.IsStatic)
          continue;
        // Only *polymorphic* dispatches are precision opportunities: a
        // monomorphic call cannot be devirtualized any further, so its
        // receiver objects earn no importance from it.
        if (Insens.callTargets(Instr.Site).size() < 2)
          continue;
        ++LocalClientOps;
        for (uint32_t HeapRaw : Insens.pointsTo(Site.Base))
          ++Importance.ObjectImportance[HeapRaw];
      }
    }
    Importance.MethodImportance[MethodIndex] = LocalClientOps;
  }

  // A method is also important when it *handles* objects that client
  // operations elsewhere depend on: credit each method with the (scaled)
  // importance of the objects flowing through its return variable and its
  // formals.  This is what makes a shared accessor of precision-critical
  // data (the "popular container" get/set) important even though it
  // contains no client operation itself.
  for (uint32_t MethodIndex = 0; MethodIndex < Prog.numMethods();
       ++MethodIndex) {
    const MethodInfo &Info = Prog.method(MethodId(MethodIndex));
    if (!Insens.isReachable(MethodId(MethodIndex)))
      continue;
    uint64_t Flow = 0;
    if (Info.Return.isValid())
      for (uint32_t HeapRaw : Insens.pointsTo(Info.Return))
        Flow = std::max(Flow, Importance.ObjectImportance[HeapRaw]);
    for (VarId Formal : Info.Formals)
      for (uint32_t HeapRaw : Insens.pointsTo(Formal))
        Flow = std::max(Flow, Importance.ObjectImportance[HeapRaw]);
    // Scale down: indirect importance counts less than a local client op.
    Importance.MethodImportance[MethodIndex] += Flow / 4;
  }

  return Importance;
}

uint64_t intro::applyImportanceGuard(const Program &Prog,
                                     const ImportanceMetrics &Importance,
                                     RefinementExceptions &Exceptions,
                                     const ImportanceGuardParams &Params) {
  (void)Prog;
  uint64_t Lifted = 0;

  for (size_t HeapIndex = 0; HeapIndex < Exceptions.NoRefineHeaps.size();
       ++HeapIndex)
    if (Exceptions.NoRefineHeaps[HeapIndex] &&
        Importance.ObjectImportance[HeapIndex] > Params.ObjectThreshold) {
      Exceptions.NoRefineHeaps[HeapIndex] = false;
      ++Lifted;
    }
  for (SortedIdSet &Targets : Exceptions.NoRefineSites)
    Lifted += std::erase_if(Targets, [&](uint32_t TargetRaw) {
      return Importance.MethodImportance[TargetRaw] > Params.MethodThreshold;
    });
  return Lifted;
}
