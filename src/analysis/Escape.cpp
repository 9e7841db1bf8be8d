//===- analysis/Escape.cpp - Escape analysis client -----------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Escape.h"

#include "analysis/Result.h"
#include "ir/Program.h"

using namespace intro;

EscapeResult intro::computeEscape(const Program &Prog,
                                  const PointsToResult &Result) {
  EscapeResult Escape;
  Escape.Escapes.assign(Prog.numHeaps(), false);

  auto MarkAll = [&](const SharedIdSet &Heaps) {
    for (uint32_t HeapRaw : Heaps)
      Escape.Escapes[HeapRaw] = true;
  };

  // Stored into any object field: the holder may outlive the activation.
  for (const FieldCell &Cell : Result.FieldHeaps)
    MarkAll(Cell.Heaps);
  // Stored into a static field: globally visible.
  for (const SharedIdSet &Heaps : Result.StaticFieldHeaps)
    MarkAll(Heaps);
  // Escaping via an exception.
  for (const SharedIdSet &Heaps : Result.MethodThrows)
    MarkAll(Heaps);

  // Observed by a variable of a method other than the allocating one
  // (covers argument passing, returns, and catches).  Receiver (`this`)
  // variables are exempt: merely invoking a method on an object does not
  // leak it — any onward flow inside the callee goes through other
  // variables or fields, which are checked.
  for (uint32_t VarRaw = 0; VarRaw < Prog.numVars(); ++VarRaw) {
    MethodId Owner = Prog.var(VarId(VarRaw)).Owner;
    if (Prog.method(Owner).This == VarId(VarRaw))
      continue;
    for (uint32_t HeapRaw : Result.pointsTo(VarId(VarRaw)))
      if (Prog.heap(HeapId(HeapRaw)).InMethod != Owner)
        Escape.Escapes[HeapRaw] = true;
  }

  for (uint32_t HeapRaw = 0; HeapRaw < Prog.numHeaps(); ++HeapRaw) {
    if (!Result.isReachable(Prog.heap(HeapId(HeapRaw)).InMethod))
      continue;
    ++Escape.ReachableSites;
    if (Escape.Escapes[HeapRaw])
      ++Escape.EscapingSites;
  }
  return Escape;
}
