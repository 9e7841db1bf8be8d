//===- analysis/DatalogReference.cpp - Figure 3 as Datalog ----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/DatalogReference.h"

#include "datalog/Engine.h"
#include "ir/Facts.h"
#include "ir/Program.h"

#include <algorithm>

using namespace intro;
using datalog::Atom;
using datalog::Engine;
using datalog::FunctorCall;
using datalog::Rule;
using datalog::Term;

namespace {

Term V(uint32_t Number) { return Term::var(Number); }

/// Loads an EDB relation from a vector of fixed-arity tuples.
template <size_t Arity>
void load(Engine &E, uint32_t RelIndex,
          const std::vector<std::array<uint32_t, Arity>> &Tuples) {
  for (const auto &Tuple : Tuples)
    E.relation(RelIndex).insert(std::span<const uint32_t>(Tuple));
}

} // namespace

DatalogReferenceResult intro::runDatalogReference(
    const Program &Prog, const ContextPolicy &Coarse,
    const ContextPolicy &Refined, const RefinementExceptions &Exceptions,
    ContextTable &Table, const DatalogReferenceOptions &Options) {
  ProgramFacts Facts = extractFacts(Prog);
  Engine E;

  // --- Relations (Figure 2) -----------------------------------------------
  uint32_t Alloc = E.addRelation("ALLOC", 3);
  uint32_t Move = E.addRelation("MOVE", 2);
  uint32_t Load = E.addRelation("LOAD", 3);
  uint32_t Store = E.addRelation("STORE", 3);
  uint32_t VCall = E.addRelation("VCALL", 4);
  uint32_t SCall = E.addRelation("SCALL", 3);
  uint32_t FormalArg = E.addRelation("FORMALARG", 3);
  uint32_t ActualArg = E.addRelation("ACTUALARG", 3);
  uint32_t FormalReturn = E.addRelation("FORMALRETURN", 2);
  uint32_t ActualReturn = E.addRelation("ACTUALRETURN", 2);
  uint32_t ThisVar = E.addRelation("THISVAR", 2);
  uint32_t HeapType = E.addRelation("HEAPTYPE", 2);
  uint32_t Lookup = E.addRelation("LOOKUP", 3);
  uint32_t Cast = E.addRelation("CAST", 3);
  uint32_t Subtype = E.addRelation("SUBTYPE", 2);
  uint32_t SLoad = E.addRelation("SLOAD", 3);
  uint32_t SStore = E.addRelation("SSTORE", 2);
  uint32_t Throw = E.addRelation("THROW", 2);
  uint32_t SiteInMethod = E.addRelation("SITEINMETHOD", 2);
  uint32_t Catch = E.addRelation("CATCH", 3);
  uint32_t NoCatch = E.addRelation("NOCATCH", 1);
  // Complement-form refinement filters (footnote 4): the coarse rules match
  // these positively, the refined rules negate them.
  uint32_t NoRefineObj = E.addRelation("NOREFINEOBJECT", 1);
  uint32_t NoRefineSite = E.addRelation("NOREFINESITE", 2);
  uint32_t InitialReachable = E.addRelation("INITIALREACHABLE", 1);

  uint32_t VarPointsTo = E.addRelation("VARPOINTSTO", 4);
  uint32_t CallGraph = E.addRelation("CALLGRAPH", 4);
  uint32_t FldPointsTo = E.addRelation("FLDPOINTSTO", 5);
  uint32_t InterProcAssign = E.addRelation("INTERPROCASSIGN", 4);
  uint32_t Reachable = E.addRelation("REACHABLE", 2);
  uint32_t SFldPointsTo = E.addRelation("SFLDPOINTSTO", 3);
  uint32_t ThrowPointsTo = E.addRelation("THROWPOINTSTO", 4);

  load(E, Alloc, Facts.Alloc);
  load(E, Move, Facts.Move);
  if (Options.FilterCasts) {
    load(E, Cast, Facts.Cast);
    load(E, Subtype, Facts.Subtype);
  } else {
    // The paper's model: a cast flows like a move.
    for (const auto &CastTuple : Facts.Cast)
      E.relation(Move).insert(
          std::array<uint32_t, 2>{CastTuple[0], CastTuple[1]});
  }
  load(E, Load, Facts.Load);
  load(E, Store, Facts.Store);
  load(E, VCall, Facts.VCall);
  load(E, SCall, Facts.SCall);
  load(E, FormalArg, Facts.FormalArg);
  load(E, ActualArg, Facts.ActualArg);
  load(E, FormalReturn, Facts.FormalReturn);
  load(E, ActualReturn, Facts.ActualReturn);
  load(E, ThisVar, Facts.ThisVar);
  load(E, HeapType, Facts.HeapType);
  load(E, Lookup, Facts.Lookup);
  load(E, SLoad, Facts.SLoad);
  load(E, SStore, Facts.SStore);
  load(E, Throw, Facts.Throw);
  load(E, SiteInMethod, Facts.SiteInMethod);
  load(E, Catch, Facts.Catch);
  if (Facts.Throw.size() || Facts.Catch.size())
    load(E, Subtype, Facts.Subtype); // Needed by the catch rules too.
  for (uint32_t SiteRaw : Facts.NoCatch)
    E.relation(NoCatch).insert(std::array<uint32_t, 1>{SiteRaw});
  for (uint32_t Method : Facts.EntryMethods)
    E.relation(InitialReachable).insert(std::array<uint32_t, 1>{Method});
  for (uint32_t HeapRaw = 0; HeapRaw < Exceptions.NoRefineHeaps.size();
       ++HeapRaw)
    if (Exceptions.NoRefineHeaps[HeapRaw])
      E.relation(NoRefineObj).insert(std::array<uint32_t, 1>{HeapRaw});
  for (uint32_t SiteRaw = 0; SiteRaw < Exceptions.NoRefineSites.size();
       ++SiteRaw)
    for (uint32_t MethodRaw : Exceptions.NoRefineSites[SiteRaw])
      E.relation(NoRefineSite)
          .insert(std::array<uint32_t, 2>{SiteRaw, MethodRaw});

  // --- Context-constructor functors (Figure 2, bottom) --------------------
  auto RecordFn = [&Table](const ContextPolicy &Policy) {
    return [&Policy, &Table](std::span<const uint32_t> Args) {
      return Policy.record(HeapId(Args[0]), CtxId(Args[1]), Table).index();
    };
  };
  auto MergeFn = [&Table](const ContextPolicy &Policy) {
    // merge(heap, hctx, invo, toMeth, callerCtx)
    return [&Policy, &Table](std::span<const uint32_t> Args) {
      return Policy
          .merge(HeapId(Args[0]), HCtxId(Args[1]), SiteId(Args[2]),
                 MethodId(Args[3]), CtxId(Args[4]), Table)
          .index();
    };
  };
  auto MergeStaticFn = [&Table](const ContextPolicy &Policy) {
    // mergeStatic(invo, meth, callerCtx)
    return [&Policy, &Table](std::span<const uint32_t> Args) {
      return Policy
          .mergeStatic(SiteId(Args[0]), MethodId(Args[1]), CtxId(Args[2]),
                       Table)
          .index();
    };
  };
  uint32_t Record = E.addFunctor(RecordFn(Coarse));
  uint32_t RecordRefined = E.addFunctor(RecordFn(Refined));
  uint32_t Merge = E.addFunctor(MergeFn(Coarse));
  uint32_t MergeRefined = E.addFunctor(MergeFn(Refined));
  uint32_t MergeStatic = E.addFunctor(MergeStaticFn(Coarse));
  uint32_t MergeStaticRefined = E.addFunctor(MergeStaticFn(Refined));

  // --- Rules (Figure 3) ----------------------------------------------------

  // INTERPROCASSIGN(to, calleeCtx, from, callerCtx) <-
  //   CALLGRAPH(invo, callerCtx, meth, calleeCtx),
  //   FORMALARG(meth, i, to), ACTUALARG(invo, i, from).
  {
    enum { Invo, CallerCtx, Meth, CalleeCtx, I, To, From };
    Rule R;
    R.Body = {Atom{CallGraph, {V(Invo), V(CallerCtx), V(Meth), V(CalleeCtx)}},
              Atom{FormalArg, {V(Meth), V(I), V(To)}},
              Atom{ActualArg, {V(Invo), V(I), V(From)}}};
    R.Heads = {
        Atom{InterProcAssign, {V(To), V(CalleeCtx), V(From), V(CallerCtx)}}};
    E.addRule(std::move(R));
  }

  // INTERPROCASSIGN(to, callerCtx, from, calleeCtx) <-
  //   CALLGRAPH(invo, callerCtx, meth, calleeCtx),
  //   FORMALRETURN(meth, from), ACTUALRETURN(invo, to).
  {
    enum { Invo, CallerCtx, Meth, CalleeCtx, From, To };
    Rule R;
    R.Body = {Atom{CallGraph, {V(Invo), V(CallerCtx), V(Meth), V(CalleeCtx)}},
              Atom{FormalReturn, {V(Meth), V(From)}},
              Atom{ActualReturn, {V(Invo), V(To)}}};
    R.Heads = {
        Atom{InterProcAssign, {V(To), V(CallerCtx), V(From), V(CalleeCtx)}}};
    E.addRule(std::move(R));
  }

  // RECORD(heap, ctx) = hctx, VARPOINTSTO(var, ctx, heap, hctx) <-
  //   REACHABLE(meth, ctx), ALLOC(var, heap, meth), !OBJECTTOREFINE(heap).
  // (in complement form: the coarse rule requires NOREFINEOBJECT(heap), the
  //  refined duplicate negates it)
  for (bool IsRefined : {false, true}) {
    enum { Meth, Ctx, Var, Heap, HCtx };
    Rule R;
    R.Body = {Atom{Reachable, {V(Meth), V(Ctx)}},
              Atom{Alloc, {V(Var), V(Heap), V(Meth)}},
              Atom{NoRefineObj, {V(Heap)}, /*Negated=*/IsRefined}};
    R.Functors = {FunctorCall{IsRefined ? RecordRefined : Record, HCtx,
                              {V(Heap), V(Ctx)}}};
    R.Heads = {Atom{VarPointsTo, {V(Var), V(Ctx), V(Heap), V(HCtx)}}};
    E.addRule(std::move(R));
  }

  // VARPOINTSTO(to, ctx, heap, hctx) <-
  //   MOVE(to, from), VARPOINTSTO(from, ctx, heap, hctx).
  {
    enum { To, From, Ctx, Heap, HCtx };
    Rule R;
    R.Body = {Atom{VarPointsTo, {V(From), V(Ctx), V(Heap), V(HCtx)}},
              Atom{Move, {V(To), V(From)}}};
    R.Heads = {Atom{VarPointsTo, {V(To), V(Ctx), V(Heap), V(HCtx)}}};
    E.addRule(std::move(R));
  }

  // Checked-cast rule (only under FilterCasts; the relations are empty
  // otherwise):
  // VARPOINTSTO(to, ctx, heap, hctx) <-
  //   CAST(to, from, type), VARPOINTSTO(from, ctx, heap, hctx),
  //   HEAPTYPE(heap, heapT), SUBTYPE(heapT, type).
  {
    enum { To, From, Type, Ctx, Heap, HCtx, HeapT };
    Rule R;
    R.Body = {Atom{VarPointsTo, {V(From), V(Ctx), V(Heap), V(HCtx)}},
              Atom{Cast, {V(To), V(From), V(Type)}},
              Atom{HeapType, {V(Heap), V(HeapT)}},
              Atom{Subtype, {V(HeapT), V(Type)}}};
    R.Heads = {Atom{VarPointsTo, {V(To), V(Ctx), V(Heap), V(HCtx)}}};
    E.addRule(std::move(R));
  }

  // VARPOINTSTO(to, toCtx, heap, hctx) <-
  //   INTERPROCASSIGN(to, toCtx, from, fromCtx),
  //   VARPOINTSTO(from, fromCtx, heap, hctx).
  {
    enum { To, ToCtx, From, FromCtx, Heap, HCtx };
    Rule R;
    R.Body = {Atom{InterProcAssign, {V(To), V(ToCtx), V(From), V(FromCtx)}},
              Atom{VarPointsTo, {V(From), V(FromCtx), V(Heap), V(HCtx)}}};
    R.Heads = {Atom{VarPointsTo, {V(To), V(ToCtx), V(Heap), V(HCtx)}}};
    E.addRule(std::move(R));
  }

  // VARPOINTSTO(to, ctx, heap, hctx) <-
  //   LOAD(to, base, fld), VARPOINTSTO(base, ctx, baseH, baseHCtx),
  //   FLDPOINTSTO(baseH, baseHCtx, fld, heap, hctx).
  {
    enum { To, Base, Fld, Ctx, BaseH, BaseHCtx, Heap, HCtx };
    Rule R;
    R.Body = {Atom{VarPointsTo, {V(Base), V(Ctx), V(BaseH), V(BaseHCtx)}},
              Atom{Load, {V(To), V(Base), V(Fld)}},
              Atom{FldPointsTo,
                   {V(BaseH), V(BaseHCtx), V(Fld), V(Heap), V(HCtx)}}};
    R.Heads = {Atom{VarPointsTo, {V(To), V(Ctx), V(Heap), V(HCtx)}}};
    E.addRule(std::move(R));
  }

  // FLDPOINTSTO(baseH, baseHCtx, fld, heap, hctx) <-
  //   STORE(base, fld, from), VARPOINTSTO(from, ctx, heap, hctx),
  //   VARPOINTSTO(base, ctx, baseH, baseHCtx).
  {
    enum { Base, Fld, From, Ctx, Heap, HCtx, BaseH, BaseHCtx };
    Rule R;
    R.Body = {Atom{VarPointsTo, {V(From), V(Ctx), V(Heap), V(HCtx)}},
              Atom{Store, {V(Base), V(Fld), V(From)}},
              Atom{VarPointsTo, {V(Base), V(Ctx), V(BaseH), V(BaseHCtx)}}};
    R.Heads = {Atom{FldPointsTo,
                    {V(BaseH), V(BaseHCtx), V(Fld), V(Heap), V(HCtx)}}};
    E.addRule(std::move(R));
  }

  // MERGE(heap, hctx, invo, callerCtx) = calleeCtx,
  // REACHABLE(toMeth, calleeCtx),
  // VARPOINTSTO(this, calleeCtx, heap, hctx),
  // CALLGRAPH(invo, callerCtx, toMeth, calleeCtx) <-
  //   VCALL(base, sig, invo, inMeth), REACHABLE(inMeth, callerCtx),
  //   VARPOINTSTO(base, callerCtx, heap, hctx),
  //   HEAPTYPE(heap, heapT), LOOKUP(heapT, sig, toMeth),
  //   THISVAR(toMeth, this), !SITETOREFINE(invo, toMeth).
  for (bool IsRefined : {false, true}) {
    enum {
      Base,
      Sig,
      Invo,
      InMeth,
      CallerCtx,
      Heap,
      HCtx,
      HeapT,
      ToMeth,
      This,
      CalleeCtx
    };
    Rule R;
    R.Body = {Atom{VarPointsTo, {V(Base), V(CallerCtx), V(Heap), V(HCtx)}},
              Atom{VCall, {V(Base), V(Sig), V(Invo), V(InMeth)}},
              Atom{Reachable, {V(InMeth), V(CallerCtx)}},
              Atom{HeapType, {V(Heap), V(HeapT)}},
              Atom{Lookup, {V(HeapT), V(Sig), V(ToMeth)}},
              Atom{ThisVar, {V(ToMeth), V(This)}},
              Atom{NoRefineSite, {V(Invo), V(ToMeth)}, /*Negated=*/IsRefined}};
    R.Functors = {FunctorCall{IsRefined ? MergeRefined : Merge, CalleeCtx,
                              {V(Heap), V(HCtx), V(Invo), V(ToMeth),
                               V(CallerCtx)}}};
    R.Heads = {Atom{Reachable, {V(ToMeth), V(CalleeCtx)}},
               Atom{VarPointsTo, {V(This), V(CalleeCtx), V(Heap), V(HCtx)}},
               Atom{CallGraph,
                    {V(Invo), V(CallerCtx), V(ToMeth), V(CalleeCtx)}}};
    E.addRule(std::move(R));
  }

  // Static-call analogue (full-Doop extension, not in Figure 3):
  // MERGESTATIC(invo, callerCtx) = calleeCtx,
  // REACHABLE(meth, calleeCtx),
  // CALLGRAPH(invo, callerCtx, meth, calleeCtx) <-
  //   SCALL(meth, invo, inMeth), REACHABLE(inMeth, callerCtx),
  //   !SITETOREFINE(invo, meth).
  for (bool IsRefined : {false, true}) {
    enum { Meth, Invo, InMeth, CallerCtx, CalleeCtx };
    Rule R;
    R.Body = {Atom{Reachable, {V(InMeth), V(CallerCtx)}},
              Atom{SCall, {V(Meth), V(Invo), V(InMeth)}},
              Atom{NoRefineSite, {V(Invo), V(Meth)}, /*Negated=*/IsRefined}};
    R.Functors = {
        FunctorCall{IsRefined ? MergeStaticRefined : MergeStatic, CalleeCtx,
                    {V(Invo), V(Meth), V(CallerCtx)}}};
    R.Heads = {Atom{Reachable, {V(Meth), V(CalleeCtx)}},
               Atom{CallGraph,
                    {V(Invo), V(CallerCtx), V(Meth), V(CalleeCtx)}}};
    E.addRule(std::move(R));
  }

  // --- Static fields (full-Doop core extension) -----------------------------
  // SFLDPOINTSTO(fld, heap, hctx) <-
  //   SSTORE(fld, from), VARPOINTSTO(from, ctx, heap, hctx).
  {
    enum { Fld, From, Ctx, Heap, HCtx };
    Rule R;
    R.Body = {Atom{VarPointsTo, {V(From), V(Ctx), V(Heap), V(HCtx)}},
              Atom{SStore, {V(Fld), V(From)}}};
    R.Heads = {Atom{SFldPointsTo, {V(Fld), V(Heap), V(HCtx)}}};
    E.addRule(std::move(R));
  }
  // VARPOINTSTO(to, ctx, heap, hctx) <-
  //   SLOAD(to, fld, meth), REACHABLE(meth, ctx),
  //   SFLDPOINTSTO(fld, heap, hctx).
  {
    enum { To, Fld, Meth, Ctx, Heap, HCtx };
    Rule R;
    R.Body = {Atom{SFldPointsTo, {V(Fld), V(Heap), V(HCtx)}},
              Atom{SLoad, {V(To), V(Fld), V(Meth)}},
              Atom{Reachable, {V(Meth), V(Ctx)}}};
    R.Heads = {Atom{VarPointsTo, {V(To), V(Ctx), V(Heap), V(HCtx)}}};
    E.addRule(std::move(R));
  }

  // --- Exceptions (extension in the spirit of the paper's ref. [11]) --------
  // THROWPOINTSTO(meth, ctx, heap, hctx) <-
  //   THROW(var, meth), VARPOINTSTO(var, ctx, heap, hctx).
  {
    enum { Var, Meth, Ctx, Heap, HCtx };
    Rule R;
    R.Body = {Atom{VarPointsTo, {V(Var), V(Ctx), V(Heap), V(HCtx)}},
              Atom{Throw, {V(Var), V(Meth)}}};
    R.Heads = {Atom{ThrowPointsTo, {V(Meth), V(Ctx), V(Heap), V(HCtx)}}};
    E.addRule(std::move(R));
  }
  // No catch clause: everything escapes to the caller.
  // THROWPOINTSTO(callerMeth, callerCtx, heap, hctx) <-
  //   THROWPOINTSTO(toMeth, calleeCtx, heap, hctx),
  //   CALLGRAPH(invo, callerCtx, toMeth, calleeCtx),
  //   SITEINMETHOD(invo, callerMeth), NOCATCH(invo).
  {
    enum { ToMeth, CalleeCtx, Heap, HCtx, Invo, CallerCtx, CallerMeth };
    Rule R;
    R.Body = {Atom{ThrowPointsTo, {V(ToMeth), V(CalleeCtx), V(Heap),
                                   V(HCtx)}},
              Atom{CallGraph, {V(Invo), V(CallerCtx), V(ToMeth),
                               V(CalleeCtx)}},
              Atom{SiteInMethod, {V(Invo), V(CallerMeth)}},
              Atom{NoCatch, {V(Invo)}}};
    R.Heads = {
        Atom{ThrowPointsTo, {V(CallerMeth), V(CallerCtx), V(Heap), V(HCtx)}}};
    E.addRule(std::move(R));
  }
  // Caught: exceptions of the covered type bind to the catch variable.
  // VARPOINTSTO(catchVar, callerCtx, heap, hctx) <-
  //   THROWPOINTSTO(toMeth, calleeCtx, heap, hctx),
  //   CALLGRAPH(invo, callerCtx, toMeth, calleeCtx),
  //   CATCH(invo, type, catchVar),
  //   HEAPTYPE(heap, heapT), SUBTYPE(heapT, type).
  {
    enum {
      ToMeth,
      CalleeCtx,
      Heap,
      HCtx,
      Invo,
      CallerCtx,
      Type,
      CatchVar,
      HeapT
    };
    Rule R;
    R.Body = {Atom{ThrowPointsTo, {V(ToMeth), V(CalleeCtx), V(Heap),
                                   V(HCtx)}},
              Atom{CallGraph, {V(Invo), V(CallerCtx), V(ToMeth),
                               V(CalleeCtx)}},
              Atom{Catch, {V(Invo), V(Type), V(CatchVar)}},
              Atom{HeapType, {V(Heap), V(HeapT)}},
              Atom{Subtype, {V(HeapT), V(Type)}}};
    R.Heads = {
        Atom{VarPointsTo, {V(CatchVar), V(CallerCtx), V(Heap), V(HCtx)}}};
    E.addRule(std::move(R));
  }
  // Uncaught at a catching site: the complement escapes to the caller.
  {
    enum {
      ToMeth,
      CalleeCtx,
      Heap,
      HCtx,
      Invo,
      CallerCtx,
      Type,
      CatchVar,
      HeapT,
      CallerMeth
    };
    Rule R;
    R.Body = {Atom{ThrowPointsTo, {V(ToMeth), V(CalleeCtx), V(Heap),
                                   V(HCtx)}},
              Atom{CallGraph, {V(Invo), V(CallerCtx), V(ToMeth),
                               V(CalleeCtx)}},
              Atom{Catch, {V(Invo), V(Type), V(CatchVar)}},
              Atom{SiteInMethod, {V(Invo), V(CallerMeth)}},
              Atom{HeapType, {V(Heap), V(HeapT)}},
              Atom{Subtype, {V(HeapT), V(Type)}, /*Negated=*/true}};
    R.Heads = {
        Atom{ThrowPointsTo, {V(CallerMeth), V(CallerCtx), V(Heap), V(HCtx)}}};
    E.addRule(std::move(R));
  }

  // REACHABLE(meth, initialCtx) <- INITIALREACHABLE(meth).
  {
    enum { Meth };
    CtxId Initial = Refined.initialContext(Table);
    Rule R;
    R.Body = {Atom{InitialReachable, {V(Meth)}}};
    R.Heads = {Atom{Reachable, {V(Meth), Term::cst(Initial.index())}}};
    E.addRule(std::move(R));
  }

  datalog::EngineStats Stats = E.run(Options.MaxTuples);

  // --- Extract results -------------------------------------------------------
  DatalogReferenceResult Result;
  Result.Rounds = Stats.Rounds;
  Result.BudgetExceeded = Stats.BudgetExceeded;

  auto Dump = [&E](uint32_t RelIndex, auto &Out) {
    const datalog::Relation &Rel = E.relation(RelIndex);
    using ArrayType = typename std::remove_reference_t<decltype(Out)>::
        value_type;
    for (uint32_t Index = 0; Index < Rel.size(); ++Index) {
      std::span<const uint32_t> Tuple = Rel.tuple(Index);
      ArrayType Row{};
      std::copy(Tuple.begin(), Tuple.end(), Row.begin());
      Out.push_back(Row);
    }
    std::sort(Out.begin(), Out.end());
  };
  Dump(VarPointsTo, Result.VarPointsTo);
  Dump(FldPointsTo, Result.FieldPointsTo);
  Dump(Reachable, Result.Reachable);
  Dump(CallGraph, Result.CallGraph);
  Dump(ThrowPointsTo, Result.ThrowPointsTo);
  Dump(SFldPointsTo, Result.StaticFieldPointsTo);
  return Result;
}

DatalogReferenceResult
intro::runDatalogReference(const Program &Prog, const ContextPolicy &Policy,
                           ContextTable &Table,
                           const DatalogReferenceOptions &Options) {
  return runDatalogReference(Prog, Policy, Policy, RefinementExceptions(),
                             Table, Options);
}
