//===- analysis/Solver.cpp - Context-sensitive points-to solver -----------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"

#include "analysis/ContextPolicy.h"
#include "ir/Program.h"
#include "support/Meter.h"
#include "support/Overflow.h"
#include "support/SetStore.h"
#include "support/SetUtils.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>

using namespace intro;

namespace {

/// Empty slot of a dense node index.
constexpr uint32_t NoNode = UINT32_MAX;

uint64_t pack(uint32_t High, uint32_t Low) {
  return (static_cast<uint64_t>(High) << 32) | Low;
}

/// One constraint-graph node: a (var, ctx) pair, an (object, field) pair, a
/// static field or the exceptions escaping a (method, ctx) pair.
///
/// Pts and Delta name interned sets of the solve's SetStore, so nodes with
/// equal sets share one payload, and each slot counts as one reference.
/// The difference-propagation invariant is Delta SUBSETOF Pts: an object
/// enters Delta exactly when it first enters Pts, and is drained
/// (propagated to every outgoing edge) exactly once, by processNode.
struct Node {
  SetId Pts = SetStore::EmptySet;   ///< All objects known to flow here.
  SetId Delta = SetStore::EmptySet; ///< Subset of Pts not yet propagated.
  CountedVector<uint32_t> Succ; ///< Subset edges: Pts flows into these nodes.
  /// Type-filtered edges, packed as (dst << 32 | type << 1 | negated) and
  /// sorted for dedup.  Only objects compatible with type flow across a
  /// plain edge (checked cast, catch), and only the others across a
  /// negated one (uncaught-exception propagation).
  CountedVector<uint64_t> Filters;
  VarId Var;          ///< The var of a var node; invalid for the others.
  uint32_t Owner = 0; ///< Owning method-context entry (var nodes only).
  bool InWorklist = false;
};
static_assert(sizeof(Node) <= 72, "per-var facts belong in Solver's tables");

/// One REACHABLE(meth, ctx) fact.  It owns the method's VARPOINTSTO nodes
/// under ctx, one slot per local, and its THROWPOINTSTO node; a slot is
/// NoNode until first use.
struct MethodContext {
  MethodId Method;
  CtxId Ctx;
  uint32_t ThrowNode = NoNode;
  uint32_t FirstVarSlot; ///< Start of the entry's run in VarSlots.
};

/// One abstract object, a (heap, hctx) pair, with its FLDPOINTSTO nodes.
struct ObjectInfo {
  uint32_t Heap;
  uint32_t HCtx;
  /// (field, node) of every field node based on the object; a short list,
  /// scanned linearly.
  CountedVector<std::pair<uint32_t, uint32_t>> FieldNodes;
};

/// Projects the nodes of one target (a var, a method's throws, a field cell
/// or a static field: one node per context) onto the heaps of their
/// objects, as a sorted, duplicate-free SharedIdSet.
///
/// A target whose nodes all name one set (empty sets aside) shares that
/// set's projection, memoized by SetId: every target of an insensitive
/// solve has one node, and many name the same set, so each distinct set is
/// projected once.  Other targets gather the union of their sets with no
/// sort.  Objects are numbered in discovery order, not heap order, so
/// mark() sets the heap bit of each of a set's objects in a bitmap over
/// heap ids, and sweep() reads the set bits back in ascending order: the
/// heaps come out sorted, and the heap contexts of one heap share its bit.
/// A summary bitmap over the words lets the sweep visit, and clear, only
/// the touched words.
class HeapGather {
public:
  HeapGather(const SetStore &Store, std::span<const ObjectInfo> Objects,
             size_t NumHeaps)
      : Store(Store), HeapOf(Objects.size()), Words((NumHeaps + 63) / 64),
        Summary((Words.size() + 63) / 64) {
    for (size_t Object = 0; Object < Objects.size(); ++Object)
      HeapOf[Object] = Objects[Object].Heap;
  }

  /// Adds \p Pts, the set of one of the pending target's nodes.
  void add(SetId Pts) {
    if (Pts == SetStore::EmptySet || Pts == Only)
      return;
    if (Only == SetStore::EmptySet) {
      Only = Pts;
      return;
    }
    if (!Mixed) {
      mark(Only);
      Mixed = true;
    }
    mark(Pts);
  }

  /// \returns the projection of the sets added since the last take().
  SharedIdSet take() {
    SetId Pts = std::exchange(Only, SetStore::EmptySet);
    if (std::exchange(Mixed, false))
      return SharedIdSet(sweep());
    if (Pts == SetStore::EmptySet)
      return {};
    auto [It, Inserted] = Memo.try_emplace(Pts);
    if (Inserted) {
      mark(Pts);
      It->second = SharedIdSet(sweep());
    }
    return It->second;
  }

private:
  /// Adds the heaps of the objects of \p Pts to the bitmap.
  void mark(SetId Pts) {
    for (uint32_t Object : Store.get(Pts)) {
      uint32_t Heap = HeapOf[Object];
      uint64_t &Word = Words[Heap >> 6];
      uint64_t Bit = uint64_t(1) << (Heap & 63);
      if (Word & Bit)
        continue;
      ++Marked;
      if (Word == 0) {
        size_t Touched = Heap >> 6;
        Summary[Touched >> 6] |= uint64_t(1) << (Touched & 63);
        SummaryLo = std::min(SummaryLo, Touched >> 6);
        SummaryHi = std::max(SummaryHi, Touched >> 6);
      }
      Word |= Bit;
    }
  }

  /// \returns the marked heaps, ascending, and clears the bitmap.
  SortedIdSet sweep() {
    SortedIdSet Heaps(Marked);
    uint32_t *Out = Heaps.data();
    for (size_t S = SummaryLo; S <= SummaryHi; ++S) {
      for (uint64_t Touched = std::exchange(Summary[S], 0); Touched != 0;
           Touched &= Touched - 1) {
        size_t W = (S << 6) + static_cast<size_t>(__builtin_ctzll(Touched));
        for (uint64_t Bits = std::exchange(Words[W], 0); Bits != 0;
             Bits &= Bits - 1)
          *Out++ = static_cast<uint32_t>((W << 6) + static_cast<size_t>(
                                                       __builtin_ctzll(Bits)));
      }
    }
    Marked = 0;
    SummaryLo = SIZE_MAX;
    SummaryHi = 0;
    return Heaps;
  }

  const SetStore &Store;
  /// The projection of each set that was a target's only set.
  std::unordered_map<SetId, SharedIdSet> Memo;
  SetId Only = SetStore::EmptySet; ///< The pending target's first set.
  bool Mixed = false;              ///< It has another: both are marked.
  std::vector<uint32_t> HeapOf;    ///< Object -> raw HeapId.
  std::vector<uint64_t> Words;     ///< Marked heaps.
  std::vector<uint64_t> Summary;   ///< Words that hold a marked heap.
  uint32_t Marked = 0;             ///< Marked heaps.
  size_t SummaryLo = SIZE_MAX;     ///< Least touched Summary word.
  size_t SummaryHi = 0;            ///< Greatest touched Summary word.
};

class Solver {
public:
  Solver(const Program &Prog, const ContextPolicy &Policy, ContextTable &Ctxs,
         const SolverOptions &Opts)
      : Prog(Prog), Policy(Policy), Ctxs(Ctxs), Opts(Opts) {}

  PointsToResult run() {
    TRACE_SPAN("solve.run");
    buildTriggers();
    CtxId Initial = Policy.initialContext(Ctxs);
    for (MethodId Entry : Prog.entries())
      enqueueReachable(Entry, Initial);

    uint64_t Checkpoint = 0;
    while (!PendingReachable.empty() || !Worklist.empty()) {
      // The tuple/memory budgets and the fault plan are cheap integer tests,
      // so test them every iteration; the clock costs a syscall and runs
      // only every 1024 iterations.
      ++Checkpoint;
      if (stopRequested(Checkpoint))
        break;
      if (!PendingReachable.empty()) {
        uint32_t MC = PendingReachable.back();
        PendingReachable.pop_back();
        instantiate(MC);
        continue;
      }
      processNode(popWorklist());
    }
    return finish();
  }

private:
  // --- Budget and fault injection ----------------------------------------

  /// Tests every stop condition, cheapest first.  Sets Status and \returns
  /// true if the run must abort at this iteration.
  bool stopRequested(uint64_t Checkpoint) {
    BudgetChecks = Checkpoint;
    if (Opts.Faults.FailAtPop != 0 && Pops >= Opts.Faults.FailAtPop &&
        Opts.Faults.FailStatus != SolveStatus::Completed) {
      Status = Opts.Faults.FailStatus;
      TRACE_INSTANT("solve.trip.fault", Pops);
      return true;
    }
    // Saturating multiply: a pathological inflation factor must trip the
    // budget, not wrap uint64_t and silently disarm it.  A zero factor
    // (below the documented minimum of 1) is treated as the inert 1.
    if (saturatingMul(TotalTuples, std::max<uint64_t>(
                                       Opts.Faults.TupleInflation, 1)) >
        Opts.Budget.MaxTuples) {
      Status = SolveStatus::TupleBudgetExceeded;
      TRACE_INSTANT("solve.trip.tuple_budget", TotalTuples);
      return true;
    }
    if (Opts.Budget.MaxBytes != 0 && Meter.peak() > Opts.Budget.MaxBytes) {
      Status = SolveStatus::MemoryBudgetExceeded;
      TRACE_INSTANT("solve.trip.memory_budget", Meter.peak());
      return true;
    }
    if (Checkpoint % 1024 == 0) {
      // Piggyback the periodic delta-relation sample on the existing clock
      // checkpoint so tracing adds no modulus of its own to the hot loop.
      // For a single-threaded solve both values are schedule-independent,
      // so the sample sequence is deterministic (see DESIGN.md §8).
      TRACE_INSTANT("solve.sample.tuples", TotalTuples);
      TRACE_INSTANT("solve.sample.worklist_depth", Worklist.size());
      if (Clock.seconds() > Opts.Budget.MaxSeconds) {
        Status = SolveStatus::TimeBudgetExceeded;
        TRACE_INSTANT("solve.trip.time_budget", Pops);
        return true;
      }
    }
    return false;
  }

  /// Fills the trigger table from the method bodies: the instructions
  /// with a base var are the LOAD, STORE and VCALL ones (a static call's
  /// site has no base).  They are sorted by (base, kind, address), as
  /// InstrKind orders Load < Store < Call, and a var's instructions all lie
  /// in its method's body.
  void buildTriggers() {
    CountedVector<std::pair<uint64_t, const Instruction *>> Keyed;
    for (uint32_t Method = 0; Method < Prog.numMethods(); ++Method)
      for (const Instruction &Instr : Prog.method(MethodId(Method)).Body)
        if (VarId Base = Instr.Kind == InstrKind::Call
                             ? Prog.site(Instr.Site).Base
                             : Instr.Base;
            Base.isValid())
          Keyed.push_back(
              {pack(Base.index(), static_cast<uint32_t>(Instr.Kind)), &Instr});
    std::sort(Keyed.begin(), Keyed.end());
    TriggerStart.assign(Prog.numVars() + 1, 0);
    for (auto [Key, Instr] : Keyed) {
      ++TriggerStart[(Key >> 32) + 1];
      Triggers.push_back(Instr);
    }
    std::partial_sum(TriggerStart.begin(), TriggerStart.end(),
                     TriggerStart.begin());
  }

  // --- Node and object interning ------------------------------------------

  uint32_t getObject(HeapId Heap, HCtxId HCtx) {
    auto [It, Inserted] =
        ObjIndex.try_emplace(pack(Heap.index(), HCtx.index()),
                             static_cast<uint32_t>(Objects.size()));
    if (Inserted)
      Objects.push_back({Heap.index(), HCtx.index(), {}});
    return It->second;
  }

  /// The node of \p Slot, added on first use; a var node's with its \p Var
  /// and \p Owner entry.
  uint32_t nodeAt(uint32_t &Slot, VarId Var = VarId(), uint32_t Owner = 0) {
    if (Slot == NoNode) {
      Slot = static_cast<uint32_t>(Nodes.size());
      Nodes.emplace_back().Var = Var;
      Nodes.back().Owner = Owner;
    }
    return Slot;
  }

  /// The node of \p Var under method-context entry \p MC, which must be an
  /// entry of the method owning \p Var.
  uint32_t varNode(VarId Var, uint32_t MC) {
    assert(Prog.var(Var).Owner == MethodContexts[MC].Method);
    return nodeAt(
        VarSlots[MethodContexts[MC].FirstVarSlot + Prog.var(Var).Local], Var,
        MC);
  }

  uint32_t fieldNode(uint32_t Obj, FieldId Field) {
    for (auto [FieldRaw, N] : Objects[Obj].FieldNodes)
      if (FieldRaw == Field.index())
        return N;
    return nodeAt(Objects[Obj].FieldNodes.emplace_back(Field.index(), NoNode)
                      .second);
  }

  /// Static fields are single global cells (Doop: StaticFieldPointsTo has
  /// no base object and no context).
  uint32_t staticFieldNode(FieldId Field) {
    return nodeAt(StaticFieldNodes[Field.index()]);
  }

  /// The set of exception objects escaping method-context entry \p MC — the
  /// paper [11]-style THROWPOINTSTO relation.
  uint32_t throwNode(uint32_t MC) {
    return nodeAt(MethodContexts[MC].ThrowNode);
  }

  // --- Core propagation ----------------------------------------------------

  void pushWorklist(uint32_t N) {
    if (Nodes[N].InWorklist)
      return;
    Nodes[N].InWorklist = true;
    Worklist.push_back(N);
  }

  uint32_t popWorklist() {
    uint32_t N = Worklist.back();
    Worklist.pop_back();
    Nodes[N].InWorklist = false;
    ++Pops;
    return N;
  }

  /// Points \p Slot, a node's Pts or Delta, at \p Set.
  void assign(SetId &Slot, SetId Set) {
    Store.retain(Set);
    Store.release(Slot);
    Slot = Set;
  }

  /// Merges \p Src into node \p DstN with one memoized union, adds exactly
  /// the new elements to the node's Delta, and enqueues the node if
  /// anything changed.  \returns true if it did.
  bool merge(uint32_t DstN, SetId Src) {
    Node &Dst = Nodes[DstN];
    // Both slots are reassigned below, so their counts are the owners'
    // (SetStore::unite).  A Delta equal to Pts grows into the union too.
    bool Shared = Dst.Delta == Dst.Pts;
    auto [Pts, Added] = Store.unite(Dst.Pts, Src, Shared ? 2 : 1);
    bool Changed = Added != SetStore::EmptySet;
    if (Changed) {
      TotalTuples += Store.size(Added);
      assign(Dst.Delta, Shared ? Pts : Store.unite(Dst.Delta, Added, 1).Set);
      assign(Dst.Pts, Pts);
      pushWorklist(DstN);
    }
    Store.collect();
    return Changed;
  }

  /// Adds \p Object to node \p N.  \returns true if it was new.  The
  /// single-element path — batch propagation goes through unionInto.
  bool addObjectTo(uint32_t N, uint32_t Object) {
    ++ElementProbes;
    if (setContains(Store.get(Nodes[N].Pts), Object))
      return false;
    return merge(N, Store.intern({&Object, 1}));
  }

  /// Batched difference propagation: merges the set \p Src into node
  /// \p DstN in one union.  One call replaces |Src| addObjectTo probes; the
  /// worklist push happens iff the per-element loop would have pushed, so
  /// the pop sequence (and thus every deterministic counter) is identical
  /// to per-element propagation.
  void unionInto(uint32_t DstN, SetId Src) {
    ++BatchUnions;
    merge(DstN, Src);
  }

  /// Adds the subset edge \p Src -> \p Dst, propagating existing objects
  /// with a single batched union.
  void addEdge(uint32_t Src, uint32_t Dst) {
    if (Src == Dst)
      return; // pts(n) <= pts(n) holds trivially.
    if (!setInsert(Nodes[Src].Succ, Dst))
      return;
    unionInto(Dst, Nodes[Src].Pts);
  }

  /// \returns the objects of \p Set that the filter \p Key, packed as
  /// (type << 1 | negated), admits: subtypes of type (checked cast, catch),
  /// or if negated the others (uncaught-exception propagation).
  SetId filtered(SetId Set, uint32_t Key) {
    return Store.filter(Set, Key, [&](uint32_t Object) {
      return Prog.isSubtypeOf(Prog.heap(HeapId(Objects[Object].Heap)).Type,
                              TypeId(Key >> 1)) != (Key & 1);
    });
  }

  /// Adds a type-filtered edge \p Src -> \p Dst (see filtered), merging
  /// the admitted subset with one batched union.
  void addFilteredEdge(uint32_t Src, uint32_t Dst, TypeId FilterType,
                       bool Negated = false) {
    assert(FilterType.index() < (1u << 31) && "filter type does not fit");
    uint32_t Key = FilterType.index() << 1 | Negated;
    if (!setInsert(Nodes[Src].Filters, pack(Dst, Key)))
      return;
    unionInto(Dst, filtered(Nodes[Src].Pts, Key));
  }

  /// Fires the LOAD, STORE or VCALL rule of \p Instr, in entry \p MC, on
  /// every object of \p Objects, a set of the base's node, held for the
  /// call as the rule may change that node.  The rules are per object:
  /// each object selects its own field node or callee.
  void fire(const Instruction &Instr, uint32_t MC, SetId Objects) {
    // A load's target or a store's source; a call has neither.
    VarId Var = Instr.Kind == InstrKind::Load ? Instr.To : Instr.From;
    uint32_t VarN = Var.isValid() ? varNode(Var, MC) : NoNode;
    Store.retain(Objects);
    for (uint32_t Object : Store.get(Objects)) {
      if (Instr.Kind == InstrKind::Load) // to = base.fld
        addEdge(fieldNode(Object, Instr.Field), VarN);
      else if (Instr.Kind == InstrKind::Store) // base.fld = from
        addEdge(VarN, fieldNode(Object, Instr.Field));
      else // VCALL: dispatch on the receiver.
        dispatch(Instr.Site, MC, Object);
    }
    Store.release(Objects);
  }

  void processNode(uint32_t N) {
    // The node's count on its delta passes to this call, which holds the
    // set immutable while the rules below change nodes, this one included.
    SetId Held = std::exchange(Nodes[N].Delta, SetStore::EmptySet);
    if (Held == SetStore::EmptySet)
      return;

    // The LOAD, STORE and VCALL rules of a var node's var fire on the new
    // objects.  The node's entry is instantiated, as instantiation runs
    // before any pop, so instantiate() has fired them on the older ones.
    if (VarId Var = Nodes[N].Var; Var.isValid())
      for (uint32_t I = TriggerStart[Var.index()];
           I < TriggerStart[Var.index() + 1]; ++I)
        fire(*Triggers[I], Nodes[N].Owner, Held);
    // The remaining loops only call unionInto, which creates no node and no
    // edge, so they read Nodes[N]'s edge lists in place.
    //
    // Copy edges (MOVE / INTERPROCASSIGN / field flow): one batched union
    // of the whole delta per edge.
    for (uint32_t Dst : Nodes[N].Succ)
      unionInto(Dst, Held);
    // Type-filtered edges, plain ones first, then negated ones: one
    // memoized filter of the delta per edge, then one batched union.
    for (uint64_t Negated : {0, 1})
      for (uint64_t Packed : Nodes[N].Filters)
        if ((Packed & 1) == Negated)
          unionInto(static_cast<uint32_t>(Packed >> 32),
                    filtered(Held, static_cast<uint32_t>(Packed)));
    Store.release(Held);
  }

  // --- Call handling --------------------------------------------------------

  void recordCallEdge(SiteId Site, CtxId CallerCtx, MethodId Callee,
                      CtxId CalleeCtx) {
    setInsert(SiteTargets[Site.index()], Callee.index());
    if (Opts.Assemble == Assembly::Tuples)
      CallGraphTuples.insert(
          {Site.index(), CallerCtx.index(), Callee.index(), CalleeCtx.index()});
  }

  /// Binds the actuals, result and catch variable of \p Site, in caller
  /// entry \p CallerMC, to callee entry \p CalleeMC.
  void bindArguments(const SiteInfo &Site, uint32_t CallerMC,
                     uint32_t CalleeMC) {
    const MethodInfo &Target = Prog.method(MethodContexts[CalleeMC].Method);
    size_t NumArgs = std::min(Site.Actuals.size(), Target.Formals.size());
    for (size_t Index = 0; Index < NumArgs; ++Index)
      addEdge(varNode(Site.Actuals[Index], CallerMC),
              varNode(Target.Formals[Index], CalleeMC));
    if (Site.Result.isValid() && Target.Return.isValid())
      addEdge(varNode(Target.Return, CalleeMC),
              varNode(Site.Result, CallerMC));

    // Exception flow: objects escaping the callee either bind to the
    // site's catch variable (subtype of the catch type) or escape the
    // caller as well (complement).  Without a catch clause, everything
    // escapes upward.
    uint32_t CalleeThrow = throwNode(CalleeMC);
    if (Site.CatchVar.isValid()) {
      addFilteredEdge(CalleeThrow, varNode(Site.CatchVar, CallerMC),
                      Site.CatchType);
      addFilteredEdge(CalleeThrow, throwNode(CallerMC), Site.CatchType,
                      /*Negated=*/true);
    } else {
      addEdge(CalleeThrow, throwNode(CallerMC));
    }
  }

  void dispatch(SiteId SiteHandle, uint32_t CallerMC, uint32_t Object) {
    const SiteInfo &Site = Prog.site(SiteHandle);
    HeapId Heap(Objects[Object].Heap);
    MethodId Callee = Prog.lookup(Prog.heap(Heap).Type, Site.Sig);
    if (!Callee.isValid())
      return; // No method matches the signature: dispatch failure.

    CtxId CallerCtx = MethodContexts[CallerMC].Ctx;
    CtxId CalleeCtx = Policy.merge(Heap, HCtxId(Objects[Object].HCtx),
                                   SiteHandle, Callee, CallerCtx, Ctxs);
    recordCallEdge(SiteHandle, CallerCtx, Callee, CalleeCtx);
    uint32_t CalleeMC = enqueueReachable(Callee, CalleeCtx);
    addObjectTo(varNode(Prog.method(Callee).This, CalleeMC), Object);
    bindArguments(Site, CallerMC, CalleeMC);
  }

  // --- Method instantiation --------------------------------------------------

  /// \returns the method-context entry of (\p Method, \p Ctx), adding it
  /// and queueing its instantiation on first discovery.
  uint32_t enqueueReachable(MethodId Method, CtxId Ctx) {
    auto [It, Inserted] = MethodContextIndex.try_emplace(
        pack(Method.index(), Ctx.index()),
        static_cast<uint32_t>(MethodContexts.size()));
    if (!Inserted)
      return It->second;
    size_t NumLocals = Prog.method(Method).Locals.size();
    MethodContexts.push_back(
        {Method, Ctx, NoNode, static_cast<uint32_t>(VarSlots.size())});
    VarSlots.resize(VarSlots.size() + NumLocals, NoNode);
    PendingReachable.push_back(It->second);
    return It->second;
  }

  /// Applies the body of entry \p MC's method under its context: the
  /// ALLOC/MOVE rules fire immediately, LOAD/STORE/VCALL fire on their
  /// base's objects so far (processNode fires them on later ones), and
  /// static calls resolve on the spot.
  void instantiate(uint32_t MC) {
    MethodId Method = MethodContexts[MC].Method;
    CtxId Ctx = MethodContexts[MC].Ctx;
    const MethodInfo &Info = Prog.method(Method);
    for (const Instruction &Instr : Info.Body) {
      switch (Instr.Kind) {
      case InstrKind::Alloc: {
        HCtxId HCtx = Policy.record(Instr.Heap, Ctx, Ctxs);
        addObjectTo(varNode(Instr.To, MC), getObject(Instr.Heap, HCtx));
        break;
      }
      case InstrKind::Move:
        addEdge(varNode(Instr.From, MC), varNode(Instr.To, MC));
        break;
      case InstrKind::Cast:
        if (Opts.FilterCasts)
          addFilteredEdge(varNode(Instr.From, MC), varNode(Instr.To, MC),
                          Instr.CastType);
        else
          addEdge(varNode(Instr.From, MC), varNode(Instr.To, MC));
        break;
      case InstrKind::Load:
      case InstrKind::Store:
        fire(Instr, MC, Nodes[varNode(Instr.Base, MC)].Pts);
        break;
      case InstrKind::SLoad:
        addEdge(staticFieldNode(Instr.Field), varNode(Instr.To, MC));
        break;
      case InstrKind::SStore:
        addEdge(varNode(Instr.From, MC), staticFieldNode(Instr.Field));
        break;
      case InstrKind::Throw:
        addEdge(varNode(Instr.From, MC), throwNode(MC));
        break;
      case InstrKind::Call: {
        const SiteInfo &Site = Prog.site(Instr.Site);
        if (Site.IsStatic) {
          MethodId Callee = Site.StaticTarget;
          CtxId CalleeCtx = Policy.mergeStatic(Instr.Site, Callee, Ctx, Ctxs);
          recordCallEdge(Instr.Site, Ctx, Callee, CalleeCtx);
          bindArguments(Site, MC, enqueueReachable(Callee, CalleeCtx));
          break;
        }
        fire(Instr, MC, Nodes[varNode(Site.Base, MC)].Pts);
        break;
      }
      }
    }
  }

  // --- Result assembly ---------------------------------------------------------

  /// Appends (\p Key..., heap, hctx) to \p Tuples for every object of node
  /// \p N.
  template <size_t Width>
  void appendTuples(uint32_t N,
                    std::vector<std::array<uint32_t, Width>> &Tuples,
                    const std::array<uint32_t, Width - 2> &Key) const {
    std::array<uint32_t, Width> Tuple;
    std::copy(Key.begin(), Key.end(), Tuple.begin());
    for (uint32_t Object : Store.get(Nodes[N].Pts)) {
      Tuple[Width - 2] = Objects[Object].Heap;
      Tuple[Width - 1] = Objects[Object].HCtx;
      Tuples.push_back(Tuple);
    }
  }

  /// Fills the four heap projections: each var, method's throws, field cell
  /// and static field adds the sets of all its nodes (one per context) to
  /// one HeapGather, which projects them onto their sorted heap set.
  void assembleProjections(PointsToResult &Result) const {
    HeapGather Gather(Store, Objects, Prog.numHeaps());

    // The entries of each method, grouped by a counting sort, so that all
    // nodes of a local (or of the method's throws) are marked together.
    std::vector<uint32_t> First(Prog.numMethods() + 1, 0);
    for (const MethodContext &MC : MethodContexts)
      ++First[MC.Method.index() + 1];
    for (size_t Method = 1; Method < First.size(); ++Method)
      First[Method] += First[Method - 1];
    std::vector<uint32_t> ByMethod(MethodContexts.size());
    std::vector<uint32_t> Next = First;
    for (uint32_t MC = 0; MC < MethodContexts.size(); ++MC)
      ByMethod[Next[MethodContexts[MC].Method.index()]++] = MC;

    Result.VarHeaps.resize(Prog.numVars());
    Result.MethodThrows.resize(Prog.numMethods());
    for (uint32_t Method = 0; Method < Prog.numMethods(); ++Method) {
      auto Entries = std::span(ByMethod).subspan(
          First[Method], First[Method + 1] - First[Method]);
      if (Entries.empty())
        continue;
      const std::vector<VarId> &Locals = Prog.method(MethodId(Method)).Locals;
      for (size_t Local = 0; Local < Locals.size(); ++Local) {
        for (uint32_t MC : Entries)
          if (uint32_t N = VarSlots[MethodContexts[MC].FirstVarSlot + Local];
              N != NoNode)
            Gather.add(Nodes[N].Pts);
        Result.VarHeaps[Locals[Local].index()] = Gather.take();
      }
      for (uint32_t MC : Entries)
        if (uint32_t N = MethodContexts[MC].ThrowNode; N != NoNode)
          Gather.add(Nodes[N].Pts);
      Result.MethodThrows[Method] = Gather.take();
    }

    // (base heap, field, node) of every field node, sorted so that the
    // nodes of one cell (one per heap context of the base) are adjacent.
    std::vector<std::array<uint32_t, 3>> FieldCellNodes;
    for (const ObjectInfo &Base : Objects)
      for (auto [FieldRaw, N] : Base.FieldNodes)
        FieldCellNodes.push_back({Base.Heap, FieldRaw, N});
    std::sort(FieldCellNodes.begin(), FieldCellNodes.end());
    for (size_t I = 0; I < FieldCellNodes.size();) {
      FieldCell &Cell = Result.FieldHeaps.emplace_back(FieldCellNodes[I][0],
                                                       FieldCellNodes[I][1]);
      for (; I < FieldCellNodes.size() &&
             std::pair(FieldCellNodes[I][0], FieldCellNodes[I][1]) ==
                 Cell.key();
           ++I)
        Gather.add(Nodes[FieldCellNodes[I][2]].Pts);
      Cell.Heaps = Gather.take();
    }

    Result.StaticFieldHeaps.resize(Prog.numFields());
    for (uint32_t FieldRaw = 0; FieldRaw < StaticFieldNodes.size();
         ++FieldRaw)
      if (StaticFieldNodes[FieldRaw] != NoNode) {
        Gather.add(Nodes[StaticFieldNodes[FieldRaw]].Pts);
        Result.StaticFieldHeaps[FieldRaw] = Gather.take();
      }
  }

  /// Fills the context-sensitive relation dumps, in discovery order.
  void assembleTuples(PointsToResult &Result) const {
    for (const MethodContext &MC : MethodContexts) {
      uint32_t MethodRaw = MC.Method.index();
      uint32_t CtxRaw = MC.Ctx.index();
      Result.Reachable.push_back({MethodRaw, CtxRaw});
      const std::vector<VarId> &Locals = Prog.method(MC.Method).Locals;
      for (size_t Local = 0; Local < Locals.size(); ++Local)
        if (uint32_t N = VarSlots[MC.FirstVarSlot + Local]; N != NoNode)
          appendTuples(N, Result.VarPointsTo, {Locals[Local].index(), CtxRaw});
      if (MC.ThrowNode != NoNode)
        appendTuples(MC.ThrowNode, Result.ThrowPointsTo, {MethodRaw, CtxRaw});
    }
    for (const ObjectInfo &Base : Objects)
      for (auto [FieldRaw, N] : Base.FieldNodes)
        appendTuples(N, Result.FieldPointsTo,
                     {Base.Heap, Base.HCtx, FieldRaw});
    for (uint32_t FieldRaw = 0; FieldRaw < StaticFieldNodes.size();
         ++FieldRaw)
      if (StaticFieldNodes[FieldRaw] != NoNode)
        appendTuples(StaticFieldNodes[FieldRaw], Result.StaticFieldPointsTo,
                     {FieldRaw});
    Result.CallGraph.assign(CallGraphTuples.begin(), CallGraphTuples.end());
  }

#ifndef NDEBUG
  /// Checks the store against the nodes (SetStore::consistent),
  /// Delta SUBSETOF Pts at every node, and that the nodes with a Var are
  /// the var nodes, each the slot of its Var under its Owner entry.
  void assertStoreConsistent() const {
    std::vector<SetId> Slots;
    for (uint32_t N = 0; N < Nodes.size(); ++N) {
      Slots.insert(Slots.end(), {Nodes[N].Pts, Nodes[N].Delta});
      for (uint32_t Object : Store.get(Nodes[N].Delta))
        assert(setContains(Store.get(Nodes[N].Pts), Object) &&
               "Delta is not a subset of Pts");
      if (VarId Var = Nodes[N].Var; Var.isValid())
        assert(VarSlots[MethodContexts[Nodes[N].Owner].FirstVarSlot +
                        Prog.var(Var).Local] == N &&
               "a var node is not the slot of its Var");
    }
    for (uint32_t N : VarSlots)
      assert((N == NoNode || Nodes[N].Var.isValid()) && "a var node has no Var");
    assert(Store.consistent(Slots) && "set store disagrees with the nodes");
  }
#endif

  PointsToResult finish() {
    // Counters are accumulated in the existing locals (Pops, TotalTuples,
    // ...) and published once here — the hot loop pays nothing for them.
    TRACE_COUNTER("solve.runs", 1);
    TRACE_COUNTER("solve.pops", Pops);
    TRACE_COUNTER("solve.tuples", TotalTuples);
    TRACE_COUNTER("solve.budget_checks", BudgetChecks);
    TRACE_COUNTER("solve.reachable_method_contexts", MethodContexts.size());
    uint64_t CallGraphEdges = 0;
    for (const SortedIdSet &Targets : SiteTargets)
      CallGraphEdges += Targets.size();
    TRACE_COUNTER("solve.call_graph_edges", CallGraphEdges);
    TRACE_COUNTER("solve.nodes", Nodes.size());
    TRACE_COUNTER("solve.objects", Objects.size());

    PointsToResult Result;
    Result.Status = Status;
    Result.AnalysisName = Policy.name();
    Result.MethodReachable.assign(Prog.numMethods(), false);
    Result.SiteTargets = std::move(SiteTargets);

    // The tuple counts are node set sizes, whatever is assembled.
    uint64_t VarTuples = 0;
    uint64_t NumVarNodes = 0;
    for (uint32_t N : VarSlots)
      if (N != NoNode) {
        ++NumVarNodes;
        VarTuples += Store.size(Nodes[N].Pts);
      }
    uint64_t ThrowTuples = 0;
    for (const MethodContext &MC : MethodContexts) {
      Result.MethodReachable[MC.Method.index()] = true;
      if (MC.ThrowNode != NoNode)
        ThrowTuples += Store.size(Nodes[MC.ThrowNode].Pts);
    }
    uint64_t FieldTuples = 0;
    uint64_t NumFieldNodes = 0;
    for (const ObjectInfo &Base : Objects) {
      NumFieldNodes += Base.FieldNodes.size();
      for (auto [FieldRaw, N] : Base.FieldNodes)
        FieldTuples += Store.size(Nodes[N].Pts);
    }
    uint64_t StaticTuples = 0;
    for (uint32_t N : StaticFieldNodes)
      if (N != NoNode)
        StaticTuples += Store.size(Nodes[N].Pts);
    std::vector<SetId> DistinctPts;
    for (const Node &NodeRef : Nodes)
      DistinctPts.push_back(NodeRef.Pts);
    std::sort(DistinctPts.begin(), DistinctPts.end());
    DistinctPts.erase(std::unique(DistinctPts.begin(), DistinctPts.end()),
                      DistinctPts.end());
#ifndef NDEBUG
    assertStoreConsistent();
#endif

    if (Opts.Assemble != Assembly::Stats)
      assembleProjections(Result);
    if (Opts.Assemble == Assembly::Tuples)
      assembleTuples(Result);

    Result.Stats.Seconds = Clock.seconds();
    Result.Stats.VarPointsToTuples = VarTuples;
    Result.Stats.FieldPointsToTuples = FieldTuples;
    Result.Stats.ThrowPointsToTuples = ThrowTuples;
    Result.Stats.StaticFieldTuples = StaticTuples;
    Result.Stats.NumVarNodes = NumVarNodes;
    Result.Stats.NumFieldNodes = NumFieldNodes;
    Result.Stats.NumObjects = Objects.size();
    Result.Stats.NumContexts = Ctxs.numContexts();
    Result.Stats.NumHeapContexts = Ctxs.numHeapContexts();
    Result.Stats.ReachableMethodContexts = MethodContexts.size();
    Result.Stats.CallGraphEdges = CallGraphEdges;
    Result.Stats.WorklistPops = Pops;
    Result.Stats.ApproxBytes = Meter.peak();
    Result.Stats.BatchUnions = BatchUnions;
    Result.Stats.ElementProbes = ElementProbes;
    Result.Stats.DistinctPointsToSets = DistinctPts.size();
    Result.Stats.MemoHits = Store.memoHits();
    return Result;
  }

  const Program &Prog;
  const ContextPolicy &Policy;
  ContextTable &Ctxs;
  SolverOptions Opts;
  Timer Clock;

  MeterScope Meter; ///< Counts the containers below; ApproxBytes is its peak.

  CountedVector<Node> Nodes;
  /// Node of each static field, NoNode until first use.
  CountedVector<uint32_t> StaticFieldNodes =
      CountedVector<uint32_t>(Prog.numFields(), NoNode);

  /// The REACHABLE relation in discovery order, found through
  /// MethodContextIndex (keyed by packed (method, ctx)).
  CountedVector<MethodContext> MethodContexts;
  CountedHash<std::unordered_map, uint32_t> MethodContextIndex;
  /// Var-node slots: one run per entry, indexed by VarInfo::Local.
  CountedVector<uint32_t> VarSlots;
  /// The LOAD, STORE and VCALL relations, context-free: the instructions
  /// var V is the base of are Triggers[TriggerStart[V], TriggerStart[V+1]),
  /// its loads, then its stores, then its virtual calls, each in body order.
  CountedVector<uint32_t> TriggerStart;
  CountedVector<const Instruction *> Triggers;
  /// Entries discovered but not yet instantiated.
  CountedVector<uint32_t> PendingReachable;

  /// Objects in discovery order, found through ObjIndex (keyed by packed
  /// (heap, hctx): the one truly sparse key space).
  CountedVector<ObjectInfo> Objects;
  CountedHash<std::unordered_map, uint32_t> ObjIndex;

  CountedVector<uint32_t> Worklist;

  /// Per-site sorted callees: the insensitive call graph, built in place.
  /// Not counted: one moves into the result, one is only for the dump.
  std::vector<SortedIdSet> SiteTargets =
      std::vector<SortedIdSet>(Prog.numSites());
  std::set<std::array<uint32_t, 4>> CallGraphTuples;

  /// The points-to sets every node's Pts and Delta name.
  SetStore Store;

  uint64_t TotalTuples = 0;
  uint64_t Pops = 0;
  uint64_t BudgetChecks = 0;
  uint64_t BatchUnions = 0;   ///< unionInto invocations (whole-delta merges).
  uint64_t ElementProbes = 0; ///< Single-element addObjectTo attempts.
  SolveStatus Status = SolveStatus::Completed;
};

} // namespace

PointsToResult intro::solvePointsTo(const Program &Prog,
                                    const ContextPolicy &Policy,
                                    ContextTable &Table,
                                    const SolverOptions &Options) {
  return Solver(Prog, Policy, Table, Options).run();
}
