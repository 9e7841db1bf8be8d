//===- analysis/ContextPolicy.h - Context constructors ----------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's RECORD and MERGE context constructor functions (Figure 2),
/// hidden behind a virtual interface so that the same solver rules implement
/// context-insensitive, call-site-sensitive, object-sensitive, and
/// type-sensitive analyses of any depth — plus the introspective combination
/// of two such policies driven by the SITETOREFINE / OBJECTTOREFINE input
/// relations (stored in complement, "do not refine", form; see the paper's
/// footnote 4).
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_CONTEXTPOLICY_H
#define ANALYSIS_CONTEXTPOLICY_H

#include "analysis/Context.h"
#include "support/Ids.h"

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

namespace intro {

class Program;

/// Abstract context constructors.  RECORD creates heap contexts at
/// allocation sites; MERGE creates calling contexts at (virtual) call
/// sites; MERGESTATIC handles calls with a statically known target.
class ContextPolicy {
public:
  virtual ~ContextPolicy();

  /// Human-readable analysis name, e.g. "2objH".
  virtual std::string name() const = 0;

  /// Context in which entry methods are analyzed.
  virtual CtxId initialContext(ContextTable &Table) const {
    return Table.emptyCtx();
  }

  /// RECORD(heap, ctx) = hctx — heap context for an object allocated at
  /// \p Heap while the allocating method runs in \p Ctx.
  virtual HCtxId record(HeapId Heap, CtxId Ctx, ContextTable &Table) const = 0;

  /// MERGE(heap, hctx, invo, ctx) = calleeCtx — calling context for the
  /// method invoked at \p Invo on a receiver abstracted as (\p Heap,
  /// \p HCtx), from caller context \p CallerCtx.  \p Callee is the
  /// dispatched target (needed by the introspective SITETOREFINE filter,
  /// which is keyed on (invo, meth) pairs).
  virtual CtxId merge(HeapId Heap, HCtxId HCtx, SiteId Invo, MethodId Callee,
                      CtxId CallerCtx, ContextTable &Table) const = 0;

  /// MERGE for static calls (no receiver object).
  virtual CtxId mergeStatic(SiteId Invo, MethodId Callee, CtxId CallerCtx,
                            ContextTable &Table) const = 0;
};

/// Context-insensitive: every constructor returns the `*` context.
std::unique_ptr<ContextPolicy> makeInsensitivePolicy();

/// k-call-site-sensitive with a (k-1)-context-sensitive heap ("kcallH").
/// Context elements are invocation sites, most recent first.
std::unique_ptr<ContextPolicy> makeCallSitePolicy(uint32_t Depth,
                                                  uint32_t HeapDepth);

/// k-object-sensitive with a (k-1)-context-sensitive heap ("kobjH").
/// Context elements are receiver allocation sites, most recent first.
/// Static calls propagate the caller's context unchanged (Doop convention).
std::unique_ptr<ContextPolicy> makeObjectPolicy(const Program &Prog,
                                                uint32_t Depth,
                                                uint32_t HeapDepth);

/// k-type-sensitive with a (k-1)-context-sensitive heap ("ktypeH").
/// Context elements are the classes *containing the allocation site* of the
/// receiver object (Smaragdakis et al., POPL 2011).
std::unique_ptr<ContextPolicy> makeTypePolicy(const Program &Prog,
                                              uint32_t Depth,
                                              uint32_t HeapDepth);

/// Selective hybrid context-sensitivity (Kastrinis & Smaragdakis, PLDI
/// 2013 — the paper's reference [12]): object-sensitivity at virtual call
/// sites, call-site-sensitivity at static call sites ("khybH").  Context
/// elements are tagged so that allocation-site and invocation-site indices
/// never collide.
std::unique_ptr<ContextPolicy> makeHybridPolicy(const Program &Prog,
                                                uint32_t Depth,
                                                uint32_t HeapDepth);

/// The program elements that introspective context-sensitivity treats with
/// the *coarse* context.  This is the complement encoding of the paper's
/// SITETOREFINE / OBJECTTOREFINE inputs: everything not listed here is
/// refined (analyzed with the precise context).
struct RefinementExceptions {
  /// Heap allocation sites to analyze with the coarse RECORD.
  std::unordered_set<uint32_t> NoRefineHeaps;
  /// (invocation site, target method) pairs to analyze with the coarse
  /// MERGE, packed as (site << 32 | method).
  std::unordered_set<uint64_t> NoRefineSites;

  static uint64_t packSite(SiteId Invo, MethodId Callee) {
    return (static_cast<uint64_t>(Invo.index()) << 32) | Callee.index();
  }

  bool skipsHeap(HeapId Heap) const {
    return NoRefineHeaps.count(Heap.index()) != 0;
  }
  bool skipsSite(SiteId Invo, MethodId Callee) const {
    return NoRefineSites.count(packSite(Invo, Callee)) != 0;
  }

  bool operator==(const RefinementExceptions &) const = default;
};

/// Introspective combination: \p Refined constructors (RECORDREFINED /
/// MERGEREFINED) apply to every element *not* excluded by \p Exceptions;
/// excluded elements fall back to \p Coarse (context-insensitive in the
/// paper's experiments).  Both policies must outlive the returned object.
std::unique_ptr<ContextPolicy>
makeIntrospectivePolicy(std::string Name, const ContextPolicy &Coarse,
                        const ContextPolicy &Refined,
                        RefinementExceptions Exceptions);

} // namespace intro

#endif // ANALYSIS_CONTEXTPOLICY_H
