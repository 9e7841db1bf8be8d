//===- analysis/ContextPolicy.cpp - Context constructors ------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"

#include "ir/Program.h"

#include <algorithm>
#include <array>

using namespace intro;

ContextPolicy::~ContextPolicy() = default;

RefinementExceptions::RefinementExceptions(const Program &Prog)
    : NoRefineHeaps(Prog.numHeaps(), false), NoRefineSites(Prog.numSites()) {}

bool RefinementExceptions::operator==(const RefinementExceptions &Other) const {
  // Equal on the common prefix, and only default entries past it.
  auto SamePadded = [](const auto &A, const auto &B) {
    using Entry = typename std::decay_t<decltype(A)>::value_type;
    auto IsDefault = [](const Entry &Value) { return Value == Entry(); };
    size_t Common = std::min(A.size(), B.size());
    return std::equal(A.begin(), A.begin() + Common, B.begin()) &&
           std::all_of(A.begin() + Common, A.end(), IsDefault) &&
           std::all_of(B.begin() + Common, B.end(), IsDefault);
  };
  return SamePadded(NoRefineHeaps, Other.NoRefineHeaps) &&
         SamePadded(NoRefineSites, Other.NoRefineSites);
}

namespace {

/// Maximum supported context depth.  Deep enough for every analysis in the
/// paper (depth 2 plus a 1-deep heap); bump if you experiment further.
constexpr uint32_t MaxDepth = 8;

/// Pushes \p NewElement in front of \p Tail, keeping at most \p Depth
/// elements, and interns the result as a calling context.
CtxId pushCtx(uint32_t NewElement, std::span<const uint32_t> Tail,
              uint32_t Depth, ContextTable &Table) {
  assert(Depth >= 1 && Depth <= MaxDepth && "unsupported context depth");
  std::array<uint32_t, MaxDepth> Buffer;
  Buffer[0] = NewElement;
  uint32_t Count = 1;
  for (uint32_t Element : Tail) {
    if (Count >= Depth)
      break;
    Buffer[Count++] = Element;
  }
  return Table.internCtx(std::span<const uint32_t>(Buffer.data(), Count));
}

/// Interns the first \p Depth elements of \p Elements as a heap context.
HCtxId truncateToHCtx(std::span<const uint32_t> Elements, uint32_t Depth,
                      ContextTable &Table) {
  uint32_t Count = std::min<uint32_t>(Depth,
                                      static_cast<uint32_t>(Elements.size()));
  return Table.internHCtx(std::span<const uint32_t>(Elements.data(), Count));
}

class InsensitivePolicy : public ContextPolicy {
public:
  std::string name() const override { return "insens"; }

  HCtxId record(HeapId, CtxId, ContextTable &Table) const override {
    return Table.emptyHCtx();
  }

  CtxId merge(HeapId, HCtxId, SiteId, MethodId, CtxId,
              ContextTable &Table) const override {
    return Table.emptyCtx();
  }

  CtxId mergeStatic(SiteId, MethodId, CtxId,
                    ContextTable &Table) const override {
    return Table.emptyCtx();
  }
};

class CallSitePolicy : public ContextPolicy {
public:
  CallSitePolicy(uint32_t Depth, uint32_t HeapDepth)
      : Depth(Depth), HeapDepth(HeapDepth) {}

  std::string name() const override {
    return std::to_string(Depth) + "call" + (HeapDepth > 0 ? "H" : "");
  }

  // The heap context of an object is the (truncated) calling context of the
  // allocating method.
  HCtxId record(HeapId, CtxId Ctx, ContextTable &Table) const override {
    return truncateToHCtx(Table.elements(Ctx), HeapDepth, Table);
  }

  // The callee context is the call site consed onto the caller's context.
  CtxId merge(HeapId, HCtxId, SiteId Invo, MethodId, CtxId CallerCtx,
              ContextTable &Table) const override {
    return pushCtx(Invo.index(), Table.elements(CallerCtx), Depth, Table);
  }

  CtxId mergeStatic(SiteId Invo, MethodId, CtxId CallerCtx,
                    ContextTable &Table) const override {
    return pushCtx(Invo.index(), Table.elements(CallerCtx), Depth, Table);
  }

private:
  uint32_t Depth;
  uint32_t HeapDepth;
};

class ObjectPolicy : public ContextPolicy {
public:
  ObjectPolicy(const Program &Prog, uint32_t Depth, uint32_t HeapDepth)
      : Prog(Prog), Depth(Depth), HeapDepth(HeapDepth) {
    (void)this->Prog;
  }

  std::string name() const override {
    return std::to_string(Depth) + "obj" + (HeapDepth > 0 ? "H" : "");
  }

  HCtxId record(HeapId, CtxId Ctx, ContextTable &Table) const override {
    return truncateToHCtx(Table.elements(Ctx), HeapDepth, Table);
  }

  // The callee context is the receiver's allocation site consed onto the
  // receiver's heap context.
  CtxId merge(HeapId Heap, HCtxId HCtx, SiteId, MethodId, CtxId,
              ContextTable &Table) const override {
    return pushCtx(Heap.index(), Table.elements(HCtx), Depth, Table);
  }

  // Static calls have no receiver: the caller's context is propagated
  // unchanged (the standard Doop treatment for object-sensitivity).
  CtxId mergeStatic(SiteId, MethodId, CtxId CallerCtx,
                    ContextTable &) const override {
    return CallerCtx;
  }

private:
  const Program &Prog;
  uint32_t Depth;
  uint32_t HeapDepth;
};

class TypePolicy : public ContextPolicy {
public:
  TypePolicy(const Program &Prog, uint32_t Depth, uint32_t HeapDepth)
      : Prog(Prog), Depth(Depth), HeapDepth(HeapDepth) {}

  std::string name() const override {
    return std::to_string(Depth) + "type" + (HeapDepth > 0 ? "H" : "");
  }

  HCtxId record(HeapId, CtxId Ctx, ContextTable &Table) const override {
    return truncateToHCtx(Table.elements(Ctx), HeapDepth, Table);
  }

  // Like object-sensitivity, but the context element is the class that
  // lexically contains the receiver's allocation site.
  CtxId merge(HeapId Heap, HCtxId HCtx, SiteId, MethodId, CtxId,
              ContextTable &Table) const override {
    TypeId Element = Prog.classOfMethod(Prog.heap(Heap).InMethod);
    return pushCtx(Element.index(), Table.elements(HCtx), Depth, Table);
  }

  CtxId mergeStatic(SiteId, MethodId, CtxId CallerCtx,
                    ContextTable &) const override {
    return CallerCtx;
  }

private:
  const Program &Prog;
  uint32_t Depth;
  uint32_t HeapDepth;
};

class HybridPolicy : public ContextPolicy {
public:
  HybridPolicy(const Program &Prog, uint32_t Depth, uint32_t HeapDepth)
      : Prog(Prog), Depth(Depth), HeapDepth(HeapDepth) {
    (void)this->Prog;
  }

  std::string name() const override {
    return std::to_string(Depth) + "hyb" + (HeapDepth > 0 ? "H" : "");
  }

  HCtxId record(HeapId, CtxId Ctx, ContextTable &Table) const override {
    return truncateToHCtx(Table.elements(Ctx), HeapDepth, Table);
  }

  // Virtual calls: object-sensitivity (receiver allocation site).
  CtxId merge(HeapId Heap, HCtxId HCtx, SiteId, MethodId, CtxId,
              ContextTable &Table) const override {
    return pushCtx(tagHeap(Heap), Table.elements(HCtx), Depth, Table);
  }

  // Static calls: call-site-sensitivity (the invocation site is consed
  // onto the caller's context) -- the "selective hybrid" of [12].
  CtxId mergeStatic(SiteId Invo, MethodId, CtxId CallerCtx,
                    ContextTable &Table) const override {
    return pushCtx(tagSite(Invo), Table.elements(CallerCtx), Depth, Table);
  }

private:
  // Tag the top bit so heap and site indices occupy disjoint element
  // spaces: mixing them untagged would spuriously merge contexts.
  static uint32_t tagHeap(HeapId Heap) { return Heap.index(); }
  static uint32_t tagSite(SiteId Invo) {
    return Invo.index() | 0x80000000u;
  }

  const Program &Prog;
  uint32_t Depth;
  uint32_t HeapDepth;
};

class IntrospectivePolicy : public ContextPolicy {
public:
  IntrospectivePolicy(std::string Name, const ContextPolicy &Coarse,
                      const ContextPolicy &Refined,
                      RefinementExceptions Exceptions)
      : Name(std::move(Name)), Coarse(Coarse), Refined(Refined),
        Exceptions(std::move(Exceptions)) {}

  std::string name() const override { return Name; }

  // The duplicated rule pair of Figure 3: OBJECTTOREFINE selects between
  // RECORD and RECORDREFINED...
  HCtxId record(HeapId Heap, CtxId Ctx, ContextTable &Table) const override {
    if (Exceptions.skipsHeap(Heap))
      return Coarse.record(Heap, Ctx, Table);
    return Refined.record(Heap, Ctx, Table);
  }

  // ...and SITETOREFINE between MERGE and MERGEREFINED.
  CtxId merge(HeapId Heap, HCtxId HCtx, SiteId Invo, MethodId Callee,
              CtxId CallerCtx, ContextTable &Table) const override {
    if (Exceptions.skipsSite(Invo, Callee))
      return Coarse.merge(Heap, HCtx, Invo, Callee, CallerCtx, Table);
    return Refined.merge(Heap, HCtx, Invo, Callee, CallerCtx, Table);
  }

  CtxId mergeStatic(SiteId Invo, MethodId Callee, CtxId CallerCtx,
                    ContextTable &Table) const override {
    if (Exceptions.skipsSite(Invo, Callee))
      return Coarse.mergeStatic(Invo, Callee, CallerCtx, Table);
    return Refined.mergeStatic(Invo, Callee, CallerCtx, Table);
  }

private:
  std::string Name;
  const ContextPolicy &Coarse;
  const ContextPolicy &Refined;
  RefinementExceptions Exceptions;
};

} // namespace

std::unique_ptr<ContextPolicy> intro::makeInsensitivePolicy() {
  return std::make_unique<InsensitivePolicy>();
}

std::unique_ptr<ContextPolicy> intro::makeCallSitePolicy(uint32_t Depth,
                                                         uint32_t HeapDepth) {
  return std::make_unique<CallSitePolicy>(Depth, HeapDepth);
}

std::unique_ptr<ContextPolicy>
intro::makeObjectPolicy(const Program &Prog, uint32_t Depth,
                        uint32_t HeapDepth) {
  return std::make_unique<ObjectPolicy>(Prog, Depth, HeapDepth);
}

std::unique_ptr<ContextPolicy>
intro::makeTypePolicy(const Program &Prog, uint32_t Depth,
                      uint32_t HeapDepth) {
  return std::make_unique<TypePolicy>(Prog, Depth, HeapDepth);
}

std::unique_ptr<ContextPolicy>
intro::makeHybridPolicy(const Program &Prog, uint32_t Depth,
                        uint32_t HeapDepth) {
  return std::make_unique<HybridPolicy>(Prog, Depth, HeapDepth);
}

std::unique_ptr<ContextPolicy>
intro::makeIntrospectivePolicy(std::string Name, const ContextPolicy &Coarse,
                               const ContextPolicy &Refined,
                               RefinementExceptions Exceptions) {
  return std::make_unique<IntrospectivePolicy>(std::move(Name), Coarse,
                                               Refined, std::move(Exceptions));
}
