//===- ir/Program.cpp - Whole-program IR container ------------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"

#include <cassert>

using namespace intro;

TypeId Program::addType(std::string_view Name, TypeId Super) {
  assert(!Finalized && "program already finalized");
  assert((!Super.isValid() || Super.index() < Types.size()) &&
         "superclass must be added before subclass");
  TypeInfo Info;
  Info.Name = Names.intern(Name);
  Info.Super = Super;
  Types.push_back(std::move(Info));
  return TypeId(static_cast<uint32_t>(Types.size() - 1));
}

FieldId Program::addField(std::string_view Name, TypeId Owner) {
  assert(!Finalized && "program already finalized");
  FieldInfo Info;
  Info.Name = Names.intern(Name);
  Info.Owner = Owner;
  Fields.push_back(Info);
  FieldId Id(static_cast<uint32_t>(Fields.size() - 1));
  Types[Owner.index()].Fields.push_back(Id);
  return Id;
}

SigId Program::addSignature(std::string_view Name, uint32_t Arity) {
  uint32_t NameHandle = Names.intern(Name);
  // Builders call this for every method and every virtual call site, so
  // the (name, arity) dedup is a hash probe; ids stay in first-seen order.
  auto [It, Inserted] = SigIndex.try_emplace(
      (static_cast<uint64_t>(NameHandle) << 32) | Arity,
      static_cast<uint32_t>(Sigs.size()));
  if (Inserted) {
    assert(!Finalized && "program already finalized");
    Sigs.push_back(SigInfo{NameHandle, Arity});
  }
  return It->second;
}

MethodId Program::addMethod(std::string_view Name, TypeId Owner, SigId Sig,
                            bool IsStatic) {
  assert(!Finalized && "program already finalized");
  MethodInfo Info;
  Info.Name = Names.intern(Name);
  Info.Owner = Owner;
  Info.Sig = Sig;
  Info.IsStatic = IsStatic;
  Methods.push_back(std::move(Info));
  MethodId Id(static_cast<uint32_t>(Methods.size() - 1));
  if (!IsStatic) {
    auto [It, Inserted] =
        Types[Owner.index()].DeclaredMethods.emplace(Sig.index(), Id);
    (void)It;
    assert(Inserted && "duplicate virtual method signature in class");
  }
  return Id;
}

VarId Program::addVar(std::string_view Name, MethodId Owner) {
  assert(!Finalized && "program already finalized");
  VarInfo Info;
  Info.Name = Names.intern(Name);
  Info.Owner = Owner;
  Info.Local = static_cast<uint32_t>(Methods[Owner.index()].Locals.size());
  Vars.push_back(Info);
  VarId Id(static_cast<uint32_t>(Vars.size() - 1));
  Methods[Owner.index()].Locals.push_back(Id);
  return Id;
}

HeapId Program::addHeap(std::string_view Name, TypeId Type,
                        MethodId InMethod) {
  assert(!Finalized && "program already finalized");
  HeapInfo Info;
  Info.Name = Names.intern(Name);
  Info.Type = Type;
  Info.InMethod = InMethod;
  Heaps.push_back(Info);
  return HeapId(static_cast<uint32_t>(Heaps.size() - 1));
}

SiteId Program::addSite(SiteInfo Site) {
  assert(!Finalized && "program already finalized");
  Sites.push_back(std::move(Site));
  return SiteId(static_cast<uint32_t>(Sites.size() - 1));
}

void Program::finalize() {
  if (Finalized)
    return;
  Finalized = true;

  // Depths: parents are guaranteed to precede children (checked in addType).
  for (TypeInfo &Info : Types)
    Info.Depth = Info.Super.isValid() ? Types[Info.Super.index()].Depth + 1 : 0;

  // Flattened dispatch tables, root-first so overrides win.
  for (uint32_t TypeIndex = 0; TypeIndex < Types.size(); ++TypeIndex) {
    // Collect the superclass chain root-first.
    std::vector<uint32_t> Chain;
    for (TypeId Cursor(TypeIndex); Cursor.isValid();
         Cursor = Types[Cursor.index()].Super)
      Chain.push_back(Cursor.index());
    for (auto It = Chain.rbegin(); It != Chain.rend(); ++It)
      for (const auto &[SigRaw, Method] : Types[*It].DeclaredMethods)
        DispatchCache[dispatchKey(TypeId(TypeIndex), SigId(SigRaw))] = Method;
  }
}

bool Program::isSubtypeOf(TypeId Sub, TypeId Super) const {
  assert(Finalized && "finalize() must run before subtype queries");
  uint32_t SuperDepth = Types[Super.index()].Depth;
  TypeId Cursor = Sub;
  while (Cursor.isValid() && Types[Cursor.index()].Depth > SuperDepth)
    Cursor = Types[Cursor.index()].Super;
  return Cursor == Super;
}

MethodId Program::lookup(TypeId Type, SigId Sig) const {
  assert(Finalized && "finalize() must run before dispatch");
  auto It = DispatchCache.find(dispatchKey(Type, Sig));
  return It == DispatchCache.end() ? MethodId::invalid() : It->second;
}

size_t Program::numInstructions() const {
  size_t Total = 0;
  for (const MethodInfo &Info : Methods)
    Total += Info.Body.size();
  return Total;
}
