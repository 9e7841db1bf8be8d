//===- ir/Program.h - Whole-program IR container ----------------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole-program representation analyzed by the framework: a class
/// hierarchy with fields and virtually dispatched methods, plus per-method
/// instruction lists over the language of ir/Instruction.h.
///
/// All entities are stored in dense tables indexed by the typed ids of
/// support/Ids.h.  A Program is constructed through ProgramBuilder (or the
/// textual frontend) and then frozen with finalize(), which computes the
/// dispatch tables used by the analyses.
///
//===----------------------------------------------------------------------===//

#ifndef IR_PROGRAM_H
#define IR_PROGRAM_H

#include "ir/Instruction.h"
#include "support/Ids.h"
#include "support/StringInterner.h"

#include <string_view>
#include <unordered_map>
#include <vector>

namespace intro {

/// A class type in the hierarchy.
struct TypeInfo {
  uint32_t Name;               ///< Interned type name.
  TypeId Super;                ///< Superclass; invalid for the root.
  uint32_t Depth = 0;          ///< Distance from the hierarchy root.
  std::vector<FieldId> Fields; ///< Fields declared directly in this class.
  /// Methods declared directly in this class, keyed by raw signature id.
  std::unordered_map<uint32_t, MethodId> DeclaredMethods;
};

/// An instance field.
struct FieldInfo {
  uint32_t Name; ///< Interned field name.
  TypeId Owner;  ///< Declaring class.
};

/// A dispatch signature: method name plus arity.
struct SigInfo {
  uint32_t Name;  ///< Interned method name.
  uint32_t Arity; ///< Number of formal parameters (excluding `this`).
};

/// A local variable or formal parameter.
struct VarInfo {
  uint32_t Name;  ///< Interned variable name (unique within its method).
  MethodId Owner; ///< Enclosing method.
  uint32_t Local; ///< Position in the owner's MethodInfo::Locals.
};

/// A method definition.
struct MethodInfo {
  uint32_t Name;               ///< Interned method name.
  TypeId Owner;                ///< Declaring class.
  SigId Sig;                   ///< Dispatch signature.
  bool IsStatic = false;       ///< True for static (non-virtual) methods.
  VarId This;                  ///< `this` variable; invalid if static.
  std::vector<VarId> Formals;  ///< Formal parameters, in order.
  VarId Return;                ///< Formal return variable; invalid if void.
  std::vector<VarId> Locals;   ///< All variables of the method (incl. above).
  std::vector<Instruction> Body; ///< Instructions (order is irrelevant to
                                 ///< the flow-insensitive analyses).
};

/// A heap object abstraction: one allocation site.
struct HeapInfo {
  uint32_t Name;     ///< Interned site label, e.g. "m/new A/3".
  TypeId Type;       ///< Allocated class (paper: HEAPTYPE).
  MethodId InMethod; ///< Method containing the allocation.
};

/// A method invocation site.
struct SiteInfo {
  uint32_t Name;         ///< Interned site label.
  bool IsStatic = false; ///< Static call (fixed target) vs. virtual call.
  VarId Base;            ///< Receiver variable; invalid for static calls.
  SigId Sig;             ///< Signature looked up at dispatch time.
  MethodId StaticTarget; ///< Fixed target; valid only for static calls.
  std::vector<VarId> Actuals; ///< Actual arguments, in order.
  VarId Result;          ///< Variable receiving the return value; optional.
  MethodId InMethod;     ///< Enclosing (caller) method.
  VarId CatchVar;        ///< Receives caught exceptions; invalid = no catch.
  TypeId CatchType;      ///< Exception type this site's catch clause covers.
};

/// Whole-program IR: entity tables, class hierarchy, and dispatch.
class Program {
public:
  // --- Construction (used by ProgramBuilder / the frontend) -------------

  TypeId addType(std::string_view Name, TypeId Super);
  FieldId addField(std::string_view Name, TypeId Owner);
  SigId addSignature(std::string_view Name, uint32_t Arity);
  MethodId addMethod(std::string_view Name, TypeId Owner, SigId Sig,
                     bool IsStatic);
  VarId addVar(std::string_view Name, MethodId Owner);
  HeapId addHeap(std::string_view Name, TypeId Type, MethodId InMethod);
  SiteId addSite(SiteInfo Site);

  /// Marks \p Method as a program entry point (always reachable).
  void addEntry(MethodId Method) { EntryMethods.push_back(Method); }

  /// Freezes the program: computes type depths and flattened dispatch
  /// tables.  Must be called before analysis; idempotent.
  void finalize();

  // --- Queries -----------------------------------------------------------

  size_t numTypes() const { return Types.size(); }
  size_t numFields() const { return Fields.size(); }
  size_t numSignatures() const { return Sigs.size(); }
  size_t numMethods() const { return Methods.size(); }
  size_t numVars() const { return Vars.size(); }
  size_t numHeaps() const { return Heaps.size(); }
  size_t numSites() const { return Sites.size(); }

  const TypeInfo &type(TypeId Id) const { return Types[Id.index()]; }
  const FieldInfo &field(FieldId Id) const { return Fields[Id.index()]; }
  const SigInfo &signature(SigId Id) const { return Sigs[Id.index()]; }
  const MethodInfo &method(MethodId Id) const { return Methods[Id.index()]; }
  const VarInfo &var(VarId Id) const { return Vars[Id.index()]; }
  const HeapInfo &heap(HeapId Id) const { return Heaps[Id.index()]; }
  const SiteInfo &site(SiteId Id) const { return Sites[Id.index()]; }

  MethodInfo &method(MethodId Id) { return Methods[Id.index()]; }
  SiteInfo &siteMutable(SiteId Id) { return Sites[Id.index()]; }

  const std::vector<MethodId> &entries() const { return EntryMethods; }

  /// \returns the interned-name text for any entity name handle.
  std::string_view name(uint32_t NameHandle) const {
    return Names.text(NameHandle);
  }

  std::string_view typeName(TypeId Id) const { return name(type(Id).Name); }
  std::string_view methodName(MethodId Id) const {
    return name(method(Id).Name);
  }
  std::string_view varName(VarId Id) const { return name(var(Id).Name); }
  std::string_view fieldName(FieldId Id) const { return name(field(Id).Name); }
  std::string_view heapName(HeapId Id) const { return name(heap(Id).Name); }
  std::string_view siteName(SiteId Id) const { return name(site(Id).Name); }

  /// \returns true if \p Sub is \p Super or a (transitive) subclass of it.
  bool isSubtypeOf(TypeId Sub, TypeId Super) const;

  /// Virtual dispatch: resolves \p Sig in \p Type, walking up the hierarchy
  /// (paper: LOOKUP).  \returns the invalid id if no method matches.
  MethodId lookup(TypeId Type, SigId Sig) const;

  /// \returns the class whose body contains \p Method — used as the context
  /// element by type-sensitivity ("type containing the allocation site").
  TypeId classOfMethod(MethodId Method) const { return method(Method).Owner; }

  /// Total number of instructions across all method bodies.
  size_t numInstructions() const;

  /// Access to the interner, for builders that need to pre-intern names.
  StringInterner &names() { return Names; }
  const StringInterner &names() const { return Names; }

private:
  StringInterner Names;
  std::vector<TypeInfo> Types;
  std::vector<FieldInfo> Fields;
  std::vector<SigInfo> Sigs;
  std::vector<MethodInfo> Methods;
  std::vector<VarInfo> Vars;
  std::vector<HeapInfo> Heaps;
  std::vector<SiteInfo> Sites;
  std::vector<MethodId> EntryMethods;

  /// (name handle, arity) -> signature, deduplicating addSignature.
  std::unordered_map<uint64_t, SigId> SigIndex;

  /// Flattened dispatch: (type, sig) -> method, including inherited methods.
  std::unordered_map<uint64_t, MethodId> DispatchCache;
  bool Finalized = false;

  static uint64_t dispatchKey(TypeId Type, SigId Sig) {
    return (static_cast<uint64_t>(Type.index()) << 32) | Sig.index();
  }
};

} // namespace intro

#endif // IR_PROGRAM_H
