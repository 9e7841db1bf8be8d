//===- ir/ProgramBuilder.cpp - Convenient IR construction -----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/ProgramBuilder.h"

#include "support/Concat.h"

#include <cassert>

using namespace intro;

VarId MethodBuilder::thisVar() const {
  const MethodInfo &Info = Parent->Prog.method(Method);
  assert(!Info.IsStatic && "static methods have no `this`");
  return Info.This;
}

VarId MethodBuilder::formal(uint32_t Index) const {
  const MethodInfo &Info = Parent->Prog.method(Method);
  assert(Index < Info.Formals.size() && "formal index out of range");
  return Info.Formals[Index];
}

VarId MethodBuilder::returnVar() {
  MethodInfo &Info = Parent->Prog.method(Method);
  if (!Info.Return.isValid())
    Info.Return = Parent->Prog.addVar("$ret", Method);
  return Info.Return;
}

VarId MethodBuilder::local(std::string_view Name) {
  return Parent->Prog.addVar(Name, Method);
}

HeapId MethodBuilder::alloc(VarId To, TypeId Type) {
  Program &P = Parent->Prog;
  std::string Label(P.methodName(Method));
  Label += "/new ";
  Label += P.typeName(Type);
  Label += '/';
  Label += std::to_string(Parent->NextHeapIndex++);
  HeapId Heap = P.addHeap(Label, Type, Method);
  P.method(Method).Body.push_back(Instruction::makeAlloc(To, Heap));
  return Heap;
}

void MethodBuilder::move(VarId To, VarId From) {
  Parent->Prog.method(Method).Body.push_back(Instruction::makeMove(To, From));
}

void MethodBuilder::cast(VarId To, VarId From, TypeId Type) {
  Parent->Prog.method(Method).Body.push_back(
      Instruction::makeCast(To, From, Type));
}

void MethodBuilder::load(VarId To, VarId Base, FieldId Field) {
  Parent->Prog.method(Method).Body.push_back(
      Instruction::makeLoad(To, Base, Field));
}

void MethodBuilder::store(VarId Base, FieldId Field, VarId From) {
  Parent->Prog.method(Method).Body.push_back(
      Instruction::makeStore(Base, Field, From));
}

void MethodBuilder::sload(VarId To, FieldId Field) {
  Parent->Prog.method(Method).Body.push_back(
      Instruction::makeSLoad(To, Field));
}

void MethodBuilder::sstore(FieldId Field, VarId From) {
  Parent->Prog.method(Method).Body.push_back(
      Instruction::makeSStore(Field, From));
}

void MethodBuilder::throwStmt(VarId From) {
  Parent->Prog.method(Method).Body.push_back(Instruction::makeThrow(From));
}

void MethodBuilder::attachCatch(SiteId Site, TypeId Type, VarId Var) {
  // Sites are immutable once added except for the catch clause, which the
  // builder fills in right after emitting the call.
  SiteInfo &Info = Parent->Prog.siteMutable(Site);
  assert(Info.InMethod == Method && "catch attached to foreign site");
  Info.CatchType = Type;
  Info.CatchVar = Var;
}

SiteId MethodBuilder::vcall(VarId Result, VarId Base, std::string_view Name,
                            const std::vector<VarId> &Actuals) {
  Program &P = Parent->Prog;
  SiteInfo Site;
  std::string Label(P.methodName(Method));
  Label += "/call ";
  Label += Name;
  Label += '/';
  Label += std::to_string(Parent->NextSiteIndex++);
  Site.Name = P.names().intern(Label);
  Site.IsStatic = false;
  Site.Base = Base;
  Site.Sig = P.addSignature(Name, static_cast<uint32_t>(Actuals.size()));
  Site.Actuals = Actuals;
  Site.Result = Result;
  Site.InMethod = Method;
  SiteId Id = P.addSite(std::move(Site));
  P.method(Method).Body.push_back(Instruction::makeCall(Id));
  return Id;
}

SiteId MethodBuilder::scall(VarId Result, MethodId Target,
                            const std::vector<VarId> &Actuals) {
  Program &P = Parent->Prog;
  assert(P.method(Target).IsStatic && "scall target must be static");
  SiteInfo Site;
  std::string Label(P.methodName(Method));
  Label += "/scall ";
  Label += P.methodName(Target);
  Label += '/';
  Label += std::to_string(Parent->NextSiteIndex++);
  Site.Name = P.names().intern(Label);
  Site.IsStatic = true;
  Site.Sig = P.method(Target).Sig;
  Site.StaticTarget = Target;
  Site.Actuals = Actuals;
  Site.Result = Result;
  Site.InMethod = Method;
  SiteId Id = P.addSite(std::move(Site));
  P.method(Method).Body.push_back(Instruction::makeCall(Id));
  return Id;
}

TypeId ProgramBuilder::cls(std::string_view Name, TypeId Super) {
  return Prog.addType(Name, Super);
}

FieldId ProgramBuilder::field(TypeId Owner, std::string_view Name) {
  return Prog.addField(Name, Owner);
}

MethodBuilder ProgramBuilder::method(TypeId Owner, std::string_view Name,
                                     uint32_t Arity, bool IsStatic) {
  std::vector<std::string> ParamNames;
  ParamNames.reserve(Arity);
  for (uint32_t Index = 0; Index < Arity; ++Index)
    ParamNames.push_back(concat("p", Index));
  return methodNamed(Owner, Name, ParamNames, IsStatic, /*ReturnName=*/"");
}

MethodBuilder
ProgramBuilder::methodNamed(TypeId Owner, std::string_view Name,
                            const std::vector<std::string> &ParamNames,
                            bool IsStatic, std::string_view ReturnName) {
  SigId Sig =
      Prog.addSignature(Name, static_cast<uint32_t>(ParamNames.size()));
  MethodId Id = Prog.addMethod(Name, Owner, Sig, IsStatic);
  if (!IsStatic)
    Prog.method(Id).This = Prog.addVar("this", Id);
  for (const std::string &ParamName : ParamNames)
    Prog.method(Id).Formals.push_back(Prog.addVar(ParamName, Id));
  if (!ReturnName.empty())
    Prog.method(Id).Return = Prog.addVar(ReturnName, Id);
  return MethodBuilder(*this, Id);
}

Program ProgramBuilder::take() {
  Prog.finalize();
  return std::move(Prog);
}
