//===- ir/Validator.cpp - Structural IR well-formedness -------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Validator.h"

#include "ir/Program.h"

#include <string>

using namespace intro;

namespace {

/// Collects violations with a shared formatting helper.
class Checker {
public:
  explicit Checker(const Program &Prog) : Prog(Prog) {}

  std::vector<std::string> run() {
    checkEntries();
    for (uint32_t Index = 0; Index < Prog.numMethods(); ++Index)
      checkMethod(MethodId(Index));
    for (uint32_t Index = 0; Index < Prog.numSites(); ++Index)
      checkSite(SiteId(Index));
    for (uint32_t Index = 0; Index < Prog.numHeaps(); ++Index)
      checkHeap(HeapId(Index));
    return std::move(Errors);
  }

private:
  void report(std::string Message) { Errors.push_back(std::move(Message)); }

  void checkEntries() {
    if (Prog.entries().empty())
      report("program has no entry method");
    for (MethodId Entry : Prog.entries()) {
      if (!Entry.isValid() || Entry.index() >= Prog.numMethods()) {
        report("invalid entry method id");
        continue;
      }
      if (!Prog.method(Entry).IsStatic)
        report("entry method '" + std::string(Prog.methodName(Entry)) +
               "' must be static");
    }
  }

  void checkVarIn(VarId Var, MethodId Method, const char *Role) {
    if (!Var.isValid() || Var.index() >= Prog.numVars()) {
      report(std::string("invalid variable used as ") + Role + " in method '" +
             std::string(Prog.methodName(Method)) + "'");
      return;
    }
    if (Prog.var(Var).Owner != Method)
      report("variable '" + std::string(Prog.varName(Var)) + "' used as " +
             Role + " outside its owning method, in '" +
             std::string(Prog.methodName(Method)) + "'");
  }

  void checkMethod(MethodId Method) {
    const MethodInfo &Info = Prog.method(Method);
    if (Info.Formals.size() != Prog.signature(Info.Sig).Arity)
      report("method '" + std::string(Prog.methodName(Method)) +
             "' formal count does not match its signature arity");
    if (Info.IsStatic && Info.This.isValid())
      report("static method '" + std::string(Prog.methodName(Method)) +
             "' must not have a `this` variable");
    if (!Info.IsStatic && !Info.This.isValid())
      report("virtual method '" + std::string(Prog.methodName(Method)) +
             "' is missing its `this` variable");
    if (Info.This.isValid())
      checkVarIn(Info.This, Method, "`this`");
    for (VarId Formal : Info.Formals)
      checkVarIn(Formal, Method, "formal parameter");
    if (Info.Return.isValid())
      checkVarIn(Info.Return, Method, "return variable");

    for (const Instruction &Instr : Info.Body) {
      switch (Instr.Kind) {
      case InstrKind::Alloc:
        checkVarIn(Instr.To, Method, "alloc destination");
        if (!Instr.Heap.isValid() || Instr.Heap.index() >= Prog.numHeaps())
          report("alloc with invalid heap id in '" +
                 std::string(Prog.methodName(Method)) + "'");
        else if (Prog.heap(Instr.Heap).InMethod != Method)
          report("alloc site recorded in a different method than its "
                 "instruction, in '" +
                 std::string(Prog.methodName(Method)) + "'");
        break;
      case InstrKind::Move:
        checkVarIn(Instr.To, Method, "move destination");
        checkVarIn(Instr.From, Method, "move source");
        break;
      case InstrKind::Cast:
        checkVarIn(Instr.To, Method, "cast destination");
        checkVarIn(Instr.From, Method, "cast source");
        if (!Instr.CastType.isValid() ||
            Instr.CastType.index() >= Prog.numTypes())
          report("cast to invalid type in '" +
                 std::string(Prog.methodName(Method)) + "'");
        break;
      case InstrKind::Load:
        checkVarIn(Instr.To, Method, "load destination");
        checkVarIn(Instr.Base, Method, "load base");
        if (!Instr.Field.isValid() || Instr.Field.index() >= Prog.numFields())
          report("load of invalid field in '" +
                 std::string(Prog.methodName(Method)) + "'");
        break;
      case InstrKind::Store:
        checkVarIn(Instr.Base, Method, "store base");
        checkVarIn(Instr.From, Method, "store source");
        if (!Instr.Field.isValid() || Instr.Field.index() >= Prog.numFields())
          report("store to invalid field in '" +
                 std::string(Prog.methodName(Method)) + "'");
        break;
      case InstrKind::SLoad:
        checkVarIn(Instr.To, Method, "static load destination");
        if (!Instr.Field.isValid() || Instr.Field.index() >= Prog.numFields())
          report("static load of invalid field in '" +
                 std::string(Prog.methodName(Method)) + "'");
        break;
      case InstrKind::SStore:
        checkVarIn(Instr.From, Method, "static store source");
        if (!Instr.Field.isValid() || Instr.Field.index() >= Prog.numFields())
          report("static store to invalid field in '" +
                 std::string(Prog.methodName(Method)) + "'");
        break;
      case InstrKind::Throw:
        checkVarIn(Instr.From, Method, "thrown value");
        break;
      case InstrKind::Call:
        if (!Instr.Site.isValid() || Instr.Site.index() >= Prog.numSites())
          report("call with invalid site id in '" +
                 std::string(Prog.methodName(Method)) + "'");
        else if (Prog.site(Instr.Site).InMethod != Method)
          report("call site recorded in a different method than its "
                 "instruction, in '" +
                 std::string(Prog.methodName(Method)) + "'");
        break;
      }
    }
  }

  void checkSite(SiteId Site) {
    const SiteInfo &Info = Prog.site(Site);
    MethodId Caller = Info.InMethod;
    if (Info.Actuals.size() != Prog.signature(Info.Sig).Arity)
      report("call site '" + std::string(Prog.siteName(Site)) +
             "' actual count does not match signature arity");
    for (VarId Actual : Info.Actuals)
      checkVarIn(Actual, Caller, "actual argument");
    if (Info.Result.isValid())
      checkVarIn(Info.Result, Caller, "call result");
    if (Info.CatchVar.isValid()) {
      checkVarIn(Info.CatchVar, Caller, "catch variable");
      if (!Info.CatchType.isValid() ||
          Info.CatchType.index() >= Prog.numTypes())
        report("call site '" + std::string(Prog.siteName(Site)) +
               "' has a catch clause with an invalid type");
    }
    if (Info.IsStatic) {
      if (!Info.StaticTarget.isValid() ||
          Info.StaticTarget.index() >= Prog.numMethods())
        report("static call site '" + std::string(Prog.siteName(Site)) +
               "' has no valid target");
      else if (!Prog.method(Info.StaticTarget).IsStatic)
        report("static call site '" + std::string(Prog.siteName(Site)) +
               "' targets a virtual method");
    } else {
      checkVarIn(Info.Base, Caller, "receiver");
    }
  }

  void checkHeap(HeapId Heap) {
    const HeapInfo &Info = Prog.heap(Heap);
    if (!Info.Type.isValid() || Info.Type.index() >= Prog.numTypes())
      report("allocation site '" + std::string(Prog.heapName(Heap)) +
             "' has an invalid type");
  }

  const Program &Prog;
  std::vector<std::string> Errors;
};

} // namespace

std::vector<std::string> intro::validateProgram(const Program &Prog) {
  return Checker(Prog).run();
}
