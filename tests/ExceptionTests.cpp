//===- tests/ExceptionTests.cpp - Exceptions & static fields --------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written programs pinning the exception-flow extension (throw /
/// catch-by-type / transitive escape, in the spirit of the paper's
/// companion work [11]) and the static-field extension of the full Doop
/// core, on both the solver and (via textual IR) the frontend.
///
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/Solver.h"
#include "frontend/Parser.h"
#include "frontend/Printer.h"
#include "ir/Interpreter.h"
#include "ir/ProgramBuilder.h"
#include "ir/Validator.h"

#include <gtest/gtest.h>

using namespace intro;

namespace {

/// main --> risky() which throws either an IOError or a RuntimeError;
/// main catches IOError only.  outer() calls main's logic via a helper
/// without any catch.
struct ThrowProgram {
  Program Prog;
  MethodId Main, Risky, Helper;
  HeapId IoHeap, RuntimeHeap;
  VarId Caught;
};

ThrowProgram makeThrowProgram() {
  ThrowProgram T;
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId Error = B.cls("Error", Object);
  TypeId IoError = B.cls("IOError", Error);
  TypeId RuntimeError = B.cls("RuntimeError", Error);

  MethodBuilder Risky = B.method(Object, "risky", 0, /*IsStatic=*/true);
  VarId Io = Risky.local("io");
  T.IoHeap = Risky.alloc(Io, IoError);
  Risky.throwStmt(Io);
  VarId Rt = Risky.local("rt");
  T.RuntimeHeap = Risky.alloc(Rt, RuntimeError);
  Risky.throwStmt(Rt);
  T.Risky = Risky.id();

  // helper() calls risky() without catching: both exceptions escape it.
  MethodBuilder Helper = B.method(Object, "helper", 0, /*IsStatic=*/true);
  Helper.scall(VarId::invalid(), Risky.id(), {});
  T.Helper = Helper.id();

  // main catches IOError from helper(); RuntimeError escapes main.
  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());
  T.Caught = Main.local("e");
  SiteId Call = Main.scall(VarId::invalid(), Helper.id(), {});
  Main.attachCatch(Call, IoError, T.Caught);
  T.Main = Main.id();

  T.Prog = B.take();
  return T;
}

} // namespace

TEST(Exceptions, ProgramIsValid) {
  ThrowProgram T = makeThrowProgram();
  EXPECT_TRUE(validateProgram(T.Prog).empty());
}

TEST(Exceptions, ThrowSetsAndCatchByType) {
  ThrowProgram T = makeThrowProgram();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult R = solvePointsTo(T.Prog, *Policy, Table);
  ASSERT_EQ(R.Status, SolveStatus::Completed);

  // risky() throws both.
  EXPECT_TRUE(setContains(R.throwsOf(T.Risky), T.IoHeap.index()));
  EXPECT_TRUE(setContains(R.throwsOf(T.Risky), T.RuntimeHeap.index()));
  // helper() has no catch: both escape it transitively.
  EXPECT_TRUE(setContains(R.throwsOf(T.Helper), T.IoHeap.index()));
  EXPECT_TRUE(setContains(R.throwsOf(T.Helper), T.RuntimeHeap.index()));
  // main catches the IOError...
  EXPECT_TRUE(setContains(R.pointsTo(T.Caught), T.IoHeap.index()));
  EXPECT_FALSE(setContains(R.pointsTo(T.Caught), T.RuntimeHeap.index()));
  // ...and only the RuntimeError escapes main.
  EXPECT_FALSE(setContains(R.throwsOf(T.Main), T.IoHeap.index()));
  EXPECT_TRUE(setContains(R.throwsOf(T.Main), T.RuntimeHeap.index()));
}

TEST(Exceptions, InterpreterUnwindsAndAnalysisCovers) {
  ThrowProgram T = makeThrowProgram();
  DynamicFacts Facts = interpret(T.Prog);

  // Concretely: risky throws the IOError first; helper propagates it; main
  // catches it.  The RuntimeError allocation is dead code after the first
  // throw.
  bool CaughtIo = false;
  for (auto [Var, Heap] : Facts.VarPointsTo)
    if (Var == T.Caught && Heap == T.IoHeap)
      CaughtIo = true;
  EXPECT_TRUE(CaughtIo);
  bool MainThrew = false;
  for (auto [Method, Heap] : Facts.MethodThrows)
    if (Method == T.Main)
      MainThrew = true;
  EXPECT_FALSE(MainThrew) << "the only concrete exception is caught";

  // The static result covers the dynamic facts.
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult R = solvePointsTo(T.Prog, *Policy, Table);
  for (auto [Method, Heap] : Facts.MethodThrows)
    EXPECT_TRUE(setContains(R.throwsOf(Method), Heap.index()));
}

TEST(Exceptions, ContextSensitiveCatchSeparation) {
  // Two wrappers call thrower() which rethrows its argument; each wrapper
  // catches everything.  Under 2callH the exception sets stay separate;
  // insensitively both wrappers appear to catch both objects.
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId E1 = B.cls("E1", Object);
  TypeId E2 = B.cls("E2", Object);

  MethodBuilder Thrower = B.method(Object, "thrower", 1, /*IsStatic=*/true);
  Thrower.throwStmt(Thrower.formal(0));

  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());
  VarId X1 = Main.local("x1");
  VarId X2 = Main.local("x2");
  HeapId H1 = Main.alloc(X1, E1);
  HeapId H2 = Main.alloc(X2, E2);
  VarId C1 = Main.local("c1");
  VarId C2 = Main.local("c2");
  SiteId S1 = Main.scall(VarId::invalid(), Thrower.id(), {X1});
  Main.attachCatch(S1, Object, C1);
  SiteId S2 = Main.scall(VarId::invalid(), Thrower.id(), {X2});
  Main.attachCatch(S2, Object, C2);
  Program Prog = B.take();

  auto Insens = makeInsensitivePolicy();
  ContextTable T1;
  PointsToResult RI = solvePointsTo(Prog, *Insens, T1);
  EXPECT_TRUE(setContains(RI.pointsTo(C1), H2.index()))
      << "insensitively the throw sets conflate";

  auto Deep = makeCallSitePolicy(2, 1);
  ContextTable T2;
  PointsToResult RD = solvePointsTo(Prog, *Deep, T2);
  EXPECT_TRUE(setContains(RD.pointsTo(C1), H1.index()));
  EXPECT_FALSE(setContains(RD.pointsTo(C1), H2.index()))
      << "2callH separates the two thrower activations";
}

TEST(StaticFields, GlobalCellFlow) {
  // A producer writes into a static field; a consumer reads it.
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId Config = B.cls("Config", Object);
  FieldId Global = B.field(Config, "instance");

  MethodBuilder Producer = B.method(Object, "produce", 0, /*IsStatic=*/true);
  VarId P = Producer.local("p");
  HeapId ConfigHeap = Producer.alloc(P, Config);
  Producer.sstore(Global, P);

  MethodBuilder Consumer = B.method(Object, "consume", 0, /*IsStatic=*/true);
  VarId C = Consumer.local("c");
  Consumer.sload(C, Global);

  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());
  Main.scall(VarId::invalid(), Producer.id(), {});
  Main.scall(VarId::invalid(), Consumer.id(), {});
  Program Prog = B.take();
  ASSERT_TRUE(validateProgram(Prog).empty());

  auto Policy = makeObjectPolicy(Prog, 2, 1);
  ContextTable Table;
  PointsToResult R = solvePointsTo(Prog, *Policy, Table);
  EXPECT_TRUE(setContains(R.pointsTo(C), ConfigHeap.index()));
  EXPECT_TRUE(setContains(R.staticPointsTo(Global), ConfigHeap.index()));

  // Dynamic agreement.
  DynamicFacts Facts = interpret(Prog);
  bool SawGlobal = false;
  for (auto [Field, Heap] : Facts.StaticFieldPointsTo)
    if (Field == Global && Heap == ConfigHeap)
      SawGlobal = true;
  EXPECT_TRUE(SawGlobal);
}

TEST(Frontend, ExceptionAndStaticFieldSyntaxRoundTrips) {
  const char *Source = R"(
class Object
class Err extends Object
class Cfg extends Object {
  field instance
}
class Main extends Object {
  entry static method main() {
    c = new Cfg
    Cfg#instance = c
    g = Cfg#instance
    Main::risky() catch (Err) e
  }
  static method risky() {
    x = new Err
    throw x
  }
}
)";
  ParseResult Parsed = parseProgram(Source);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Errors[0];
  ASSERT_TRUE(validateProgram(Parsed.Prog).empty());

  // Semantics: the Err object is caught into e.
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult R = solvePointsTo(Parsed.Prog, *Policy, Table);
  bool Caught = false;
  bool GlobalFlows = false;
  for (uint32_t Var = 0; Var < Parsed.Prog.numVars(); ++Var) {
    if (Parsed.Prog.varName(VarId(Var)) == "e" &&
        !R.pointsTo(VarId(Var)).empty())
      Caught = true;
    if (Parsed.Prog.varName(VarId(Var)) == "g" &&
        !R.pointsTo(VarId(Var)).empty())
      GlobalFlows = true;
  }
  EXPECT_TRUE(Caught);
  EXPECT_TRUE(GlobalFlows);

  // Print/parse/print is stable.
  std::string Once = printProgram(Parsed.Prog);
  ParseResult Again = parseProgram(Once);
  ASSERT_TRUE(Again.ok()) << Again.Errors[0];
  EXPECT_EQ(printProgram(Again.Prog), Once);
}
