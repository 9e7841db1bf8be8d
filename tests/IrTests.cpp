//===- tests/IrTests.cpp - IR substrate unit tests ------------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Facts.h"
#include "ir/Interpreter.h"
#include "ir/Program.h"
#include "ir/ProgramBuilder.h"
#include "ir/Validator.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

using namespace intro;
using namespace intro::testing;

TEST(ClassHierarchy, SubtypeReflexiveAndTransitive) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId Mid = B.cls("Mid", Object);
  TypeId Leaf = B.cls("Leaf", Mid);
  TypeId Other = B.cls("Other", Object);
  MethodBuilder Main = B.method(Object, "main", 0, true);
  B.entry(Main.id());
  Program P = B.take();

  EXPECT_TRUE(P.isSubtypeOf(Leaf, Leaf));
  EXPECT_TRUE(P.isSubtypeOf(Leaf, Mid));
  EXPECT_TRUE(P.isSubtypeOf(Leaf, Object));
  EXPECT_TRUE(P.isSubtypeOf(Mid, Object));
  EXPECT_FALSE(P.isSubtypeOf(Mid, Leaf));
  EXPECT_FALSE(P.isSubtypeOf(Leaf, Other));
  EXPECT_FALSE(P.isSubtypeOf(Object, Leaf));
}

TEST(ClassHierarchy, DispatchFindsOverrides) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId Base = B.cls("Base", Object);
  TypeId Derived = B.cls("Derived", Base);
  TypeId Grand = B.cls("Grand", Derived);
  MethodBuilder BaseM = B.method(Base, "m", 0);
  MethodBuilder DerivedM = B.method(Derived, "m", 0);
  MethodBuilder Main = B.method(Object, "main", 0, true);
  B.entry(Main.id());
  Program P = B.take();

  SigId Sig = P.method(BaseM.id()).Sig;
  EXPECT_EQ(P.lookup(Base, Sig), BaseM.id());
  EXPECT_EQ(P.lookup(Derived, Sig), DerivedM.id());
  // Inherited: Grand has no own `m`, resolves to Derived's.
  EXPECT_EQ(P.lookup(Grand, Sig), DerivedM.id());
  // Object has no `m` at all.
  EXPECT_FALSE(P.lookup(Object, Sig).isValid());
}

TEST(ClassHierarchy, SignatureDedupByNameAndArity) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId C1 = B.cls("C1", Object);
  TypeId C2 = B.cls("C2", Object);
  MethodBuilder M1 = B.method(C1, "f", 2);
  MethodBuilder M2 = B.method(C2, "f", 2);
  MethodBuilder M3 = B.method(C1, "f", 3); // Different arity: new signature.
  MethodBuilder Main = B.method(Object, "main", 0, true);
  B.entry(Main.id());
  Program P = B.take();
  EXPECT_EQ(P.method(M1.id()).Sig, P.method(M2.id()).Sig);
  EXPECT_NE(P.method(M1.id()).Sig, P.method(M3.id()).Sig);
}

TEST(ClassHierarchy, SignatureIdsFollowFirstSeenOrder) {
  // Repeats return the first id; new (name, arity) pairs take the next one.
  // A name interned earlier for another entity is still a fresh signature.
  Program P;
  P.names().intern("g");
  SigId F2 = P.addSignature("f", 2);
  SigId G0 = P.addSignature("g", 0);
  SigId F3 = P.addSignature("f", 3);
  EXPECT_EQ(F2, SigId(0));
  EXPECT_EQ(G0, SigId(1));
  EXPECT_EQ(F3, SigId(2));
  for (int Repeat = 0; Repeat < 3; ++Repeat) {
    EXPECT_EQ(P.addSignature("g", 0), G0);
    EXPECT_EQ(P.addSignature("f", 3), F3);
    EXPECT_EQ(P.addSignature("f", 2), F2);
  }
  EXPECT_EQ(P.numSignatures(), 3u);
  EXPECT_EQ(P.name(P.signature(F3).Name), "f");
  EXPECT_EQ(P.signature(F3).Arity, 3u);
}

TEST(ProgramBuilder, MethodScaffolding) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId C = B.cls("C", Object);
  MethodBuilder M = B.method(C, "f", 2);
  EXPECT_TRUE(M.thisVar().isValid());
  EXPECT_NE(M.formal(0), M.formal(1));
  VarId Ret1 = M.returnVar();
  VarId Ret2 = M.returnVar();
  EXPECT_EQ(Ret1, Ret2) << "returnVar must be created once";
  VarId This = M.thisVar(); // Builder handles die at take().
  MethodBuilder Main = B.method(Object, "main", 0, true);
  B.entry(Main.id());
  Program P = B.take();
  EXPECT_EQ(P.method(M.id()).Formals.size(), 2u);
  EXPECT_EQ(P.var(This).Owner, M.id());
}

TEST(ProgramBuilder, InstructionEmission) {
  TwoBoxes T = makeTwoBoxes();
  EXPECT_EQ(T.Prog.numTypes(), 4u);
  EXPECT_EQ(T.Prog.numHeaps(), 4u);
  EXPECT_EQ(T.Prog.numSites(), 4u);
  // main: 4 allocs + 4 calls + 1 cast = 9 instructions; set: 1; get: 1.
  EXPECT_EQ(T.Prog.numInstructions(), 11u);
}

TEST(Validator, AcceptsWellFormedPrograms) {
  EXPECT_TRUE(validateProgram(makeTwoBoxes().Prog).empty());
  EXPECT_TRUE(validateProgram(makeDispatch().Prog).empty());
  EXPECT_TRUE(validateProgram(makeMixed().Prog).empty());
}

TEST(Validator, RejectsMissingEntry) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  B.method(Object, "main", 0, true);
  Program P = B.take();
  auto Errors = validateProgram(P);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("no entry"), std::string::npos);
}

TEST(Validator, RejectsVirtualEntry) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  MethodBuilder M = B.method(Object, "run", 0, /*IsStatic=*/false);
  B.entry(M.id());
  Program P = B.take();
  auto Errors = validateProgram(P);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("must be static"), std::string::npos);
}

TEST(Validator, RejectsCrossMethodVariableUse) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  MethodBuilder M1 = B.method(Object, "f", 0, true);
  MethodBuilder M2 = B.method(Object, "main", 0, true);
  B.entry(M2.id());
  VarId Foreign = M1.local("x");
  VarId Local = M2.local("y");
  M2.move(Local, Foreign); // Illegal: Foreign belongs to f.
  Program P = B.take();
  auto Errors = validateProgram(P);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("outside its owning method"), std::string::npos);
}

TEST(Validator, RejectsForeignThisFormalAndReturn) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  MethodBuilder G = B.method(Object, "g", 1, /*IsStatic=*/false);
  G.returnVar();
  MethodBuilder Main = B.method(Object, "main", 0, true);
  B.entry(Main.id());
  VarId X = Main.local("x");
  VarId Y = Main.local("y");
  VarId Z = Main.local("z");
  Program P = B.take();
  ASSERT_TRUE(validateProgram(P).empty());
  // Illegal: g's `this`, formal and return variable belong to main.
  MethodInfo &Info = P.method(G.id());
  Info.This = X;
  Info.Formals[0] = Y;
  Info.Return = Z;
  auto Errors = validateProgram(P);
  ASSERT_EQ(Errors.size(), 3u);
  EXPECT_NE(Errors[0].find("'x' used as `this` outside its owning method"),
            std::string::npos);
  EXPECT_NE(Errors[1].find("'y' used as formal parameter outside"),
            std::string::npos);
  EXPECT_NE(Errors[2].find("'z' used as return variable outside"),
            std::string::npos);
}

TEST(Interpreter, RecordsAllocationsAndDispatch) {
  Dispatch T = makeDispatch();
  DynamicFacts Facts = interpret(T.Prog);
  EXPECT_FALSE(Facts.Truncated);

  // Both speak() methods executed.
  auto HasMethod = [&](MethodId M) {
    for (MethodId Reached : Facts.ReachedMethods)
      if (Reached == M)
        return true;
    return false;
  };
  SigId Speak = T.Prog.site(T.Call1).Sig;
  EXPECT_TRUE(HasMethod(T.Prog.lookup(T.Cat, Speak)));
  EXPECT_TRUE(HasMethod(T.Prog.lookup(T.Dog, Speak)));

  // s1 got the Meow object, s2 the Woof object -- and not vice versa.
  auto PointsTo = [&](VarId Var, HeapId Heap) {
    for (auto [V, H] : Facts.VarPointsTo)
      if (V == Var && H == Heap)
        return true;
    return false;
  };
  EXPECT_TRUE(PointsTo(T.Sound1, T.MeowHeap));
  EXPECT_FALSE(PointsTo(T.Sound1, T.WoofHeap));
  EXPECT_TRUE(PointsTo(T.Sound2, T.WoofHeap));
  EXPECT_FALSE(PointsTo(T.Sound2, T.MeowHeap));
}

TEST(Interpreter, HeapStorageFlowsThroughFields) {
  TwoBoxes T = makeTwoBoxes();
  DynamicFacts Facts = interpret(T.Prog);
  auto PointsTo = [&](VarId Var, HeapId Heap) {
    for (auto [V, H] : Facts.VarPointsTo)
      if (V == Var && H == Heap)
        return true;
    return false;
  };
  // Concretely, each box returns exactly its own payload.
  EXPECT_TRUE(PointsTo(T.OutA, T.HeapA));
  EXPECT_FALSE(PointsTo(T.OutA, T.HeapB));
  EXPECT_TRUE(PointsTo(T.OutB, T.HeapB));
  // The successful cast propagates.
  EXPECT_TRUE(PointsTo(T.CastA, T.HeapA));
}

TEST(Interpreter, UnreachableMethodNotExecuted) {
  Mixed T = makeMixed();
  DynamicFacts Facts = interpret(T.Prog);
  for (MethodId Reached : Facts.ReachedMethods)
    EXPECT_NE(Reached, T.Unreachable);
  auto PointsTo = [&](VarId Var, HeapId Heap) {
    for (auto [V, H] : Facts.VarPointsTo)
      if (V == Var && H == Heap)
        return true;
    return false;
  };
  EXPECT_TRUE(PointsTo(T.Chained, T.Payload));
}

TEST(Interpreter, StepBudgetTruncatesRecursion) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  MethodBuilder Loop = B.method(Object, "loop", 0, true);
  MethodBuilder Main = B.method(Object, "main", 0, true);
  B.entry(Main.id());
  Main.scall(VarId::invalid(), Loop.id(), {});
  B.bodyOf(Loop.id()).scall(VarId::invalid(), Loop.id(), {});
  Program P = B.take();
  DynamicFacts Facts = interpret(P, /*MaxSteps=*/1000);
  EXPECT_TRUE(Facts.Truncated);
}

TEST(Facts, ExtractionMatchesProgramShape) {
  TwoBoxes T = makeTwoBoxes();
  ProgramFacts Facts = extractFacts(T.Prog);
  EXPECT_EQ(Facts.Alloc.size(), 4u);
  EXPECT_EQ(Facts.VCall.size(), 4u);
  EXPECT_EQ(Facts.SCall.size(), 0u);
  EXPECT_EQ(Facts.Cast.size(), 1u);
  // Casts are kept out of MOVE; consumers choose move-like or checked
  // semantics.  TwoBoxes has no genuine moves.
  EXPECT_EQ(Facts.Move.size(), 0u);
  // SUBTYPE pairs for the one cast to A: among heap types {Box, A, B},
  // only A itself is a subtype of A.
  EXPECT_EQ(Facts.Subtype.size(), 1u);
  EXPECT_EQ(Facts.Store.size(), 1u);
  EXPECT_EQ(Facts.Load.size(), 1u);
  EXPECT_EQ(Facts.ThisVar.size(), 2u);
  EXPECT_EQ(Facts.EntryMethods.size(), 1u);
  // set(arg): one formal arg; one actual arg at each of 2 set-call sites.
  EXPECT_EQ(Facts.FormalArg.size(), 1u);
  EXPECT_EQ(Facts.ActualArg.size(), 2u);
  // get() has a return; both get-call sites receive it.
  EXPECT_EQ(Facts.FormalReturn.size(), 1u);
  EXPECT_EQ(Facts.ActualReturn.size(), 2u);
}

TEST(Facts, LookupRestrictedToUsefulPairs) {
  Dispatch T = makeDispatch();
  ProgramFacts Facts = extractFacts(T.Prog);
  // Heap types: Cat, Dog, Meow, Woof.  Used signature: speak/0.
  // Only Cat and Dog resolve it.
  EXPECT_EQ(Facts.Lookup.size(), 2u);
}
