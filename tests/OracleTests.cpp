//===- tests/OracleTests.cpp - Solver vs. Datalog reference ---------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-validates the worklist solver against the literal Datalog rendering
/// of the paper's Figure 3, and both against the concrete interpreter
/// (soundness).  These are the strongest correctness guarantees in the
/// project: two independent implementations of the model must agree on
/// every relation, tuple for tuple, for every context flavor.
///
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/DatalogReference.h"
#include "analysis/Solver.h"
#include "ir/Interpreter.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace intro;
using namespace intro::testing;

namespace {

/// Runs both implementations (sharing one context table so handles are
/// comparable) and asserts relation-for-relation equality.
void expectAgreement(const Program &Prog, const ContextPolicy &Policy) {
  ContextTable Table;
  SolverOptions Options;
  Options.Assemble = Assembly::Tuples;
  PointsToResult Solver = solvePointsTo(Prog, Policy, Table, Options);
  ASSERT_EQ(Solver.Status, SolveStatus::Completed);
  DatalogReferenceResult Reference = runDatalogReference(Prog, Policy, Table);
  ASSERT_FALSE(Reference.BudgetExceeded);

  auto SortedCopy = [](auto Tuples) {
    std::sort(Tuples.begin(), Tuples.end());
    return Tuples;
  };
  EXPECT_EQ(SortedCopy(Solver.VarPointsTo), Reference.VarPointsTo)
      << "VARPOINTSTO mismatch under " << Policy.name();
  EXPECT_EQ(SortedCopy(Solver.FieldPointsTo), Reference.FieldPointsTo)
      << "FLDPOINTSTO mismatch under " << Policy.name();
  EXPECT_EQ(SortedCopy(Solver.Reachable), Reference.Reachable)
      << "REACHABLE mismatch under " << Policy.name();
  EXPECT_EQ(SortedCopy(Solver.CallGraph), Reference.CallGraph)
      << "CALLGRAPH mismatch under " << Policy.name();
}

void expectAgreementAllFlavors(const Program &Prog) {
  expectAgreement(Prog, *makeInsensitivePolicy());
  expectAgreement(Prog, *makeCallSitePolicy(1, 0));
  expectAgreement(Prog, *makeCallSitePolicy(2, 1));
  expectAgreement(Prog, *makeObjectPolicy(Prog, 1, 0));
  expectAgreement(Prog, *makeObjectPolicy(Prog, 2, 1));
  expectAgreement(Prog, *makeTypePolicy(Prog, 2, 1));
}

/// Soundness: every dynamically observed fact is in the analysis result.
void expectSoundness(const Program &Prog, const ContextPolicy &Policy) {
  ContextTable Table;
  PointsToResult Result = solvePointsTo(Prog, Policy, Table);
  ASSERT_EQ(Result.Status, SolveStatus::Completed);
  DynamicFacts Facts = interpret(Prog);

  for (auto [Var, Heap] : Facts.VarPointsTo)
    EXPECT_TRUE(setContains(Result.pointsTo(Var), Heap.index()))
        << "dynamic fact " << Prog.varName(Var) << " -> "
        << Prog.heapName(Heap) << " missing under " << Policy.name();
  for (MethodId Method : Facts.ReachedMethods)
    EXPECT_TRUE(Result.isReachable(Method))
        << "dynamically reached method " << Prog.methodName(Method)
        << " not reachable under " << Policy.name();
  for (auto [Site, Target] : Facts.CallEdges)
    EXPECT_TRUE(setContains(Result.callTargets(Site), Target.index()))
        << "dynamic call edge missing under " << Policy.name();
  for (auto [BaseHeap, Field, Heap] : Facts.FieldPointsTo)
    EXPECT_TRUE(
        setContains(Result.fieldPointsTo(BaseHeap, Field), Heap.index()));
}

} // namespace

TEST(Oracle, TwoBoxesAllFlavors) { expectAgreementAllFlavors(makeTwoBoxes().Prog); }

TEST(Oracle, DispatchAllFlavors) { expectAgreementAllFlavors(makeDispatch().Prog); }

TEST(Oracle, MixedAllFlavors) { expectAgreementAllFlavors(makeMixed().Prog); }

TEST(Oracle, IntrospectiveSplitAgrees) {
  TwoBoxes T = makeTwoBoxes();
  auto Coarse = makeInsensitivePolicy();
  auto Refined = makeObjectPolicy(T.Prog, 2, 1);

  RefinementExceptions Exceptions(T.Prog);
  Exceptions.excludeHeap(T.Box1);
  SigId SetSig = T.Prog.site(T.SetCall1).Sig;
  MethodId SetMethod = T.Prog.lookup(T.BoxT, SetSig);
  Exceptions.excludeSite(T.SetCall1, SetMethod);

  auto Intro = makeIntrospectivePolicy("intro", *Coarse, *Refined, Exceptions);

  ContextTable Table;
  SolverOptions Options;
  Options.Assemble = Assembly::Tuples;
  PointsToResult Solver = solvePointsTo(T.Prog, *Intro, Table, Options);
  DatalogReferenceResult Reference =
      runDatalogReference(T.Prog, *Coarse, *Refined, Exceptions, Table);

  auto SortedCopy = [](auto Tuples) {
    std::sort(Tuples.begin(), Tuples.end());
    return Tuples;
  };
  EXPECT_EQ(SortedCopy(Solver.VarPointsTo), Reference.VarPointsTo);
  EXPECT_EQ(SortedCopy(Solver.FieldPointsTo), Reference.FieldPointsTo);
  EXPECT_EQ(SortedCopy(Solver.Reachable), Reference.Reachable);
  EXPECT_EQ(SortedCopy(Solver.CallGraph), Reference.CallGraph);
}

TEST(Soundness, AllProgramsAllFlavors) {
  TwoBoxes T1 = makeTwoBoxes();
  Dispatch T2 = makeDispatch();
  Mixed T3 = makeMixed();
  for (const Program *Prog : {&T1.Prog, &T2.Prog, &T3.Prog}) {
    expectSoundness(*Prog, *makeInsensitivePolicy());
    expectSoundness(*Prog, *makeObjectPolicy(*Prog, 2, 1));
    expectSoundness(*Prog, *makeCallSitePolicy(2, 1));
    expectSoundness(*Prog, *makeTypePolicy(*Prog, 2, 1));
  }
}
