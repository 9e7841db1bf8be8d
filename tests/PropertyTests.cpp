//===- tests/PropertyTests.cpp - Randomized property tests ----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based tests over uniform random programs (fuzz/Generator.h with
/// FuzzBias::Uniform), swept by seed with TEST_P:
///   - structural validity of every generated program;
///   - solver == Datalog reference, tuple for tuple, per context flavor;
///   - soundness: dynamic facts are a subset of every analysis result;
///   - abstraction: context-sensitive results project into insensitive ones;
///   - a budget-tripped run is a prefix of the completed run: every
///     projection a subset, every counter no larger;
///   - frontend round-trip preserves analysis outcomes.
///
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/DatalogReference.h"
#include "analysis/PrecisionMetrics.h"
#include "analysis/Solver.h"
#include "frontend/Parser.h"
#include "frontend/Printer.h"
#include "fuzz/Generator.h"
#include "ir/Interpreter.h"
#include "ir/ProgramBuilder.h"
#include "ir/Validator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace intro;

namespace {

class RandomProgramProperty : public ::testing::TestWithParam<uint64_t> {
protected:
  Program makeProgram() const {
    return fuzz::generateFuzzProgram(GetParam(), fuzz::FuzzBias::Uniform);
  }
};

std::vector<std::unique_ptr<ContextPolicy>> allFlavors(const Program &Prog) {
  std::vector<std::unique_ptr<ContextPolicy>> Policies;
  Policies.push_back(makeInsensitivePolicy());
  Policies.push_back(makeCallSitePolicy(1, 0));
  Policies.push_back(makeCallSitePolicy(2, 1));
  Policies.push_back(makeObjectPolicy(Prog, 1, 0));
  Policies.push_back(makeObjectPolicy(Prog, 2, 1));
  Policies.push_back(makeTypePolicy(Prog, 1, 0));
  Policies.push_back(makeTypePolicy(Prog, 2, 1));
  Policies.push_back(makeHybridPolicy(Prog, 2, 1));
  return Policies;
}

} // namespace

TEST_P(RandomProgramProperty, GeneratedProgramIsValid) {
  Program Prog = makeProgram();
  auto Errors = validateProgram(Prog);
  EXPECT_TRUE(Errors.empty()) << (Errors.empty() ? "" : Errors[0].c_str());
}

TEST_P(RandomProgramProperty, SolverMatchesDatalogReference) {
  Program Prog = makeProgram();
  for (auto &Policy : allFlavors(Prog)) {
    ContextTable Table;
    SolverOptions Options;
    Options.KeepTuples = true;
    PointsToResult Solver = solvePointsTo(Prog, *Policy, Table, Options);
    ASSERT_EQ(Solver.Status, SolveStatus::Completed);
    DatalogReferenceResult Reference =
        runDatalogReference(Prog, *Policy, Table);
    ASSERT_FALSE(Reference.BudgetExceeded);

    auto Sorted = [](auto Tuples) {
      std::sort(Tuples.begin(), Tuples.end());
      return Tuples;
    };
    EXPECT_EQ(Sorted(Solver.VarPointsTo), Reference.VarPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.FieldPointsTo), Reference.FieldPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.Reachable), Reference.Reachable)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.CallGraph), Reference.CallGraph)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.ThrowPointsTo), Reference.ThrowPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.StaticFieldPointsTo),
              Reference.StaticFieldPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
  }
}

TEST_P(RandomProgramProperty, IntrospectiveSolverMatchesDatalogReference) {
  Program Prog = makeProgram();
  auto Coarse = makeInsensitivePolicy();
  auto Refined = makeObjectPolicy(Prog, 2, 1);

  // Derive a nontrivial refinement split from the seed: exclude every third
  // heap and every (site, target) pair whose site index is even.
  RefinementExceptions Exceptions(Prog);
  for (uint32_t Heap = 0; Heap < Prog.numHeaps(); Heap += 3)
    Exceptions.excludeHeap(HeapId(Heap));
  {
    ContextTable Probe;
    PointsToResult Insens = solvePointsTo(Prog, *Coarse, Probe);
    for (uint32_t Site = 0; Site < Prog.numSites(); Site += 2)
      for (uint32_t Target : Insens.callTargets(SiteId(Site)))
        Exceptions.excludeSite(SiteId(Site), MethodId(Target));
  }

  auto Intro =
      makeIntrospectivePolicy("introtest", *Coarse, *Refined, Exceptions);
  ContextTable Table;
  SolverOptions Options;
  Options.KeepTuples = true;
  PointsToResult Solver = solvePointsTo(Prog, *Intro, Table, Options);
  DatalogReferenceResult Reference =
      runDatalogReference(Prog, *Coarse, *Refined, Exceptions, Table);

  auto Sorted = [](auto Tuples) {
    std::sort(Tuples.begin(), Tuples.end());
    return Tuples;
  };
  EXPECT_EQ(Sorted(Solver.VarPointsTo), Reference.VarPointsTo);
  EXPECT_EQ(Sorted(Solver.FieldPointsTo), Reference.FieldPointsTo);
  EXPECT_EQ(Sorted(Solver.Reachable), Reference.Reachable);
  EXPECT_EQ(Sorted(Solver.CallGraph), Reference.CallGraph);
}

TEST_P(RandomProgramProperty, AnalysesAreSoundAgainstInterpreter) {
  Program Prog = makeProgram();
  DynamicFacts Facts = interpret(Prog);
  for (auto &Policy : allFlavors(Prog)) {
    ContextTable Table;
    PointsToResult Result = solvePointsTo(Prog, *Policy, Table);
    ASSERT_EQ(Result.Status, SolveStatus::Completed);

    for (auto [Var, Heap] : Facts.VarPointsTo)
      EXPECT_TRUE(setContains(Result.pointsTo(Var), Heap.index()))
          << "seed " << GetParam() << " flavor " << Policy->name()
          << ": dynamic " << Prog.varName(Var) << " -> "
          << Prog.heapName(Heap);
    for (MethodId Method : Facts.ReachedMethods)
      EXPECT_TRUE(Result.isReachable(Method))
          << "seed " << GetParam() << " flavor " << Policy->name();
    for (auto [Site, Target] : Facts.CallEdges)
      EXPECT_TRUE(setContains(Result.callTargets(Site), Target.index()))
          << "seed " << GetParam() << " flavor " << Policy->name();
    for (auto [Field, Heap] : Facts.StaticFieldPointsTo)
      EXPECT_TRUE(setContains(Result.staticPointsTo(Field), Heap.index()))
          << "seed " << GetParam() << " flavor " << Policy->name();
    for (auto [Method, Heap] : Facts.MethodThrows)
      EXPECT_TRUE(setContains(Result.throwsOf(Method), Heap.index()))
          << "seed " << GetParam() << " flavor " << Policy->name()
          << ": exception from " << Prog.methodName(Method);
  }
}

TEST_P(RandomProgramProperty, ContextSensitiveProjectsIntoInsensitive) {
  Program Prog = makeProgram();
  auto Insens = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult Base = solvePointsTo(Prog, *Insens, Table);
  for (auto &Policy : allFlavors(Prog)) {
    ContextTable Inner;
    PointsToResult Result = solvePointsTo(Prog, *Policy, Inner);
    for (uint32_t Var = 0; Var < Prog.numVars(); ++Var)
      for (uint32_t Heap : Result.pointsTo(VarId(Var)))
        EXPECT_TRUE(setContains(Base.pointsTo(VarId(Var)), Heap))
            << "seed " << GetParam() << " flavor " << Policy->name();
    for (uint32_t Site = 0; Site < Prog.numSites(); ++Site)
      for (uint32_t Target : Result.callTargets(SiteId(Site)))
        EXPECT_TRUE(setContains(Base.callTargets(SiteId(Site)), Target))
            << "seed " << GetParam() << " flavor " << Policy->name();
  }
}

TEST_P(RandomProgramProperty, DeeperContextNeverLosesPrecision) {
  // Counts of the three paper metrics never increase when moving from
  // insensitive to a deep analysis (they are derived from projections).
  Program Prog = makeProgram();
  auto Insens = makeInsensitivePolicy();
  ContextTable T0;
  PrecisionMetrics Base =
      computePrecision(Prog, solvePointsTo(Prog, *Insens, T0));
  for (auto &Policy : allFlavors(Prog)) {
    ContextTable Table;
    PrecisionMetrics Deep =
        computePrecision(Prog, solvePointsTo(Prog, *Policy, Table));
    EXPECT_LE(Deep.PolymorphicVirtualCallSites,
              Base.PolymorphicVirtualCallSites);
    EXPECT_LE(Deep.ReachableMethods, Base.ReachableMethods);
    EXPECT_LE(Deep.CastsThatMayFail, Base.CastsThatMayFail);
  }
}

TEST_P(RandomProgramProperty, FrontendRoundTripPreservesAnalysis) {
  Program Prog = makeProgram();
  std::string Text = printProgram(Prog);
  ParseResult Reparsed = parseProgram(Text);
  ASSERT_TRUE(Reparsed.ok()) << Reparsed.Errors[0];
  EXPECT_EQ(printProgram(Reparsed.Prog), Text) << "seed " << GetParam();

  auto Insens = makeInsensitivePolicy();
  ContextTable T1;
  ContextTable T2;
  PointsToResult R1 = solvePointsTo(Prog, *Insens, T1);
  PointsToResult R2 = solvePointsTo(Reparsed.Prog, *Insens, T2);
  EXPECT_EQ(R1.Stats.VarPointsToTuples, R2.Stats.VarPointsToTuples);
  EXPECT_EQ(R1.Stats.CallGraphEdges, R2.Stats.CallGraphEdges);
  PrecisionMetrics M1 = computePrecision(Prog, R1);
  PrecisionMetrics M2 = computePrecision(Reparsed.Prog, R2);
  EXPECT_EQ(M1.PolymorphicVirtualCallSites, M2.PolymorphicVirtualCallSites);
  EXPECT_EQ(M1.CastsThatMayFail, M2.CastsThatMayFail);
}

TEST_P(RandomProgramProperty, BudgetTrippedRunIsAPrefixOfTheCompletedRun) {
  // The worklist only ever adds facts, so a run stopped at any pop has
  // derived a subset of the fixpoint; partial results are what the
  // degradation ladder reads, so this is what makes them safe to read.
  Program Prog = makeProgram();
  std::vector<std::unique_ptr<ContextPolicy>> Policies;
  Policies.push_back(makeInsensitivePolicy());
  Policies.push_back(makeObjectPolicy(Prog, 2, 1));
  auto Subset = [](const SortedIdSet &Part, const SortedIdSet &Whole) {
    return std::includes(Whole.begin(), Whole.end(), Part.begin(), Part.end());
  };
  for (auto &Policy : Policies) {
    ContextTable FullTable;
    PointsToResult Full = solvePointsTo(Prog, *Policy, FullTable);
    ASSERT_EQ(Full.Status, SolveStatus::Completed);
    uint64_t Pops = Full.Stats.WorklistPops;
    std::set<uint64_t> StopPops;
    for (uint64_t At : {uint64_t(1), Pops / 4, Pops / 2, Pops - 1})
      if (At >= 1 && At < Pops)
        StopPops.insert(At);
    for (uint64_t At : StopPops) {
      std::string Where = "seed " + std::to_string(GetParam()) + " flavor " +
                          Policy->name() + " stopped at pop " +
                          std::to_string(At) + " of " + std::to_string(Pops);
      ContextTable Table;
      SolverOptions Options;
      Options.Faults.FailAtPop = At;
      Options.Faults.FailStatus = SolveStatus::TupleBudgetExceeded;
      PointsToResult Part = solvePointsTo(Prog, *Policy, Table, Options);
      ASSERT_EQ(Part.Status, SolveStatus::TupleBudgetExceeded) << Where;

      for (uint32_t Var = 0; Var < Part.VarHeaps.size(); ++Var)
        EXPECT_TRUE(Subset(Part.VarHeaps[Var], Full.pointsTo(VarId(Var))))
            << Where << ": var " << Var;
      for (const FieldCell &Cell : Part.FieldHeaps)
        EXPECT_TRUE(Subset(Cell.Heaps,
                           Full.fieldPointsTo(HeapId(Cell.BaseHeap),
                                              FieldId(Cell.Field))))
            << Where << ": field cell (" << Cell.BaseHeap << ", "
            << Cell.Field << ")";
      for (uint32_t Field = 0; Field < Part.StaticFieldHeaps.size(); ++Field)
        EXPECT_TRUE(Subset(Part.StaticFieldHeaps[Field],
                           Full.staticPointsTo(FieldId(Field))))
            << Where << ": static field " << Field;
      for (uint32_t Method = 0; Method < Part.MethodThrows.size(); ++Method)
        EXPECT_TRUE(Subset(Part.MethodThrows[Method],
                           Full.throwsOf(MethodId(Method))))
            << Where << ": throws of method " << Method;
      for (uint32_t Method = 0; Method < Part.MethodReachable.size();
           ++Method)
        if (Part.MethodReachable[Method]) {
          EXPECT_TRUE(Full.isReachable(MethodId(Method)))
              << Where << ": method " << Method;
        }
      for (uint32_t Site = 0; Site < Part.SiteTargets.size(); ++Site)
        EXPECT_TRUE(Subset(Part.SiteTargets[Site],
                           Full.callTargets(SiteId(Site))))
            << Where << ": site " << Site;

      // Every persisted counter tallies something the run only adds to:
      // tuples, nodes, contexts, pops, edges, bytes.
      for (auto [Name, Counter] : SolverStatsFields)
        EXPECT_LE(Part.Stats.*Counter, Full.Stats.*Counter)
            << Where << ": " << Name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramProperty,
                         ::testing::Range<uint64_t>(1, 33));

// --- Larger random programs: stress the engines harder -----------------------

class LargeRandomProgramProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(LargeRandomProgramProperty, OracleAgreementAtScale) {
  fuzz::FuzzProgramOptions Options;
  Options.NumClasses = 12;
  Options.NumVirtualSigs = 5;
  Options.NumStaticMethods = 6;
  Options.InstructionsPerBody = 14;
  Options.LocalsPerMethod = 6;
  Program Prog =
      fuzz::generateFuzzProgram(GetParam(), fuzz::FuzzBias::Uniform, Options);
  ASSERT_TRUE(validateProgram(Prog).empty());

  bool ComparedAny = false;
  for (auto &Policy :
       {makeInsensitivePolicy(), makeObjectPolicy(Prog, 2, 1),
        makeCallSitePolicy(2, 1)}) {
    ContextTable Table;
    SolverOptions SOptions;
    SOptions.KeepTuples = true;
    // Random programs can be genuinely pathological (that is the point of
    // the paper!); cap the work and only compare completed runs.
    SOptions.Budget.MaxTuples = 2'000'000;
    PointsToResult Solver = solvePointsTo(Prog, *Policy, Table, SOptions);
    if (!isCompleted(Solver.Status))
      continue; // A partial fixpoint cannot be compared to the oracle.
    ComparedAny = true;
    DatalogReferenceResult Reference =
        runDatalogReference(Prog, *Policy, Table);
    ASSERT_FALSE(Reference.BudgetExceeded);
    auto Sorted = [](auto Tuples) {
      std::sort(Tuples.begin(), Tuples.end());
      return Tuples;
    };
    EXPECT_EQ(Sorted(Solver.VarPointsTo), Reference.VarPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.FieldPointsTo), Reference.FieldPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.ThrowPointsTo), Reference.ThrowPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.StaticFieldPointsTo),
              Reference.StaticFieldPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.CallGraph), Reference.CallGraph)
        << "seed " << GetParam() << " flavor " << Policy->name();
  }
  EXPECT_TRUE(ComparedAny)
      << "every flavor blew the cap on seed " << GetParam()
      << " -- shrink the generator options";
}

INSTANTIATE_TEST_SUITE_P(LargeSeeds, LargeRandomProgramProperty,
                         ::testing::Range<uint64_t>(100, 108));

// --- Dense hub workloads: oracle agreement with bitmap-backed sets -----------

TEST(DenseHubProperty, OracleAgreementWithPromotedSets) {
  // Random programs keep points-to sets small, so the adaptive sets stay in
  // vector mode there.  This workload funnels enough interleaved allocation
  // sites through a hub (with loads, stores, casts, and dispatch hanging
  // off it) that the hot sets cross the promotion threshold, then demands
  // tuple-for-tuple oracle agreement while the solver is in bitmap mode.
  constexpr uint32_t NumObjects = 96;
  constexpr uint32_t NumSources = 4;
  constexpr uint32_t NumConsumers = 8;

  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId Base = B.cls("Base", Object);
  TypeId Payload = B.cls("Payload", Base);
  TypeId Other = B.cls("Other", Base);
  FieldId Link = B.field(Base, "link");
  MethodBuilder Poke = B.method(Base, "poke", 0);
  (void)Poke;
  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());

  std::vector<VarId> Sources;
  for (uint32_t Index = 0; Index < NumSources; ++Index)
    Sources.push_back(Main.local("s" + std::to_string(Index)));
  // Interleaved allocation over two sibling types so the cast filter below
  // genuinely splits the hub set.
  for (uint32_t Index = 0; Index < NumObjects; ++Index)
    Main.alloc(Sources[Index % NumSources],
               Index % 2 == 0 ? Payload : Other);
  VarId Hub = Main.local("hub");
  for (VarId Source : Sources)
    Main.move(Hub, Source);
  for (uint32_t Index = 0; Index < NumConsumers; ++Index)
    Main.move(Main.local("c" + std::to_string(Index)), Hub);
  // Field flow through the dense set: every hub object's link field holds
  // the whole hub set, read back through a load.
  Main.store(Hub, Link, Hub);
  Main.load(Main.local("back"), Hub, Link);
  // A checked cast filters the dense set by type.
  Main.cast(Main.local("narrowed"), Hub, Payload);
  // Dispatch over the dense receiver set.
  Main.vcall(VarId::invalid(), Hub, "poke", {});
  Program Prog = B.take();
  ASSERT_TRUE(validateProgram(Prog).empty());

  for (auto &Policy : {makeInsensitivePolicy(), makeObjectPolicy(Prog, 2, 1)}) {
    ContextTable Table;
    SolverOptions Options;
    Options.KeepTuples = true;
    PointsToResult Solver = solvePointsTo(Prog, *Policy, Table, Options);
    ASSERT_EQ(Solver.Status, SolveStatus::Completed);
    // The point of this workload: the solver really ran on bitmap sets.
    EXPECT_GT(Solver.Stats.DensePointsToSets, 0u) << Policy->name();
    EXPECT_GT(Solver.Stats.BatchUnions, 0u) << Policy->name();

    DatalogReferenceResult Reference =
        runDatalogReference(Prog, *Policy, Table);
    ASSERT_FALSE(Reference.BudgetExceeded);
    auto Sorted = [](auto Tuples) {
      std::sort(Tuples.begin(), Tuples.end());
      return Tuples;
    };
    EXPECT_EQ(Sorted(Solver.VarPointsTo), Reference.VarPointsTo)
        << Policy->name();
    EXPECT_EQ(Sorted(Solver.FieldPointsTo), Reference.FieldPointsTo)
        << Policy->name();
    EXPECT_EQ(Sorted(Solver.Reachable), Reference.Reachable)
        << Policy->name();
    EXPECT_EQ(Sorted(Solver.CallGraph), Reference.CallGraph)
        << Policy->name();
  }
}
