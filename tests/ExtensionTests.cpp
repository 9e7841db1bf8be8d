//===- tests/ExtensionTests.cpp - Extension feature tests -----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the features beyond the paper's core model: checked-cast
/// semantics, hybrid context-sensitivity, composable heuristics, Datalog
/// aggregation (the paper's INFLOW query verbatim), result reports, and the
/// Doop-style facts export.
///
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/DatalogReference.h"
#include "analysis/Reports.h"
#include "analysis/Solver.h"
#include "datalog/Aggregates.h"
#include "fuzz/Generator.h"
#include "introspect/Custom.h"
#include "introspect/Metrics.h"
#include "ir/FactsIO.h"
#include "ir/Interpreter.h"
#include "workload/DaCapo.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace intro;
using namespace intro::testing;

// --- Checked-cast semantics ----------------------------------------------

TEST(CastFiltering, FilterRemovesIncompatibleObjects) {
  TwoBoxes T = makeTwoBoxes();
  auto Policy = makeInsensitivePolicy();

  ContextTable T1;
  SolverOptions Plain;
  PointsToResult Unfiltered = solvePointsTo(T.Prog, *Policy, T1, Plain);
  // Paper model: the cast target holds both payloads.
  EXPECT_TRUE(setContains(Unfiltered.pointsTo(T.CastA), T.HeapB.index()));

  ContextTable T2;
  SolverOptions Checked;
  Checked.FilterCasts = true;
  PointsToResult Filtered = solvePointsTo(T.Prog, *Policy, T2, Checked);
  // Checked casts: only the A object survives `(A) oa`.
  EXPECT_TRUE(setContains(Filtered.pointsTo(T.CastA), T.HeapA.index()));
  EXPECT_FALSE(setContains(Filtered.pointsTo(T.CastA), T.HeapB.index()));
  // The cast *source* is unaffected.
  EXPECT_TRUE(setContains(Filtered.pointsTo(T.OutA), T.HeapB.index()));
}

TEST(CastFiltering, SolverMatchesDatalogReference) {
  for (uint64_t Seed : {3u, 7u, 11u, 19u}) {
    Program Prog = fuzz::generateFuzzProgram(Seed, fuzz::FuzzBias::Uniform);
    for (int UseObjectSens : {0, 1}) {
      auto Policy = UseObjectSens ? makeObjectPolicy(Prog, 2, 1)
                                  : makeInsensitivePolicy();
      ContextTable Table;
      SolverOptions Options;
      Options.KeepTuples = true;
      Options.FilterCasts = true;
      PointsToResult Solver = solvePointsTo(Prog, *Policy, Table, Options);
      DatalogReferenceOptions RefOptions;
      RefOptions.FilterCasts = true;
      DatalogReferenceResult Reference =
          runDatalogReference(Prog, *Policy, Table, RefOptions);

      auto Sorted = [](auto Tuples) {
        std::sort(Tuples.begin(), Tuples.end());
        return Tuples;
      };
      EXPECT_EQ(Sorted(Solver.VarPointsTo), Reference.VarPointsTo)
          << "seed " << Seed;
      EXPECT_EQ(Sorted(Solver.FieldPointsTo), Reference.FieldPointsTo)
          << "seed " << Seed;
      EXPECT_EQ(Sorted(Solver.CallGraph), Reference.CallGraph)
          << "seed " << Seed;
    }
  }
}

TEST(CastFiltering, StillSoundAgainstInterpreter) {
  // The interpreter's concrete casts also filter (a failing cast yields
  // null), so the filtered analysis must still over-approximate it.
  for (uint64_t Seed : {5u, 23u, 31u}) {
    Program Prog = fuzz::generateFuzzProgram(Seed, fuzz::FuzzBias::Uniform);
    DynamicFacts Facts = interpret(Prog);
    auto Policy = makeInsensitivePolicy();
    ContextTable Table;
    SolverOptions Options;
    Options.FilterCasts = true;
    PointsToResult Result = solvePointsTo(Prog, *Policy, Table, Options);
    for (auto [Var, Heap] : Facts.VarPointsTo)
      EXPECT_TRUE(setContains(Result.pointsTo(Var), Heap.index()))
          << "seed " << Seed;
  }
}

TEST(CastFiltering, FilteredIsSubsetOfUnfiltered) {
  for (uint64_t Seed : {2u, 13u}) {
    Program Prog = fuzz::generateFuzzProgram(Seed, fuzz::FuzzBias::Uniform);
    auto Policy = makeInsensitivePolicy();
    ContextTable T1;
    ContextTable T2;
    SolverOptions Plain;
    SolverOptions Checked;
    Checked.FilterCasts = true;
    PointsToResult Unfiltered = solvePointsTo(Prog, *Policy, T1, Plain);
    PointsToResult Filtered = solvePointsTo(Prog, *Policy, T2, Checked);
    for (uint32_t Var = 0; Var < Prog.numVars(); ++Var)
      for (uint32_t Heap : Filtered.pointsTo(VarId(Var)))
        EXPECT_TRUE(setContains(Unfiltered.pointsTo(VarId(Var)), Heap));
  }
}

// --- Hybrid context-sensitivity -------------------------------------------

TEST(Hybrid, NameAndVirtualPrecision) {
  TwoBoxes T = makeTwoBoxes();
  auto Policy = makeHybridPolicy(T.Prog, 2, 1);
  EXPECT_EQ(Policy->name(), "2hybH");
  ContextTable Table;
  PointsToResult R = solvePointsTo(T.Prog, *Policy, Table);
  // Virtual calls get object-sensitivity: the boxes are separated.
  EXPECT_TRUE(setContains(R.pointsTo(T.OutA), T.HeapA.index()));
  EXPECT_FALSE(setContains(R.pointsTo(T.OutA), T.HeapB.index()));
}

TEST(Hybrid, StaticCallsGetCallSiteSensitivity) {
  // static id(p) { return p; } called from two sites with different
  // arguments: 2objH conflates the two calls (static calls inherit the
  // caller context), the hybrid separates them.
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId A = B.cls("A", Object);
  TypeId BT = B.cls("B", Object);
  MethodBuilder Id = B.method(Object, "id", 1, /*IsStatic=*/true);
  Id.move(Id.returnVar(), Id.formal(0));
  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());
  VarId X1 = Main.local("x1");
  VarId X2 = Main.local("x2");
  VarId R1 = Main.local("r1");
  VarId R2 = Main.local("r2");
  HeapId HeapA = Main.alloc(X1, A);
  HeapId HeapB = Main.alloc(X2, BT);
  Main.scall(R1, Id.id(), {X1});
  Main.scall(R2, Id.id(), {X2});
  Program Prog = B.take();

  auto Obj = makeObjectPolicy(Prog, 2, 1);
  ContextTable T1;
  PointsToResult RO = solvePointsTo(Prog, *Obj, T1);
  EXPECT_TRUE(setContains(RO.pointsTo(R1), HeapB.index()))
      << "2objH conflates static calls";

  auto Hybrid = makeHybridPolicy(Prog, 2, 1);
  ContextTable T2;
  PointsToResult RH = solvePointsTo(Prog, *Hybrid, T2);
  EXPECT_TRUE(setContains(RH.pointsTo(R1), HeapA.index()));
  EXPECT_FALSE(setContains(RH.pointsTo(R1), HeapB.index()))
      << "hybrid separates static call sites";
}

TEST(Hybrid, SolverMatchesDatalogReference) {
  for (uint64_t Seed : {4u, 17u}) {
    Program Prog = fuzz::generateFuzzProgram(Seed, fuzz::FuzzBias::Uniform);
    auto Policy = makeHybridPolicy(Prog, 2, 1);
    ContextTable Table;
    SolverOptions Options;
    Options.KeepTuples = true;
    PointsToResult Solver = solvePointsTo(Prog, *Policy, Table, Options);
    DatalogReferenceResult Reference =
        runDatalogReference(Prog, *Policy, Table);
    auto Sorted = [](auto Tuples) {
      std::sort(Tuples.begin(), Tuples.end());
      return Tuples;
    };
    EXPECT_EQ(Sorted(Solver.VarPointsTo), Reference.VarPointsTo);
    EXPECT_EQ(Sorted(Solver.CallGraph), Reference.CallGraph);
  }
}

// --- Composable heuristics ---------------------------------------------------

TEST(CustomHeuristics, SpecAEquivalentToHandWritten) {
  Program Prog = generateWorkload(dacapoProfile("chart"));
  auto Insens = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult First = solvePointsTo(Prog, *Insens, Table);
  IntrospectionMetrics Metrics = computeIntrospectionMetrics(Prog, First);

  RefinementExceptions Canned = applyHeuristicA(Prog, First, Metrics);
  RefinementExceptions Custom =
      applyCustomHeuristic(Prog, First, Metrics, heuristicASpec());
  EXPECT_EQ(Canned.NoRefineHeaps, Custom.NoRefineHeaps);
  EXPECT_EQ(Canned.NoRefineSites, Custom.NoRefineSites);
}

TEST(CustomHeuristics, SpecBEquivalentToHandWritten) {
  Program Prog = generateWorkload(dacapoProfile("hsqldb"));
  auto Insens = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult First = solvePointsTo(Prog, *Insens, Table);
  IntrospectionMetrics Metrics = computeIntrospectionMetrics(Prog, First);

  RefinementExceptions Canned = applyHeuristicB(Prog, First, Metrics);
  RefinementExceptions Custom =
      applyCustomHeuristic(Prog, First, Metrics, heuristicBSpec());
  EXPECT_EQ(Canned.NoRefineHeaps, Custom.NoRefineHeaps);
  EXPECT_EQ(Canned.NoRefineSites, Custom.NoRefineSites);
}

TEST(CustomHeuristics, RulesAreOrCombined) {
  TwoBoxes T = makeTwoBoxes();
  auto Insens = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult First = solvePointsTo(T.Prog, *Insens, Table);
  IntrospectionMetrics Metrics = computeIntrospectionMetrics(T.Prog, First);

  // Two object rules covering disjoint sets: anything hitting either is
  // out.  Boxes have field sets of size 2 but only 3 pointing vars;
  // payloads have no fields but 6 pointing vars.
  CustomHeuristic OnlyFields;
  OnlyFields.ObjectRules.push_back(
      ObjectRule{Metric::ObjectTotalFieldPointsTo, Metric::None, 1});
  CustomHeuristic OnlyPointers;
  OnlyPointers.ObjectRules.push_back(
      ObjectRule{Metric::PointedByVars, Metric::None, 5});
  CustomHeuristic Both;
  Both.ObjectRules = {OnlyFields.ObjectRules[0], OnlyPointers.ObjectRules[0]};

  RefinementExceptions EF =
      applyCustomHeuristic(T.Prog, First, Metrics, OnlyFields);
  EXPECT_TRUE(EF.skipsHeap(T.Box1));
  EXPECT_FALSE(EF.skipsHeap(T.HeapA));

  RefinementExceptions EP =
      applyCustomHeuristic(T.Prog, First, Metrics, OnlyPointers);
  EXPECT_FALSE(EP.skipsHeap(T.Box1));
  EXPECT_TRUE(EP.skipsHeap(T.HeapA));

  RefinementExceptions EB = applyCustomHeuristic(T.Prog, First, Metrics, Both);
  EXPECT_TRUE(EB.skipsHeap(T.Box1)) << "OR: excluded by the field rule";
  EXPECT_TRUE(EB.skipsHeap(T.HeapA)) << "OR: excluded by the pointer rule";
}

TEST(CustomHeuristics, MetricDomains) {
  EXPECT_TRUE(isSiteMetric(Metric::InFlow));
  EXPECT_FALSE(isSiteMetric(Metric::PointedByVars));
  EXPECT_TRUE(isMethodMetric(Metric::MethodTotalVolume));
  EXPECT_TRUE(isObjectMetric(Metric::PointedByObjs));
  EXPECT_FALSE(isObjectMetric(Metric::MethodTotalVolume));
}

// --- Datalog aggregation (the paper's INFLOW query) ---------------------------

TEST(Aggregates, CountGroupBy) {
  datalog::Relation Rel("r", 2);
  for (auto [A, B] : std::vector<std::pair<uint32_t, uint32_t>>{
           {1, 10}, {1, 11}, {2, 10}, {1, 10}})
    Rel.insert(std::array<uint32_t, 2>{A, B});
  auto Groups = datalog::countGroupBy(Rel, {0});
  ASSERT_EQ(Groups.size(), 2u);
  EXPECT_EQ(Groups[0].Key, (std::vector<uint32_t>{1}));
  EXPECT_EQ(Groups[0].Count, 2u); // (1,10) deduplicated by the relation.
  EXPECT_EQ(Groups[1].Key, (std::vector<uint32_t>{2}));
  EXPECT_EQ(Groups[1].Count, 1u);
}

TEST(Aggregates, CountDistinctGroupBy) {
  datalog::Relation Rel("r", 3);
  for (auto Row : std::vector<std::array<uint32_t, 3>>{
           {1, 7, 100}, {1, 8, 100}, {1, 9, 101}, {2, 7, 100}})
    Rel.insert(Row);
  // Distinct third column per first column.
  auto Groups = datalog::countDistinctGroupBy(Rel, {0}, {2});
  ASSERT_EQ(Groups.size(), 2u);
  EXPECT_EQ(Groups[0].Count, 2u); // {100, 101}
  EXPECT_EQ(Groups[1].Count, 1u); // {100}
}

TEST(Aggregates, InFlowQueryMatchesMetricImplementation) {
  // Build HEAPSPERINVOCATIONPERARG(invo, arg, heap) exactly as in the
  // paper's Section 3 query and aggregate it; the result must equal the
  // C++ metric #1 implementation.
  Program Prog = generateWorkload(dacapoProfile("antlr"));
  auto Insens = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult First = solvePointsTo(Prog, *Insens, Table);
  IntrospectionMetrics Metrics = computeIntrospectionMetrics(Prog, First);

  datalog::Relation Heaps("HEAPSPERINVOCATIONPERARG", 3);
  for (uint32_t SiteRaw = 0; SiteRaw < Prog.numSites(); ++SiteRaw) {
    SiteId Site(SiteRaw);
    if (First.callTargets(Site).empty())
      continue; // No CALLGRAPH(invo, _, _, _) fact.
    for (VarId Arg : Prog.site(Site).Actuals)
      for (uint32_t Heap : First.pointsTo(Arg))
        Heaps.insert(std::array<uint32_t, 3>{SiteRaw, Arg.index(), Heap});
  }
  auto InFlow = datalog::countGroupBy(Heaps, {0});

  std::map<uint32_t, uint64_t> FromQuery;
  for (const auto &Group : InFlow)
    FromQuery[Group.Key[0]] = Group.Count;
  for (uint32_t SiteRaw = 0; SiteRaw < Prog.numSites(); ++SiteRaw) {
    uint64_t Expected = Metrics.InFlow[SiteRaw];
    uint64_t Queried = FromQuery.count(SiteRaw) ? FromQuery[SiteRaw] : 0;
    EXPECT_EQ(Queried, Expected) << "site " << SiteRaw;
  }
}

// --- Reports --------------------------------------------------------------------

TEST(Reports, CallGraphDot) {
  Dispatch T = makeDispatch();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult R = solvePointsTo(T.Prog, *Policy, Table);
  std::ostringstream Out;
  writeCallGraphDot(T.Prog, R, Out);
  std::string Dot = Out.str();
  EXPECT_NE(Dot.find("digraph callgraph"), std::string::npos);
  EXPECT_NE(Dot.find("Cat.speak"), std::string::npos);
  EXPECT_NE(Dot.find("Dog.speak"), std::string::npos);
  EXPECT_NE(Dot.find("->"), std::string::npos);
}

TEST(Reports, PointsToListing) {
  Dispatch T = makeDispatch();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult R = solvePointsTo(T.Prog, *Policy, Table);
  std::ostringstream Out;
  writePointsToReport(T.Prog, R, Out);
  std::string Text = Out.str();
  EXPECT_NE(Text.find("s1 -> {"), std::string::npos);
  EXPECT_NE(Text.find("new Meow"), std::string::npos);
}

// --- Facts export ------------------------------------------------------------------

TEST(FactsIO, WritesDoopStyleDirectory) {
  TwoBoxes T = makeTwoBoxes();
  std::filesystem::path Dir =
      std::filesystem::temp_directory_path() / "intro_facts_test";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);

  std::string Error;
  auto Files = writeFactsDirectory(T.Prog, Dir.string(), Error);
  ASSERT_FALSE(Files.empty()) << Error;
  EXPECT_EQ(Files.size(), 22u); // 21 relations + EntryMethod.

  // Spot-check Alloc.facts: four allocations with names.
  std::ifstream Alloc(Dir / "Alloc.facts");
  ASSERT_TRUE(Alloc.good());
  std::string Line;
  size_t Lines = 0;
  bool SawBoxAlloc = false;
  while (std::getline(Alloc, Line)) {
    ++Lines;
    if (Line.find("new Box") != std::string::npos &&
        Line.find("b1\t") == 0)
      SawBoxAlloc = true;
  }
  EXPECT_EQ(Lines, 4u);
  EXPECT_TRUE(SawBoxAlloc);

  // Entry method listed by name.
  std::ifstream Entry(Dir / "EntryMethod.facts");
  std::string EntryName;
  std::getline(Entry, EntryName);
  EXPECT_EQ(EntryName, "main");

  std::filesystem::remove_all(Dir);
}
