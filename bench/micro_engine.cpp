//===- bench/micro_engine.cpp - Engine micro-benchmarks -------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the engine primitives: context-tuple
/// interning, sorted-set insertion, whole-program solving on a fixed
/// profile, the Datalog engine's transitive closure, and the introspection
/// metric queries.  Not part of the paper; used to watch for regressions in
/// the substrate the figures depend on.
///
//===----------------------------------------------------------------------===//

#include "analysis/Context.h"
#include "analysis/ContextPolicy.h"
#include "analysis/Solver.h"
#include "datalog/Engine.h"
#include "introspect/Metrics.h"
#include "support/Concat.h"
#include "support/Rng.h"
#include "support/SetUtils.h"
#include "support/Trace.h"
#include "workload/DaCapo.h"
#include "workload/Generator.h"

#include "TestPrograms.h"

#include <benchmark/benchmark.h>

using namespace intro;
using intro::testing::hubHeavyProgram;

static void BM_ContextInterning(benchmark::State &State) {
  for (auto _ : State) {
    ContextTable Table;
    Rng R(7);
    for (int Index = 0; Index < 10000; ++Index) {
      std::array<uint32_t, 2> Elements = {R.below(512), R.below(512)};
      benchmark::DoNotOptimize(Table.internCtx(Elements));
    }
  }
}
BENCHMARK(BM_ContextInterning);

static void BM_SortedSetInsert(benchmark::State &State) {
  Rng R(11);
  for (auto _ : State) {
    SortedIdSet Set;
    for (int Index = 0; Index < 4096; ++Index)
      setInsert(Set, R.below(8192));
    benchmark::DoNotOptimize(Set.size());
  }
}
BENCHMARK(BM_SortedSetInsert);

static void BM_SolveInsensChart(benchmark::State &State) {
  Program Prog = generateWorkload(dacapoProfile("chart"));
  auto Policy = makeInsensitivePolicy();
  for (auto _ : State) {
    ContextTable Table;
    PointsToResult Result = solvePointsTo(Prog, *Policy, Table);
    benchmark::DoNotOptimize(Result.Stats.VarPointsToTuples);
  }
}
BENCHMARK(BM_SolveInsensChart);

// BM_SolveInsensChart's solve under Assembly::Stats: the difference between
// the two is what assembling Pass A's heap projections costs per solve.
static void BM_SolveInsensChartStats(benchmark::State &State) {
  Program Prog = generateWorkload(dacapoProfile("chart"));
  auto Policy = makeInsensitivePolicy();
  SolverOptions Options;
  Options.Assemble = Assembly::Stats;
  for (auto _ : State) {
    ContextTable Table;
    PointsToResult Result = solvePointsTo(Prog, *Policy, Table, Options);
    benchmark::DoNotOptimize(Result.Stats.VarPointsToTuples);
  }
}
BENCHMARK(BM_SolveInsensChartStats);

static void BM_Solve2objHChart(benchmark::State &State) {
  Program Prog = generateWorkload(dacapoProfile("chart"));
  auto Policy = makeObjectPolicy(Prog, 2, 1);
  for (auto _ : State) {
    ContextTable Table;
    PointsToResult Result = solvePointsTo(Prog, *Policy, Table);
    benchmark::DoNotOptimize(Result.Stats.VarPointsToTuples);
  }
}
BENCHMARK(BM_Solve2objHChart);

// BM_Solve2objHChart's solve under Assembly::Stats, the ladder rungs'
// default: the difference between the two is what assembling the heap
// projections costs per solve.
static void BM_Solve2objHChartStats(benchmark::State &State) {
  Program Prog = generateWorkload(dacapoProfile("chart"));
  auto Policy = makeObjectPolicy(Prog, 2, 1);
  SolverOptions Options;
  Options.Assemble = Assembly::Stats;
  for (auto _ : State) {
    ContextTable Table;
    PointsToResult Result = solvePointsTo(Prog, *Policy, Table, Options);
    benchmark::DoNotOptimize(Result.Stats.VarPointsToTuples);
  }
}
BENCHMARK(BM_Solve2objHChartStats);

// The perf-trajectory benchmark behind BENCH_solver.json: throughput of the
// solver on the hub-heavy flavor, whose 8192-object hub is far larger than
// any gen-dacapo set.  The items-per-second counter is objects propagated
// (tuples derived).  A union binary-searches its destination once per
// element of its source, so a delta merged into the hub costs O(delta log
// hub).
static void BM_SolveHubHeavy(benchmark::State &State) {
  Program Prog = hubHeavyProgram(/*NumObjects=*/8192, /*NumSources=*/8,
                                 /*NumConsumers=*/64);
  auto Policy = makeInsensitivePolicy();
  uint64_t Tuples = 0;
  for (auto _ : State) {
    ContextTable Table;
    PointsToResult Result = solvePointsTo(Prog, *Policy, Table);
    Tuples = Result.Stats.VarPointsToTuples;
    benchmark::DoNotOptimize(Tuples);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Tuples) * State.iterations());
}
BENCHMARK(BM_SolveHubHeavy)->Unit(benchmark::kMillisecond);

// BM_SolveHubHeavy's counterpart without a hub: the chart profile with no
// hub fan-out, so nearly every points-to set is small and distinct and the
// set store's memo probe per union is mostly a miss.
static void BM_SolveNoHub(benchmark::State &State) {
  WorkloadProfile Profile = dacapoProfile("chart");
  Profile.HubFanout = 0;
  Program Prog = generateWorkload(Profile);
  auto Policy = makeInsensitivePolicy();
  uint64_t Tuples = 0;
  for (auto _ : State) {
    ContextTable Table;
    PointsToResult Result = solvePointsTo(Prog, *Policy, Table);
    Tuples = Result.Stats.VarPointsToTuples;
    benchmark::DoNotOptimize(Tuples);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Tuples) * State.iterations());
}
BENCHMARK(BM_SolveNoHub)->Unit(benchmark::kMillisecond);

// Join-index hash datapoint: one body atom per relation means one JoinIndex
// entry per relation, so the engine's Indexes unordered_map sees exactly the
// (RelationIndex, Mask) key population that the old `(rel << 8) ^ mask`
// hash collapsed into a handful of buckets.  With 96 indexed relations this
// benchmark regressed ~linearly under the colliding hash and is flat under
// mixIndexKeyBits.
static void BM_DatalogManyIndexedJoins(benchmark::State &State) {
  using datalog::Atom;
  using datalog::Rule;
  using datalog::Term;
  constexpr uint32_t NumEdgeRelations = 96;
  for (auto _ : State) {
    datalog::Engine E;
    uint32_t Out = E.addRelation("out", 2);
    std::vector<uint32_t> Edges;
    for (uint32_t Rel = 0; Rel < NumEdgeRelations; ++Rel) {
      uint32_t Edge = E.addRelation(concat("edge", Rel), 2);
      Edges.push_back(Edge);
      // out(x, z) :- out(x, y), edgeR(y, z).  The second atom is looked up
      // with position 0 bound, so every edge relation gets its own index.
      E.addRule(Rule{{Atom{Out, {Term::var(0), Term::var(2)}}},
                     {Atom{Out, {Term::var(0), Term::var(1)}},
                      Atom{Edge, {Term::var(1), Term::var(2)}}},
                     {}});
      for (uint32_t Node = 0; Node < 8; ++Node)
        E.relation(Edge).insert(std::array<uint32_t, 2>{Node, Node + 1});
    }
    E.relation(Out).insert(std::array<uint32_t, 2>{0, 0});
    benchmark::DoNotOptimize(E.run().TuplesDerived);
  }
}
BENCHMARK(BM_DatalogManyIndexedJoins);

static void BM_DatalogTransitiveClosure(benchmark::State &State) {
  for (auto _ : State) {
    datalog::Engine E;
    uint32_t Edge = E.addRelation("edge", 2);
    uint32_t Path = E.addRelation("path", 2);
    using datalog::Atom;
    using datalog::Rule;
    using datalog::Term;
    E.addRule(Rule{{Atom{Path, {Term::var(0), Term::var(1)}}},
                   {Atom{Edge, {Term::var(0), Term::var(1)}}},
                   {}});
    E.addRule(Rule{{Atom{Path, {Term::var(0), Term::var(2)}}},
                   {Atom{Path, {Term::var(0), Term::var(1)}},
                    Atom{Edge, {Term::var(1), Term::var(2)}}},
                   {}});
    for (uint32_t Node = 0; Node < 128; ++Node)
      E.relation(Edge).insert(std::array<uint32_t, 2>{Node, Node + 1});
    benchmark::DoNotOptimize(E.run().TuplesDerived);
  }
}
BENCHMARK(BM_DatalogTransitiveClosure);

// --- Tracing overhead -------------------------------------------------------
//
// BM_TraceOffEventSite prices one TRACE_* site with no recorder installed:
// the documented cost is a relaxed atomic load plus a predictable branch.
// Compare BM_SolveInsensChart before/after instrumented builds for the < 2%
// whole-solver criterion.

static void BM_TraceOffEventSite(benchmark::State &State) {
  uint64_t Value = 0;
  for (auto _ : State) {
    TRACE_SPAN("micro.noop_span");
    TRACE_COUNTER("micro.noop_counter", 1);
    benchmark::DoNotOptimize(++Value);
  }
}
BENCHMARK(BM_TraceOffEventSite);

static void BM_TraceOnCounterAdd(benchmark::State &State) {
  trace::Recorder Rec;
  Rec.start();
  for (auto _ : State)
    TRACE_COUNTER("micro.active_counter", 1);
  Rec.stop();
}
BENCHMARK(BM_TraceOnCounterAdd);

static void BM_TraceOnSpan(benchmark::State &State) {
  trace::Recorder Rec;
  Rec.start();
  for (auto _ : State) {
    TRACE_SPAN("micro.active_span");
    benchmark::ClobberMemory();
  }
  Rec.stop();
}
// Fixed iteration count: an active span appends two events per iteration
// into the per-thread buffer, so a benchmark-chosen iteration count could
// grow the log without bound.
BENCHMARK(BM_TraceOnSpan)->Iterations(1 << 16);

static void BM_IntrospectionMetrics(benchmark::State &State) {
  Program Prog = generateWorkload(dacapoProfile("chart"));
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult Result = solvePointsTo(Prog, *Policy, Table);
  for (auto _ : State) {
    IntrospectionMetrics Metrics = computeIntrospectionMetrics(Prog, Result);
    benchmark::DoNotOptimize(Metrics.InFlow.size());
  }
}
BENCHMARK(BM_IntrospectionMetrics);

BENCHMARK_MAIN();
