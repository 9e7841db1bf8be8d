//===- bench/FigFlavor.h - Shared Figures 5/6/7 harness ---------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figures 5, 6, and 7 have identical structure — running time plus three
/// precision metrics for { insens, <flavor>-IntroA, <flavor>-IntroB,
/// <flavor> } over the six scalability subjects — differing only in the
/// context-sensitivity flavor.  This header implements the harness once.
///
/// The (subject x analysis) matrix is swept in parallel (bench/Sweep.h):
/// every cell is an independent solver run over a read-only Program, the
/// results land in a dense vector indexed by cell, and the tables are
/// printed afterwards in the fixed subject order — so the output is
/// byte-identical for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef BENCH_FIGFLAVOR_H
#define BENCH_FIGFLAVOR_H

#include "BenchCommon.h"
#include "Sweep.h"

#include <iostream>
#include <optional>
#include <vector>

namespace intro::bench {

/// Emits the paper-style rows for one figure, fanning the subject x
/// analysis cells over `Args.Workers` threads.  A trace path additionally
/// records a structured trace of the whole sweep and writes the Chrome
/// trace plus the machine-readable run report (BenchCommon.h's
/// TraceSession); a cache directory shares Pass-A results between cells.
inline int runFlavorFigure(Flavor F, const char *FigureName,
                           const char *ExpectedShape,
                           const HarnessArgs &Args) {
  const unsigned Workers = Args.Workers;
  TraceSession Trace(Args.TracePath);
  std::cout << FigureName << ": performance and precision for introspective "
            << flavorName(F) << " variants\n"
            << "(DNF = resource budget exceeded; precision cells of DNF "
               "runs are '-'; sweep: "
            << Workers << (Workers == 1 ? " worker" : " workers") << ")"
            << "\n\n";

  TableWriter Times({"benchmark", "insens", std::string(flavorName(F)) +
                                                "-IntroA",
                     std::string(flavorName(F)) + "-IntroB", flavorName(F)});
  TableWriter Poly({"benchmark", "insens", "IntroA", "IntroB", "full"});
  TableWriter Reach({"benchmark", "insens", "IntroA", "IntroB", "full"});
  TableWriter Casts({"benchmark", "insens", "IntroA", "IntroB", "full"});

  // Programs are generated upfront and shared read-only by the cells.
  std::vector<WorkloadProfile> Subjects = scalabilitySubjects();
  std::vector<Program> Programs;
  Programs.reserve(Subjects.size());
  for (const WorkloadProfile &Profile : Subjects)
    Programs.push_back(generateWorkload(Profile));

  // With --cache-dir, the introspective cells share Pass-A results through
  // the content-addressed store: IntroA and IntroB of one subject have the
  // same pre-analysis, and a warm rerun of the figure skips all of them.
  // Fingerprints are computed once up front, and one thread-safe
  // ResultCache handle is shared by every sweep cell.
  std::optional<cache::ResultCache> Cache;
  std::vector<cache::Fingerprint> Keys;
  if (!Args.CacheDir.empty()) {
    Cache.emplace(cache::ResultCache::Options{Args.CacheDir, 0});
    Keys.reserve(Programs.size());
    for (const Program &Prog : Programs)
      Keys.push_back(cache::fingerprintProgram(Prog));
  }

  // Cell layout: 4 analyses per subject, insens / IntroA / IntroB / deep.
  constexpr size_t CellsPerSubject = 4;
  auto RunCell = [&](size_t Index) {
    const Program &Prog = Programs[Index / CellsPerSubject];
    cache::ResultCache *CachePtr = Cache ? &*Cache : nullptr;
    const cache::Fingerprint *Key =
        Cache ? &Keys[Index / CellsPerSubject] : nullptr;
    switch (Index % CellsPerSubject) {
    case 0: {
      auto Insens = makeInsensitivePolicy();
      return runPlain(Prog, *Insens);
    }
    case 1:
      return runIntro(Prog, F, HeuristicKind::A, CachePtr, Key);
    case 2:
      return runIntro(Prog, F, HeuristicKind::B, CachePtr, Key);
    default: {
      auto Full = makeFlavor(F, Prog);
      return runPlain(Prog, *Full);
    }
    }
  };
  std::vector<RunOutcome> Cells =
      runSweep(Subjects.size() * CellsPerSubject, Workers, RunCell);

  for (size_t Subject = 0; Subject < Subjects.size(); ++Subject) {
    const std::string &Name = Subjects[Subject].Name;
    const RunOutcome &Base = Cells[Subject * CellsPerSubject + 0];
    const RunOutcome &IntroA = Cells[Subject * CellsPerSubject + 1];
    const RunOutcome &IntroB = Cells[Subject * CellsPerSubject + 2];
    const RunOutcome &Deep = Cells[Subject * CellsPerSubject + 3];

    Times.addRow({Name, timeCell(Base), timeCell(IntroA), timeCell(IntroB),
                  timeCell(Deep)});
    auto AddPrecision = [&](TableWriter &Table, auto Member) {
      Table.addRow({Name, precCell(Base, Base.Precision.*Member),
                    precCell(IntroA, IntroA.Precision.*Member),
                    precCell(IntroB, IntroB.Precision.*Member),
                    precCell(Deep, Deep.Precision.*Member)});
    };
    AddPrecision(Poly, &PrecisionMetrics::PolymorphicVirtualCallSites);
    AddPrecision(Reach, &PrecisionMetrics::ReachableMethods);
    AddPrecision(Casts, &PrecisionMetrics::CastsThatMayFail);
  }

  std::cout << "Running time\n";
  Times.print(std::cout);
  std::cout << "\nPolymorphic virtual call sites (lower is more precise)\n";
  Poly.print(std::cout);
  std::cout << "\nReachable methods (lower is more precise)\n";
  Reach.print(std::cout);
  std::cout << "\nReachable casts that may fail (lower is more precise)\n";
  Casts.print(std::cout);
  std::cout << "\nExpected shape (paper): " << ExpectedShape << "\n";

  // The run report's bench sections.  Deterministic part: one attempt row
  // per (subject, analysis) cell with the schedule-independent solver
  // counters — the sweep runs every cell at any worker count, so this is
  // byte-identical across --workers values.  Timing part: wall-clock.
  Trace.finish(
      [&](JsonWriter &J) {
        J.beginObject();
        J.key("figure");
        J.value(FigureName);
        J.key("flavor");
        J.value(flavorName(F));
        J.key("attempts");
        J.beginArray();
        for (size_t Index = 0; Index < Cells.size(); ++Index) {
          const RunOutcome &Cell = Cells[Index];
          J.beginObject();
          J.key("index");
          J.value(static_cast<uint64_t>(Index + 1));
          J.key("subject");
          J.value(Subjects[Index / CellsPerSubject].Name);
          J.key("analysis");
          J.value(Cell.Analysis);
          J.key("status");
          J.value(Cell.Status);
          J.key("completed");
          J.value(Cell.Completed);
          J.key("tuples");
          J.value(Cell.Tuples);
          J.key("worklist_pops");
          J.value(Cell.Stats.WorklistPops);
          J.key("contexts");
          J.value(Cell.Stats.NumContexts);
          J.key("reachable_method_contexts");
          J.value(Cell.Stats.ReachableMethodContexts);
          J.key("call_graph_edges");
          J.value(Cell.Stats.CallGraphEdges);
          J.endObject();
        }
        J.endArray();
        J.endObject();
      },
      [&](JsonWriter &J) {
        J.beginObject();
        J.key("workers");
        J.value(Workers);
        J.key("attempt_seconds");
        J.beginArray();
        for (const RunOutcome &Cell : Cells)
          J.value(Cell.Seconds);
        J.endArray();
        J.endObject();
      });
  return 0;
}

} // namespace intro::bench

#endif // BENCH_FIGFLAVOR_H
