//===- bench/ablation_importance.cpp - Future-work importance guard -------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates the paper's Section 3 future-work direction: guarding the
/// cost heuristics with an *importance* estimate so that expensive-looking
/// but precision-critical elements stay refined.  Heuristic A's biggest
/// precision loss on these workloads comes from excluding the "popular
/// container" accessors (their field sets trip the M threshold, yet
/// refining them is cheap and client-visible).  The guard lifts exactly
/// those exclusions.
///
/// Compared per benchmark: insens, plain 2objH-IntroA, guarded
/// 2objH-IntroA, and full 2objH.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Sweep.h"

#include "introspect/Importance.h"

#include <iostream>

using namespace intro;
using namespace intro::bench;

namespace {

/// One analysis cell; Lifted is only meaningful for the guarded run (the
/// count is returned instead of printed inline so the parallel sweep's
/// output stays deterministic).
struct ImportanceCell {
  RunOutcome Out;
  uint64_t Lifted = 0;
};

ImportanceCell runGuarded(const Program &Prog, bool WithGuard) {
  PassAOutcome PassA = runPassA(Prog);
  const PointsToResult &Pass1 = PassA.Insens;
  RefinementExceptions Exceptions =
      applyHeuristicA(Prog, Pass1, PassA.Metrics);

  uint64_t Lifted = 0;
  if (WithGuard) {
    ImportanceMetrics Importance = computeImportance(Prog, Pass1);
    Lifted = applyImportanceGuard(Prog, Importance, Exceptions);
  }

  auto Insens = makeInsensitivePolicy();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  auto Policy = makeIntrospectivePolicy(
      WithGuard ? "2objH-IntroA+guard" : "2objH-IntroA", *Insens, *Refined,
      Exceptions);
  ContextTable Table;
  SolverOptions Options;
  Options.Budget = deepBudget();
  PointsToResult Result = solvePointsTo(Prog, *Policy, Table, Options);

  ImportanceCell Cell;
  Cell.Lifted = Lifted;
  RunOutcome &Outcome = Cell.Out;
  Outcome.Analysis = WithGuard ? "IntroA+guard" : "IntroA";
  Outcome.Completed = isCompleted(Result.Status);
  Outcome.Seconds = Result.Stats.Seconds;
  Outcome.Tuples =
      Result.Stats.VarPointsToTuples + Result.Stats.FieldPointsToTuples;
  Outcome.Precision = computePrecision(Prog, Result);
  Outcome.Refinement = computeRefinementStats(Prog, Pass1, Exceptions);
  return Cell;
}

} // namespace

int main(int argc, char **argv) {
  HarnessArgs Args;
  if (int Code = parseHarnessArgs(argc, argv, HarnessKind::Ablation, Args);
      Code >= 0)
    return Code;
  std::cout << "Ablation: importance-guarded Heuristic A (the paper's\n"
               "Section 3 future-work direction), 2objH-based.\n\n";

  std::vector<WorkloadProfile> Subjects = scalabilitySubjects();
  std::vector<Program> Programs;
  for (const WorkloadProfile &Profile : Subjects)
    Programs.push_back(generateWorkload(Profile));

  // Cell layout: insens / plain IntroA / guarded IntroA / full 2objH.
  constexpr size_t CellsPerSubject = 4;
  std::vector<ImportanceCell> Cells = runSweep(
      Subjects.size() * CellsPerSubject, Args.Workers,
      [&](size_t Index) {
        const Program &Prog = Programs[Index / CellsPerSubject];
        switch (Index % CellsPerSubject) {
        case 0: {
          auto Insens = makeInsensitivePolicy();
          return ImportanceCell{runPlain(Prog, *Insens), 0};
        }
        case 1:
          return runGuarded(Prog, /*WithGuard=*/false);
        case 2:
          return runGuarded(Prog, /*WithGuard=*/true);
        default: {
          auto Full = makeFlavor(Flavor::Object, Prog);
          return ImportanceCell{runPlain(Prog, *Full), 0};
        }
        }
      });

  for (size_t Subject = 0; Subject < Subjects.size(); ++Subject) {
    std::cout << "benchmark: " << Subjects[Subject].Name << "\n";
    const ImportanceCell *Row = &Cells[Subject * CellsPerSubject];
    std::cout << "  (guard lifted " << Row[2].Lifted << " exclusions)\n";

    TableWriter Table({"analysis", "status", "tuples", "poly sites",
                       "casts may fail"});
    for (size_t Cell = 0; Cell < CellsPerSubject; ++Cell) {
      const RunOutcome &Out = Row[Cell].Out;
      Table.addRow({Out.Analysis.empty() ? "insens" : Out.Analysis,
                    Out.Completed ? "completed" : "DNF",
                    TableWriter::num(Out.Tuples),
                    precCell(Out, Out.Precision.PolymorphicVirtualCallSites),
                    precCell(Out, Out.Precision.CastsThatMayFail)});
    }
    Table.print(std::cout);
    std::cout << "\n";
  }
  std::cout
      << "Expected shape: the guard recovers most of plain IntroA's\n"
         "precision loss (casts/poly move toward full 2objH) while the\n"
         "scalability verdicts stay unchanged -- importance estimation\n"
         "improves the cost/precision dial, as the paper conjectured.\n";
  return 0;
}
