//===- bench/ablation_components.cpp - Heuristic component ablation -------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation over the *components* of the heuristics (a DESIGN.md question
/// the paper leaves implicit): which of Heuristic A's rules does the
/// scalability work — the object rule (pointed-by-vars), the in-flow site
/// rule, or the max-var-field site rule?  Runs 2objH-based introspective
/// analyses with each rule in isolation, pairwise, and all together, on
/// the two object-sensitivity-pathological benchmarks.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Sweep.h"

#include "introspect/Custom.h"

#include <iostream>

using namespace intro;
using namespace intro::bench;

namespace {

struct Variant {
  const char *Label;
  bool ObjectRule;
  bool InFlowRule;
  bool VarFieldRule;
};

RunOutcome runVariant(const Program &Prog, const Variant &V) {
  PassAOutcome PassA = runPassA(Prog);
  const PointsToResult &Pass1 = PassA.Insens;

  HeuristicAParams Defaults;
  CustomHeuristic H;
  H.Name = V.Label;
  if (V.ObjectRule)
    H.ObjectRules.push_back(
        ObjectRule{Metric::PointedByVars, Metric::None, Defaults.K});
  if (V.InFlowRule)
    H.SiteRules.push_back(
        SiteRule{SiteProperty::CallSite, Metric::InFlow, Defaults.L});
  if (V.VarFieldRule)
    H.SiteRules.push_back(SiteRule{SiteProperty::TargetMethod,
                                   Metric::MethodMaxVarFieldPointsTo,
                                   Defaults.M});
  RefinementExceptions Exceptions =
      applyCustomHeuristic(Prog, Pass1, PassA.Metrics, H);

  auto Insens = makeInsensitivePolicy();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  auto Policy = makeIntrospectivePolicy(std::string("2objH-") + V.Label,
                                        *Insens, *Refined, Exceptions);
  ContextTable Table;
  SolverOptions Options;
  Options.Budget = deepBudget();
  PointsToResult Result = solvePointsTo(Prog, *Policy, Table, Options);

  RunOutcome Outcome;
  Outcome.Completed = isCompleted(Result.Status);
  Outcome.Seconds = Result.Stats.Seconds;
  Outcome.Tuples =
      Result.Stats.VarPointsToTuples + Result.Stats.FieldPointsToTuples;
  Outcome.Precision = computePrecision(Prog, Result);
  Outcome.Refinement = computeRefinementStats(Prog, Pass1, Exceptions);
  return Outcome;
}

} // namespace

int main(int argc, char **argv) {
  HarnessArgs Args;
  if (int Code = parseHarnessArgs(argc, argv, HarnessKind::Ablation, Args);
      Code >= 0)
    return Code;
  std::cout << "Ablation: which Heuristic A component provides the "
               "scalability?\n2objH-based introspective runs; rules at "
               "paper-default constants.\n\n";

  const Variant Variants[] = {
      {"none (=full 2objH)", false, false, false},
      {"objects only (K)", true, false, false},
      {"in-flow only (L)", false, true, false},
      {"var-field only (M)", false, false, true},
      {"sites only (L+M)", false, true, true},
      {"full A (K+L+M)", true, true, true},
  };
  const char *Names[] = {"hsqldb", "jython"};
  const size_t NumVariants = std::size(Variants);

  std::vector<Program> Programs;
  for (const char *Name : Names)
    Programs.push_back(generateWorkload(dacapoProfile(Name)));

  // Sweep the (benchmark, variant) matrix in parallel, print in order.
  std::vector<RunOutcome> Cells = runSweep(
      std::size(Names) * NumVariants, Args.Workers,
      [&](size_t Index) {
        return runVariant(Programs[Index / NumVariants],
                          Variants[Index % NumVariants]);
      });

  for (size_t Benchmark = 0; Benchmark < std::size(Names); ++Benchmark) {
    std::cout << "benchmark: " << Names[Benchmark] << "\n";
    TableWriter Table({"rules", "status", "tuples", "poly sites",
                       "casts may fail", "sites excl", "objs excl"});
    for (size_t Index = 0; Index < NumVariants; ++Index) {
      const RunOutcome &Out = Cells[Benchmark * NumVariants + Index];
      Table.addRow({Variants[Index].Label,
                    Out.Completed ? "completed" : "DNF",
                    TableWriter::num(Out.Tuples),
                    precCell(Out, Out.Precision.PolymorphicVirtualCallSites),
                    precCell(Out, Out.Precision.CastsThatMayFail),
                    TableWriter::percent(Out.Refinement.callSitePercent()),
                    TableWriter::percent(Out.Refinement.objectPercent())});
    }
    Table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Expected shape: the site rules (driven by in-flow and\n"
               "var-field metrics) do the heavy lifting; the object rule\n"
               "alone cannot stop head-driven context growth.\n";
  return 0;
}
