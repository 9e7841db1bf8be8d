//===- bench/fig4_refinement_stats.cpp - Paper Figure 4 -------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Figure 4: the share of call sites and objects selected to
/// *not* be refined by each introspective heuristic (computed over the
/// context-insensitive first pass).  The paper's observations: Heuristic A
/// is much more aggressive, Heuristic B quite selective; either way the
/// refined elements are the overwhelming majority.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <iostream>

using namespace intro;
using namespace intro::bench;

int main() {
  std::cout << "Figure 4: call sites and objects selected to NOT be "
               "refined\n\n";

  // The paper's Figure 4 lists seven benchmarks (the six scalability
  // subjects plus pmd) and their average.
  std::vector<std::string> Names = {"bloat",  "chart",  "eclipse", "hsqldb",
                                    "jython", "pmd",    "xalan"};

  TableWriter Table({"benchmark", "call sites A", "call sites B", "objects A",
                     "objects B"});
  double SumSiteA = 0;
  double SumSiteB = 0;
  double SumObjA = 0;
  double SumObjB = 0;
  for (const std::string &Name : Names) {
    Program Prog = generateWorkload(dacapoProfile(Name));
    PassAOutcome PassA = runPassA(Prog);
    const PointsToResult &First = PassA.Insens;
    const IntrospectionMetrics &Metrics = PassA.Metrics;

    RefinementExceptions ExceptA = applyHeuristicA(Prog, First, Metrics);
    RefinementExceptions ExceptB = applyHeuristicB(Prog, First, Metrics);
    RefinementStats StatsA = computeRefinementStats(Prog, First, ExceptA);
    RefinementStats StatsB = computeRefinementStats(Prog, First, ExceptB);

    SumSiteA += StatsA.callSitePercent();
    SumSiteB += StatsB.callSitePercent();
    SumObjA += StatsA.objectPercent();
    SumObjB += StatsB.objectPercent();
    Table.addRow({Name, TableWriter::percent(StatsA.callSitePercent()),
                  TableWriter::percent(StatsB.callSitePercent()),
                  TableWriter::percent(StatsA.objectPercent()),
                  TableWriter::percent(StatsB.objectPercent())});
  }
  double Count = static_cast<double>(Names.size());
  Table.addRow({"average", TableWriter::percent(SumSiteA / Count),
                TableWriter::percent(SumSiteB / Count),
                TableWriter::percent(SumObjA / Count),
                TableWriter::percent(SumObjB / Count)});
  Table.print(std::cout);
  std::cout << "\nExpected shape (paper): A aggressive (double-digit\n"
               "percentages), B selective (call sites near zero, objects\n"
               "in the 0-19% range); refined elements are the vast "
               "majority.\n";
  return 0;
}
