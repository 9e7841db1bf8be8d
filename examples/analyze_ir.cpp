//===- examples/analyze_ir.cpp - Command-line analysis driver -------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A command-line tool in the spirit of Doop's driver: read a program in
/// the textual IR format, run the requested analysis, and optionally emit
/// reports and fact files.
///
/// Usage:
///   analyze_ir [<file.ir>] [analysis] [options]
///
/// analyses:
///   insens (default), 1callH, 2callH, 1objH, 2objH, 1typeH, 2typeH,
///   2hybH, and <flavor>-introA / <flavor>-introB for the paper's two-pass
///   introspective pipeline.
///
/// options:
///   --filter-casts       checked-cast (Doop CheckCast) semantics
///   --max-tuples=<n>     resource budget (default 100000000); for an
///                        introspective run, the second pass's budget
///   --stats              context-growth diagnostics (top methods)
///   --escape             escape-analysis summary
///   --dot=<file>         write the resolved call graph as Graphviz DOT
///   --report=<file>      write the per-variable points-to listing
///   --facts=<dir>        export Doop-style .facts files (dir must exist)
///
/// --filter-casts and --stats are rejected with the introspective flavors,
/// whose second pass solves with plain casts and assembles no tuples.
/// With no file argument, a small demo program is analyzed.
///
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/Escape.h"
#include "analysis/PrecisionMetrics.h"
#include "analysis/Reports.h"
#include "analysis/Solver.h"
#include "analysis/Statistics.h"
#include "frontend/Parser.h"
#include "introspect/Driver.h"
#include "ir/FactsIO.h"
#include "ir/Validator.h"
#include "support/ParseNum.h"

#include <fstream>
#include <iostream>
#include <sstream>

using namespace intro;

namespace {

const char *DemoSource = R"(
class Object
class Node extends Object {
  field next
  method link(n) { this.Node#next = n }
  method tail() -> r { r = this.Node#next }
}
class Main extends Object {
  entry static method main() {
    a = new Node
    b = new Node
    a.link(b)
    t = a.tail()
    u = (Node) t
    t.link(a)
  }
}
)";

struct CliOptions {
  std::string File;
  std::string Analysis = "insens";
  bool FilterCasts = false;
  bool ShowStats = false;
  bool ShowEscape = false;
  uint64_t MaxTuples = 100'000'000;
  std::string DotPath;
  std::string ReportPath;
  std::string FactsDir;
};

void printUsage() {
  std::cerr
      << "usage: analyze_ir [<file.ir>] [analysis] [options]\n"
         "  analyses: insens 1callH 2callH 1objH 2objH 1typeH 2typeH 2hybH\n"
         "            plus <flavor>-introA / <flavor>-introB\n"
         "  options:  --filter-casts --max-tuples=<n> --stats --escape\n"
         "            --dot=<file> --report=<file> --facts=<dir>\n"
         "  --max-tuples budgets the second pass of an introspective run;\n"
         "  --filter-casts and --stats do not apply to one.\n";
}

bool parseArgs(int Argc, char **Argv, CliOptions &Cli) {
  for (int Arg = 1; Arg < Argc; ++Arg) {
    std::string Text = Argv[Arg];
    std::string Value;
    std::string Error;
    if (Text == "--filter-casts")
      Cli.FilterCasts = true;
    else if (Text == "--stats")
      Cli.ShowStats = true;
    else if (Text == "--escape")
      Cli.ShowEscape = true;
    else if (flagValue(Text, "--max-tuples", Value)) {
      if (!parseU64("--max-tuples", Value, 0, UINT64_MAX, Cli.MaxTuples,
                    Error)) {
        std::cerr << "error: " << Error << "\n";
        return false;
      }
    } else if (Text.rfind("--dot=", 0) == 0)
      Cli.DotPath = Text.substr(6);
    else if (Text.rfind("--report=", 0) == 0)
      Cli.ReportPath = Text.substr(9);
    else if (Text.rfind("--facts=", 0) == 0)
      Cli.FactsDir = Text.substr(8);
    else if (Text.rfind("--", 0) == 0) {
      std::cerr << "unknown option '" << Text << "'\n";
      return false;
    } else if (Text.find('.') != std::string::npos && Cli.File.empty())
      Cli.File = Text;
    else
      Cli.Analysis = Text;
  }
  return true;
}

/// Builds the plain policy named \p Name, or null if unknown.
std::unique_ptr<ContextPolicy> makeNamedPolicy(const std::string &Name,
                                               const Program &Prog) {
  if (Name == "insens")
    return makeInsensitivePolicy();
  if (Name == "1callH")
    return makeCallSitePolicy(1, 0);
  if (Name == "2callH")
    return makeCallSitePolicy(2, 1);
  if (Name == "1objH")
    return makeObjectPolicy(Prog, 1, 0);
  if (Name == "2objH")
    return makeObjectPolicy(Prog, 2, 1);
  if (Name == "1typeH")
    return makeTypePolicy(Prog, 1, 0);
  if (Name == "2typeH")
    return makeTypePolicy(Prog, 2, 1);
  if (Name == "2hybH")
    return makeHybridPolicy(Prog, 2, 1);
  return nullptr;
}

void printSummary(const Program &Prog, const PointsToResult &Result) {
  PrecisionMetrics Precision = computePrecision(Prog, Result);
  std::cout << "analysis:            " << Result.AnalysisName << "\n"
            << "status:              "
            << (isCompleted(Result.Status) ? "completed" : "budget exceeded")
            << "\n"
            << "time:                " << Result.Stats.Seconds << " s\n"
            << "var-points-to:       " << Result.Stats.VarPointsToTuples
            << " tuples\n"
            << "field-points-to:     " << Result.Stats.FieldPointsToTuples
            << " tuples\n"
            << "static-field tuples: " << Result.Stats.StaticFieldTuples
            << "\n"
            << "throw-points-to:     " << Result.Stats.ThrowPointsToTuples
            << " tuples\n"
            << "contexts:            " << Result.Stats.NumContexts
            << " (heap " << Result.Stats.NumHeapContexts << ")\n"
            << "reachable methods:   " << Precision.ReachableMethods << " of "
            << Prog.numMethods() << "\n"
            << "call-graph edges:    " << Result.Stats.CallGraphEdges << "\n"
            << "polymorphic sites:   " << Precision.PolymorphicVirtualCallSites
            << " of " << Precision.ReachableVirtualCallSites
            << " reachable virtual sites\n"
            << "casts that may fail: " << Precision.CastsThatMayFail << " of "
            << Precision.ReachableCasts << " reachable casts\n";
}

void emitArtifacts(const CliOptions &Cli, const Program &Prog,
                   const PointsToResult &Result) {
  if (Cli.ShowEscape) {
    EscapeResult Escape = computeEscape(Prog, Result);
    std::cout << "escape:              " << Escape.captured() << " of "
              << Escape.ReachableSites << " reachable sites captured\n";
  }
  if (Cli.ShowStats) {
    std::cout << "\ncontext-growth diagnostics:\n";
    printContextStatistics(Prog, computeContextStatistics(Prog, Result),
                           std::cout);
  }
  if (!Cli.DotPath.empty()) {
    std::ofstream Out(Cli.DotPath);
    writeCallGraphDot(Prog, Result, Out);
    std::cout << "wrote call graph to " << Cli.DotPath << "\n";
  }
  if (!Cli.ReportPath.empty()) {
    std::ofstream Out(Cli.ReportPath);
    writePointsToReport(Prog, Result, Out);
    std::cout << "wrote points-to report to " << Cli.ReportPath << "\n";
  }
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  if (!parseArgs(Argc, Argv, Cli)) {
    printUsage();
    return 1;
  }
  if (Cli.Analysis.find("-intro") != std::string::npos)
    for (auto [Set, Flag] : {std::pair(Cli.FilterCasts, "--filter-casts"),
                             std::pair(Cli.ShowStats, "--stats")})
      if (Set) {
        std::cerr << "error: " << Flag << " does not apply to "
                  << Cli.Analysis << "\n";
        return 1;
      }

  std::string Source = DemoSource;
  if (!Cli.File.empty()) {
    std::ifstream File(Cli.File);
    if (!File) {
      std::cerr << "error: cannot open '" << Cli.File << "'\n";
      return 1;
    }
    std::ostringstream Buffer;
    Buffer << File.rdbuf();
    Source = Buffer.str();
  }

  ParseResult Parsed = parseProgram(Source);
  if (!Parsed.ok()) {
    for (const std::string &Error : Parsed.Errors)
      std::cerr << "parse error: " << Error << "\n";
    return 1;
  }
  auto Errors = validateProgram(Parsed.Prog);
  if (!Errors.empty()) {
    for (const std::string &Error : Errors)
      std::cerr << "invalid program: " << Error << "\n";
    return 1;
  }
  const Program &Prog = Parsed.Prog;

  if (!Cli.FactsDir.empty()) {
    std::string Error;
    auto Files = writeFactsDirectory(Prog, Cli.FactsDir, Error);
    if (Files.empty()) {
      std::cerr << "facts export failed: " << Error << "\n";
      return 1;
    }
    std::cout << "wrote " << Files.size() << " fact files to " << Cli.FactsDir
              << "\n";
  }

  SolverOptions Options;
  Options.Budget.MaxTuples = Cli.MaxTuples;
  Options.FilterCasts = Cli.FilterCasts;
  if (Cli.ShowStats)
    Options.Assemble = Assembly::Tuples;

  // Introspective pipeline: "<flavor>-introA" / "<flavor>-introB".
  size_t IntroPos = Cli.Analysis.find("-intro");
  if (IntroPos != std::string::npos) {
    std::string FlavorName = Cli.Analysis.substr(0, IntroPos);
    char HeuristicName = Cli.Analysis.back();
    auto Refined = makeNamedPolicy(FlavorName, Prog);
    if (!Refined || (HeuristicName != 'A' && HeuristicName != 'B')) {
      printUsage();
      return 1;
    }
    IntrospectiveOptions IntroOptions;
    IntroOptions.Heuristic =
        HeuristicName == 'A' ? HeuristicKind::A : HeuristicKind::B;
    IntroOptions.SecondPassBudget.MaxTuples = Cli.MaxTuples;
    IntrospectiveOutcome Out = runIntrospective(Prog, *Refined, IntroOptions);
    std::cout << "first pass (insens):  " << Out.FirstPassSeconds << " s\n"
              << "introspection:        " << Out.MetricSeconds << " s, "
              << Out.Stats.ExcludedCallSites << " call sites and "
              << Out.Stats.ExcludedObjects
              << " objects selected to not be refined\n\n";
    printSummary(Prog, Out.SecondPass);
    emitArtifacts(Cli, Prog, Out.SecondPass);
    return 0;
  }

  auto Policy = makeNamedPolicy(Cli.Analysis, Prog);
  if (!Policy) {
    printUsage();
    return 1;
  }
  ContextTable Table;
  PointsToResult Result = solvePointsTo(Prog, *Policy, Table, Options);
  printSummary(Prog, Result);
  emitArtifacts(Cli, Prog, Result);
  return 0;
}
