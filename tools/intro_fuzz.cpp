//===- tools/intro_fuzz.cpp - Differential fuzzing driver -----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front of the fuzzing subsystem (src/fuzz/): sweeps a seed
/// range, generates one biased random program per seed, differential-tests
/// the solver stack against its references (interpreter, Datalog, and the
/// metamorphic invariants), shrinks any disagreement with the delta
/// debugger, and files quarantine-style repro + triage artifacts.  See
/// DESIGN.md section 13 and the README "Fuzzing the analysis" walkthrough.
///
///   intro_fuzz [options] [<file.ir | file.intro | directory>...]
///
/// With positional inputs the tool replays them through the oracle harness
/// instead of generating programs (corpus smoke / repro re-check mode).
///
///   --seed=N             first seed of the range (default 1)
///   --count=K            seeds to sweep (default 100)
///   --workers=N          concurrent seed tasks (default 1; results are
///                        independent of this knob by construction)
///   --fuzz-budget=SECS   stop launching new seeds after SECS seconds;
///                        in-flight seeds finish (default 0 = no budget)
///   --report=FILE        write the intro-fuzz-report-v1 JSON here
///   --repro-dir=DIR      write <name>.ir + .triage.json + .reason.txt per
///                        failing seed (default: no artifacts)
///   --no-reduce          file repros unreduced (faster triage-only runs)
///   --reduce-max-checks=N  reducer predicate budget per finding (600)
///   --oracles=SPEC       default | all | comma list of oracle names
///                        (validity, round-trip, soundness,
///                        reference-equivalence, introspective-subset,
///                        cache-parity, budget-prefix, deep-cap,
///                        served-parity)
///   --thorough           add the expensive flavors: call-site/type
///                        sensitivity, checked casts, introspective-split
///                        Datalog equivalence
///   --mutate=N           byte-level frontend mutants per seed (default 0)
///   --plant-bug=NAME     corrupt the solver-under-test on purpose (none,
///                        drop-max-heap, drop-max-call-target,
///                        forget-throws) — harness self-test mode
///   --max-tuples=N       per-run tuple cap; over-budget runs are skipped,
///                        not failed (default 2000000)
///   --cache-dir=DIR      scratch for the cache-parity oracle (default: a
///                        fresh temp dir, removed on exit)
///   --scratch-dir=DIR    scratch for the served-parity oracle's socket
///                        (default: a fresh temp dir, removed on exit)
///   --emit=DIR           corpus builder: write each generated program to
///                        DIR/fuzz-<bias>-<seed>.ir and run no oracles
///
/// Exit codes (support/ExitCodes.h): 0 no findings; 1 at least one oracle
/// finding; 2 bad usage or unreadable inputs; 3 internal error.
///
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "frontend/Printer.h"
#include "fuzz/Campaign.h"

#include "support/ExitCodes.h"
#include "support/ParseNum.h"
#include "support/Socket.h"
#include "support/TableWriter.h"

#include <unistd.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

using namespace intro;
using namespace intro::fuzz;
namespace fs = std::filesystem;

namespace {

struct CliOptions {
  std::vector<std::string> Inputs;
  std::string ReportPath;
  std::string EmitDir;
  CampaignOptions Campaign;
  bool CacheDirGiven = false;
  bool ScratchDirGiven = false;
};

/// Parses `--oracles=` payloads: the two presets or a comma list of kebab
/// names.
bool parseOracles(const std::string &Spec, OracleSet &Out,
                  std::string &Error) {
  if (Spec == "default") {
    Out = OracleSet::defaults();
    return true;
  }
  if (Spec == "all") {
    Out = OracleSet::all();
    return true;
  }
  OracleSet Set;
  size_t Begin = 0;
  while (Begin <= Spec.size()) {
    size_t End = Spec.find(',', Begin);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Name = Spec.substr(Begin, End - Begin);
    OracleKind Kind;
    if (!oracleKindFromName(Name, Kind)) {
      Error = "unknown oracle '" + Name + "' in --oracles";
      return false;
    }
    Set.enable(Kind);
    Begin = End + 1;
  }
  Out = Set;
  return true;
}

/// Parses the command line.  \returns an exit code to bail with, or -1 to
/// continue.
int parseCli(int argc, char **argv, CliOptions &Cli) {
  constexpr uint32_t U32Max = std::numeric_limits<uint32_t>::max();
  constexpr uint64_t U64Max = std::numeric_limits<uint64_t>::max();
  std::string Error;
  for (int Index = 1; Index < argc; ++Index) {
    std::string Arg = argv[Index];
    std::string Value;
    if (flagValue(Arg, "--report", Cli.ReportPath) ||
        flagValue(Arg, "--repro-dir", Cli.Campaign.ReproDir) ||
        flagValue(Arg, "--emit", Cli.EmitDir))
      continue;
    if (flagValue(Arg, "--cache-dir", Cli.Campaign.Oracles.CacheDir)) {
      Cli.CacheDirGiven = true;
      continue;
    }
    if (flagValue(Arg, "--scratch-dir", Cli.Campaign.Oracles.ScratchDir)) {
      Cli.ScratchDirGiven = true;
      continue;
    }
    if (flagValue(Arg, "--seed", Value)) {
      if (!parseU64("--seed", Value, 0, U64Max, Cli.Campaign.Seed, Error))
        break;
      continue;
    }
    if (flagValue(Arg, "--count", Value)) {
      if (!parseU64("--count", Value, 1, 100'000'000, Cli.Campaign.Count,
                    Error))
        break;
      continue;
    }
    if (flagValue(Arg, "--workers", Value)) {
      uint32_t Workers = 0;
      if (!parseU32("--workers", Value, 1, 256, Workers, Error))
        break;
      Cli.Campaign.Workers = Workers;
      continue;
    }
    if (flagValue(Arg, "--fuzz-budget", Value)) {
      if (!parseF64("--fuzz-budget", Value, 0.0, 1e9,
                    Cli.Campaign.BudgetSeconds, Error))
        break;
      continue;
    }
    if (flagValue(Arg, "--reduce-max-checks", Value)) {
      if (!parseU32("--reduce-max-checks", Value, 1, U32Max,
                    Cli.Campaign.ReduceMaxChecks, Error))
        break;
      continue;
    }
    if (flagValue(Arg, "--mutate", Value)) {
      if (!parseU32("--mutate", Value, 0, U32Max,
                    Cli.Campaign.MutationsPerSeed, Error))
        break;
      continue;
    }
    if (flagValue(Arg, "--max-tuples", Value)) {
      if (!parseU64("--max-tuples", Value, 1, U64Max,
                    Cli.Campaign.Oracles.MaxTuples, Error))
        break;
      continue;
    }
    if (flagValue(Arg, "--oracles", Value)) {
      if (!parseOracles(Value, Cli.Campaign.Oracles.Oracles, Error))
        break;
      continue;
    }
    if (flagValue(Arg, "--plant-bug", Value)) {
      if (!plantedBugFromName(Value, Cli.Campaign.Oracles.Bug)) {
        Error = "unknown --plant-bug '" + Value + "'";
        break;
      }
      continue;
    }
    if (Arg == "--no-reduce") {
      Cli.Campaign.Reduce = false;
      continue;
    }
    if (Arg == "--thorough") {
      Cli.Campaign.Oracles.Thorough = true;
      continue;
    }
    if (Arg.size() >= 2 && Arg[0] == '-' && Arg[1] == '-') {
      std::cerr << "error: unknown flag '" << Arg << "'\n";
      return ExitBadInput;
    }
    Cli.Inputs.push_back(Arg);
  }
  if (!Error.empty()) {
    std::cerr << "error: " << Error << "\n";
    return ExitBadInput;
  }
  return -1;
}

/// Owns the default scratch directory for the cache/served parity oracles:
/// created lazily under the system temp dir, removed on destruction.  A
/// user-supplied --cache-dir / --scratch-dir is left alone.
struct ScratchGuard {
  fs::path Dir;

  ~ScratchGuard() {
    if (Dir.empty())
      return;
    std::error_code Ignored;
    fs::remove_all(Dir, Ignored);
  }

  bool materialize(std::string &Error) {
    if (!Dir.empty())
      return true;
    std::error_code Ec;
    fs::path Base = fs::temp_directory_path(Ec);
    if (Ec) {
      Error = "cannot resolve temp directory: " + Ec.message();
      return false;
    }
    Dir = Base / ("intro-fuzz-" + std::to_string(::getpid()));
    fs::create_directories(Dir, Ec);
    if (Ec) {
      Error = "cannot create scratch dir: " + Dir.string();
      return false;
    }
    return true;
  }
};

/// Corpus builder: writes one canonical program per seed and runs nothing
/// else.  Names carry the bias so the corpus visibly covers every knob.
int runEmitMode(const CliOptions &Cli) {
  std::error_code Ec;
  fs::create_directories(Cli.EmitDir, Ec);
  if (Ec) {
    std::cerr << "error: cannot create --emit dir: " << Cli.EmitDir << "\n";
    return ExitBadInput;
  }
  for (uint64_t Index = 0; Index < Cli.Campaign.Count; ++Index) {
    uint64_t Seed = Cli.Campaign.Seed + Index;
    FuzzBias Bias = biasForSeed(Seed);
    Program Prog = generateFuzzProgram(Seed, Bias, Cli.Campaign.Program);
    fs::path File = fs::path(Cli.EmitDir) /
                    ("fuzz-" + std::string(fuzzBiasName(Bias)) + "-" +
                     std::to_string(Seed) + ".ir");
    std::ofstream Out(File, std::ios::binary);
    Out << printProgram(Prog);
    if (!Out) {
      std::cerr << "error: cannot write: " << File.string() << "\n";
      return ExitInternalError;
    }
    std::cout << File.string() << "\n";
  }
  return ExitSuccess;
}

/// Expands positional inputs into (name, path) pairs, name-sorted like
/// intro_batch so replay order is enumeration-independent.
int collectReplayFiles(const CliOptions &Cli, std::vector<fs::path> &Files) {
  for (const std::string &Input : Cli.Inputs) {
    std::error_code Ec;
    if (fs::is_directory(Input, Ec)) {
      for (const fs::directory_entry &Entry :
           fs::directory_iterator(Input, Ec)) {
        fs::path Ext = Entry.path().extension();
        if (Ext == ".ir" || Ext == ".intro")
          Files.push_back(Entry.path());
      }
      if (Ec) {
        std::cerr << "error: cannot read directory: " << Input << "\n";
        return ExitBadInput;
      }
    } else if (fs::is_regular_file(Input, Ec)) {
      Files.push_back(Input);
    } else {
      std::cerr << "error: no such file or directory: " << Input << "\n";
      return ExitBadInput;
    }
  }
  std::sort(Files.begin(), Files.end());
  if (Files.empty()) {
    std::cerr << "error: no .ir/.intro files found\n";
    return ExitBadInput;
  }
  return -1;
}

/// Replay mode: every input runs through the same oracles + reducer a
/// generated seed would.  A file that does not parse is bad input, not a
/// finding — repro files are trusted to be valid programs.
int runReplayMode(const CliOptions &Cli, CampaignOutcome &Outcome) {
  std::vector<fs::path> Files;
  if (int Code = collectReplayFiles(Cli, Files); Code >= 0)
    return Code;
  Outcome.SeedsPlanned = Files.size();
  for (const fs::path &File : Files) {
    std::ifstream In(File, std::ios::binary);
    if (!In) {
      std::cerr << "error: cannot read: " << File.string() << "\n";
      return ExitBadInput;
    }
    std::ostringstream Text;
    Text << In.rdbuf();
    ParseResult Parsed = parseProgram(Text.str());
    if (!Parsed.ok()) {
      std::cerr << "error: " << File.string()
                << " does not parse: " << Parsed.Errors.front() << "\n";
      return ExitBadInput;
    }
    SeedReport Report =
        replayProgram(Parsed.Prog, File.stem().string(), Cli.Campaign);
    Outcome.TotalFindings += Report.Findings.size();
    Outcome.ChecksRun += Report.ChecksRun;
    Outcome.ChecksSkipped += Report.ChecksSkipped;
    Outcome.Seeds.push_back(std::move(Report));
    ++Outcome.SeedsStarted;
  }
  return -1;
}

void printSummary(const CliOptions &Cli, const CampaignOutcome &Outcome,
                  const std::vector<std::string> &Labels) {
  if (Outcome.TotalFindings > 0) {
    TableWriter Table({"seed", "bias", "oracle", "policy", "statements"});
    for (size_t Index = 0; Index < Outcome.Seeds.size(); ++Index) {
      const SeedReport &Seed = Outcome.Seeds[Index];
      for (const Finding &F : Seed.Findings)
        Table.addRow({Labels[Index], fuzzBiasName(Seed.Bias),
                      oracleKindName(F.Oracle), F.Policy,
                      Seed.Reduced ? TableWriter::num(Seed.Reduction.Statements)
                                   : std::string("-")});
    }
    Table.print(std::cout);
  }
  std::cout << "fuzz: " << Outcome.SeedsStarted << "/" << Outcome.SeedsPlanned
            << " seeds, " << Outcome.TotalFindings << " findings, "
            << Outcome.ChecksRun << " checks (" << Outcome.ChecksSkipped
            << " skipped), " << Outcome.MutantsChecked << " mutants";
  if (Outcome.BudgetExhausted)
    std::cout << ", budget exhausted";
  std::cout << "\n";
  if (!Cli.Campaign.ReproDir.empty() && Outcome.TotalFindings > 0)
    std::cout << "repros filed under: " << Cli.Campaign.ReproDir << "\n";
}

} // namespace

int main(int argc, char **argv) try {
  // `intro_fuzz ... | head` must not die of SIGPIPE mid-campaign
  // (support/Socket.h policy).
  ignoreSigPipe();

  CliOptions Cli;
  if (int Code = parseCli(argc, argv, Cli); Code >= 0)
    return Code;

  if (!Cli.EmitDir.empty())
    return runEmitMode(Cli);

  // The parity oracles need disk scratch; default to a self-cleaning temp
  // dir so `intro_fuzz` runs the full default oracle set out of the box.
  ScratchGuard Scratch;
  std::string Error;
  if (!Cli.CacheDirGiven &&
      Cli.Campaign.Oracles.Oracles.has(OracleKind::CacheWarmColdParity)) {
    if (!Scratch.materialize(Error)) {
      std::cerr << "error: " << Error << "\n";
      return ExitInternalError;
    }
    Cli.Campaign.Oracles.CacheDir = (Scratch.Dir / "cache").string();
  }
  if (!Cli.ScratchDirGiven &&
      Cli.Campaign.Oracles.Oracles.has(OracleKind::ServedLocalParity)) {
    if (!Scratch.materialize(Error)) {
      std::cerr << "error: " << Error << "\n";
      return ExitInternalError;
    }
    Cli.Campaign.Oracles.ScratchDir = (Scratch.Dir / "serve").string();
    std::error_code Ec;
    fs::create_directories(Cli.Campaign.Oracles.ScratchDir, Ec);
  }

  CampaignOutcome Outcome;
  std::vector<std::string> Labels;
  if (!Cli.Inputs.empty()) {
    if (int Code = runReplayMode(Cli, Outcome); Code >= 0)
      return Code;
    for (size_t Index = 0; Index < Outcome.Seeds.size(); ++Index)
      Labels.push_back(Outcome.Seeds[Index].ReproName.empty()
                           ? "replay#" + std::to_string(Index)
                           : Outcome.Seeds[Index].ReproName);
  } else {
    Outcome = runCampaign(Cli.Campaign);
    for (const SeedReport &Seed : Outcome.Seeds)
      Labels.push_back(std::to_string(Seed.Seed));
  }

  printSummary(Cli, Outcome, Labels);

  if (!Cli.ReportPath.empty()) {
    std::ofstream Out(Cli.ReportPath, std::ios::binary);
    if (!Out) {
      std::cerr << "error: cannot write report: " << Cli.ReportPath << "\n";
      return ExitInternalError;
    }
    writeCampaignReportJson(Out, Cli.Campaign, Outcome);
    std::cout << "fuzz report: " << Cli.ReportPath << "\n";
  }

  return Outcome.clean() ? ExitSuccess : ExitAnalysisFailure;
} catch (const std::exception &Error) {
  std::cerr << "internal error: " << Error.what() << "\n";
  return ExitInternalError;
} catch (...) {
  std::cerr << "internal error: unknown exception\n";
  return ExitInternalError;
}
