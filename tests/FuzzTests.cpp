//===- tests/FuzzTests.cpp - Fuzzing subsystem unit tests -----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// src/fuzz/ unit tests: generator determinism (byte-identical programs per
/// seed) and validity across every bias, mutator determinism and
/// never-crash, parse→print→parse fixpoint over the checked-in corpus,
/// oracle cleanliness on the known-good fixtures, planted-bug detection for
/// every bug double, reducer convergence to a tiny repro, and campaign
/// determinism across worker counts.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"
#include "fuzz/Generator.h"
#include "fuzz/Mutator.h"
#include "fuzz/Oracles.h"
#include "fuzz/Reducer.h"

#include "TestPrograms.h"
#include "analysis/ContextPolicy.h"
#include "analysis/Solver.h"
#include "frontend/Parser.h"
#include "frontend/Printer.h"
#include "ir/Validator.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

using namespace intro;
using namespace intro::fuzz;
using namespace intro::testing;
namespace fs = std::filesystem;

namespace {

std::string readFile(const fs::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

/// In-process oracle options: no scratch dirs, so the disk-backed parity
/// oracles are skipped and tests stay hermetic and fast.
OracleOptions quickOracles() {
  OracleOptions Options;
  Options.Oracles = OracleSet::defaults()
                        .disable(OracleKind::CacheWarmColdParity);
  return Options;
}

} // namespace

// --- Generator --------------------------------------------------------------

TEST(FuzzGenerator, SameSeedIsByteIdentical) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    FuzzBias Bias = biasForSeed(Seed);
    std::string A = printProgram(generateFuzzProgram(Seed, Bias));
    std::string B = printProgram(generateFuzzProgram(Seed, Bias));
    EXPECT_EQ(A, B) << "seed " << Seed;
  }
}

TEST(FuzzGenerator, DistinctSeedsDiffer) {
  // Not a hard requirement of any oracle, but a collapse to one program
  // would quietly gut the campaign's coverage.
  std::string A = printProgram(
      generateFuzzProgram(1, FuzzBias::Uniform));
  std::string B = printProgram(
      generateFuzzProgram(2, FuzzBias::Uniform));
  EXPECT_NE(A, B);
}

TEST(FuzzGenerator, EveryBiasYieldsValidatedPrograms) {
  for (size_t BiasIndex = 0; BiasIndex < NumFuzzBiases; ++BiasIndex) {
    FuzzBias Bias = static_cast<FuzzBias>(BiasIndex);
    for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
      Program Prog = generateFuzzProgram(Seed, Bias);
      EXPECT_TRUE(validateProgram(Prog).empty())
          << fuzzBiasName(Bias) << " seed " << Seed;
      EXPECT_GT(Prog.numMethods(), 0u);
    }
  }
}

TEST(FuzzGenerator, OptionsControlSize) {
  FuzzProgramOptions Small;
  Small.NumClasses = 2;
  Small.NumStaticMethods = 1;
  Small.InstructionsPerBody = 3;
  FuzzProgramOptions Large;
  Large.NumClasses = 12;
  Large.NumStaticMethods = 8;
  Large.InstructionsPerBody = 20;
  Program A = generateFuzzProgram(7, FuzzBias::Uniform, Small);
  Program B = generateFuzzProgram(7, FuzzBias::Uniform, Large);
  EXPECT_LT(A.numInstructions(), B.numInstructions());
  EXPECT_LT(A.numTypes(), B.numTypes());
}

TEST(FuzzGenerator, BiasNamesAreDistinct) {
  std::set<std::string> Names;
  for (size_t BiasIndex = 0; BiasIndex < NumFuzzBiases; ++BiasIndex) {
    std::string Name = fuzzBiasName(static_cast<FuzzBias>(BiasIndex));
    EXPECT_NE(Name, "unknown");
    EXPECT_TRUE(Names.insert(Name).second) << Name;
  }
}

// --- Mutator ----------------------------------------------------------------

TEST(FuzzMutator, SameSeedSameMutant) {
  std::string Text =
      printProgram(generateFuzzProgram(3, FuzzBias::CastHeavy));
  for (uint64_t Seed = 0; Seed < 20; ++Seed)
    EXPECT_EQ(mutateBytes(Seed, Text), mutateBytes(Seed, Text));
}

TEST(FuzzMutator, MutantsNeverCrashTheFrontend) {
  // The round-trip contract: any byte soup either fails to parse (with a
  // diagnostic) or parses and reaches the print/parse fixpoint.  This is
  // the in-process regression net for the lexer hang the first campaign
  // found (an Error token without a terminating EndOfFile).
  for (uint64_t ProgSeed = 1; ProgSeed <= 6; ++ProgSeed) {
    std::string Text = printProgram(
        generateFuzzProgram(ProgSeed, biasForSeed(ProgSeed)));
    for (uint64_t MutSeed = 0; MutSeed < 200; ++MutSeed) {
      std::string Mutant = mutateBytes(ProgSeed * 1000003ULL + MutSeed, Text);
      RoundTripOutcome Out = roundTripCheck(Mutant);
      EXPECT_TRUE(Out.ok()) << "prog " << ProgSeed << " mutant " << MutSeed
                            << ": " << Out.Detail;
    }
  }
}

TEST(FuzzMutator, LexerErrorTokenTerminates) {
  // Minimized repro of the parser hang: an unexpected character inside a
  // method body used to leave the token stream without EndOfFile, spinning
  // the body-skip loop forever.  Must now diagnose in finite time.
  ParseResult Result = parseProgram("class A { method m() { @");
  ASSERT_FALSE(Result.ok());
  EXPECT_NE(Result.Errors.front().find("unexpected character"),
            std::string::npos);
  // Same shape with the other single-char error lexemes.
  EXPECT_FALSE(parseProgram("class A { method m() { :").ok());
  EXPECT_FALSE(parseProgram("class A { method m() { -").ok());
  EXPECT_FALSE(parseProgram("class A { entry static method m() { x = y ~").ok());
}

// --- Corpus -----------------------------------------------------------------

TEST(FuzzCorpus, EveryFileRoundTripsAsAFixpoint) {
  fs::path Dir = FUZZ_CORPUS_DIR;
  size_t Seen = 0;
  for (const fs::directory_entry &Entry : fs::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".ir")
      continue;
    ++Seen;
    std::string Source = readFile(Entry.path());
    RoundTripOutcome Out = roundTripCheck(Source);
    EXPECT_TRUE(Out.Parsed) << Entry.path();
    EXPECT_TRUE(Out.Fixpoint) << Entry.path() << ": " << Out.Detail;
    // Corpus files are stored in canonical printer form: parsing and
    // re-printing must reproduce the exact bytes on disk.
    ParseResult Parsed = parseProgram(Source);
    ASSERT_TRUE(Parsed.ok());
    EXPECT_EQ(printProgram(Parsed.Prog), Source) << Entry.path();
  }
  EXPECT_GE(Seen, 10u) << "seed corpus shrank below the checked-in floor";
}

TEST(FuzzCorpus, CoversEveryBias) {
  fs::path Dir = FUZZ_CORPUS_DIR;
  for (size_t BiasIndex = 0; BiasIndex < NumFuzzBiases; ++BiasIndex) {
    std::string Needle =
        std::string("fuzz-") + fuzzBiasName(static_cast<FuzzBias>(BiasIndex));
    bool Found = false;
    for (const fs::directory_entry &Entry : fs::directory_iterator(Dir))
      Found |= Entry.path().filename().string().rfind(Needle, 0) == 0;
    EXPECT_TRUE(Found) << "no corpus file for bias " << Needle;
  }
}

// --- Oracles ----------------------------------------------------------------

TEST(FuzzOracles, CleanOnKnownGoodFixtures) {
  const Program &Boxes = makeTwoBoxes().Prog;
  const Program &Dispatch = makeDispatch().Prog;
  const Program &Mixed = makeMixed().Prog;
  for (const Program *Prog : {&Boxes, &Dispatch, &Mixed}) {
    OracleOutcome Out = checkProgram(*Prog, quickOracles());
    EXPECT_TRUE(Out.clean());
    EXPECT_GT(Out.ChecksRun, 0u);
    for (const Finding &F : Out.Findings)
      ADD_FAILURE() << oracleKindName(F.Oracle) << "/" << F.Policy << ": "
                    << F.Detail;
  }
}

TEST(FuzzOracles, EveryPlantedBugIsDetected) {
  // Each bug double must be caught by at least one oracle on at least one
  // seed in a small sweep (not every program exercises every fact kind).
  for (PlantedBug Bug : {PlantedBug::DropMaxHeapPerVar,
                         PlantedBug::DropMaxCallTarget,
                         PlantedBug::ForgetThrows}) {
    bool Caught = false;
    for (uint64_t Seed = 1; Seed <= 12 && !Caught; ++Seed) {
      OracleOptions Options = quickOracles();
      Options.Bug = Bug;
      Program Prog = generateFuzzProgram(Seed, biasForSeed(Seed));
      Caught = !checkProgram(Prog, Options).clean();
    }
    EXPECT_TRUE(Caught) << "planted bug " << plantedBugName(Bug)
                        << " slipped past every oracle";
  }
}

TEST(FuzzOracles, BudgetPrefixHoldsOnBiasedProgramsAndSkipsCappedOnes) {
  // A run stopped at half the completed run's pops must be a sound prefix
  // of it, for insens and 2objH, over every generator bias.
  OracleOptions Options;
  Options.Oracles = OracleSet().enable(OracleKind::BudgetPrefix);
  uint32_t ChecksRun = 0;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    Program Prog = generateFuzzProgram(Seed, biasForSeed(Seed));
    OracleOutcome Out = checkProgram(Prog, Options);
    for (const Finding &F : Out.Findings)
      ADD_FAILURE() << "seed " << Seed << " " << F.Policy << ": " << F.Detail;
    EXPECT_EQ(Out.ChecksRun + Out.ChecksSkipped, 2u) << "seed " << Seed;
    ChecksRun += Out.ChecksRun;
  }
  EXPECT_GE(ChecksRun, 20u);

  // A completed run is what the stopped one is compared with: under a cap
  // neither flavor fits, both are skipped, and nothing is filed.
  Options.MaxTuples = 1;
  OracleOutcome Capped = checkProgram(makeMixed().Prog, Options);
  EXPECT_TRUE(Capped.clean());
  EXPECT_EQ(Capped.ChecksRun, 0u);
  EXPECT_EQ(Capped.ChecksSkipped, 2u);
}

TEST(FuzzOracles, PlantedBugNamesRoundTrip) {
  for (PlantedBug Bug : {PlantedBug::None, PlantedBug::DropMaxHeapPerVar,
                         PlantedBug::DropMaxCallTarget,
                         PlantedBug::ForgetThrows}) {
    PlantedBug Parsed;
    ASSERT_TRUE(plantedBugFromName(plantedBugName(Bug), Parsed));
    EXPECT_EQ(Parsed, Bug);
  }
  for (size_t Kind = 0; Kind < NumOracleKinds; ++Kind) {
    OracleKind Parsed;
    ASSERT_TRUE(oracleKindFromName(
        oracleKindName(static_cast<OracleKind>(Kind)), Parsed));
    EXPECT_EQ(Parsed, static_cast<OracleKind>(Kind));
  }
}

TEST(FuzzOracles, ApplyPlantedBugDropsFromProjections) {
  // The double must actually corrupt: solve the two-boxes program and check
  // drop-max-heap removes an element from some multi-element var set.
  TwoBoxes Boxes = makeTwoBoxes();
  ContextTable Table;
  auto Policy = makeInsensitivePolicy();
  PointsToResult Clean = solvePointsTo(Boxes.Prog, *Policy, Table);
  PointsToResult Corrupt = Clean;
  applyPlantedBug(PlantedBug::DropMaxHeapPerVar, Corrupt);
  size_t CleanTotal = 0, CorruptTotal = 0;
  for (const SortedIdSet &Set : Clean.VarHeaps)
    CleanTotal += Set.size();
  for (const SortedIdSet &Set : Corrupt.VarHeaps)
    CorruptTotal += Set.size();
  EXPECT_LT(CorruptTotal, CleanTotal);
}

// --- Reducer ----------------------------------------------------------------

TEST(FuzzReducer, ConvergesOnPlantedSoundnessBug) {
  // End-to-end acceptance check: a planted soundness bug in the solver
  // double, found on a generated program, must reduce to <= 10 statements
  // with the predicate still holding on the emitted repro.
  OracleOptions Options = quickOracles();
  Options.Bug = PlantedBug::DropMaxHeapPerVar;
  bool Exercised = false;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    Program Prog = generateFuzzProgram(Seed, biasForSeed(Seed));
    OracleOutcome Out = checkProgram(Prog, Options);
    if (Out.clean())
      continue;
    Exercised = true;
    OracleKind Kind = Out.Findings.front().Oracle;
    OracleOptions Sub = Options;
    Sub.Oracles = OracleSet().enable(Kind);
    auto Predicate = [&Sub, Kind](const Program &Candidate) {
      for (const Finding &F : checkProgram(Candidate, Sub).Findings)
        if (F.Oracle == Kind)
          return true;
      return false;
    };
    ReduceOutcome Reduced = reduceProgram(Prog, Predicate);
    EXPECT_TRUE(Reduced.PredicateHolds) << "seed " << Seed;
    EXPECT_LE(Reduced.Statements, 10u)
        << "seed " << Seed << " repro:\n" << Reduced.Source;
    EXPECT_LT(Reduced.Statements, countStatements(Prog));
    // The repro is canonical: it re-parses to its own printed form.
    ParseResult Parsed = parseProgram(Reduced.Source);
    ASSERT_TRUE(Parsed.ok());
    EXPECT_EQ(printProgram(Parsed.Prog), Reduced.Source);
  }
  EXPECT_TRUE(Exercised);
}

TEST(FuzzReducer, FlakyPredicateReturnsUnreducedSource) {
  Program Prog = generateFuzzProgram(1, FuzzBias::Uniform);
  ReduceOutcome Out =
      reduceProgram(Prog, [](const Program &) { return false; });
  EXPECT_FALSE(Out.PredicateHolds);
  EXPECT_EQ(Out.Source, printProgram(Prog));
  EXPECT_EQ(Out.RemovedUnits, 0u);
}

TEST(FuzzReducer, HonorsCheckBudget) {
  Program Prog = generateFuzzProgram(2, FuzzBias::DeepCalls);
  ReducerOptions Options;
  Options.MaxChecks = 5;
  uint32_t Calls = 0;
  ReduceOutcome Out = reduceProgram(
      Prog, [&Calls](const Program &) { ++Calls; return true; }, Options);
  // One extra call is allowed for the final canonicalization re-check.
  EXPECT_LE(Out.Checks, Options.MaxChecks);
  EXPECT_LE(Calls, Options.MaxChecks + 1);
}

// --- Campaign ---------------------------------------------------------------

TEST(FuzzCampaign, DeterministicAcrossWorkerCounts) {
  CampaignOptions Options;
  Options.Seed = 1;
  Options.Count = 12;
  Options.MutationsPerSeed = 2;
  Options.Oracles = quickOracles();
  Options.Oracles.Bug = PlantedBug::DropMaxHeapPerVar;
  Options.ReduceMaxChecks = 50;

  Options.Workers = 1;
  CampaignOutcome One = runCampaign(Options);
  Options.Workers = 4;
  CampaignOutcome Four = runCampaign(Options);

  std::ostringstream ReportOne, ReportFour;
  Options.Workers = 1;
  writeCampaignReportJson(ReportOne, Options, One);
  writeCampaignReportJson(ReportFour, Options, Four);
  // Everything outside the timing section is byte-identical; compare the
  // deterministic prefix (the timing object is the last key).
  std::string A = ReportOne.str(), B = ReportFour.str();
  A.resize(A.rfind("\"timing\""));
  B.resize(B.rfind("\"timing\""));
  EXPECT_EQ(A, B);
  EXPECT_GT(One.TotalFindings, 0u);
  ASSERT_EQ(One.Seeds.size(), Four.Seeds.size());
  for (size_t Index = 0; Index < One.Seeds.size(); ++Index) {
    EXPECT_EQ(One.Seeds[Index].Reduction.Source,
              Four.Seeds[Index].Reduction.Source);
    EXPECT_EQ(One.Seeds[Index].Findings.size(),
              Four.Seeds[Index].Findings.size());
  }
}

TEST(FuzzCampaign, WritesQuarantineStyleArtifacts) {
  fs::path Dir = fs::temp_directory_path() /
                 ("fuzz-artifacts-" + std::to_string(::getpid()));
  fs::remove_all(Dir);
  CampaignOptions Options;
  Options.Seed = 1;
  Options.Count = 6;
  Options.Oracles = quickOracles();
  Options.Oracles.Bug = PlantedBug::DropMaxHeapPerVar;
  Options.ReduceMaxChecks = 50;
  Options.ReproDir = Dir.string();
  CampaignOutcome Outcome = runCampaign(Options);
  ASSERT_GT(Outcome.TotalFindings, 0u);
  bool SawTriple = false;
  for (const SeedReport &Seed : Outcome.Seeds) {
    if (Seed.ReproName.empty())
      continue;
    SawTriple = true;
    fs::path Stem = Dir / Seed.ReproName;
    EXPECT_TRUE(fs::exists(Stem.string() + ".ir"));
    EXPECT_TRUE(fs::exists(Stem.string() + ".reason.txt"));
    EXPECT_TRUE(fs::exists(Stem.string() + ".triage.json"));
    // The .ir repro replays: it parses and still trips the oracle.
    ParseResult Parsed = parseProgram(readFile(Stem.string() + ".ir"));
    ASSERT_TRUE(Parsed.ok());
    EXPECT_FALSE(checkProgram(Parsed.Prog, Options.Oracles).clean());
    std::string Triage = readFile(Stem.string() + ".triage.json");
    EXPECT_NE(Triage.find("intro-fuzz-triage-v1"), std::string::npos);
  }
  EXPECT_TRUE(SawTriple);
  fs::remove_all(Dir);
}

TEST(FuzzCampaign, BudgetStopsLaunchingButKeepsPrefixContiguous) {
  CampaignOptions Options;
  Options.Seed = 1;
  Options.Count = 100000;
  Options.BudgetSeconds = 0.2;
  Options.Oracles = quickOracles();
  CampaignOutcome Outcome = runCampaign(Options);
  EXPECT_TRUE(Outcome.BudgetExhausted);
  EXPECT_LT(Outcome.SeedsStarted, Outcome.SeedsPlanned);
  EXPECT_GT(Outcome.SeedsStarted, 0u);
  for (size_t Index = 0; Index < Outcome.Seeds.size(); ++Index)
    EXPECT_EQ(Outcome.Seeds[Index].Seed, Options.Seed + Index);
}
