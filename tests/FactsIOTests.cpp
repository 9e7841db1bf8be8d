//===- tests/FactsIOTests.cpp - Doop-style facts-directory export ---------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The facts writer emits one named TSV file per input relation, with one
/// line per row of the matching extractFacts() relation.
///
//===----------------------------------------------------------------------===//

#include "ir/Facts.h"
#include "ir/FactsIO.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

using namespace intro;
using namespace intro::testing;

namespace {

/// A fresh, empty directory named after the running test; removed again
/// when the scope ends.
struct ScratchDir {
  ScratchDir()
      : Path(std::filesystem::temp_directory_path() /
             ("intro_facts_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()))) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }
  std::filesystem::path Path;
};

size_t countLines(const std::filesystem::path &File) {
  std::ifstream In(File);
  return std::count(std::istreambuf_iterator<char>(In),
                    std::istreambuf_iterator<char>(), '\n');
}

/// Writes \p Prog into \p Dir (replacing the files there) and expects one
/// line per row of each relation.
void expectOneLinePerRow(const Program &Prog,
                         const std::filesystem::path &Dir) {
  std::string Error;
  ASSERT_EQ(writeFactsDirectory(Prog, Dir.string(), Error).size(), 22u)
      << Error;
  ProgramFacts Facts = extractFacts(Prog);
  const std::pair<const char *, size_t> Expected[] = {
      {"Alloc", Facts.Alloc.size()},
      {"Move", Facts.Move.size()},
      {"Cast", Facts.Cast.size()},
      {"Load", Facts.Load.size()},
      {"Store", Facts.Store.size()},
      {"VCall", Facts.VCall.size()},
      {"SCall", Facts.SCall.size()},
      {"FormalArg", Facts.FormalArg.size()},
      {"ActualArg", Facts.ActualArg.size()},
      {"FormalReturn", Facts.FormalReturn.size()},
      {"ActualReturn", Facts.ActualReturn.size()},
      {"ThisVar", Facts.ThisVar.size()},
      {"HeapType", Facts.HeapType.size()},
      {"Lookup", Facts.Lookup.size()},
      {"Subtype", Facts.Subtype.size()},
      {"SLoad", Facts.SLoad.size()},
      {"SStore", Facts.SStore.size()},
      {"Throw", Facts.Throw.size()},
      {"SiteInMethod", Facts.SiteInMethod.size()},
      {"Catch", Facts.Catch.size()},
      {"NoCatch", Facts.NoCatch.size()},
      {"EntryMethod", Facts.EntryMethods.size()},
  };
  for (const auto &[Name, Rows] : Expected)
    EXPECT_EQ(countLines(Dir / (std::string(Name) + ".facts")), Rows)
        << Name;
}

} // namespace

TEST(FactsIO, WritesDoopStyleDirectory) {
  TwoBoxes T = makeTwoBoxes();
  ScratchDir Dir;

  std::string Error;
  auto Files = writeFactsDirectory(T.Prog, Dir.Path.string(), Error);
  ASSERT_FALSE(Files.empty()) << Error;
  EXPECT_EQ(Files.size(), 22u); // 21 relations + EntryMethod.

  // Spot-check Alloc.facts: four allocations with names.
  std::ifstream Alloc(Dir.Path / "Alloc.facts");
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
  std::ifstream Entry(Dir.Path / "EntryMethod.facts");
  std::string EntryName;
  std::getline(Entry, EntryName);
  EXPECT_EQ(EntryName, "main");

  // Every relation is written in full.
  expectOneLinePerRow(T.Prog, Dir.Path);
  expectOneLinePerRow(makeDispatch().Prog, Dir.Path);
  expectOneLinePerRow(makeMixed().Prog, Dir.Path);
}
