//===- tests/WorkloadTests.cpp - Workload generator tests -----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Printer.h"
#include "ir/Validator.h"
#include "workload/DaCapo.h"

#include <gtest/gtest.h>

using namespace intro;

TEST(Profiles, AllNineBenchmarksExist) {
  auto Profiles = dacapoProfiles();
  ASSERT_EQ(Profiles.size(), 9u);
  std::vector<std::string> Names;
  for (const WorkloadProfile &P : Profiles)
    Names.push_back(P.Name);
  std::vector<std::string> Expected = {"antlr",  "bloat",    "chart",
                                       "eclipse", "hsqldb",  "jython",
                                       "lusearch", "pmd",    "xalan"};
  EXPECT_EQ(Names, Expected);
}

TEST(Profiles, ScalabilitySubjectsAreTheSixOfFigures57) {
  auto Subjects = scalabilitySubjects();
  ASSERT_EQ(Subjects.size(), 6u);
  EXPECT_EQ(Subjects[0].Name, "bloat");
  EXPECT_EQ(Subjects[5].Name, "xalan");
}

TEST(Profiles, LookupByName) {
  EXPECT_EQ(dacapoProfile("jython").Name, "jython");
  EXPECT_GT(dacapoProfile("jython").HubFanout, 0u);
}

TEST(Generator, AllProfilesProduceValidPrograms) {
  for (const WorkloadProfile &Profile : dacapoProfiles()) {
    Program Prog = generateWorkload(Profile);
    auto Errors = validateProgram(Prog);
    EXPECT_TRUE(Errors.empty())
        << Profile.Name << ": " << (Errors.empty() ? "" : Errors[0]);
    EXPECT_GE(Prog.entries().size(), 1u) << Profile.Name;
  }
}

TEST(Generator, DeterministicInSeed) {
  WorkloadProfile Profile = dacapoProfile("chart");
  Program A = generateWorkload(Profile);
  Program B = generateWorkload(Profile);
  EXPECT_EQ(printProgram(A), printProgram(B));
}

TEST(Generator, SeedChangesProgram) {
  WorkloadProfile Profile = dacapoProfile("chart");
  Program A = generateWorkload(Profile);
  Profile.Seed += 1;
  Program B = generateWorkload(Profile);
  EXPECT_NE(printProgram(A), printProgram(B));
}

TEST(Generator, StructuralKnobsAreVisible) {
  WorkloadProfile P;
  P.Name = "knobs";
  P.NumFamilies = 3;
  P.VariantsPerFamily = 2;
  P.NumContainerClasses = 2;
  P.ContainerUses = 10;
  P.LeafChainLength = 5;
  P.HubFanout = 7;
  P.NumGenClasses = 2;
  P.NumClientClasses = 2;
  P.ClientAllocSites = 3;
  P.HelperDepth = 2;
  Program Prog = generateWorkload(P);
  EXPECT_TRUE(validateProgram(Prog).empty());

  // Class census: Object + Hub + Registry + families (3 bases + 3 out-bases
  // + 6 variants + 6 outs = 18) + 2 containers + 2 gens + 2 clients +
  // 2*2 helpers + mod classes (ceil(10/5) = 2) = 33.
  EXPECT_EQ(Prog.numTypes(), 33u);

  // Hub payload allocations: one per fanout unit.
  uint32_t Payloads = 0;
  for (uint32_t Heap = 0; Heap < Prog.numHeaps(); ++Heap) {
    std::string_view Name = Prog.typeName(Prog.heap(HeapId(Heap)).Type);
    if (Name.substr(0, 3) == "Fam" && Name.find("_V") != std::string::npos)
      ++Payloads;
  }
  // 7 hub payloads + 10 container snippet values + 5 leaf scratches; main
  // seeds the leaf chain with one more variant allocation.
  EXPECT_EQ(Payloads, 7u + 10u + 5u + 1u);
}

TEST(Generator, EmptyPathologyMeansNoHubClients) {
  WorkloadProfile P;
  P.Name = "plain";
  P.HubFanout = 0;
  P.NumClientClasses = 0;
  P.ClientAllocSites = 0;
  Program Prog = generateWorkload(P);
  EXPECT_TRUE(validateProgram(Prog).empty());
  for (uint32_t Type = 0; Type < Prog.numTypes(); ++Type)
    EXPECT_NE(Prog.typeName(TypeId(Type)).substr(0, 6), "Client");
}

class ProfileSweep : public ::testing::TestWithParam<int> {};

TEST_P(ProfileSweep, GenerationIsDeterministicAndValid) {
  WorkloadProfile Profile = dacapoProfiles()[GetParam()];
  Program A = generateWorkload(Profile);
  Program B = generateWorkload(Profile);
  EXPECT_TRUE(validateProgram(A).empty()) << Profile.Name;
  EXPECT_EQ(printProgram(A), printProgram(B)) << Profile.Name;
}

INSTANTIATE_TEST_SUITE_P(AllNine, ProfileSweep, ::testing::Range(0, 9));
