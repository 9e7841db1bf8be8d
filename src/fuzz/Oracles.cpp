//===- fuzz/Oracles.cpp - Differential oracle harness ---------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracles.h"

#include "analysis/ContextPolicy.h"
#include "analysis/DatalogReference.h"
#include "analysis/Solver.h"
#include "cache/Fingerprint.h"
#include "cache/ResultCache.h"
#include "frontend/Printer.h"
#include "fuzz/Mutator.h"
#include "introspect/Driver.h"
#include "introspect/Resilient.h"
#include "ir/Interpreter.h"
#include "ir/Program.h"
#include "ir/Validator.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/SetUtils.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace intro;
using namespace intro::fuzz;

const char *intro::fuzz::oracleKindName(OracleKind Kind) {
  switch (Kind) {
  case OracleKind::Validity:
    return "validity";
  case OracleKind::RoundTrip:
    return "round-trip";
  case OracleKind::Soundness:
    return "soundness";
  case OracleKind::ReferenceEquivalence:
    return "reference-equivalence";
  case OracleKind::IntrospectiveSubset:
    return "introspective-subset";
  case OracleKind::CacheWarmColdParity:
    return "cache-parity";
  case OracleKind::BudgetPrefix:
    return "budget-prefix";
  case OracleKind::DeepCap:
    return "deep-cap";
  case OracleKind::ServedLocalParity:
    return "served-parity";
  }
  return "unknown";
}

bool intro::fuzz::oracleKindFromName(std::string_view Name, OracleKind &Kind) {
  for (size_t Index = 0; Index < NumOracleKinds; ++Index) {
    OracleKind Candidate = static_cast<OracleKind>(Index);
    if (Name == oracleKindName(Candidate)) {
      Kind = Candidate;
      return true;
    }
  }
  return false;
}

OracleSet OracleSet::defaults() {
  OracleSet Set;
  Set.enable(OracleKind::Validity)
      .enable(OracleKind::RoundTrip)
      .enable(OracleKind::Soundness)
      .enable(OracleKind::ReferenceEquivalence)
      .enable(OracleKind::IntrospectiveSubset)
      .enable(OracleKind::CacheWarmColdParity)
      .enable(OracleKind::BudgetPrefix)
      .enable(OracleKind::DeepCap);
  return Set;
}

OracleSet OracleSet::all() {
  return defaults().enable(OracleKind::ServedLocalParity);
}

const char *intro::fuzz::plantedBugName(PlantedBug Bug) {
  switch (Bug) {
  case PlantedBug::None:
    return "none";
  case PlantedBug::DropMaxHeapPerVar:
    return "drop-max-heap";
  case PlantedBug::DropMaxCallTarget:
    return "drop-max-call-target";
  case PlantedBug::ForgetThrows:
    return "forget-throws";
  }
  return "unknown";
}

bool intro::fuzz::plantedBugFromName(std::string_view Name, PlantedBug &Bug) {
  static constexpr PlantedBug All[] = {
      PlantedBug::None, PlantedBug::DropMaxHeapPerVar,
      PlantedBug::DropMaxCallTarget, PlantedBug::ForgetThrows};
  for (PlantedBug Candidate : All)
    if (Name == plantedBugName(Candidate)) {
      Bug = Candidate;
      return true;
    }
  return false;
}

void intro::fuzz::applyPlantedBug(PlantedBug Bug, PointsToResult &Result) {
  switch (Bug) {
  case PlantedBug::None:
    return;
  case PlantedBug::DropMaxHeapPerVar: {
    // Losing the last-propagated object from every multi-object set is the
    // shape of a real delta-propagation bug: single-source flows still
    // look right, joins silently lose facts.
    std::vector<std::pair<uint32_t, uint32_t>> Dropped;
    for (uint32_t Var = 0; Var < Result.VarHeaps.size(); ++Var) {
      SortedIdSet &Set = Result.VarHeaps[Var];
      if (Set.size() < 2)
        continue;
      Dropped.emplace_back(Var, Set.back());
      Set.pop_back();
    }
    auto WasDropped = [&](uint32_t Var, uint32_t Heap) {
      return std::binary_search(Dropped.begin(), Dropped.end(),
                                std::make_pair(Var, Heap));
    };
    Result.VarPointsTo.erase(
        std::remove_if(Result.VarPointsTo.begin(), Result.VarPointsTo.end(),
                       [&](const std::array<uint32_t, 4> &Tuple) {
                         return WasDropped(Tuple[0], Tuple[2]);
                       }),
        Result.VarPointsTo.end());
    return;
  }
  case PlantedBug::DropMaxCallTarget: {
    std::vector<std::pair<uint32_t, uint32_t>> Dropped;
    for (uint32_t Site = 0; Site < Result.SiteTargets.size(); ++Site) {
      SortedIdSet &Set = Result.SiteTargets[Site];
      if (Set.size() < 2)
        continue;
      Dropped.emplace_back(Site, Set.back());
      Set.pop_back();
    }
    auto WasDropped = [&](uint32_t Site, uint32_t Target) {
      return std::binary_search(Dropped.begin(), Dropped.end(),
                                std::make_pair(Site, Target));
    };
    Result.CallGraph.erase(
        std::remove_if(Result.CallGraph.begin(), Result.CallGraph.end(),
                       [&](const std::array<uint32_t, 4> &Tuple) {
                         return WasDropped(Tuple[0], Tuple[2]);
                       }),
        Result.CallGraph.end());
    return;
  }
  case PlantedBug::ForgetThrows:
    for (SortedIdSet &Set : Result.MethodThrows)
      Set.clear();
    Result.ThrowPointsTo.clear();
    return;
  }
}

namespace {

/// The violations one check found: the first one's description and a
/// count, so a finding stays bounded however many points disagree.
struct Violations {
  std::string First;
  uint64_t Count = 0;

  void add(std::string Description) {
    if (First.empty())
      First = std::move(Description);
    ++Count;
  }

  /// \returns the first violation plus a count of further ones.
  std::string summary() const {
    return Count > 1 ? First + " (and " + std::to_string(Count - 1) + " more)"
                     : First;
  }
};

/// Adds to \p V every point where a context-insensitive projection of
/// \p Part is not a subset of \p Whole's: variables, field cells, static
/// fields, escaping exceptions, reachable methods and call targets.  Each
/// description starts with \p Label, which names the smaller run.
void collectSubsetViolations(const Program &Prog, const PointsToResult &Part,
                             const PointsToResult &Whole,
                             const std::string &Label, Violations &V) {
  auto Subset = [](const SortedIdSet &Small, const SortedIdSet &Large) {
    return std::includes(Large.begin(), Large.end(), Small.begin(),
                         Small.end());
  };
  for (uint32_t Var = 0; Var < Part.VarHeaps.size(); ++Var)
    if (!Subset(Part.VarHeaps[Var], Whole.pointsTo(VarId(Var))))
      V.add(Label + " points-to not a subset at " +
            std::string(Prog.varName(VarId(Var))));
  for (const FieldCell &Cell : Part.FieldHeaps)
    if (!Subset(Cell.Heaps, Whole.fieldPointsTo(HeapId(Cell.BaseHeap),
                                                FieldId(Cell.Field))))
      V.add(Label + " field points-to not a subset at " +
            std::string(Prog.heapName(HeapId(Cell.BaseHeap))) + "." +
            std::string(Prog.fieldName(FieldId(Cell.Field))));
  for (uint32_t Field = 0; Field < Part.StaticFieldHeaps.size(); ++Field)
    if (!Subset(Part.StaticFieldHeaps[Field],
                Whole.staticPointsTo(FieldId(Field))))
      V.add(Label + " static-field points-to not a subset at " +
            std::string(Prog.fieldName(FieldId(Field))));
  for (uint32_t Method = 0; Method < Part.MethodThrows.size(); ++Method)
    if (!Subset(Part.MethodThrows[Method], Whole.throwsOf(MethodId(Method))))
      V.add(Label + " escaping exceptions not a subset at " +
            std::string(Prog.methodName(MethodId(Method))));
  for (uint32_t Method = 0; Method < Part.MethodReachable.size(); ++Method)
    if (Part.MethodReachable[Method] && !Whole.isReachable(MethodId(Method)))
      V.add(Label + " reachability not a subset at " +
            std::string(Prog.methodName(MethodId(Method))));
  for (uint32_t Site = 0; Site < Part.SiteTargets.size(); ++Site)
    if (!Subset(Part.SiteTargets[Site], Whole.callTargets(SiteId(Site))))
      V.add(Label + " call targets not a subset at " +
            std::string(Prog.siteName(SiteId(Site))));
}

/// State threaded through one checkProgram call.
struct Harness {
  const Program &Prog;
  const OracleOptions &Opt;
  OracleOutcome Out;

  Harness(const Program &Prog, const OracleOptions &Opt)
      : Prog(Prog), Opt(Opt) {}

  void finding(OracleKind Oracle, std::string Policy, std::string Detail) {
    Out.Findings.push_back({Oracle, std::move(Policy), std::move(Detail)});
  }

  /// The solver-under-test: the production solver plus the planted bug.
  PointsToResult solveUnderTest(const ContextPolicy &Policy,
                                ContextTable &Table,
                                const SolverOptions &Options) {
    PointsToResult Result = solvePointsTo(Prog, Policy, Table, Options);
    applyPlantedBug(Opt.Bug, Result);
    return Result;
  }

  SolverOptions cappedOptions(bool KeepTuples = false) const {
    SolverOptions Options;
    Options.Budget.MaxTuples = Opt.MaxTuples;
    Options.KeepTuples = KeepTuples;
    return Options;
  }

  SolveBudget cappedBudget() const {
    SolveBudget Budget;
    Budget.MaxTuples = Opt.MaxTuples;
    return Budget;
  }

  /// The flavors the per-policy oracles sweep.
  std::vector<std::unique_ptr<ContextPolicy>> flavors() const {
    std::vector<std::unique_ptr<ContextPolicy>> Policies;
    Policies.push_back(makeInsensitivePolicy());
    Policies.push_back(makeObjectPolicy(Prog, 2, 1));
    if (Opt.Thorough) {
      Policies.push_back(makeCallSitePolicy(2, 1));
      Policies.push_back(makeTypePolicy(Prog, 2, 1));
    }
    return Policies;
  }

  bool checkValidity();
  void checkRoundTrip();
  void checkSoundness();
  void checkReferenceEquivalence();
  void checkIntrospectiveSubset();
  void checkCacheParity();
  void checkBudgetPrefix();
  void checkDeepCap();
  void checkServedParity();
};

/// Compares the context-insensitive projections of two results; \returns an
/// empty string when identical, else a description of the first divergence.
std::string describeResultDiff(const PointsToResult &A,
                               const PointsToResult &B) {
  if (A.Status != B.Status)
    return std::string("status ") + statusName(A.Status) + " vs " +
           statusName(B.Status);
  if (A.VarHeaps != B.VarHeaps)
    return "per-variable points-to sets differ";
  if (A.SiteTargets != B.SiteTargets)
    return "per-site call targets differ";
  if (A.MethodReachable != B.MethodReachable)
    return "reachable-method sets differ";
  if (A.MethodThrows != B.MethodThrows)
    return "escaping-exception sets differ";
  if (A.FieldHeaps != B.FieldHeaps)
    return "field points-to sets differ";
  if (A.StaticFieldHeaps != B.StaticFieldHeaps)
    return "static-field points-to sets differ";
  return "";
}

/// Compares what two ladder runs decided: the winning rung, its result,
/// the Pass-A metrics, and the installed exceptions.  \returns an empty
/// string when identical, else a description of the first divergence.
std::string describeLadderDiff(const ResilientOutcome &A,
                               const ResilientOutcome &B) {
  if (A.Level != B.Level)
    return std::string("winning rung ") + degradationLevelName(A.Level) +
           " vs " + degradationLevelName(B.Level);
  if (std::string Diff = describeResultDiff(A.Result, B.Result); !Diff.empty())
    return Diff;
  if (!(A.Metrics == B.Metrics))
    return "introspection metrics differ";
  if (!(A.Exceptions == B.Exceptions))
    return "refinement exceptions differ";
  return "";
}

bool Harness::checkValidity() {
  if (!Opt.Oracles.has(OracleKind::Validity))
    return true;
  ++Out.ChecksRun;
  std::vector<std::string> Errors = validateProgram(Prog);
  if (Errors.empty())
    return true;
  std::string Detail = Errors.front();
  if (Errors.size() > 1)
    Detail += " (and " + std::to_string(Errors.size() - 1) + " more)";
  finding(OracleKind::Validity, "", std::move(Detail));
  return false;
}

void Harness::checkRoundTrip() {
  if (!Opt.Oracles.has(OracleKind::RoundTrip))
    return;
  ++Out.ChecksRun;
  RoundTripOutcome RT = roundTripCheck(printProgram(Prog));
  if (!RT.Parsed) {
    finding(OracleKind::RoundTrip, "", "printed program fails to parse");
    return;
  }
  if (!RT.ok())
    finding(OracleKind::RoundTrip, "", RT.Detail);
}

void Harness::checkSoundness() {
  if (!Opt.Oracles.has(OracleKind::Soundness))
    return;
  DynamicFacts Facts = interpret(Prog);
  for (auto &Policy : flavors()) {
    ContextTable Table;
    PointsToResult Result = solveUnderTest(*Policy, Table, cappedOptions());
    if (!isCompleted(Result.Status)) {
      ++Out.ChecksSkipped;
      continue;
    }
    ++Out.ChecksRun;
    Violations V;
    for (auto [Var, Heap] : Facts.VarPointsTo)
      if (!setContains(Result.pointsTo(Var), Heap.index()))
        V.add("dynamic fact lost: " + std::string(Prog.varName(Var)) + " -> " +
              std::string(Prog.heapName(Heap)));
    for (MethodId Method : Facts.ReachedMethods)
      if (!Result.isReachable(Method))
        V.add("executed method unreachable: " +
              std::string(Prog.methodName(Method)));
    for (auto [Site, Target] : Facts.CallEdges)
      if (!setContains(Result.callTargets(Site), Target.index()))
        V.add("dispatched edge lost: " + std::string(Prog.siteName(Site)) +
              " -> " + std::string(Prog.methodName(Target)));
    for (auto [Field, Heap] : Facts.StaticFieldPointsTo)
      if (!setContains(Result.staticPointsTo(Field), Heap.index()))
        V.add("static-field fact lost: " + std::string(Prog.fieldName(Field)) +
              " -> " + std::string(Prog.heapName(Heap)));
    for (auto [Method, Heap] : Facts.MethodThrows)
      if (!setContains(Result.throwsOf(Method), Heap.index()))
        V.add("escaping exception lost: " +
              std::string(Prog.methodName(Method)) + " throws " +
              std::string(Prog.heapName(Heap)));
    if (V.Count > 0)
      finding(OracleKind::Soundness, Policy->name(), V.summary());
  }
}

/// Compares one tuple relation; \returns empty when equal, else a count
/// summary.  \p SolverTuples is sorted in place.
template <size_t N>
std::string compareRelation(const char *Relation,
                            std::vector<std::array<uint32_t, N>> SolverTuples,
                            const std::vector<std::array<uint32_t, N>> &Ref) {
  std::sort(SolverTuples.begin(), SolverTuples.end());
  if (SolverTuples == Ref)
    return "";
  std::ostringstream S;
  S << Relation << ": solver " << SolverTuples.size() << " tuples, reference "
    << Ref.size();
  // Name the first asymmetric tuple to anchor triage.
  std::vector<std::array<uint32_t, N>> Diff;
  std::set_symmetric_difference(SolverTuples.begin(), SolverTuples.end(),
                                Ref.begin(), Ref.end(),
                                std::back_inserter(Diff));
  if (!Diff.empty()) {
    S << "; first diff (";
    for (size_t Index = 0; Index < N; ++Index)
      S << (Index ? "," : "") << Diff.front()[Index];
    S << ")";
  }
  return S.str();
}

/// Groups column \p Value of \p Tuples by column \p Key into \p Size
/// sorted sets: the context-insensitive projection of a tuple dump.
template <size_t N>
std::vector<SortedIdSet>
projectTuples(size_t Size, const std::vector<std::array<uint32_t, N>> &Tuples,
              size_t Key, size_t Value) {
  std::vector<SortedIdSet> Sets(Size);
  for (const std::array<uint32_t, N> &Tuple : Tuples) {
    if (Tuple[Key] >= Sets.size())
      Sets.resize(Tuple[Key] + 1); // Out of range: the comparison fails.
    Sets[Tuple[Key]].push_back(Tuple[Value]);
  }
  for (SortedIdSet &Set : Sets)
    setNormalize(Set);
  return Sets;
}

/// Checks that every projection of a KeepTuples \p Result equals the
/// projection of its own tuple dump.  \returns empty when all agree, else
/// the first projection that does not.  FieldHeaps keeps empty cells the
/// dump cannot show, so only its non-empty cells are compared.
std::string describeProjectionDiff(const Program &Prog,
                                   const PointsToResult &Result) {
  if (Result.VarHeaps != projectTuples(Prog.numVars(), Result.VarPointsTo, 0, 2))
    return "projection: VarHeaps differs from VARPOINTSTO";
  if (Result.StaticFieldHeaps !=
      projectTuples(Prog.numFields(), Result.StaticFieldPointsTo, 0, 1))
    return "projection: StaticFieldHeaps differs from SFLDPOINTSTO";
  if (Result.MethodThrows !=
      projectTuples(Prog.numMethods(), Result.ThrowPointsTo, 0, 2))
    return "projection: MethodThrows differs from THROWPOINTSTO";
  if (Result.SiteTargets !=
      projectTuples(Prog.numSites(), Result.CallGraph, 0, 2))
    return "projection: SiteTargets differs from CALLGRAPH";
  std::vector<bool> Reached(Prog.numMethods(), false);
  for (const std::array<uint32_t, 2> &Tuple : Result.Reachable)
    if (Tuple[0] < Reached.size())
      Reached[Tuple[0]] = true;
  if (Result.MethodReachable != Reached)
    return "projection: MethodReachable differs from REACHABLE";

  std::vector<std::array<uint32_t, 3>> Rows; // (base heap, field, heap)
  for (const std::array<uint32_t, 5> &Tuple : Result.FieldPointsTo)
    Rows.push_back({Tuple[0], Tuple[2], Tuple[3]});
  std::sort(Rows.begin(), Rows.end());
  Rows.erase(std::unique(Rows.begin(), Rows.end()), Rows.end());
  std::vector<FieldCell> Dumped;
  for (const std::array<uint32_t, 3> &Row : Rows) {
    if (Dumped.empty() || Dumped.back().key() != std::pair(Row[0], Row[1]))
      Dumped.push_back({Row[0], Row[1], {}});
    Dumped.back().Heaps.push_back(Row[2]);
  }
  std::vector<FieldCell> NonEmpty;
  std::copy_if(Result.FieldHeaps.begin(), Result.FieldHeaps.end(),
               std::back_inserter(NonEmpty),
               [](const FieldCell &Cell) { return !Cell.Heaps.empty(); });
  if (NonEmpty != Dumped)
    return "projection: FieldHeaps differs from FLDPOINTSTO";
  return "";
}

/// Compares all six relations of a KeepTuples \p Solver result with the
/// reference's, then the result's projections.  \returns empty when all
/// agree, else the first difference.
std::string describeReferenceDiff(const Program &Prog,
                                  const PointsToResult &Solver,
                                  const DatalogReferenceResult &Ref) {
  for (std::string Diff :
       {compareRelation("VARPOINTSTO", Solver.VarPointsTo, Ref.VarPointsTo),
        compareRelation("FLDPOINTSTO", Solver.FieldPointsTo,
                        Ref.FieldPointsTo),
        compareRelation("REACHABLE", Solver.Reachable, Ref.Reachable),
        compareRelation("CALLGRAPH", Solver.CallGraph, Ref.CallGraph),
        compareRelation("THROWPOINTSTO", Solver.ThrowPointsTo,
                        Ref.ThrowPointsTo),
        compareRelation("SFLDPOINTSTO", Solver.StaticFieldPointsTo,
                        Ref.StaticFieldPointsTo),
        describeProjectionDiff(Prog, Solver)})
    if (!Diff.empty())
      return Diff;
  return "";
}

void Harness::checkReferenceEquivalence() {
  if (!Opt.Oracles.has(OracleKind::ReferenceEquivalence))
    return;

  DatalogReferenceOptions RefOptions;
  RefOptions.MaxTuples = Opt.MaxTuples * 8;

  auto Compare = [&](const ContextPolicy &Policy, std::string FlavorName,
                     bool FilterCasts) {
    ContextTable Table;
    SolverOptions Options = cappedOptions(/*KeepTuples=*/true);
    Options.FilterCasts = FilterCasts;
    PointsToResult Solver = solveUnderTest(Policy, Table, Options);
    if (!isCompleted(Solver.Status)) {
      ++Out.ChecksSkipped;
      return;
    }
    DatalogReferenceOptions RO = RefOptions;
    RO.FilterCasts = FilterCasts;
    DatalogReferenceResult Ref = runDatalogReference(Prog, Policy, Table, RO);
    if (Ref.BudgetExceeded) {
      ++Out.ChecksSkipped;
      return;
    }
    ++Out.ChecksRun;
    // One finding per flavor keeps triage records bounded.
    if (std::string Diff = describeReferenceDiff(Prog, Solver, Ref);
        !Diff.empty())
      finding(OracleKind::ReferenceEquivalence, FlavorName, std::move(Diff));
  };

  for (auto &Policy : flavors())
    Compare(*Policy, Policy->name(), /*FilterCasts=*/false);
  if (Opt.Thorough) {
    // Checked-cast semantics: the solver's filtered rule against the
    // reference's SUBTYPE-filtered rule.
    auto Insens = makeInsensitivePolicy();
    Compare(*Insens, std::string(Insens->name()) + "+filter-casts",
            /*FilterCasts=*/true);

    // The introspective split, with exceptions derived structurally from
    // the program (deterministic, no RNG): every third heap and every
    // (even site, target) pair stays coarse.
    auto Coarse = makeInsensitivePolicy();
    auto Refined = makeObjectPolicy(Prog, 2, 1);
    RefinementExceptions Exceptions(Prog);
    for (uint32_t Heap = 0; Heap < Prog.numHeaps(); Heap += 3)
      Exceptions.excludeHeap(HeapId(Heap));
    {
      ContextTable Probe;
      PointsToResult Insens =
          solvePointsTo(Prog, *Coarse, Probe, cappedOptions());
      if (!isCompleted(Insens.Status)) {
        ++Out.ChecksSkipped;
        return;
      }
      for (uint32_t Site = 0; Site < Prog.numSites(); Site += 2)
        for (uint32_t Target : Insens.callTargets(SiteId(Site)))
          Exceptions.excludeSite(SiteId(Site), MethodId(Target));
    }
    auto Intro =
        makeIntrospectivePolicy("fuzz-intro", *Coarse, *Refined, Exceptions);
    ContextTable Table;
    PointsToResult Solver =
        solveUnderTest(*Intro, Table, cappedOptions(/*KeepTuples=*/true));
    if (!isCompleted(Solver.Status)) {
      ++Out.ChecksSkipped;
      return;
    }
    DatalogReferenceResult Ref = runDatalogReference(
        Prog, *Coarse, *Refined, Exceptions, Table, RefOptions);
    if (Ref.BudgetExceeded) {
      ++Out.ChecksSkipped;
      return;
    }
    ++Out.ChecksRun;
    if (std::string Diff = describeReferenceDiff(Prog, Solver, Ref);
        !Diff.empty())
      finding(OracleKind::ReferenceEquivalence, "introspective-split",
              std::move(Diff));
  }
}

void Harness::checkIntrospectiveSubset() {
  if (!Opt.Oracles.has(OracleKind::IntrospectiveSubset))
    return;
  IntrospectiveOptions Options;
  Options.FirstPassBudget = cappedBudget();
  Options.SecondPassBudget = cappedBudget();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  IntrospectiveOutcome Outcome = runIntrospective(Prog, *Refined, Options);
  if (!isCompleted(Outcome.FirstPass.Status) ||
      !isCompleted(Outcome.SecondPass.Status)) {
    ++Out.ChecksSkipped;
    return;
  }
  ++Out.ChecksRun;
  Violations V;
  collectSubsetViolations(Prog, Outcome.SecondPass, Outcome.FirstPass,
                          "refined", V);
  if (V.Count > 0)
    finding(OracleKind::IntrospectiveSubset, "2objH-IntroA", V.summary());
}

void Harness::checkCacheParity() {
  if (!Opt.Oracles.has(OracleKind::CacheWarmColdParity))
    return;
  if (Opt.CacheDir.empty()) {
    ++Out.ChecksSkipped;
    return;
  }
  cache::ResultCache Cache({Opt.CacheDir, /*MaxEntries=*/0});
  cache::Fingerprint Fp = cache::fingerprintProgram(Prog);
  IntrospectiveOptions Options;
  Options.FirstPassBudget = cappedBudget();
  Options.SecondPassBudget = cappedBudget();
  Options.Cache = &Cache;
  Options.CacheKey = &Fp;
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  IntrospectiveOutcome Cold = runIntrospective(Prog, *Refined, Options);
  if (!isCompleted(Cold.FirstPass.Status)) {
    ++Out.ChecksSkipped; // Nothing stored; warm run would just re-miss.
    return;
  }
  IntrospectiveOutcome Warm = runIntrospective(Prog, *Refined, Options);
  if (Cache.stats().Hits == 0) {
    // The cold pass completed but nothing was served back: the cache
    // contract (completed miss is stored, stored entry hits) is broken.
    finding(OracleKind::CacheWarmColdParity, "pass-a",
            "completed first pass was not served back on the warm run");
    return;
  }
  ++Out.ChecksRun;
  if (std::string Diff =
          describeResultDiff(Cold.FirstPass, Warm.FirstPass);
      !Diff.empty()) {
    finding(OracleKind::CacheWarmColdParity, "pass-a", "warm != cold: " + Diff);
    return;
  }
  if (std::string Diff =
          describeResultDiff(Cold.SecondPass, Warm.SecondPass);
      !Diff.empty()) {
    finding(OracleKind::CacheWarmColdParity, "pass-b", "warm != cold: " + Diff);
    return;
  }

  // The ladder shares the same Pass-A path.  Drop the driver's entry so its
  // cold run re-solves and stores, then require the warm run to decide the
  // same rung with the same bits.
  std::error_code Ignored;
  std::filesystem::remove(Cache.entryPath(Fp), Ignored);
  ResilientOptions Ladder;
  Ladder.AttemptDeep = false;
  Ladder.RefinedBudget = cappedBudget();
  Ladder.FirstPassBudget = cappedBudget();
  Ladder.Cache = &Cache;
  Ladder.CacheKey = &Fp;
  ResilientOutcome LadderCold = runResilient(Prog, *Refined, Ladder);
  uint64_t HitsBefore = Cache.stats().Hits;
  ResilientOutcome LadderWarm = runResilient(Prog, *Refined, Ladder);
  if (Cache.stats().Hits == HitsBefore) {
    finding(OracleKind::CacheWarmColdParity, "ladder",
            "completed ladder pre-analysis was not served back on the warm "
            "run");
    return;
  }
  if (std::string Diff = describeLadderDiff(LadderCold, LadderWarm);
      !Diff.empty())
    finding(OracleKind::CacheWarmColdParity, "ladder",
            "warm != cold: " + Diff);
}

void Harness::checkBudgetPrefix() {
  if (!Opt.Oracles.has(OracleKind::BudgetPrefix))
    return;
  std::unique_ptr<ContextPolicy> Policies[] = {makeInsensitivePolicy(),
                                               makeObjectPolicy(Prog, 2, 1)};
  for (auto &Policy : Policies) {
    ContextTable FullTable;
    PointsToResult Full =
        solvePointsTo(Prog, *Policy, FullTable, cappedOptions());
    uint64_t StopAt = Full.Stats.WorklistPops / 2;
    if (!isCompleted(Full.Status) || StopAt == 0) {
      ++Out.ChecksSkipped; // No fixpoint, or no pop to stop halfway at.
      continue;
    }
    SolverOptions Options = cappedOptions();
    Options.Faults.FailAtPop = StopAt;
    ContextTable Table;
    PointsToResult Part = solvePointsTo(Prog, *Policy, Table, Options);
    ++Out.ChecksRun;
    Violations V;
    if (isCompleted(Part.Status))
      V.add("run armed to stop at pop " + std::to_string(StopAt) +
            " completed");
    collectSubsetViolations(Prog, Part, Full, "stopped", V);
    // Every persisted counter tallies something the run only adds to.
    for (auto [Name, Counter] : SolverStatsFields)
      if (Part.Stats.*Counter > Full.Stats.*Counter)
        V.add(std::string("stopped ") + Name + " " +
              std::to_string(Part.Stats.*Counter) + " exceeds completed " +
              std::to_string(Full.Stats.*Counter));
    if (V.Count > 0)
      finding(OracleKind::BudgetPrefix, Policy->name(), V.summary());
  }
}

void Harness::checkDeepCap() {
  if (!Opt.Oracles.has(OracleKind::DeepCap))
    return;
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ContextTable Table;
  PointsToResult Absolute =
      solvePointsTo(Prog, *Refined, Table, cappedOptions());
  if (!isCompleted(Absolute.Status)) {
    ++Out.ChecksSkipped; // The cap can only cut runs that complete.
    return;
  }
  ResilientOptions Options;
  Options.DeepBudget = cappedBudget();
  Options.RefinedBudget = cappedBudget();
  Options.FirstPassBudget = cappedBudget();
  ResilientOutcome Ladder = runResilient(Prog, *Refined, Options);
  ++Out.ChecksRun;
  if (Ladder.Level != DegradationLevel::Deep) {
    const Attempt &PassA = Ladder.Trace.front();
    uint64_t PassATuples =
        PassA.Stats.VarPointsToTuples + PassA.Stats.FieldPointsToTuples;
    uint64_t Cap = deepTupleCap(Options.DeepBudget, PassATuples);
    uint64_t Estimate = Ladder.Metrics.DeepTuplesEstimate;
    std::string Cause =
        skipDeepRung(PassA.Status, Estimate, Cap)
            ? "skipped: estimate " + std::to_string(Estimate) + " > " +
                  std::to_string(DeepSkipFactor) + " x cap"
            : "cut at the cap";
    finding(OracleKind::DeepCap, Absolute.AnalysisName,
            "completes with " +
                std::to_string(Absolute.Stats.VarPointsToTuples +
                               Absolute.Stats.FieldPointsToTuples) +
                " tuples under the absolute budget, but the ladder won at " +
                degradationLevelName(Ladder.Level) + " (Pass A " +
                std::to_string(PassATuples) + " tuples, deep cap " +
                std::to_string(Cap) + ", deep rung " + Cause + ")");
    return;
  }
  if (std::string Diff = describeResultDiff(Absolute, Ladder.Result);
      !Diff.empty())
    finding(OracleKind::DeepCap, Absolute.AnalysisName,
            "capped deep rung != absolute run: " + Diff);
}

/// The run report's deterministic section as raw bytes (the ServeTests
/// contract): everything from the "deterministic" key up to the "timing"
/// key.  The section holds no wall clock, so it is compared as it stands.
std::string deterministicSlice(const std::string &ReportLine) {
  size_t Begin = ReportLine.find("\"deterministic\"");
  size_t End = ReportLine.find("\"timing\"");
  if (Begin == std::string::npos || End == std::string::npos || End < Begin)
    return ReportLine;
  return ReportLine.substr(Begin, End - Begin);
}

void Harness::checkServedParity() {
  if (!Opt.Oracles.has(OracleKind::ServedLocalParity))
    return;
  if (Opt.ScratchDir.empty()) {
    ++Out.ChecksSkipped;
    return;
  }
  static std::atomic<uint64_t> SocketSeq{0};
  std::string Socket = Opt.ScratchDir + "/fz" + std::to_string(::getpid()) +
                       "-" + std::to_string(SocketSeq.fetch_add(1)) + ".sock";
  std::string Source = printProgram(Prog);

  serve::ServerOptions Options;
  Options.SocketPath = Socket;
  Options.Batch.Limits.WallDeadlineSeconds = 60;
  Options.Batch.SleepMs = [](double) {};
  Options.Batch.Workers = 1;
  serve::Server Daemon(std::move(Options));
  std::string Error;
  if (!Daemon.start(Error)) {
    ++Out.ChecksSkipped;
    return;
  }
  std::atomic<bool> Stop{false};
  std::thread Runner([&] { Daemon.run(Stop); });

  serve::SubmitOutcome Served;
  bool Submitted = false;
  {
    serve::Client Client;
    if (Client.connect(Socket, Error))
      Submitted =
          Client.submit("fuzz", Source, 0, "", nullptr, Served, Error);
  }
  Stop.store(true);
  Runner.join();
  if (!Submitted) {
    ++Out.ChecksSkipped;
    return;
  }

  supervise::JobSpec Spec;
  Spec.Name = "fuzz";
  Spec.Source = Source;
  supervise::BatchOptions Batch;
  Batch.Limits.WallDeadlineSeconds = 60;
  Batch.SleepMs = [](double) {};
  supervise::JobResult Local =
      supervise::runSupervisedJob(Spec, /*JobIndex=*/0, Batch);

  const char *LocalClass = supervise::jobOutcomeClassName(Local.FinalClass);
  if (Served.FinalClass != LocalClass) {
    finding(OracleKind::ServedLocalParity, "class",
            "served job classified '" + Served.FinalClass + "' vs local '" +
                LocalClass + "'");
    return;
  }
  if (Served.FinalClass != "clean" || Served.FinalReportLine.empty()) {
    ++Out.ChecksSkipped; // A hard child death is the supervisor's business.
    return;
  }
  if (Local.ReportLine.empty()) {
    ++Out.ChecksSkipped;
    return;
  }
  ++Out.ChecksRun;
  if (deterministicSlice(Served.FinalReportLine) !=
      deterministicSlice(Local.ReportLine))
    finding(OracleKind::ServedLocalParity, "report",
            "deterministic report sections differ between served and local");
}

} // namespace

OracleOutcome intro::fuzz::checkProgram(const Program &Prog,
                                        const OracleOptions &Options) {
  Harness H(Prog, Options);
  if (!H.checkValidity())
    return std::move(H.Out);
  H.checkRoundTrip();
  H.checkSoundness();
  H.checkReferenceEquivalence();
  H.checkIntrospectiveSubset();
  H.checkCacheParity();
  H.checkBudgetPrefix();
  H.checkDeepCap();
  H.checkServedParity();
  return std::move(H.Out);
}
