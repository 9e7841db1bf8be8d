//===- fuzz/Oracles.h - Differential oracle harness -------------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle harness: given one program, run the production
/// solver stack against every reference we own and report disagreements as
/// Findings.  The oracle taxonomy (DESIGN.md section 13):
///
///  - **Validity**: the program itself passes ir/Validator.h (a generator
///    bug, not a solver bug, but it must not poison the other oracles).
///  - **RoundTrip**: print∘parse is a one-step fixpoint (fuzz/Mutator.h).
///  - **Soundness**: every fact the concrete Interpreter observes is in the
///    solver's result, per policy flavor.
///  - **ReferenceEquivalence**: solver tuples == the literal Datalog
///    evaluation of Figure 3, per flavor (including the introspective split
///    and checked-cast semantics in thorough mode); and each of the
///    solver's context-insensitive projections equals the projection of
///    its own tuple dump.
///  - **IntrospectiveSubset**: every projection of the refined second pass
///    is pointwise a subset of the insensitive first pass's (metamorphic).
///  - **CacheWarmColdParity**: a Pass-A cache hit reproduces the cold run's
///    results exactly, through the driver and through the ladder (same
///    rung, result, metrics and exceptions; metamorphic).
///  - **BudgetPrefix**: for insens and 2objH, a run stopped halfway
///    (FaultPlan::FailAtPop at half the completed run's worklist pops, or
///    SolveBudget::MaxBytes at half its approx_bytes) ends with that stop's
///    status and is a sound prefix of the fixpoint: every projection is
///    pointwise a subset of the completed run's, and no SolverStatsFields
///    counter exceeds it.  The ladder's fallback reads such partial
///    results (metamorphic).
///  - **DeepCap**: when 2objH completes under the harness's absolute
///    budget, the ladder — whose deep rung runs under the Pass-A-derived
///    deepTupleCap, or is skipped when skipDeepRung predicts it passes
///    twice that — wins at the deep rung with the same result.  A cut or a
///    skip would be a silent loss of precision; the finding says which.
///  - **ServedLocalParity**: a job submitted through the serve daemon
///    reports the same deterministic bytes as the same job run locally
///    (metamorphic; forks children, so opt-in).
///
/// Budget-capped runs that do not complete are *skipped*, not findings — a
/// partial fixpoint cannot be compared (the PropertyTests convention);
/// BudgetPrefix stops its second run on purpose and compares it with a
/// completed first one.
///
/// A PlantedBug deliberately corrupts the solver-under-test's results so
/// the end-to-end pipeline (detect, reduce, triage) can be exercised and
/// tested against a known-bad double without touching the real solver.
///
//===----------------------------------------------------------------------===//

#ifndef FUZZ_ORACLES_H
#define FUZZ_ORACLES_H

#include "analysis/Result.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace intro {
class Program;
} // namespace intro

namespace intro::fuzz {

/// The oracle a finding came from.
enum class OracleKind : uint8_t {
  Validity,
  RoundTrip,
  Soundness,
  ReferenceEquivalence,
  IntrospectiveSubset,
  CacheWarmColdParity,
  BudgetPrefix,
  DeepCap,
  ServedLocalParity,
};

/// Number of OracleKind values.
inline constexpr size_t NumOracleKinds = 9;

/// \returns a stable kebab-case name for \p Kind (reports, repro names).
const char *oracleKindName(OracleKind Kind);

/// Inverse of oracleKindName.  \returns true and stores into \p Kind when
/// \p Name matches exactly.
bool oracleKindFromName(std::string_view Name, OracleKind &Kind);

/// Which oracles to run, as a bitmask over OracleKind.
struct OracleSet {
  uint32_t Mask = 0;

  bool has(OracleKind Kind) const {
    return Mask & (1u << static_cast<uint32_t>(Kind));
  }
  OracleSet &enable(OracleKind Kind) {
    Mask |= 1u << static_cast<uint32_t>(Kind);
    return *this;
  }
  OracleSet &disable(OracleKind Kind) {
    Mask &= ~(1u << static_cast<uint32_t>(Kind));
    return *this;
  }

  /// Everything that runs in-process.  CacheWarmColdParity still requires
  /// OracleOptions::CacheDir to actually run (skipped otherwise).
  static OracleSet defaults();

  /// defaults() plus ServedLocalParity (forks supervised children; needs
  /// OracleOptions::ScratchDir for the daemon socket).
  static OracleSet all();
};

/// A deliberate result corruption in the solver-under-test path — the
/// "known bad solver" double that proves the harness can actually catch,
/// reduce, and triage a soundness bug.  Applied to Soundness and
/// ReferenceEquivalence runs only.
enum class PlantedBug : uint8_t {
  None,
  DropMaxHeapPerVar,  ///< Drop the largest heap from every var set with
                      ///< >= 2 elements (a classic lost-propagation bug).
  DropMaxCallTarget,  ///< Drop the largest target from every polymorphic
                      ///< call site (a lost dispatch edge).
  ForgetThrows,       ///< Drop all escaping-exception facts.
};

/// \returns a stable kebab-case name for \p Bug.
const char *plantedBugName(PlantedBug Bug);

/// Inverse of plantedBugName.
bool plantedBugFromName(std::string_view Name, PlantedBug &Bug);

/// Applies \p Bug to \p Result in place (projections and tuple dumps).
/// Exposed so fuzz_tests can assert the double misbehaves as documented.
void applyPlantedBug(PlantedBug Bug, PointsToResult &Result);

/// Harness configuration.
struct OracleOptions {
  OracleSet Oracles = OracleSet::defaults();
  /// Per-solver-run tuple cap.  Runs that exceed it are skipped, not
  /// failed (generated programs can be genuinely pathological).
  uint64_t MaxTuples = 2'000'000;
  /// Run the extra expensive flavors: call-site sensitivity, checked-cast
  /// equivalence, and the introspective-split Datalog comparison.
  bool Thorough = false;
  /// Scratch directory for the cache-parity oracle; empty skips it.
  std::string CacheDir;
  /// Scratch directory for the served-parity oracle's socket and the
  /// supervised children; empty skips it.
  std::string ScratchDir;
  /// Deliberate corruption of the solver under test (tests/CI smoke only).
  PlantedBug Bug = PlantedBug::None;
};

/// One oracle disagreement.  All fields are deterministic (no wall-clock,
/// no pointers), so findings are byte-stable across runs and machines.
struct Finding {
  OracleKind Oracle = OracleKind::Validity;
  std::string Policy; ///< Flavor or phase the disagreement occurred under.
  std::string Detail; ///< First violation, plus a count of further ones.
};

/// The harness verdict on one program.
struct OracleOutcome {
  std::vector<Finding> Findings; ///< Stable order: oracle taxonomy order.
  uint32_t ChecksRun = 0;        ///< Comparisons actually performed.
  uint32_t ChecksSkipped = 0;    ///< Budget-capped or unconfigured checks.

  bool clean() const { return Findings.empty(); }
};

/// Runs every enabled oracle on \p Prog.  \p Prog must be finalized; a
/// validation failure is reported as a Validity finding and the remaining
/// oracles are skipped (they assume a valid program).
OracleOutcome checkProgram(const Program &Prog, const OracleOptions &Options);

} // namespace intro::fuzz

#endif // FUZZ_ORACLES_H
