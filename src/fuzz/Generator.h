//===- fuzz/Generator.h - Adversarial random programs -----------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's random program generator, shared by the differential
/// fuzzer and the property tests.  Drawing every instruction independently
/// (FuzzBias::Uniform) explores *local* corner cases — unassigned
/// variables, dispatch failures, dead methods, self-moves, recursive static
/// calls, casts that always fail — but rarely builds the global shapes
/// where the layered optimizations can go wrong: hub sets large enough to
/// dominate the set store's unions, call chains deep enough to exercise
/// context truncation, cast lattices that split dense sets, hierarchies
/// degenerate enough to stress dispatch, and empty or duplicated structure
/// that tickles delta-propagation bookkeeping.
///
/// Each FuzzBias plants one such shape deliberately (sized by the seed) and
/// then sprinkles uniform random instructions on top, so every generated
/// program is both *structured* (the pathology is really there) and *noisy*
/// (the surrounding code varies per seed).  Everything is deterministic in
/// (Seed, Bias, Options): same inputs, byte-identical printProgram output.
///
//===----------------------------------------------------------------------===//

#ifndef FUZZ_GENERATOR_H
#define FUZZ_GENERATOR_H

#include "ir/Program.h"

#include <cstdint>

namespace intro::fuzz {

/// The structural pathology a generated program is biased toward.
enum class FuzzBias : uint8_t {
  Uniform,     ///< No planted shape: independent random draws (baseline).
  HubObjects,  ///< Many allocation sites funneled into one variable and one
               ///< field, growing large points-to sets by many mid-set
               ///< merges (batched-union / memo paths).
  DeepCalls,   ///< A deep call chain threading one payload down and back
               ///< up, stressing context truncation and return flow.
  CastHeavy,   ///< Loads feeding casts that sometimes succeed and sometimes
               ///< fail, over sibling types (cast-filter / precision paths).
  DegenerateHierarchy, ///< A deep single-inheritance chain plus a wide flat
               ///< fan, with overrides at every level and super-calls
               ///< through the fringe (dispatch / LOOKUP paths).
  CornerShapes, ///< Empty bodies, duplicate instructions, self-moves,
               ///< self-stores, dispatch with no receivers, unreachable
               ///< recursion (empty/duplicate-edge bookkeeping).
};

/// Number of FuzzBias values.
inline constexpr size_t NumFuzzBiases = 6;

/// \returns a stable kebab-case name for \p Bias (reports, repro names).
const char *fuzzBiasName(FuzzBias Bias);

/// The default campaign rotation: seed N gets bias N mod NumFuzzBiases, so
/// any contiguous seed range covers every knob.
FuzzBias biasForSeed(uint64_t Seed);

/// Size knobs.  The defaults keep programs small enough that the Datalog
/// reference stays affordable per program (hundreds of programs per CI
/// minute) while the planted shapes stay big enough to matter — e.g. the
/// hub set must dwarf the random programs' points-to sets.
struct FuzzProgramOptions {
  uint32_t NumClasses = 6;          ///< Random classes beside the planted ones.
  uint32_t NumVirtualSigs = 3;      ///< Random virtual method names.
  uint32_t NumStaticMethods = 3;    ///< Random static helpers.
  uint32_t InstructionsPerBody = 7; ///< Approximate random body length.
  uint32_t LocalsPerMethod = 5;     ///< Local variable pool per method.
  uint32_t HubAllocSites = 64;      ///< Hub bias: sites funneled together.
  uint32_t CallChainDepth = 24;     ///< Deep-call bias: chain length.
  uint32_t CastChainLength = 16;    ///< Cast bias: casts per snippet.
  uint32_t HierarchyDepth = 12;     ///< Degenerate bias: chain depth.
  uint32_t HierarchyWidth = 12;     ///< Degenerate bias: flat fan width.
};

/// Generates the program for (\p Seed, \p Bias).  The result is finalized
/// and passes ir/Validator.h (asserted by fuzz_tests over many seeds).
Program generateFuzzProgram(uint64_t Seed, FuzzBias Bias,
                            const FuzzProgramOptions &Options =
                                FuzzProgramOptions());

} // namespace intro::fuzz

#endif // FUZZ_GENERATOR_H
