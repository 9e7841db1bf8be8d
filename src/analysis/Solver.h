//===- analysis/Solver.h - Context-sensitive points-to solver ---*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production implementation of the analysis model of the paper's
/// Figure 3: a worklist-based, field-sensitive, flow-insensitive points-to
/// analysis with on-the-fly call-graph construction, parameterized over the
/// RECORD/MERGE context constructors of a ContextPolicy.
///
/// Each of the ten Datalog rules maps onto a solver action:
///   - ALLOC + RECORD(REFINED)       -> seeding var nodes at instantiation
///   - MOVE                          -> copy edges
///   - INTERPROCASSIGN (two rules)   -> edges added at dispatch time
///   - LOAD / STORE                  -> per-object field edges added when
///                                      the base variable gains objects
///   - VCALL + MERGE(REFINED)        -> dispatch on receiver-object deltas
///   - REACHABLE                     -> method-body instantiation
///
/// The introspective SITETOREFINE / OBJECTTOREFINE split lives entirely in
/// the ContextPolicy; the solver is identical across all analysis runs, as
/// in the paper ("the two runs of the analysis use identical code").
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_SOLVER_H
#define ANALYSIS_SOLVER_H

#include "analysis/Context.h"
#include "analysis/Result.h"

namespace intro {

class ContextPolicy;
class Program;

/// Deterministic fault injection for resilience tests.  A FaultPlan makes a
/// solver run fail (or *look* expensive) at an exact, reproducible point, so
/// every rung of the degradation ladder can be exercised without building
/// programs that genuinely blow up.  Default-constructed plans are inert.
struct FaultPlan {
  /// Force the run to stop with FailStatus once this many worklist pops have
  /// happened.  0 disables the fault.
  uint64_t FailAtPop = 0;
  /// The status reported when the FailAtPop fault fires.  Must be a
  /// non-completed status; Completed is treated as "no fault".
  SolveStatus FailStatus = SolveStatus::TupleBudgetExceeded;
  /// Pathological metric inflation: the tuple count is multiplied by this
  /// factor when tested against SolveBudget::MaxTuples, making the budget
  /// trip early as if the points-to sets had exploded.  Reported statistics
  /// stay honest; only budget enforcement is inflated.  1 disables.
  uint64_t TupleInflation = 1;

  /// \returns true if any fault is armed.
  bool armed() const {
    return (FailAtPop != 0 && FailStatus != SolveStatus::Completed) ||
           TupleInflation > 1;
  }
};

/// Options controlling a solver run.
struct SolverOptions {
  SolveBudget Budget;
  /// Which members of the result to assemble (see Assembly).  Projections
  /// by default; Tuples adds the full relation dumps the oracle tests read.
  Assembly Assemble = Assembly::Projections;
  /// Doop-style checked-cast semantics: `to = (T) from` propagates only the
  /// objects whose type is a subtype of T (a failing cast throws, cutting
  /// the dataflow).  Off by default — the paper's model treats casts as
  /// moves.
  bool FilterCasts = false;
  /// Deterministic fault injection (tests only; inert by default).
  FaultPlan Faults;
};

/// Runs the points-to analysis on \p Prog under \p Policy.
///
/// \p Table is the (shared) context interner; passing the same table to
/// several runs keeps context ids comparable across them.
/// \returns the analysis result; Status indicates whether the run completed
/// within budget.  \p Prog must be finalized and validated.
PointsToResult solvePointsTo(const Program &Prog, const ContextPolicy &Policy,
                             ContextTable &Table,
                             const SolverOptions &Options = SolverOptions());

} // namespace intro

#endif // ANALYSIS_SOLVER_H
