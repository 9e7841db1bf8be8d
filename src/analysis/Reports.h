//===- analysis/Reports.h - Human-readable result exports -------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders analysis results for human and downstream-tool consumption: the
/// (context-insensitively projected) call graph as Graphviz DOT, and a
/// per-variable points-to listing.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_REPORTS_H
#define ANALYSIS_REPORTS_H

#include <ostream>

namespace intro {

class JsonValue;
class JsonWriter;
class PointsToResult;
class Program;
struct SolverStats;

/// Writes the resolved call graph (one node per reachable method, one edge
/// per (call site, target) pair, contexts collapsed) as Graphviz DOT.
void writeCallGraphDot(const Program &Prog, const PointsToResult &Result,
                       std::ostream &Out);

/// Writes a `var -> {allocation sites}` listing for every variable of every
/// reachable method with a non-empty points-to set.
void writePointsToReport(const Program &Prog, const PointsToResult &Result,
                         std::ostream &Out);

/// Writes \p Stats as one JSON object: `seconds`, then SolverStatsFields.
/// `seconds` is wall-clock and therefore run-dependent; everything else is
/// deterministic for a deterministic solve.  Used by the machine-readable
/// run reports (`--trace=FILE`).
void writeSolverStatsJson(JsonWriter &J, const SolverStats &Stats);

/// Inverse of writeSolverStatsJson: decodes a stats object parsed from a
/// run report back into \p Stats.  Missing members keep their zero default
/// (a report truncated by a dying child still yields its decodable prefix);
/// \returns false only when \p Value is not an object.
bool parseSolverStatsJson(const JsonValue &Value, SolverStats &Stats);

} // namespace intro

#endif // ANALYSIS_REPORTS_H
