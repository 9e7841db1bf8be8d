//===- analysis/Reports.cpp - Human-readable result exports ---------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Reports.h"

#include "analysis/Result.h"
#include "ir/Program.h"
#include "support/Json.h"

#include <ostream>
#include <string>

using namespace intro;

namespace {

/// DOT-escapes a name (quotes and backslashes).
std::string dotEscape(std::string_view Name) {
  std::string Out;
  Out.reserve(Name.size());
  for (char C : Name) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

/// A stable, qualified method label: `Class.method`.
std::string methodLabel(const Program &Prog, MethodId Method) {
  std::string Label(Prog.typeName(Prog.method(Method).Owner));
  Label += '.';
  Label += Prog.methodName(Method);
  return Label;
}

} // namespace

void intro::writeCallGraphDot(const Program &Prog,
                              const PointsToResult &Result,
                              std::ostream &Out) {
  Out << "digraph callgraph {\n  rankdir=LR;\n  node [shape=box];\n";
  for (uint32_t MethodIndex = 0; MethodIndex < Prog.numMethods();
       ++MethodIndex)
    if (Result.isReachable(MethodId(MethodIndex)))
      Out << "  m" << MethodIndex << " [label=\""
          << dotEscape(methodLabel(Prog, MethodId(MethodIndex))) << "\"];\n";

  for (uint32_t SiteIndex = 0; SiteIndex < Prog.numSites(); ++SiteIndex) {
    SiteId Site(SiteIndex);
    const SiteInfo &Info = Prog.site(Site);
    for (uint32_t TargetRaw : Result.callTargets(Site))
      Out << "  m" << Info.InMethod.index() << " -> m" << TargetRaw
          << " [label=\"" << dotEscape(Prog.siteName(Site)) << "\"];\n";
  }
  Out << "}\n";
}

void intro::writePointsToReport(const Program &Prog,
                                const PointsToResult &Result,
                                std::ostream &Out) {
  for (uint32_t MethodIndex = 0; MethodIndex < Prog.numMethods();
       ++MethodIndex) {
    MethodId Method(MethodIndex);
    if (!Result.isReachable(Method))
      continue;
    bool PrintedHeader = false;
    for (VarId Var : Prog.method(Method).Locals) {
      const SortedIdSet &Heaps = Result.pointsTo(Var);
      if (Heaps.empty())
        continue;
      if (!PrintedHeader) {
        Out << methodLabel(Prog, Method) << ":\n";
        PrintedHeader = true;
      }
      Out << "  " << Prog.varName(Var) << " -> {";
      bool First = true;
      for (uint32_t HeapRaw : Heaps) {
        Out << (First ? " " : ", ") << Prog.heapName(HeapId(HeapRaw));
        First = false;
      }
      Out << " }\n";
    }
  }
}

void intro::writeSolverStatsJson(JsonWriter &J, const SolverStats &Stats) {
  J.beginObject();
  J.key("seconds");
  J.value(Stats.Seconds);
  for (auto [Name, Counter] : SolverStatsFields) {
    J.key(Name);
    J.value(Stats.*Counter);
  }
  J.endObject();
}

bool intro::parseSolverStatsJson(const JsonValue &Value, SolverStats &Stats) {
  if (!Value.isObject())
    return false;
  Value.getDouble("seconds", Stats.Seconds);
  for (auto [Name, Counter] : SolverStatsFields)
    Value.getUint(Name, Stats.*Counter);
  return true;
}
