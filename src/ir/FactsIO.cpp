//===- ir/FactsIO.cpp - Doop-style facts-directory export -----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/FactsIO.h"

#include "ir/Facts.h"
#include "ir/Program.h"

#include <array>
#include <cstdint>
#include <fstream>
#include <string_view>

using namespace intro;

namespace {

/// Renders one id column of a relation row as its entity name.  Which
/// table an index refers to is positional, so each writer passes a
/// per-column name projector.
using ColumnNamer = std::string_view (*)(const Program &, uint32_t);

std::string_view varName(const Program &P, uint32_t Raw) {
  return P.varName(VarId(Raw));
}
std::string_view heapName(const Program &P, uint32_t Raw) {
  return P.heapName(HeapId(Raw));
}
std::string_view methodName(const Program &P, uint32_t Raw) {
  return P.methodName(MethodId(Raw));
}
std::string_view fieldName(const Program &P, uint32_t Raw) {
  return P.fieldName(FieldId(Raw));
}
std::string_view typeName(const Program &P, uint32_t Raw) {
  return P.typeName(TypeId(Raw));
}
std::string_view siteName(const Program &P, uint32_t Raw) {
  return P.siteName(SiteId(Raw));
}
std::string_view sigName(const Program &P, uint32_t Raw) {
  return P.name(P.signature(SigId(Raw)).Name);
}

// An index column (argument position) is printed numerically.
constexpr ColumnNamer RawIndex = nullptr;

/// Writes tuples of \p Rows into \p Path with one \p Namers entry per
/// column.  \returns false on I/O failure.
template <size_t Arity>
bool writeRelation(const Program &Prog, const std::string &Path,
                   const std::vector<std::array<uint32_t, Arity>> &Rows,
                   const std::array<ColumnNamer, Arity> &Namers) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  for (const auto &Row : Rows) {
    for (size_t Col = 0; Col < Arity; ++Col) {
      if (Col > 0)
        Out << '\t';
      if (Namers[Col] == RawIndex)
        Out << Row[Col];
      else
        Out << Namers[Col](Prog, Row[Col]);
    }
    Out << '\n';
  }
  return Out.good();
}

/// Single-column variant of writeRelation().
bool writeColumn(const Program &Prog, const std::string &Path,
                 const std::vector<uint32_t> &Rows, ColumnNamer Namer) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  for (uint32_t Raw : Rows)
    Out << Namer(Prog, Raw) << '\n';
  return Out.good();
}

} // namespace

std::vector<std::string>
intro::writeFactsDirectory(const Program &Prog, const std::string &Directory,
                           std::string &Error) {
  ProgramFacts Facts = extractFacts(Prog);
  std::vector<std::string> Written;

  auto Emit = [&](const char *Name, bool Ok, const std::string &Path) {
    if (!Ok) {
      Error = std::string("failed to write ") + Name + " to " + Path;
      return false;
    }
    Written.push_back(Path);
    return true;
  };

#define WRITE_RELATION(NAME, ROWS, ...)                                       \
  do {                                                                        \
    std::string Path = Directory + "/" NAME ".facts";                         \
    constexpr size_t Arity = decltype(ROWS)::value_type().size();             \
    if (!Emit(NAME,                                                           \
              writeRelation<Arity>(Prog, Path, ROWS,                          \
                                   std::array<ColumnNamer, Arity>{            \
                                       __VA_ARGS__}),                         \
              Path))                                                          \
      return {};                                                              \
  } while (false)

  WRITE_RELATION("Alloc", Facts.Alloc, varName, heapName, methodName);
  WRITE_RELATION("Move", Facts.Move, varName, varName);
  WRITE_RELATION("Cast", Facts.Cast, varName, varName, typeName);
  WRITE_RELATION("Load", Facts.Load, varName, varName, fieldName);
  WRITE_RELATION("Store", Facts.Store, varName, fieldName, varName);
  WRITE_RELATION("VCall", Facts.VCall, varName, sigName, siteName,
                 methodName);
  WRITE_RELATION("SCall", Facts.SCall, methodName, siteName, methodName);
  WRITE_RELATION("FormalArg", Facts.FormalArg, methodName, RawIndex,
                 varName);
  WRITE_RELATION("ActualArg", Facts.ActualArg, siteName, RawIndex, varName);
  WRITE_RELATION("FormalReturn", Facts.FormalReturn, methodName, varName);
  WRITE_RELATION("ActualReturn", Facts.ActualReturn, siteName, varName);
  WRITE_RELATION("ThisVar", Facts.ThisVar, methodName, varName);
  WRITE_RELATION("HeapType", Facts.HeapType, heapName, typeName);
  WRITE_RELATION("Lookup", Facts.Lookup, typeName, sigName, methodName);
  WRITE_RELATION("Subtype", Facts.Subtype, typeName, typeName);
  WRITE_RELATION("SLoad", Facts.SLoad, varName, fieldName, methodName);
  WRITE_RELATION("SStore", Facts.SStore, fieldName, varName);
  WRITE_RELATION("Throw", Facts.Throw, varName, methodName);
  WRITE_RELATION("SiteInMethod", Facts.SiteInMethod, siteName, methodName);
  WRITE_RELATION("Catch", Facts.Catch, siteName, typeName, varName);
#undef WRITE_RELATION

  // The single-column relations: call sites without a catch clause, and
  // the entry methods.
  auto WriteColumn = [&](const char *Name, const std::vector<uint32_t> &Rows,
                         ColumnNamer Namer) {
    std::string Path = Directory + "/" + Name + ".facts";
    return Emit(Name, writeColumn(Prog, Path, Rows, Namer), Path);
  };
  if (!WriteColumn("NoCatch", Facts.NoCatch, siteName) ||
      !WriteColumn("EntryMethod", Facts.EntryMethods, methodName))
    return {};
  return Written;
}
