//===- ir/FactsIO.h - Doop-style facts-directory export ---------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Writes a program's input relations as a Doop-style facts directory: one
/// tab-separated `.facts` file per relation, using human-readable entity
/// names, so external Datalog engines (Souffle, LogicBlox) can consume the
/// same inputs this framework analyzes.  The in-process Datalog reference
/// builds its facts from the Program directly, so nothing reads them back.
///
//===----------------------------------------------------------------------===//

#ifndef IR_FACTSIO_H
#define IR_FACTSIO_H

#include <string>
#include <vector>

namespace intro {

class Program;

/// Writes one `<Relation>.facts` TSV file per input relation of \p Prog
/// into directory \p Directory (which must exist).
/// \returns the paths of the files written, or an empty vector with
/// \p Error set on I/O failure.
std::vector<std::string> writeFactsDirectory(const Program &Prog,
                                             const std::string &Directory,
                                             std::string &Error);

} // namespace intro

#endif // IR_FACTSIO_H
