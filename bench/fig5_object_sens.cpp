//===- bench/fig5_object_sens.cpp - Paper Figure 5 ------------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "FigFlavor.h"

#include "support/ExitCodes.h"

#include <exception>
#include <iostream>

int main(int argc, char **argv) try {
  intro::bench::HarnessArgs Args;
  if (int Code = intro::bench::parseHarnessArgs(
          argc, argv, intro::bench::HarnessKind::Figure, Args);
      Code >= 0)
    return Code;
  return intro::bench::runFlavorFigure(
      intro::bench::Flavor::Object, "Figure 5",
      "2objH blows up on hsqldb and jython (and is the slow outlier on\n"
      "bloat); IntroA scales to all benchmarks with moderate precision\n"
      "gains over insens; IntroB scales to all but jython while keeping\n"
      "most of 2objH's precision.",
      Args);
} catch (const std::exception &Error) {
  std::cerr << "internal error: " << Error.what() << "\n";
  return intro::ExitInternalError;
} catch (...) {
  std::cerr << "internal error: unknown exception\n";
  return intro::ExitInternalError;
}
