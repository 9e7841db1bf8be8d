//===- bench/fig7_callsite_sens.cpp - Paper Figure 7 ----------------------===//
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
      intro::bench::Flavor::CallSite, "Figure 7",
      "base 2callH does not terminate on 4 of 6 benchmarks; IntroA\n"
      "terminates on all, IntroB on all but jython; where 2callH\n"
      "completes, IntroB matches its full precision on every metric.",
      Args);
} catch (const std::exception &Error) {
  std::cerr << "internal error: " << Error.what() << "\n";
  return intro::ExitInternalError;
} catch (...) {
  std::cerr << "internal error: unknown exception\n";
  return intro::ExitInternalError;
}
