//===- bench/fig6_type_sens.cpp - Paper Figure 6 --------------------------===//
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
      intro::bench::Flavor::Type, "Figure 6",
      "2typeH blows up on jython only; IntroB scales to all programs with\n"
      "precision close to full 2typeH; IntroA has near-perfect\n"
      "scalability with lower precision gains.",
      Args);
} catch (const std::exception &Error) {
  std::cerr << "internal error: " << Error.what() << "\n";
  return intro::ExitInternalError;
} catch (...) {
  std::cerr << "internal error: unknown exception\n";
  return intro::ExitInternalError;
}
