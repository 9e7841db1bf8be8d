//===- support/Concat.h - Numbered-name concatenation -----------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Numbered names such as "v12".  Unlike `"v" + std::to_string(N)`, whose
/// in-place insert draws a false-positive GCC 12 -Wrestrict, these append.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_CONCAT_H
#define SUPPORT_CONCAT_H

#include <cstdint>
#include <string>
#include <string_view>

namespace intro {

/// \returns \p Prefix followed by the decimal digits of \p N.
inline std::string concat(std::string_view Prefix, uint64_t N) {
  std::string Out(Prefix);
  Out += std::to_string(N);
  return Out;
}

/// \returns \p Prefix, the digits of \p A, \p Mid, and the digits of \p B.
inline std::string concat(std::string_view Prefix, uint64_t A,
                          std::string_view Mid, uint64_t B) {
  std::string Out = concat(Prefix, A);
  Out += Mid;
  Out += std::to_string(B);
  return Out;
}

} // namespace intro

#endif // SUPPORT_CONCAT_H
