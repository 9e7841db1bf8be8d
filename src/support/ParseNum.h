//===- support/ParseNum.h - Strict numeric CLI parsing ----------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checked decimal parsing for command-line flag values.  The std::stoul
/// family is the wrong tool for a CLI: on LP64 it happily parses values far
/// above uint32_t max (a later static_cast then truncates silently), it
/// accepts leading whitespace and signs, it stops at the first non-digit
/// instead of rejecting trailing garbage, and a fully non-numeric value
/// escapes as std::invalid_argument — which a tool's outer try/catch then
/// misreports as an internal error (exit 3) instead of bad input (exit 2).
///
/// These helpers accept exactly the strings a user would call a number —
/// nonempty, all ASCII digits (or a plain decimal for parseF64) — enforce a
/// [Min, Max] range, and on failure produce a diagnostic that names the
/// offending flag, so `--retries=x` reports "bad value for --retries"
/// rather than a stack unwind.  flagValue is the `--flag=value` matcher
/// the tools share.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_PARSENUM_H
#define SUPPORT_PARSENUM_H

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

namespace intro {

/// Matches \p Arg against `<Flag>=value`.  \returns true and sets \p Value
/// to the text after the `=` on a match; otherwise leaves \p Value alone.
inline bool flagValue(std::string_view Arg, std::string_view Flag,
                      std::string &Value) {
  if (Arg.size() <= Flag.size() || Arg.substr(0, Flag.size()) != Flag ||
      Arg[Flag.size()] != '=')
    return false;
  Value = Arg.substr(Flag.size() + 1);
  return true;
}

/// Parses \p Text as a decimal uint64 in [\p Min, \p Max] for flag
/// \p Flag (e.g. "--seed").  \returns true and sets \p Out on success;
/// otherwise \returns false and sets \p Error to a named-flag diagnostic.
inline bool parseU64(std::string_view Flag, std::string_view Text,
                     uint64_t Min, uint64_t Max, uint64_t &Out,
                     std::string &Error) {
  auto fail = [&](const char *Why) {
    Error = "bad value for " + std::string(Flag) + ": '" + std::string(Text) +
            "' (" + Why + ")";
    return false;
  };
  if (Text.empty())
    return fail("expected a decimal integer");
  uint64_t Value = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return fail("expected a decimal integer");
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (Value > (std::numeric_limits<uint64_t>::max() - Digit) / 10)
      return fail("value does not fit in 64 bits");
    Value = Value * 10 + Digit;
  }
  if (Value < Min || Value > Max) {
    Error = "bad value for " + std::string(Flag) + ": '" + std::string(Text) +
            "' (expected an integer in [" + std::to_string(Min) + ", " +
            std::to_string(Max) + "])";
    return false;
  }
  Out = Value;
  return true;
}

/// uint32_t variant of parseU64: same validation, range additionally
/// bounded by the uint32_t representable range.
inline bool parseU32(std::string_view Flag, std::string_view Text,
                     uint32_t Min, uint32_t Max, uint32_t &Out,
                     std::string &Error) {
  uint64_t Wide = 0;
  if (!parseU64(Flag, Text, Min, Max, Wide, Error))
    return false;
  Out = static_cast<uint32_t>(Wide);
  return true;
}

/// Parses \p Text as a finite decimal double in [\p Min, \p Max].  Rejects
/// empty strings, leading whitespace/signs, trailing garbage, hex floats,
/// and inf/nan spellings — flag values are plain decimals like "1.5".
inline bool parseF64(std::string_view Flag, std::string_view Text, double Min,
                     double Max, double &Out, std::string &Error) {
  auto fail = [&](const char *Why) {
    Error = "bad value for " + std::string(Flag) + ": '" + std::string(Text) +
            "' (" + Why + ")";
    return false;
  };
  if (Text.empty())
    return fail("expected a decimal number");
  for (char C : Text)
    if ((C < '0' || C > '9') && C != '.')
      return fail("expected a decimal number");
  std::string Owned(Text);
  errno = 0;
  char *End = nullptr;
  double Value = std::strtod(Owned.c_str(), &End);
  if (End != Owned.c_str() + Owned.size() || errno == ERANGE ||
      !std::isfinite(Value))
    return fail("expected a decimal number");
  if (Value < Min || Value > Max) {
    Error = "bad value for " + std::string(Flag) + ": '" + std::string(Text) +
            "' (expected a number in [" + std::to_string(Min) + ", " +
            std::to_string(Max) + "])";
    return false;
  }
  Out = Value;
  return true;
}

} // namespace intro

#endif // SUPPORT_PARSENUM_H
