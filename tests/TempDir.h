//===- tests/TempDir.h - Self-removing scratch directory --------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A unique scratch directory under the system temp path, removed with its
/// contents on destruction.  Shared by the suites that need disk state
/// (cache directories, daemon sockets).
///
//===----------------------------------------------------------------------===//

#ifndef TESTS_TEMPDIR_H
#define TESTS_TEMPDIR_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace intro::testing {

/// A unique scratch directory, removed on destruction.
struct TempDir {
  TempDir() {
    std::string Template =
        (std::filesystem::temp_directory_path() / "intro-test-XXXXXX")
            .string();
    std::vector<char> Buffer(Template.begin(), Template.end());
    Buffer.push_back('\0');
    const char *Made = mkdtemp(Buffer.data());
    EXPECT_NE(Made, nullptr);
    Path = Made ? Made : Template;
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  std::string Path;
};

} // namespace intro::testing

#endif // TESTS_TEMPDIR_H
