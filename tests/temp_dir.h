// Per-test scratch directories for tests that write files.
//
// ctest runs every test case as its own process, several at once under
// -j, and two checkouts may run their suites side by side.  A fixed path
// under the system temp directory would then be written and removed by
// concurrent cases; the process id and the running test's name keep each
// case in a directory of its own.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace bcn::testutil {

// <temp>/<prefix>_<pid>_<Suite>.<Test>.  Neither created nor removed here.
inline std::filesystem::path test_temp_dir(const std::string& prefix) {
  std::string name = prefix + "_" + std::to_string(::getpid());
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += std::string("_") + info->test_suite_name() + "." + info->name();
  }
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace bcn::testutil
