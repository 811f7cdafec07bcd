// Private scratch directories for tests that write files.
//
// Under `ctest -j` every TEST runs as its own process, all sharing
// ::testing::TempDir(). Spill stores name their files slot_N.ckpt, so two
// tests spilling into the same directory overwrite (or bit-flip) each
// other's files. Each test that touches the disk takes its own directory.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace edgetrain::test {

/// ::testing::TempDir()/<name>, created if missing. @p name must be unique
/// across the whole test suite, not just within one binary.
inline std::string test_dir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace edgetrain::test
