// Runs the eroof_lint binary (EROOF_LINT_BIN) end to end for the binary
// tests: exit code plus captured stdout.
#pragma once

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace eroof::lint {

struct RunResult {
  int exit_code = -1;
  std::string out;
};

/// stdout is captured through a temp file named by the pid, the running test
/// and a per-process call count: ctest runs every test in its own process,
/// concurrently under -j, so a per-process count alone would collide.
inline RunResult run_lint(const std::string& args) {
  static int counter = 0;
  std::string out_path =
      ::testing::TempDir() + "eroof_lint_out_" + std::to_string(::getpid());
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info())
    out_path += std::string("_") + info->test_suite_name() + "." + info->name();
  out_path += "_" + std::to_string(counter++) + ".txt";
  const std::string cmd = std::string(EROOF_LINT_BIN) + " " + args + " > " +
                          out_path + " 2>/dev/null";
  const int status = std::system(cmd.c_str());
  RunResult r;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(out_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  r.out = ss.str();
  std::remove(out_path.c_str());
  return r;
}

}  // namespace eroof::lint
