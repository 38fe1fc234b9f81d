// Equivalence golden for the simulated offload path: the matrix of
// tests/runtime_matrix.hpp, pinned against tests/golden/runtime_matrix.txt.
// Any change to what the runtime, the machine model or the engine simulate
// shows up here as a changed row; a host-only optimisation must leave every
// row byte-identical.
//
// Regenerate (only after an intentional change to the simulated schedule):
//
//   CBE_REGEN_GOLDEN=1 build/tests/test_runtime_matrix
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "runtime_matrix.hpp"
#include "trace/export.hpp"

#ifndef CBE_GOLDEN_DIR
#define CBE_GOLDEN_DIR "tests/golden"
#endif

namespace cbe::rt {
namespace {

TEST(RuntimeMatrix, MatchesGolden) {
  const std::string path = std::string(CBE_GOLDEN_DIR) + "/runtime_matrix.txt";
  const std::string got = matrix::render_all();
  if (std::getenv("CBE_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(trace::write_file(path, got));
    GTEST_SKIP() << "regenerated " << path << "; commit it and re-run";
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing fixture " << path;
  std::ostringstream want;
  want << in.rdbuf();
  std::istringstream gs(got);
  std::istringstream ws(want.str());
  std::string gl, wl;
  for (int n = 1;; ++n) {
    const bool gok = static_cast<bool>(std::getline(gs, gl));
    const bool wok = static_cast<bool>(std::getline(ws, wl));
    if (!gok && !wok) break;
    ASSERT_EQ(gok, wok) << "row counts differ at line " << n;
    EXPECT_EQ(gl, wl) << "row " << n << " differs";
  }
}

// The rows must exercise what they claim to: faults, detection and
// recovery fire somewhere in the faulty half, LLP splits in the clean half.
TEST(RuntimeMatrix, RowsCoverTheRecoveryPaths) {
  std::uint64_t failures = 0, detected = 0, timeouts = 0, reassign = 0,
                retries = 0;
  for (const matrix::Policy p : matrix::kPolicies) {
    for (const int n : matrix::kCounts) {
      const RunResult r = matrix::run_row(p, n, true);
      failures += r.spe_failures;
      detected += r.corrupt_detected;
      timeouts += r.timeouts;
      reassign += r.loop_reassignments;
      retries += r.dma_retries;
    }
  }
  EXPECT_GT(failures, 0u);
  EXPECT_GT(detected, 0u);
  EXPECT_GT(timeouts, 0u);
  EXPECT_GT(reassign, 0u);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(matrix::run_row(matrix::Policy::Mgps, 1, false).loop_splits, 0u);
}

}  // namespace
}  // namespace cbe::rt
