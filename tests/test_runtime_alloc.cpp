// Allocation gate for the simulated offload path.  This binary replaces the
// global operator new with a counting one and runs two fault-free rows of
// the runtime matrix: a TLP-bound EDTLP run and an LLP-heavy MGPS run.  The
// offload chain (mailbox signals, code loads, DMA, compute, loop
// work-sharing, PPE context grants) must run out of the engine's inline
// callback storage and pooled per-offload records, so heap traffic per
// offload stays a small constant for setup and container growth.  The event
// counts are checked against the golden rows, so a gate that passes by
// simulating less cannot pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>

#include "alloc_counter.hpp"
#include "runtime_matrix.hpp"

#ifndef CBE_GOLDEN_DIR
#define CBE_GOLDEN_DIR "tests/golden"
#endif

namespace cbe::rt {
namespace {

/// The `events=` field of the golden row named `label`, or 0.
std::uint64_t golden_events(const std::string& label) {
  std::ifstream in(std::string(CBE_GOLDEN_DIR) + "/runtime_matrix.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(label + " ", 0) != 0) continue;
    const auto at = line.find(" events=");
    if (at == std::string::npos) return 0;
    return std::strtoull(line.c_str() + at + 8, nullptr, 10);
  }
  return 0;
}

struct Measured {
  RunResult result;
  double allocs_per_offload = 0.0;
};

Measured measure(matrix::Policy p, int bootstraps) {
  const task::Workload wl = matrix::workload(bootstraps);
  const RunConfig cfg = matrix::config(bootstraps, false);
  auto policy = matrix::make_policy(p);
  const std::uint64_t before =
      alloc_counter::count.load(std::memory_order_relaxed);
  Measured m;
  m.result = run_workload(wl, *policy, cfg);
  const std::uint64_t allocs =
      alloc_counter::count.load(std::memory_order_relaxed) - before;
  m.allocs_per_offload = static_cast<double>(allocs) /
                         static_cast<double>(m.result.offloads);
  return m;
}

TEST(RuntimeAlloc, CounterSeesAllocations) {
  const std::uint64_t before = alloc_counter::count.load();
  auto* p = new int(7);
  EXPECT_EQ(alloc_counter::count.load() - before, 1u);
  delete p;
}

TEST(RuntimeAlloc, EdtlpTaskLevelOffloads) {
  const Measured m = measure(matrix::Policy::Edtlp, 16);
  ASSERT_GT(m.result.offloads, 0u);
  EXPECT_EQ(m.result.loop_splits, 0u);
  EXPECT_EQ(m.result.events,
            golden_events(matrix::label(matrix::Policy::Edtlp, 16, false)));
  EXPECT_LE(m.allocs_per_offload, 1.2)
      << m.result.offloads << " offloads, " << m.result.events << " events";
  RecordProperty("allocs_per_offload", std::to_string(m.allocs_per_offload));
}

TEST(RuntimeAlloc, MgpsLoopLevelOffloads) {
  const Measured m = measure(matrix::Policy::Mgps, 1);
  ASSERT_GT(m.result.offloads, 0u);
  EXPECT_GT(m.result.loop_splits, 0u);
  EXPECT_EQ(m.result.events,
            golden_events(matrix::label(matrix::Policy::Mgps, 1, false)));
  EXPECT_LE(m.allocs_per_offload, 6.0)
      << m.result.offloads << " offloads, " << m.result.events << " events";
  RecordProperty("allocs_per_offload", std::to_string(m.allocs_per_offload));
}

}  // namespace
}  // namespace cbe::rt
