// The runtime equivalence matrix: every scheduling policy over a ladder of
// bootstrap counts, fault-free and under a fault + integrity mix, plus one
// dual-Cell blade row and one run_cluster row.  Each row renders every
// simulated quantity a RunResult carries, so host-side rewrites of the
// offload path (callback ownership, occupancy bookkeeping, pooling) can be
// shown to leave the simulation bit-identical.  Shared by
// test_runtime_matrix (the golden fixture) and test_runtime_alloc (which
// checks its event counts against the same rows).
#pragma once

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/mgps.hpp"
#include "runtime/policy.hpp"
#include "runtime/sim_runtime.hpp"
#include "task/synthetic.hpp"
#include "util/crc32.hpp"

namespace cbe::rt::matrix {

enum class Policy { Linux, Edtlp, Llp2, Llp4, Mgps };
inline constexpr Policy kPolicies[] = {Policy::Linux, Policy::Edtlp,
                                       Policy::Llp2, Policy::Llp4,
                                       Policy::Mgps};
inline constexpr int kCounts[] = {1, 2, 8, 16, 128};

inline const char* policy_name(Policy p) {
  switch (p) {
    case Policy::Linux: return "Linux";
    case Policy::Edtlp: return "EDTLP";
    case Policy::Llp2: return "LLP2";
    case Policy::Llp4: return "LLP4";
    case Policy::Mgps: return "MGPS";
  }
  return "?";
}

inline std::unique_ptr<SchedulerPolicy> make_policy(Policy p) {
  switch (p) {
    case Policy::Linux: return std::make_unique<LinuxPolicy>();
    case Policy::Edtlp: return std::make_unique<EdtlpPolicy>();
    case Policy::Llp2: return std::make_unique<StaticHybridPolicy>(2);
    case Policy::Llp4: return std::make_unique<StaticHybridPolicy>(4);
    case Policy::Mgps: return std::make_unique<MgpsPolicy>();
  }
  return nullptr;
}

inline task::Workload workload(int bootstraps) {
  task::SyntheticConfig scfg;
  scfg.tasks_per_bootstrap = 40;
  return task::make_synthetic(bootstraps, scfg);
}

/// `faulty` turns on fail-stops, stragglers, transient DMA failures and
/// both silent-corruption channels with detection: CRC framing on even
/// bootstrap counts, sampled re-execution and quarantine everywhere.
inline RunConfig config(int bootstraps, bool faulty) {
  RunConfig cfg;
  if (!faulty) return cfg;
  cfg.fault.seed = 1000 + static_cast<std::uint64_t>(bootstraps);
  cfg.fault.spe_fail_rate = 0.3;
  cfg.fault.straggler_rate = 0.3;
  cfg.fault.dma_fail_rate = 0.01;
  cfg.fault.dma_bitflip_rate = 0.005;
  cfg.fault.result_corrupt_rate = 0.005;
  cfg.integrity.crc_framing = bootstraps % 2 == 0;
  cfg.integrity.verify_fraction = 0.5;
  cfg.integrity.quarantine_threshold = 3;
  return cfg;
}

inline std::uint32_t crc_of(const void* data, std::size_t bytes) {
  return util::crc32(data, bytes);
}

/// One row: the label, then every RunResult field (doubles at %.17g), then
/// CRCs of the per-bootstrap digest and completion-time vectors.
inline std::string render(const std::string& label, const RunResult& r) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "%s offloads=%" PRIu64 " events=%" PRIu64
      " makespan=%.17g util=%.17g degree=%.17g ppe_fallbacks=%" PRIu64
      " loop_splits=%" PRIu64 " ctx_switches=%" PRIu64 " code_loads=%" PRIu64
      " dma_bytes=%.17g spe_failures=%" PRIu64 " stragglers=%" PRIu64
      " dma_faults=%" PRIu64 " dma_retries=%" PRIu64 " timeouts=%" PRIu64
      " reoffloads=%" PRIu64 " reassignments=%" PRIu64
      " fault_fallbacks=%" PRIu64 " wasted=%.17g recovered=%" PRIu64
      " injected=%" PRIu64 " detected=%" PRIu64 " silent=%" PRIu64
      " reexecs=%" PRIu64 " integrity_retries=%" PRIu64
      " quarantined=%" PRIu64 " digests_crc=%08" PRIx32
      " completion_crc=%08" PRIx32 "\n",
      label.c_str(), r.offloads, r.events, r.makespan_s,
      r.mean_spe_utilization, r.mean_loop_degree, r.ppe_fallbacks,
      r.loop_splits, r.ctx_switches, r.code_loads, r.dma_bytes,
      r.spe_failures, r.stragglers, r.dma_faults, r.dma_retries, r.timeouts,
      r.reoffloads, r.loop_reassignments, r.fault_ppe_fallbacks,
      r.wasted_cycles, r.recovered_bootstraps, r.corrupt_injected,
      r.corrupt_detected, r.corrupt_silent, r.verify_reexecs,
      r.integrity_retries, r.quarantined_spes,
      crc_of(r.bootstrap_digests.data(),
             r.bootstrap_digests.size() * sizeof(std::uint32_t)),
      crc_of(r.bootstrap_completion_s.data(),
             r.bootstrap_completion_s.size() * sizeof(double)));
  return buf;
}

inline std::string label(Policy p, int bootstraps, bool faulty) {
  return std::string(policy_name(p)) + " boots=" +
         std::to_string(bootstraps) + (faulty ? " faults" : " clean");
}

/// Runs one single-Cell row.
inline RunResult run_row(Policy p, int bootstraps, bool faulty) {
  const task::Workload wl = workload(bootstraps);
  auto policy = make_policy(p);
  return run_workload(wl, *policy, config(bootstraps, faulty));
}

/// The whole matrix, one line per row, in a fixed order.
inline std::string render_all() {
  std::string out = "# cbe-runtime-matrix v1\n";
  for (const bool faulty : {false, true}) {
    for (const Policy p : kPolicies) {
      for (const int n : kCounts) {
        out += render(label(p, n, faulty), run_row(p, n, faulty));
      }
    }
  }
  {
    // Both Cells of a blade busy at once: per-Cell DMA congestion, per-Cell
    // occupancy and cross-Cell fault handling.
    RunConfig cfg = config(16, true);
    cfg.cell = cell::CellParams::blade();
    const task::Workload wl = workload(16);
    MgpsPolicy mgps;
    out += render("blade MGPS boots=16 faults",
                  run_workload(wl, mgps, cfg));
  }
  {
    // Three dual-Cell blades with blade fail-stops: the redistribution
    // phase re-runs stranded bootstraps on the survivors.
    RunConfig cfg = config(32, true);
    cfg.cell = cell::CellParams::blade();
    cfg.fault.blade_fail_rate = 0.5;
    const task::Workload wl = workload(32);
    out += render("cluster3 MGPS boots=32 faults",
                  run_cluster(
                      wl, [] { return std::make_unique<MgpsPolicy>(); }, 3,
                      cfg));
  }
  return out;
}

}  // namespace cbe::rt::matrix
