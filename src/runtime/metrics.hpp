// Result records produced by the simulated runtime, consumed by tests and
// by the table/figure benches.
#pragma once

#include <cstdint>
#include <vector>

namespace cbe::rt {

struct RunResult {
  double makespan_s = 0.0;            ///< total simulated execution time
  double mean_spe_utilization = 0.0;  ///< average over SPEs, [0,1]
  std::uint64_t offloads = 0;         ///< tasks dispatched to SPEs
  std::uint64_t ppe_fallbacks = 0;    ///< tasks run on the PPE (granularity)
  std::uint64_t loop_splits = 0;      ///< offloads that used LLP (degree > 1)
  double mean_loop_degree = 1.0;      ///< average SPEs per offloaded task
  std::uint64_t ctx_switches = 0;     ///< PPE context switches
  std::uint64_t code_loads = 0;       ///< SPE code DMAs (incl. variant swaps)
  std::uint64_t events = 0;           ///< simulator events processed
  double dma_bytes = 0.0;             ///< total DMA payload bytes moved

  // Fault-injection and recovery counters (zero on fault-free runs).
  std::uint64_t spe_failures = 0;     ///< SPE fail-stop events applied
  std::uint64_t stragglers = 0;       ///< SPE derating events applied
  std::uint64_t dma_faults = 0;       ///< transient DMA failures injected
  std::uint64_t dma_retries = 0;      ///< DMA retries issued by the runtime
  std::uint64_t timeouts = 0;         ///< offload watchdog deadline hits
  std::uint64_t reoffloads = 0;       ///< recovery re-dispatches of a task
  std::uint64_t loop_reassignments = 0;  ///< LLP chunks absorbed by a master
  std::uint64_t fault_ppe_fallbacks = 0; ///< recovery-path PPE executions
  double wasted_cycles = 0.0;         ///< SPE cycles of abandoned attempts
  /// Bootstraps whose completion required a recovery action (re-offload,
  /// fault PPE fallback, or blade redistribution in run_cluster).
  std::uint64_t recovered_bootstraps = 0;

  // Data-integrity counters (DESIGN.md §11; zero when no corruption is
  // injected and no detection is enabled).
  std::uint64_t corrupt_injected = 0;  ///< silent corruptions injected
                                       ///< (DMA bit-flips + result flips)
  std::uint64_t corrupt_detected = 0;  ///< caught by CRC framing or re-exec
  std::uint64_t corrupt_silent = 0;    ///< committed into a final digest
                                       ///< undetected (zero iff fail-safe)
  std::uint64_t verify_reexecs = 0;    ///< sampled redundant executions run
  std::uint64_t integrity_retries = 0; ///< DMA retries caused by CRC checks
  std::uint64_t quarantined_spes = 0;  ///< SPEs removed for repeated corruption

  /// Completion time (seconds) of each bootstrap, in workload order.  A zero
  /// entry means the bootstrap did not complete (only possible when a blade
  /// run was truncated by run_cluster's fail-stop model before aggregation).
  std::vector<double> bootstrap_completion_s;

  /// End-to-end result digest of each bootstrap, in workload order: a CRC32
  /// chain over the (pure-function) result hash of every task the bootstrap
  /// committed, in program order.  Schedule-independent on a clean run, so
  /// equal digests across configurations mean equal results — the basis of
  /// the "never silently wrong" acceptance property.
  std::vector<std::uint32_t> bootstrap_digests;

  /// Aggregates runs made side by side (run_cluster's blades), in the given
  /// order: every counter adds, mean_spe_utilization is the mean over runs
  /// and mean_loop_degree is weighted by offloads.
  /// KNOWN DEFECT (ROADMAP item 3, "run_cluster's mean loop degree is
  /// biased"): the degree sum starts from the default 1.0 instead of 0.0,
  /// so the result is (1 + sum of degree * offloads) / offloads, and a merge
  /// of no runs reports 1.0.  tests/golden/runtime_matrix.txt pins the
  /// biased value; mend both together.
  /// makespan_s and the per-bootstrap vectors stay at their defaults: only
  /// the caller knows how the runs map onto time and onto the workload.
  static RunResult merge(const std::vector<RunResult>& runs) {
    RunResult t;
    for (const RunResult& r : runs) {
      t.offloads += r.offloads;
      t.ppe_fallbacks += r.ppe_fallbacks;
      t.loop_splits += r.loop_splits;
      t.ctx_switches += r.ctx_switches;
      t.code_loads += r.code_loads;
      t.events += r.events;
      t.mean_spe_utilization += r.mean_spe_utilization;
      t.mean_loop_degree +=
          r.mean_loop_degree * static_cast<double>(r.offloads);
      t.spe_failures += r.spe_failures;
      t.stragglers += r.stragglers;
      t.dma_faults += r.dma_faults;
      t.dma_retries += r.dma_retries;
      t.timeouts += r.timeouts;
      t.reoffloads += r.reoffloads;
      t.loop_reassignments += r.loop_reassignments;
      t.fault_ppe_fallbacks += r.fault_ppe_fallbacks;
      t.wasted_cycles += r.wasted_cycles;
      t.dma_bytes += r.dma_bytes;
      t.recovered_bootstraps += r.recovered_bootstraps;
      t.corrupt_injected += r.corrupt_injected;
      t.corrupt_detected += r.corrupt_detected;
      t.corrupt_silent += r.corrupt_silent;
      t.verify_reexecs += r.verify_reexecs;
      t.integrity_retries += r.integrity_retries;
      t.quarantined_spes += r.quarantined_spes;
    }
    if (!runs.empty()) {
      t.mean_spe_utilization /= static_cast<double>(runs.size());
    }
    if (t.offloads > 0) t.mean_loop_degree /= static_cast<double>(t.offloads);
    return t;
  }
};

}  // namespace cbe::rt
