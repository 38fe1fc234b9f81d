// Loop-level work-sharing across SPEs (Section 5.3).
//
// Reproduces the paper's master/worker protocol: the master SPE fills a
// `Pass` structure per worker and DMA-puts it into each worker's local store
// (serialized on the master), workers fetch their loop chunk's data, compute,
// and DMA the Pass (with their partial result) straight back to the master's
// local store — SPE-to-SPE, avoiding main memory.  The master computes its
// own chunk meanwhile, then merges partial results (the reduction) and
// commits to RAM.
//
// Load unbalancing (Section 5.3): the master is purposely given a slightly
// larger share because workers start late (they must receive the Pass and
// fetch data first).  A LoopBalancer tunes the master's share from observed
// idle times across invocations of the same kernel, as the paper describes.
//
// Fault tolerance: worker data fetches go through the machine's checked DMA
// and are retried a bounded number of times; a worker that fail-stops (or
// whose transfer is permanently lost) has its chunk reassigned to the master,
// which re-executes the iterations after its own share.  A master fail-stop
// kills the loop — the runtime driver's offload watchdog recovers the whole
// task.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cellsim/machine.hpp"
#include "runtime/record_pool.hpp"
#include "sim/callback.hpp"
#include "task/task.hpp"

namespace cbe::trace {
class Histogram;
class MetricsRegistry;
}  // namespace cbe::trace

namespace cbe::rt {

/// Feedback tuner for the master's iteration share.
class LoopBalancer {
 public:
  /// Master share multiplier: 1.0 = equal split.
  double bias() const noexcept { return bias_; }
  /// Fraction of iterations the master executes with `degree` SPEs total.
  double master_fraction(int degree) const noexcept {
    return bias_ / (bias_ + static_cast<double>(degree - 1));
  }
  /// Feed back one invocation's idle times (us): `master_idle` is how long
  /// the master waited for the slowest worker; `worker_wait` how long the
  /// slowest worker's result sat waiting for the master.
  void observe(double master_idle_us, double worker_wait_us,
               double loop_span_us) noexcept;

  void set_adaptive(bool on) noexcept { adaptive_ = on; }
  bool adaptive() const noexcept { return adaptive_; }

 private:
  double bias_ = 1.15;  ///< initial head-start compensation
  bool adaptive_ = true;
};

/// Cost knobs for the work-sharing protocol; calibration constants matching
/// Table 2 (see DESIGN.md).
struct LoopParams {
  double fork_us = 1.5;             ///< master loop entry + Pass preparation
  double send_per_worker_us = 0.8;  ///< serialized Pass put per worker
  double join_per_worker_us = 2.0;  ///< completion polling + merge per worker
  int max_dma_retries = 3;          ///< worker-fetch retries before reassign
};

class LoopExecutor final : private cell::FaultObserver {
 public:
  LoopExecutor(cell::CellMachine& machine, LoopParams params);
  ~LoopExecutor();
  LoopExecutor(const LoopExecutor&) = delete;
  LoopExecutor& operator=(const LoopExecutor&) = delete;

  /// Executes `task`'s loop across `master` plus `workers` (all already
  /// reserved by the caller).  Worker SPEs are released as their chunks
  /// complete; the master stays reserved.  `done` fires when the loop and
  /// the reduction are complete on the master (before result commit).
  /// If the master fail-stops mid-loop, `done` never fires and the caller's
  /// watchdog must recover.
  void run(int master, std::span<const int> workers,
           const task::TaskDesc& task, LoopBalancer& balancer,
           sim::SmallFn done);

  const LoopParams& params() const noexcept { return params_; }

  /// LLP chunks re-executed by a master after a worker was lost.
  std::uint64_t reassigned_chunks() const noexcept {
    return reassigned_chunks_;
  }
  /// Worker data-fetch retries after transient DMA failures.
  std::uint64_t dma_retries() const noexcept { return dma_retries_; }

  /// Fires whenever an *abandoned* loop (master fail-stopped) releases an
  /// SPE.  Such releases happen outside any driver callback, so without
  /// this hook the driver would never learn that capacity freed up and
  /// queued off-loads could strand.  Only dead-loop paths invoke it; clean
  /// runs are unaffected.
  void set_release_hook(sim::SmallFn hook) { release_hook_ = std::move(hook); }

  /// Streams each invocation's load imbalance (|master idle - worker wait|
  /// as a percentage of the loop span) into `m`'s "loop_imbalance_pct"
  /// histogram.  Pass nullptr to detach; a no-op with CBE_TRACE=OFF.
  void set_metrics(trace::MetricsRegistry* m);

 private:
  struct Loop;
  using LoopRef = RecordPool<Loop>::Ref;

  sim::Engine& eng() noexcept { return machine_->engine(); }
  void start_sends(const LoopRef& l);
  void launch_worker(const LoopRef& l, std::uint32_t k);
  void worker_fetch(const LoopRef& l, std::uint32_t k, int attempt);
  void reassign(Loop& l, int spe);
  void master_drain(const LoopRef& l);
  void finish_check(const LoopRef& l);
  void retire(const Loop& l);
  /// Fail-stop observer: a lost worker's chunk moves to the master; a lost
  /// master kills the loop.
  void on_spe_failure(int spe) override;
  void dead_release() {
    if (release_hook_) release_hook_();
  }

  cell::CellMachine* machine_;
  LoopParams params_;
  std::uint64_t reassigned_chunks_ = 0;
  std::uint64_t dma_retries_ = 0;
  sim::SmallFn release_hook_;
  trace::Histogram* imbalance_hist_ = nullptr;
  RecordPool<Loop> pool_;
  /// Loops that have neither finished nor died, in start order: the
  /// fail-stop observer visits them in that order.
  std::vector<LoopRef> live_;
  bool observing_ = false;  ///< registered on the first run()
};

}  // namespace cbe::rt
