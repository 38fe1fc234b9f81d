// The assembled Cell blade: one or two Cells, each with a dual-context PPE
// and eight SPEs, connected by the EIB.  Exposes timed *mechanisms* (code
// loading, DMA, SPE compute, mailbox signals); schedulers compose them into
// policies.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "cellsim/mfc.hpp"
#include "cellsim/params.hpp"
#include "cellsim/ppe.hpp"
#include "cellsim/spe.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "task/task.hpp"

namespace cbe::cell {

/// Counters for injected faults observed by the machine model.
struct FaultStats {
  std::uint64_t spe_failures = 0;  ///< fail-stop events applied
  std::uint64_t stragglers = 0;    ///< derating events applied
  std::uint64_t dma_faults = 0;    ///< transient DMA failures injected
  std::uint64_t dma_corruptions = 0;  ///< silent payload bit-flips injected
  std::uint64_t quarantined = 0;   ///< SPEs removed by integrity quarantine
};

/// Notified of every SPE fail-stop (and quarantine), in registration order.
class FaultObserver {
 public:
  virtual void on_spe_failure(int spe) = 0;

 protected:
  ~FaultObserver() = default;
};

/// Timed mechanisms take the caller's completion as a template parameter and
/// capture it directly in the engine's inline callback storage, so an
/// offload chain runs without heap traffic (DESIGN.md §10, "Offload-path
/// callback ownership").  Oracle draws, trace events and DMA issue/retire
/// accounting stay out of line.  A completion scheduled on an SPE is
/// suppressed if that SPE fail-stops before it fires.
class CellMachine {
 public:
  CellMachine(sim::Engine& eng, CellParams params,
              const task::ModuleRegistry& modules);

  sim::Engine& engine() noexcept { return eng_; }
  const CellParams& params() const noexcept { return params_; }
  const task::ModuleRegistry& modules() const noexcept { return *modules_; }

  int num_spes() const noexcept { return static_cast<int>(spes_.size()); }
  int num_cells() const noexcept { return params_.num_cells; }
  /// Read-only: occupancy and health change only through reserve/release
  /// and the fault entry points, which keep the counters below exact.
  const Spe& spe(int i) const { return spes_.at(static_cast<std::size_t>(i)); }
  Ppe& ppe(int cell = 0) { return *ppes_.at(static_cast<std::size_t>(cell)); }

  // -- SPE occupancy ---------------------------------------------------------
  /// Allocates `spe` to a task or loop chunk (throws if already busy).
  void reserve(int spe);
  /// Returns `spe` to the pool (throws if not busy).
  void release(int spe);

  /// Idle usable SPE ids into `out` (cleared first): the preferred Cell's
  /// SPEs in id order, then the rest in id order.  Failed SPEs are never
  /// offered.
  void idle_spes(int preferred_cell, std::vector<int>& out) const;
  std::vector<int> idle_spes(int preferred_cell = 0) const {
    std::vector<int> out;
    idle_spes(preferred_cell, out);
    return out;
  }
  /// O(1) counters, maintained on reserve, release, fail-stop and
  /// quarantine.
  int count_idle_spes() const noexcept { return idle_usable_; }
  /// SPEs that have not fail-stopped (healthy or degraded).
  int healthy_spes() const noexcept { return healthy_; }
  int failed_spes() const noexcept { return num_spes() - healthy_; }
  /// Busy SPEs on `cell` (the DMA congestion of that Cell's memory).
  int busy_spes(int cell) const {
    return busy_in_cell_.at(static_cast<std::size_t>(cell));
  }

  // -- Fault injection -----------------------------------------------------
  /// Schedules the plan's events on the engine and enables its DMA oracle.
  /// The plan must outlive the machine's use of it.  Scheduled events keep
  /// the engine alive; call cancel_pending_faults() once the workload drains.
  void install_faults(const sim::FaultPlan& plan);
  /// Cancels fault events that have not fired yet (end of workload).
  void cancel_pending_faults() noexcept;
  /// Applies a fail-stop now: marks the SPE dead, clears its occupancy and
  /// notifies observers.  In-flight completion callbacks on this SPE are
  /// suppressed when they fire.
  void fail_spe(int spe);
  /// Applies straggler derating now.
  void degrade_spe(int spe, double factor);
  /// Integrity quarantine: permanently removes an SPE whose results keep
  /// failing end-to-end checks.  Mechanically a fail-stop (observers fire,
  /// `failed_spes` grows, MGPS adapts) but traced and counted separately so
  /// the health story is visible in profiles.
  void quarantine_spe(int spe, int strikes = 0, int threshold = 0);
  /// Observers fire, in registration order, on every SPE fail-stop (the
  /// runtime driver for wait-queue rescue, then the loop executor for chunk
  /// reassignment).  `obs` must stay registered no longer than it lives.
  void add_fault_observer(FaultObserver* obs);
  void remove_fault_observer(FaultObserver* obs) noexcept;
  const FaultStats& fault_stats() const noexcept { return fault_stats_; }

  /// Ensures the (module, variant) image is resident on `spe`; `done` fires
  /// immediately if already resident, else after the code DMA.  The paper's
  /// runtime pre-loads modules and swaps variants only when the MGPS policy
  /// flips between EDTLP and EDTLP-LLP (Section 5.4).
  template <typename F>
  void ensure_module(int spe, std::uint16_t module, ModuleVariant v,
                     F&& done) {
    std::size_t bytes = 0;
    if (!load_module(spe, module, v, bytes)) {
      done();
      return;
    }
    dma(spe, static_cast<double>(bytes),
        MfcRules::list_entries(bytes, params_), std::forward<F>(done));
  }

  /// Runs `cycles` of SPU compute on `spe`, then `done`.  A degraded SPE
  /// computes at a fraction of the nominal clock; a fail-stop during the
  /// burst suppresses the completion (the work is lost and the runtime's
  /// watchdog must recover it).
  template <typename F>
  void spe_compute(int spe, double cycles, F&& done) {
    on_spe(spe, compute_time(spe, cycles), std::forward<F>(done));
  }

  /// DMA between main memory and `spe`'s local store.  `chunks` models
  /// aggregation: an optimized transfer uses one DMA-list entry per 16 KB;
  /// naive code issues one small request per loop iteration.  Unchecked
  /// transfers (code loads, legacy callers) never consume oracle draws, so a
  /// caller mix cannot perturb the deterministic failure sequence.
  template <typename F>
  void dma(int spe, double bytes, int chunks, F&& done) {
    transfer(spe, bytes, chunks, /*ok=*/true,
             [cb = std::forward<F>(done)](bool) mutable { cb(); });
  }

  /// DMA whose completion `done(bool ok)` reports success: an installed
  /// fault plan may mark the transfer as transiently failed (`ok == false`),
  /// in which case the full transfer time was still spent and the caller
  /// decides whether to retry.  Without a plan this behaves like dma().
  template <typename F>
  void dma_checked(int spe, double bytes, int chunks, F&& done) {
    transfer(spe, bytes, chunks, draw_transient(spe, bytes),
             std::forward<F>(done));
  }

  /// dma_checked plus the silent-corruption channel: `done(bool ok, bool
  /// corrupt)` can report a "successful" transfer (`ok == true`) with a
  /// poisoned payload (`corrupt == true`).  The transient draw shares
  /// dma_checked's sequence so swapping callers between the two paths never
  /// perturbs the transient fault replay; corruption draws use their own
  /// independent stream.  Scripted BitFlip events force the next verified
  /// transfer on that SPE to corrupt regardless of rate.
  template <typename F>
  void dma_verified(int spe, double bytes, int chunks, F&& done) {
    bool ok = true;
    const bool corrupt = draw_verified(spe, bytes, ok);
    transfer(spe, bytes, chunks, ok,
             [corrupt, cb = std::forward<F>(done)](bool ok2) mutable {
               cb(ok2, corrupt);
             });
  }

  /// One-way PPE<->SPE mailbox signal delay (t_comm in the granularity
  /// test of Section 5.2).
  sim::Time signal_latency(int spe) const noexcept;
  /// SPE-to-SPE `Pass` structure delivery delay (Section 5.3.1).
  sim::Time pass_latency(int from, int to) const noexcept;
  /// Schedules `done` after the one-way signal latency.
  template <typename F>
  void signal(int spe, F&& done) {
    trace_signal(spe);
    on_spe(spe, signal_latency(spe), std::forward<F>(done));
  }

  /// Uncontended transfer time for `bytes` in `chunks` requests (used by the
  /// granularity test, which reasons about intrinsic task cost).
  sim::Time solo_dma_time(double bytes, int chunks) const noexcept;
  /// Uncontended load time of a module variant's code image.
  sim::Time code_load_time(std::uint16_t module, ModuleVariant v) const;

  /// Aggregate SPE utilization in [0,1] over the simulation so far.
  double mean_spe_utilization() const noexcept;
  int active_dmas() const noexcept { return active_dma_; }
  /// Total payload bytes moved by every DMA issued so far (code loads
  /// included); the trace invariant tests reconcile the event stream
  /// against this counter.
  double total_dma_bytes() const noexcept { return dma_bytes_; }

 private:
  /// An issued transfer: its congested duration and trace pairing id.
  struct DmaIssue {
    sim::Time t;
    std::int32_t id = 0;
  };

  /// Schedules `done` after `dt` unless `spe` fail-stops first.
  template <typename F>
  void on_spe(int spe, sim::Time dt, F&& done) {
    eng_.schedule_after(dt, [this, spe, cb = std::forward<F>(done)]() mutable {
      if (!spes_[static_cast<std::size_t>(spe)].usable()) return;
      cb();
    });
  }
  /// Issues a transfer whose completion `done(bool ok)` fires at retire;
  /// zero-byte transfers complete immediately with ok == true.
  template <typename F>
  void transfer(int spe, double bytes, int chunks, bool ok, F&& done) {
    if (bytes <= 0.0) {
      done(true);
      return;
    }
    const DmaIssue is = issue_dma(spe, bytes, chunks);
    eng_.schedule_after(
        is.t, [this, spe, id = is.id, ok,
               cb = std::forward<F>(done)]() mutable {
          if (!retire_dma(spe, id, ok)) return;
          cb(ok);
        });
  }

  sim::Time compute_time(int spe, double cycles) const;
  /// Marks the code image resident and returns true (with its size) when a
  /// code DMA is needed.
  bool load_module(int spe, std::uint16_t module, ModuleVariant v,
                   std::size_t& bytes);
  /// Transient-failure oracle draw for a checked transfer; false = failed.
  bool draw_transient(int spe, double bytes);
  /// Transient and corruption draws for a verified transfer; sets `ok` and
  /// returns whether the payload is silently corrupted.
  bool draw_verified(int spe, double bytes, bool& ok);
  DmaIssue issue_dma(int spe, double bytes, int chunks);
  /// Retire accounting; returns whether the SPE can still take the
  /// completion.
  bool retire_dma(int spe, std::int32_t id, bool ok);
  void trace_signal(int spe);
  /// Fail-stop bookkeeping shared by fail_spe and quarantine_spe.
  void stop_spe(int spe);
  void notify_fault_observers(int spe);

  sim::Engine& eng_;
  CellParams params_;
  const task::ModuleRegistry* modules_;
  Mfc mfc_;
  std::vector<Spe> spes_;
  std::vector<std::unique_ptr<Ppe>> ppes_;
  int active_dma_ = 0;
  int idle_usable_ = 0;             ///< idle and not failed
  int healthy_ = 0;                 ///< not failed
  std::vector<int> busy_in_cell_;   ///< reserved SPEs per Cell

  const sim::FaultPlan* fault_plan_ = nullptr;
  std::vector<sim::EventId> fault_events_;
  std::vector<int> forced_flips_;  ///< scripted BitFlip arms, per SPE
  std::uint64_t dma_seq_ = 0;
  std::uint64_t verified_seq_ = 0;  ///< corruption-oracle stream position
  std::uint64_t dma_id_ = 0;  ///< trace pairing id for issue/retire events
  double dma_bytes_ = 0.0;
  FaultStats fault_stats_;
  std::vector<FaultObserver*> fault_observers_;
};

}  // namespace cbe::cell
