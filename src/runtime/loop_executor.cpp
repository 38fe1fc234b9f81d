#include "runtime/loop_executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "cellsim/mfc.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace cbe::rt {

void LoopExecutor::set_metrics(trace::MetricsRegistry* m) {
#if CBE_TRACE_ENABLED
  imbalance_hist_ =
      m != nullptr ? &m->histogram("loop_imbalance_pct") : nullptr;
#else
  (void)m;
#endif
}

void LoopBalancer::observe(double master_idle_us, double worker_wait_us,
                           double loop_span_us) noexcept {
  if (!adaptive_ || loop_span_us <= 0.0) return;
  // If the master sat idle waiting for workers, its share was too small;
  // if worker results waited on the master, its share was too big.  Step
  // proportional to the imbalance, capped for stability.
  const double imbalance = (master_idle_us - worker_wait_us) / loop_span_us;
  const double step = std::clamp(imbalance * 0.5, -0.10, 0.10);
  bias_ = std::clamp(bias_ * (1.0 + step), 0.5, 3.0);
}

/// Per-invocation state of one work-shared loop, pooled by the executor.
/// Lives until the last completion callback (or abandonment after a master
/// fail-stop) drops its reference.
struct LoopExecutor::Loop : RecordPool<Loop>::Node {
  struct Worker {
    int spe = -1;
    std::uint32_t iters = 0;
    /// Result not computed yet; cleared at chunk-compute completion, so a
    /// later worker death cannot reassign work whose Pass is in flight.
    bool pending = false;
    /// Fetch chain started: the worker releases itself even if the master
    /// dies.  Unstarted workers are freed by the master-death path.
    bool launched = false;
  };

  LoopBalancer* bal = nullptr;
  int master = -1;
  int degree = 1;
  std::uint16_t module_id = 0;
  double cycles_per_iter = 0.0;
  double bytes_in_per_iter = 0.0;
  double join_cycles_per_worker = 0.0;
  std::uint32_t master_iters = 0;
  std::vector<Worker> workers;  ///< in Pass-send order

  int remaining = 0;       ///< worker results not yet arrived or reassigned
  bool master_done = false;
  bool master_busy = false;  ///< master re-executing a reassigned chunk
  bool dead = false;         ///< master fail-stopped; loop abandoned
  bool faulted = false;      ///< any fault touched this loop (skip balancer)
  bool finished = false;
  std::uint32_t extra_iters = 0;  ///< iterations awaiting master re-execution

  sim::Time start;
  sim::Time master_end;
  sim::Time last_arrival;
  sim::SmallFn done;
};

LoopExecutor::LoopExecutor(cell::CellMachine& machine, LoopParams params)
    : machine_(&machine), params_(params) {}

LoopExecutor::~LoopExecutor() {
  if (observing_) machine_->remove_fault_observer(this);
}

/// After its own chunk, the master absorbs iterations reassigned from lost
/// workers, one batch per pass (more may accumulate while it computes).
void LoopExecutor::master_drain(const LoopRef& l) {
  if (l->dead || l->finished) return;
  if (!l->master_done || l->master_busy) return;
  if (l->extra_iters == 0) {
    finish_check(l);
    return;
  }
  const auto batch = static_cast<double>(l->extra_iters);
  l->extra_iters = 0;
  l->master_busy = true;
  machine_->spe_compute(l->master, l->cycles_per_iter * batch, [this, l] {
    l->master_busy = false;
    l->master_end = eng().now();
    master_drain(l);
  });
}

/// Drops a finished or dead loop from the fail-stop observer's list.
void LoopExecutor::retire(const Loop& l) {
  for (auto it = live_.begin(); it != live_.end(); ++it) {
    if (it->get() == &l) {
      live_.erase(it);
      return;
    }
  }
}

void LoopExecutor::finish_check(const LoopRef& l) {
  if (l->dead || l->finished) return;
  if (!l->master_done || l->master_busy || l->extra_iters != 0 ||
      l->remaining != 0) {
    return;
  }
  l->finished = true;
  retire(*l);
  const sim::Time now = eng().now();
#if CBE_TRACE_ENABLED
  {
    const std::int64_t m_idle_ns =
        l->last_arrival > l->master_end
            ? (l->last_arrival - l->master_end).nanoseconds()
            : 0;
    const std::int64_t w_wait_ns =
        l->master_end > l->last_arrival
            ? (l->master_end - l->last_arrival).nanoseconds()
            : 0;
    CBE_TRACE_EVENT(now.nanoseconds(), trace::EventKind::LoopJoin, l->master,
                    -1, m_idle_ns, w_wait_ns);
    if (imbalance_hist_ != nullptr) {
      const double span_us = (now - l->start).to_us();
      if (span_us > 0.0) {
        imbalance_hist_->observe(
            100.0 * (static_cast<double>(m_idle_ns + w_wait_ns) / 1000.0) /
            span_us);
      }
    }
  }
#endif
  if (!l->faulted) {
    // Feed the balancer only with clean invocations: a reassigned chunk or
    // retried transfer distorts the master/worker timing signal.
    const double master_idle =
        l->last_arrival > l->master_end
            ? (l->last_arrival - l->master_end).to_us()
            : 0.0;
    const double worker_wait =
        l->master_end > l->last_arrival
            ? (l->master_end - l->last_arrival).to_us()
            : 0.0;
    l->bal->observe(master_idle, worker_wait, (now - l->start).to_us());
  }
  // Sequential merge of (d-1) partial results on the master.
  const sim::Time join = sim::cycles_to_time(
      l->join_cycles_per_worker * static_cast<double>(l->degree - 1),
      machine_->params().clock_ghz);
  eng().schedule_after(join, [l] {
    sim::SmallFn done = std::move(l->done);
    done();
  });
}

/// Moves a lost worker's outstanding iterations to the master.  No-op when
/// the worker has no pending chunk (already computed, or not ours).
void LoopExecutor::reassign(Loop& l, int spe) {
  for (Loop::Worker& w : l.workers) {
    if (w.spe != spe || !w.pending) continue;
    w.pending = false;
    if (l.dead) return;  // abandoned loop: the driver watchdog re-runs it
    l.faulted = true;
    l.extra_iters += w.iters;
    --l.remaining;
    ++reassigned_chunks_;
    CBE_TRACE_EVENT(eng().now().nanoseconds(),
                    trace::EventKind::ChunkReassign, spe, l.master,
                    static_cast<std::int64_t>(w.iters), 0);
    master_drain(LoopRef(&l));
    return;
  }
}

/// Worker data fetch through the checked DMA path, retried on transient
/// failure; on retry exhaustion the chunk is reassigned to the master and
/// the worker freed.
void LoopExecutor::worker_fetch(const LoopRef& l, std::uint32_t k,
                                int attempt) {
  const Loop::Worker& w = l->workers[k];
  const double bytes = l->bytes_in_per_iter * static_cast<double>(w.iters);
  const int chunks = cell::MfcRules::list_entries(
      static_cast<std::size_t>(bytes), machine_->params());
  machine_->dma_checked(w.spe, bytes, chunks, [this, l, k,
                                               attempt](bool ok) {
    const int spe = l->workers[k].spe;
    if (!ok) {
      l->faulted = true;
      if (attempt < params_.max_dma_retries) {
        ++dma_retries_;
        worker_fetch(l, k, attempt + 1);
        return;
      }
      // The completion only fires on a usable SPE, so the worker is alive
      // but its input transfer is lost for good: free it and let the master
      // re-execute the chunk.
      machine_->release(spe);
      reassign(*l, spe);
      if (l->dead) dead_release();
      return;
    }
    const double cycles =
        l->cycles_per_iter * static_cast<double>(l->workers[k].iters);
    machine_->spe_compute(spe, cycles, [this, l, k] {
      const int spe = l->workers[k].spe;
      l->workers[k].pending = false;
      machine_->release(spe);
      if (l->dead) dead_release();
      eng().schedule_after(machine_->pass_latency(spe, l->master),
                           [this, l] {
                             if (l->dead || l->finished) return;
                             l->last_arrival = eng().now();
                             --l->remaining;
                             finish_check(l);
                           });
    });
  });
}

/// Worker-side chain, entered when the Pass structure lands in its LS.
void LoopExecutor::launch_worker(const LoopRef& l, std::uint32_t k) {
  // A master fail-stop already freed this worker's reservation (see
  // on_spe_failure); the stale Pass delivery must not touch the SPE, which may
  // have been handed to another task by now.
  if (l->dead) return;
  l->workers[k].launched = true;
  machine_->ensure_module(l->workers[k].spe, l->module_id,
                          cell::ModuleVariant::Parallel,
                          [this, l, k] { worker_fetch(l, k, 0); });
}

/// Master-side chain after the fork: serialized Pass sends (each occupying
/// the master for send_per_worker_us), then its own chunk, then the join
/// (in finish_check).  Send completions are at deterministic offsets, so
/// they are scheduled directly instead of chained.
void LoopExecutor::start_sends(const LoopRef& l) {
  const double send_us = params_.send_per_worker_us;
  const auto n = static_cast<std::uint32_t>(l->workers.size());
  for (std::uint32_t k = 0; k < n; ++k) {
    const double depart_us = send_us * static_cast<double>(k + 1);
    eng().schedule_after(sim::Time::us(depart_us), [this, l, k] {
      eng().schedule_after(
          machine_->pass_latency(l->master, l->workers[k].spe),
          [this, l, k] { launch_worker(l, k); });
    });
  }
  const double busy_us = send_us * static_cast<double>(n);
  eng().schedule_after(sim::Time::us(busy_us), [this, l] {
    const double cycles =
        l->cycles_per_iter * static_cast<double>(l->master_iters);
    machine_->spe_compute(l->master, cycles, [this, l] {
      l->master_end = eng().now();
      l->master_done = true;
      master_drain(l);
    });
  });
}

/// A lost master kills the loop (the runtime driver's watchdog recovers the
/// whole task).  Visits the loops live when the fault struck, in start
/// order.
void LoopExecutor::on_spe_failure(int spe) {
  const std::vector<LoopRef> snapshot = live_;
  for (const LoopRef& l : snapshot) {
    if (l->finished || l->dead) continue;
    if (spe != l->master) {
      reassign(*l, spe);
      continue;
    }
    l->dead = true;
    retire(*l);
    // Free workers whose fetch chain never started (their Pass send was cut
    // off with the master), in SPE id order; started workers release
    // themselves.
    std::vector<int> unstarted;
    for (Loop::Worker& w : l->workers) {
      if (!w.pending || w.launched) continue;
      w.pending = false;
      unstarted.push_back(w.spe);
    }
    std::sort(unstarted.begin(), unstarted.end());
    for (const int w : unstarted) {
      if (machine_->spe(w).usable() && !machine_->spe(w).idle()) {
        machine_->release(w);
      }
    }
    // The abandoned loop's completion can never fire.
    l->done = nullptr;
    // The driver's failure observer ran before this one (it registered
    // first) and may have queued the re-dispatch while these workers were
    // still reserved; tell it capacity is back.
    dead_release();
  }
}

void LoopExecutor::run(int master, std::span<const int> workers,
                       const task::TaskDesc& task, LoopBalancer& balancer,
                       sim::SmallFn done) {
  sim::Engine& e = eng();
  const int d = static_cast<int>(workers.size()) + 1;
  if (workers.empty()) {
    throw std::logic_error("LoopExecutor::run: needs at least one worker");
  }
  const task::LoopDesc& loop = task.loop;
  if (loop.iterations < static_cast<std::uint32_t>(d)) {
    throw std::logic_error("LoopExecutor::run: degree exceeds iterations");
  }
  CBE_TRACE_EVENT(e.now().nanoseconds(), trace::EventKind::LoopFork, master,
                  -1, d, static_cast<std::int64_t>(loop.iterations));
  if (!observing_) {
    // After the runtime driver's observer, which registers before any loop.
    machine_->add_fault_observer(this);
    observing_ = true;
  }

  // Iteration split: master takes a (possibly biased) share, workers split
  // the remainder evenly with the first workers absorbing the remainder.
  const double frac = balancer.master_fraction(d);
  auto m_iters = static_cast<std::uint32_t>(
      std::lround(static_cast<double>(loop.iterations) * frac));
  m_iters = std::clamp<std::uint32_t>(
      m_iters, 1, loop.iterations - static_cast<std::uint32_t>(d - 1));
  const std::uint32_t rest = loop.iterations - m_iters;
  const auto nw = static_cast<std::uint32_t>(workers.size());

  LoopRef ref = pool_.acquire();
  Loop& l = *ref;
  l.bal = &balancer;
  l.master = master;
  l.degree = d;
  l.module_id = task.module_id;
  l.cycles_per_iter = loop.spe_cycles_per_iter;
  l.bytes_in_per_iter = loop.bytes_in_per_iter;
  l.join_cycles_per_worker =
      params_.join_per_worker_us * machine_->params().clock_ghz * 1e3 +
      loop.reduction_cycles_per_worker;
  l.master_iters = m_iters;
  l.workers.clear();
  for (std::uint32_t k = 0; k < nw; ++k) {
    l.workers.push_back(
        Loop::Worker{workers[k], rest / nw + (k < rest % nw ? 1u : 0u),
                     /*pending=*/true, /*launched=*/false});
  }
  l.remaining = static_cast<int>(nw);
  l.master_done = l.master_busy = l.dead = l.faulted = l.finished = false;
  l.extra_iters = 0;
  l.start = e.now();
  l.master_end = l.last_arrival = sim::Time();
  l.done = std::move(done);
  live_.push_back(ref);

  // Master-side chain: non-loop prologue, fork, then start_sends.
  machine_->spe_compute(master, task.spe_cycles_nonloop, [this, ref] {
    eng().schedule_after(sim::Time::us(params_.fork_us),
                         [this, ref] { start_sends(ref); });
  });
}

}  // namespace cbe::rt
