#include "cellsim/machine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "trace/trace.hpp"

namespace cbe::cell {

CellMachine::CellMachine(sim::Engine& eng, CellParams params,
                         const task::ModuleRegistry& modules)
    : eng_(eng), params_(params), modules_(&modules), mfc_(params) {
  for (int i = 0; i < params_.total_spes(); ++i) {
    spes_.emplace_back(i, params_.cell_of_spe(i), params_.local_store_bytes);
  }
  idle_usable_ = healthy_ = num_spes();
  busy_in_cell_.assign(static_cast<std::size_t>(params_.num_cells), 0);
  Ppe::Config pc;
  pc.contexts = params_.contexts_per_ppe;
  pc.clock_ghz = params_.clock_ghz;
  pc.smt_slowdown = params_.smt_slowdown;
  pc.ctx_switch = params_.ctx_switch;
  pc.resume_penalty = params_.resume_penalty;
  for (int c = 0; c < params_.num_cells; ++c) {
    ppes_.push_back(std::make_unique<Ppe>(eng_, pc));
  }
}

void CellMachine::reserve(int spe_id) {
  Spe& s = spes_.at(static_cast<std::size_t>(spe_id));
  s.reserve(eng_.now());
  ++busy_in_cell_[static_cast<std::size_t>(s.cell())];
  if (s.usable()) --idle_usable_;
}

void CellMachine::release(int spe_id) {
  Spe& s = spes_.at(static_cast<std::size_t>(spe_id));
  s.release(eng_.now());
  --busy_in_cell_[static_cast<std::size_t>(s.cell())];
  if (s.usable()) ++idle_usable_;
}

void CellMachine::idle_spes(int preferred_cell, std::vector<int>& out) const {
  out.clear();
  if (idle_usable_ == 0) return;
  // Cells own contiguous id ranges, so "preferred Cell first, then the rest
  // in id order" is one range followed by the ranges around it.
  const int per = params_.spes_per_cell;
  const int lo = std::clamp(preferred_cell * per, 0, num_spes());
  const int hi = std::clamp(lo + per, lo, num_spes());
  const auto take = [this, &out](int from, int to) {
    for (int i = from; i < to; ++i) {
      const Spe& s = spes_[static_cast<std::size_t>(i)];
      if (s.idle() && s.usable()) out.push_back(i);
    }
  };
  take(lo, hi);
  take(0, lo);
  take(hi, num_spes());
}

void CellMachine::install_faults(const sim::FaultPlan& plan) {
  fault_plan_ = &plan;
  forced_flips_.assign(static_cast<std::size_t>(num_spes()), 0);
  for (const auto& ev : plan.events()) {
    if (ev.node < 0 || ev.node >= num_spes()) continue;
    const sim::Time at = ev.at < eng_.now() ? eng_.now() : ev.at;
    fault_events_.push_back(eng_.schedule_at(at, [this, ev] {
      switch (ev.kind) {
        case sim::FaultKind::FailStop:
          fail_spe(ev.node);
          break;
        case sim::FaultKind::Degrade:
          degrade_spe(ev.node, ev.factor);
          break;
        case sim::FaultKind::BitFlip:
          // Arms the node: its next verified transfer corrupts.
          ++forced_flips_[static_cast<std::size_t>(ev.node)];
          break;
      }
    }));
  }
}

void CellMachine::cancel_pending_faults() noexcept {
  for (const auto& id : fault_events_) eng_.cancel(id);
  fault_events_.clear();
}

void CellMachine::fail_spe(int spe_id) {
  const Spe& s = spe(spe_id);
  if (!s.usable()) return;
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::FaultFailStop,
                  spe_id, -1, 0, 0);
  stop_spe(spe_id);
  ++fault_stats_.spe_failures;
  notify_fault_observers(spe_id);
}

void CellMachine::degrade_spe(int spe_id, double factor) {
  Spe& s = spes_.at(static_cast<std::size_t>(spe_id));
  if (!s.usable()) return;
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::FaultDegrade,
                  spe_id, -1, std::llround(factor * 1e6), 0);
  s.degrade(factor);
  ++fault_stats_.stragglers;
}

void CellMachine::quarantine_spe(int spe_id, int strikes, int threshold) {
  const Spe& s = spe(spe_id);
  if (!s.usable()) return;
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::Quarantine,
                  spe_id, -1, strikes, threshold);
  stop_spe(spe_id);
  ++fault_stats_.quarantined;
  notify_fault_observers(spe_id);
}

void CellMachine::stop_spe(int spe_id) {
  Spe& s = spes_[static_cast<std::size_t>(spe_id)];
  if (s.idle()) {
    --idle_usable_;
  } else {
    --busy_in_cell_[static_cast<std::size_t>(s.cell())];
  }
  --healthy_;
  s.fail(eng_.now());
}

void CellMachine::add_fault_observer(FaultObserver* obs) {
  fault_observers_.push_back(obs);
}

void CellMachine::remove_fault_observer(FaultObserver* obs) noexcept {
  const auto it =
      std::find(fault_observers_.begin(), fault_observers_.end(), obs);
  if (it != fault_observers_.end()) fault_observers_.erase(it);
}

void CellMachine::notify_fault_observers(int spe_id) {
  // An observer may register or remove observers while being notified;
  // iterate over a snapshot.
  const std::vector<FaultObserver*> snapshot = fault_observers_;
  for (FaultObserver* obs : snapshot) obs->on_spe_failure(spe_id);
}

bool CellMachine::load_module(int spe_id, std::uint16_t module,
                              ModuleVariant v, std::size_t& bytes) {
  Spe& s = spes_.at(static_cast<std::size_t>(spe_id));
  if (s.has_module(module, v)) return false;
  const auto& mod = modules_->get(module);
  bytes = v == ModuleVariant::Parallel && mod.parallel_bytes > 0
              ? mod.parallel_bytes
              : mod.bytes;
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::CodeLoad,
                  spe_id, module, static_cast<std::int64_t>(bytes),
                  static_cast<std::int64_t>(v));
  s.set_module(module, v, bytes);
  return true;
}

sim::Time CellMachine::compute_time(int spe_id, double cycles) const {
  return sim::cycles_to_time(cycles / spe(spe_id).speed_factor(),
                             params_.clock_ghz);
}

bool CellMachine::draw_transient(int spe_id, double bytes) {
  // The oracle is consulted at issue time so replay is a pure function of
  // the deterministic transfer sequence number.
  if (bytes <= 0.0 || fault_plan_ == nullptr ||
      !fault_plan_->dma_fails(dma_seq_++)) {
    return true;
  }
  ++fault_stats_.dma_faults;
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::DmaFault,
                  spe_id, static_cast<std::int32_t>(dma_seq_ - 1),
                  std::llround(bytes), 0);
  return false;
}

bool CellMachine::draw_verified(int spe_id, double bytes, bool& ok) {
  ok = true;
  if (bytes <= 0.0 || fault_plan_ == nullptr) return false;
  // Same transient stream as dma_checked — see the header contract.
  ok = draw_transient(spe_id, bytes);
  bool corrupt = false;
  const std::uint64_t vix = verified_seq_++;
  const auto sid = static_cast<std::size_t>(spe_id);
  if (sid < forced_flips_.size() && forced_flips_[sid] > 0) {
    --forced_flips_[sid];
    corrupt = true;
  } else if (fault_plan_->dma_corrupts(vix)) {
    corrupt = true;
  }
  // A transport-reported failure is retried anyway; the silent channel
  // only matters on transfers that claim success.
  if (!corrupt || !ok) return false;
  ++fault_stats_.dma_corruptions;
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::DmaCorrupt,
                  spe_id, static_cast<std::int32_t>(vix), std::llround(bytes),
                  0);
  return true;
}

CellMachine::DmaIssue CellMachine::issue_dma(int spe_id, double bytes,
                                             int chunks) {
  ++active_dma_;
  dma_bytes_ += bytes;
  // Each Cell has its own XDR memory (512 MB per processor on the blade),
  // so DMA congestion is per-Cell: the busy SPEs of this SPE's Cell.
  const int congestion = std::max(busy_spes(spe(spe_id).cell()), 1);
  DmaIssue is;
  is.t = mfc_.transfer_time(bytes, chunks, congestion, /*cross_cell=*/false);
#if CBE_TRACE_ENABLED
  is.id = static_cast<std::int32_t>(dma_id_++);
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::DmaIssue,
                  spe_id, is.id, std::llround(bytes), chunks);
  if (congestion > 1 && trace::current() != nullptr) {
    // Contention stall: extra transfer time versus the uncontended path.
    const sim::Time solo = mfc_.transfer_time(bytes, chunks, 1,
                                              /*cross_cell=*/false);
    if (is.t > solo) {
      CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::EibStall,
                      spe_id, is.id, congestion, (is.t - solo).nanoseconds());
    }
  }
#endif
  return is;
}

bool CellMachine::retire_dma(int spe_id, std::int32_t id, bool ok) {
  --active_dma_;
  const bool usable = spe(spe_id).usable();
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::DmaRetire,
                  spe_id, id, ok ? 1 : 0, usable ? 1 : 0);
  (void)id;
  (void)ok;
  return usable;
}

sim::Time CellMachine::signal_latency(int spe_id) const noexcept {
  (void)spe_id;
  return params_.mailbox_latency;
}

sim::Time CellMachine::pass_latency(int from, int to) const noexcept {
  const bool cross = spe(from).cell() != spe(to).cell();
  return cross ? params_.pass_latency_local * params_.cross_cell_factor
               : params_.pass_latency_local;
}

void CellMachine::trace_signal(int spe_id) {
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::MailboxSignal,
                  spe_id, -1, signal_latency(spe_id).nanoseconds(), 0);
  (void)spe_id;
}

sim::Time CellMachine::solo_dma_time(double bytes,
                                     int chunks) const noexcept {
  return mfc_.transfer_time(bytes, chunks, 1, /*cross_cell=*/false);
}

sim::Time CellMachine::code_load_time(std::uint16_t module,
                                      ModuleVariant v) const {
  const auto& mod = modules_->get(module);
  const std::size_t bytes =
      v == ModuleVariant::Parallel && mod.parallel_bytes > 0
          ? mod.parallel_bytes
          : mod.bytes;
  return mfc_.transfer_time(static_cast<double>(bytes),
                            MfcRules::list_entries(bytes, params_), 1,
                            /*cross_cell=*/false);
}

double CellMachine::mean_spe_utilization() const noexcept {
  if (spes_.empty() || eng_.now().nanoseconds() == 0) return 0.0;
  double sum = 0.0;
  for (const auto& s : spes_) sum += s.utilization(eng_.now());
  return sum / static_cast<double>(spes_.size());
}

}  // namespace cbe::cell
