#include "jobsvc/service.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>

#include "ckpt/format.hpp"
#include "jobsvc/statusz.hpp"
#include "sim/engine.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/recorder.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace cbe::jobsvc {

namespace {

// Domain-separation salts off the fault seed: the step-failure oracle and
// the backoff jitter must be independent streams, and neither may collide
// with the blade fault plan's own draws.
constexpr std::uint64_t kStepFailSalt = 0x535445504641494cull;  // "STEPFAIL"
constexpr std::uint64_t kBackoffSalt = 0x4241434b4f4a4954ull;   // "BACKOJIT"
constexpr std::uint64_t kStepCorrSalt = 0x53544550434f5252ull;  // "STEPCORR"
constexpr std::uint64_t kStepVerSalt = 0x5354455056455249ull;   // "STEPVERI"

std::string fmt_f64(double v) {
  // %.17g round-trips every double, so text comparison is bit comparison.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const char* job_status_name(JobStatus s) noexcept {
  switch (s) {
    case JobStatus::Completed: return "completed";
    case JobStatus::Rejected: return "rejected";
    case JobStatus::Shed: return "shed";
    case JobStatus::DeadlineExceeded: return "deadline-exceeded";
    case JobStatus::Failed: return "failed";
    case JobStatus::Corrupt: return "corrupt";
  }
  return "unknown";
}

std::string ServiceReport::results_text() const {
  std::string out = "# cbe-jobsvc results v1\n";
  char line[192];
  for (const JobOutcome& o : jobs) {
    std::snprintf(line, sizeof line,
                  "job %" PRIu64 " tenant %u status %s digest %016" PRIx64
                  " value %s\n",
                  o.spec.id, o.spec.tenant, job_status_name(o.status),
                  o.result.digest, fmt_f64(o.result.value).c_str());
    out += line;
  }
  return out;
}

std::string ServiceReport::to_text() const {
  std::string out = "# cbe-jobsvc summary v1\n";
  auto u64line = [&out](const char* k, std::uint64_t v) {
    out += std::string(k) + " " + std::to_string(v) + "\n";
  };
  auto f64line = [&out](const char* k, double v) {
    out += std::string(k) + " " + fmt_f64(v) + "\n";
  };
  u64line("submitted", submitted);
  u64line("completed", completed);
  u64line("rejected", rejected);
  u64line("shed", shed);
  u64line("deadline_exceeded", deadline_exceeded);
  u64line("failed", failed);
  u64line("retries", retries);
  u64line("migrations", migrations);
  u64line("snapshots", snapshots);
  u64line("snapshot_restores", snapshot_restores);
  u64line("watchdog_fires", watchdog_fires);
  u64line("blade_failures", blade_failures);
  u64line("blade_degrades", blade_degrades);
  u64line("breaker_opens", breaker_opens);
  u64line("corrupt_injected", corrupt_injected);
  u64line("corrupt_detected", corrupt_detected);
  u64line("corrupt_jobs", corrupt_jobs);
  u64line("verify_reexecs", verify_reexecs);
  u64line("quarantined_blades", quarantined_blades);
  u64line("engine_events", engine_events);
  u64line("engine_queue_peak", engine_queue_peak);
  u64line("engine_live_peak", engine_live_peak);
  f64line("makespan_s", makespan_s);
  f64line("throughput_jps", throughput_jps);
  f64line("p50_latency_s", p50_latency_s);
  f64line("p99_latency_s", p99_latency_s);
  f64line("p50_queue_wait_s", p50_queue_wait_s);
  f64line("p99_queue_wait_s", p99_queue_wait_s);
  return out;
}

namespace {

/// One run of the service: all mutable scheduling state lives here so
/// Service::run is reentrant and side-effect free between calls.
class ServiceRun {
 public:
  ServiceRun(const ServiceConfig& cfg, const std::vector<JobSpec>& jobs)
      : cfg_(cfg) {
    recs_.reserve(jobs.size());
    for (const JobSpec& spec : jobs) {
      Rec rec;
      rec.spec = spec;
      recs_.push_back(std::move(rec));
    }
    blades_.reserve(cfg_.fleet.blades.size());
    for (const platform::BladeSpec& spec : cfg_.fleet.blades) {
      Blade b;
      b.spec = spec;
      blades_.push_back(std::move(b));
    }
    if (blades_.empty()) {
      throw std::invalid_argument("jobsvc: the fleet needs at least 1 blade");
    }
  }

  ServiceReport run() {
    trace::ScopedTrace scoped(CBE_TRACE_ENABLED ? cfg_.trace : nullptr);
    for (std::size_t j = 0; j < recs_.size(); ++j) {
      eng_.schedule_at(sim::Time::sec(recs_[j].spec.submit_s),
                       [this, j] { on_submit(j); });
      if (recs_[j].spec.deadline_s > 0.0) {
        recs_[j].deadline_ev = eng_.schedule_at(
            sim::Time::sec(recs_[j].spec.submit_s + recs_[j].spec.deadline_s),
            [this, j] { on_deadline(j); });
      }
    }
    schedule_faults();
    if (cfg_.statusz.every_s > 0.0) {
      eng_.schedule_after(sim::Time::sec(cfg_.statusz.every_s),
                          [this] { on_statusz(); });
    }
    eng_.run();
    fail_starved();
    return make_report();
  }

 private:
  enum class RecState : std::uint8_t {
    Submitted, Queued, Running, Backoff, Terminal,
  };

  struct Rec {
    JobSpec spec;
    JobState live;
    /// CRC-framed image, rewritten in place; empty = none.
    std::vector<std::uint8_t> snapshot;
    RecState state = RecState::Submitted;
    JobStatus status = JobStatus::Failed;
    JobResult result;
    int attempts = 0;
    int failures = 0;
    int migrations = 0;
    int restores = 0;
    int blade = -1;
    int last_blade = -1;
    /// The live (resp. snapshotted) digest has been silently poisoned by an
    /// undetected step corruption.  Bookkeeping only — the service never
    /// reads these to decide anything (that would be cheating detection);
    /// they exist so snapshots and restores carry poison state faithfully.
    bool live_corrupted = false;
    bool snap_corrupted = false;
    sim::EventId step_ev, watchdog_ev, deadline_ev;
    double first_start_s = -1.0;
    double finish_s = -1.0;
    double queue_enter_s = 0.0;
  };

  enum class BreakerState : std::uint8_t { Closed, Open, HalfOpen };

  struct Blade {
    platform::BladeSpec spec;
    bool alive = true;
    double degrade = 1.0;  ///< clock fraction (Degrade faults)
    int running = 0;
    int consecutive_failures = 0;
    BreakerState breaker = BreakerState::Closed;
    sim::Time open_until;
    int corruption_strikes = 0;  ///< detected corruptions attributed here
    bool quarantined = false;    ///< permanently removed for corruption
    std::uint64_t dispatches = 0;
    std::vector<std::size_t> running_jobs;
  };

  // -- small helpers ---------------------------------------------------------

  std::int64_t now_ns() const { return eng_.now().nanoseconds(); }
  double now_s() const { return eng_.now().to_seconds(); }

  static int jid(const Rec& rec) { return static_cast<int>(rec.spec.id); }

  /// Causal span at `rec`'s current position: job → attempt generation →
  /// migration hop → step.  Installed (ScopedSpan) around each lifecycle
  /// handler so every event the handler emits is attributable to the exact
  /// (job, attempt, hop) that caused it — cell_profiler groups on this.
  std::uint64_t span_of(const Rec& rec) const {
    return trace::make_span(rec.spec.id,
                            static_cast<std::uint64_t>(rec.attempts),
                            static_cast<std::uint64_t>(rec.migrations),
                            static_cast<std::uint64_t>(rec.live.steps_done));
  }

  sim::Time step_time(const Blade& b, const JobSpec& spec) const {
    const double speed = b.spec.speed * b.degrade;
    const double s = speed > 0.0 ? spec.step_cost_s / speed : spec.step_cost_s;
    const sim::Time t = sim::Time::sec(s);
    return t > sim::Time() ? t : sim::Time::ns(1);
  }

  /// Expected remaining runtime of `rec` on `b` at its current degrade, the
  /// basis for the dispatch watchdog.
  sim::Time expected_remaining(const Blade& b, const Rec& rec) const {
    const int remaining = rec.spec.steps - rec.live.steps_done;
    sim::Time t = step_time(b, rec.spec) * static_cast<double>(remaining);
    if (cfg_.checkpoint_every > 0) {
      t += sim::Time::sec(cfg_.checkpoint_cost_s) *
           static_cast<double>(remaining / cfg_.checkpoint_every + 1);
    }
    return t + sim::Time::sec(cfg_.dispatch_cost_s);
  }

  bool step_fails(const Rec& rec) const {
    if (cfg_.step_fail_rate <= 0.0) return false;
    std::uint64_t seed = cfg_.fault.seed ^ (kStepFailSalt + rec.spec.id);
    const std::uint64_t salt =
        (static_cast<std::uint64_t>(rec.attempts) << 24) ^
        static_cast<std::uint64_t>(rec.live.steps_done);
    return sim::fault_hash01(util::splitmix64(seed), salt) <
           cfg_.step_fail_rate;
  }

  /// Silent-corruption oracle, keyed like step_fails but on its own salt so
  /// the two fault streams stay independent.
  bool step_corrupts(const Rec& rec) const {
    if (cfg_.step_corrupt_rate <= 0.0) return false;
    std::uint64_t seed = cfg_.fault.seed ^ (kStepCorrSalt + rec.spec.id);
    const std::uint64_t salt =
        (static_cast<std::uint64_t>(rec.attempts) << 24) ^
        static_cast<std::uint64_t>(rec.live.steps_done);
    return sim::fault_hash01(util::splitmix64(seed), salt) <
           cfg_.step_corrupt_rate;
  }

  /// Deterministic sample of steps that get a redundant verification
  /// execution.  Pure function of (seed, job, attempt, step), so a run's
  /// verify schedule replays bit-identically.
  bool step_verified(const Rec& rec) const {
    const std::uint64_t salt =
        (static_cast<std::uint64_t>(rec.attempts) << 24) ^
        static_cast<std::uint64_t>(rec.live.steps_done);
    std::uint64_t seed = cfg_.fault.seed ^ (kStepVerSalt + rec.spec.id);
    return sim::verify_sampled(util::splitmix64(seed), salt,
                               cfg_.verify_fraction);
  }

  /// Exponential backoff with deterministic per-(job, failure) jitter.
  double backoff_s(const Rec& rec) const {
    const RetryPolicy& p = cfg_.retry;
    double d = p.base_backoff_s;
    for (int i = 1; i < rec.failures && d < p.max_backoff_s; ++i) {
      d *= p.multiplier;
    }
    if (d > p.max_backoff_s) d = p.max_backoff_s;
    if (p.jitter > 0.0) {
      std::uint64_t seed = cfg_.fault.seed ^ (kBackoffSalt + rec.spec.id);
      const double u = sim::fault_hash01(
          util::splitmix64(seed), static_cast<std::uint64_t>(rec.failures));
      d *= 1.0 + p.jitter * (2.0 * u - 1.0);
    }
    return d > 0.0 ? d : 0.0;
  }

  /// The worker that was executing `rec` is gone (crash, straggler timeout,
  /// or blade loss): its live state is lost, so recovery re-materializes the
  /// job from the last snapshot — or a cold start when none exists yet.
  void recover_state(Rec& rec) {
    if (!rec.snapshot.empty()) {
      try {
        rec.live = restore_job(rec.spec, rec.snapshot);
        // The restore faithfully resurrects whatever the snapshot held —
        // including a silently poisoned digest, if one was snapshotted.
        rec.live_corrupted = rec.snap_corrupted;
        ++rec.restores;
        ++snapshot_restores_;
        return;
      } catch (const ckpt::CkptError&) {
        // A corrupt snapshot must never poison the result: fall through to
        // a cold start, which recomputes the same bits the long way.
        rec.snapshot.clear();
        rec.snap_corrupted = false;
      }
    }
    rec.live = make_initial_state(rec.spec, cfg_.seed);
    rec.live_corrupted = false;
  }

  // -- fault plan ------------------------------------------------------------

  void schedule_faults() {
    sim::FaultPlan plan;
    if (!cfg_.fault_script.empty()) {
      plan = sim::FaultPlan::from_script(cfg_.fault_script, cfg_.fault);
    } else if (cfg_.fault.blade_fail_rate > 0.0 ||
               cfg_.fault.straggler_rate > 0.0) {
      sim::FaultConfig fc = cfg_.fault;
      // The plan's generic fail-stop stream doubles as the blade-kill
      // stream here (nodes are blades at this layer).
      fc.spe_fail_rate = cfg_.fault.blade_fail_rate;
      if (!(fc.horizon > sim::Time())) fc.horizon = estimate_horizon();
      plan = sim::FaultPlan::from_config(fc, cfg_.fleet.size());
    } else {
      return;
    }
    for (const sim::FaultEvent& ev : plan.events()) {
      if (ev.node < 0 || ev.node >= cfg_.fleet.size()) continue;
      eng_.schedule_at(ev.at, [this, ev] { on_blade_fault(ev); });
    }
  }

  /// Fault-free completion estimate: total step demand over fleet capacity,
  /// padded so drawn fault times land inside the actual run.
  sim::Time estimate_horizon() const {
    double demand_s = 0.0;
    for (const Rec& rec : recs_) {
      demand_s += static_cast<double>(rec.spec.steps) * rec.spec.step_cost_s;
    }
    const double cap = cfg_.fleet.total_capacity();
    const double span = cap > 0.0 ? demand_s / cap : demand_s;
    return sim::Time::sec(span > 0.0 ? span * 1.2 : 1.0);
  }

  // -- admission -------------------------------------------------------------

  void on_submit(std::size_t j) {
    Rec& rec = recs_[j];
    trace::ScopedSpan span(span_of(rec));
    ++submitted_;
    CBE_TRACE_EVENT(now_ns(), trace::EventKind::JobSubmit, -1, jid(rec),
                    rec.spec.tenant, rec.spec.priority);
    const AdmissionPolicy& adm = cfg_.admission;
    if (adm.per_tenant_quota > 0 &&
        tenant_active_[rec.spec.tenant] >= adm.per_tenant_quota) {
      reject(j, RejectReason::QuotaExceeded);
      return;
    }
    if (adm.max_queue > 0 &&
        queued_ >= static_cast<std::size_t>(adm.max_queue)) {
      // Overload: shed the lowest-priority queued job only when the arrival
      // outranks it; otherwise the arrival is the lowest-value work.
      const std::size_t worst = worst_queued();
      if (!adm.shed_lowest || worst == kNone ||
          recs_[worst].spec.priority >= rec.spec.priority) {
        reject(j, RejectReason::QueueFull);
        return;
      }
      shed(worst, rec.spec.id);
    }
    admit(j);
  }

  void admit(std::size_t j) {
    Rec& rec = recs_[j];
    trace::ScopedSpan span(span_of(rec));
    ++tenant_active_[rec.spec.tenant];
    rec.live = make_initial_state(rec.spec, cfg_.seed);
    rec.state = RecState::Queued;
    rec.queue_enter_s = now_s();
    enqueue(j);
    CBE_TRACE_EVENT(now_ns(), trace::EventKind::JobAdmit, -1, jid(rec),
                    rec.spec.tenant, static_cast<std::int64_t>(queued_));
    try_dispatch();
  }

  void reject(std::size_t j, RejectReason why) {
    Rec& rec = recs_[j];
    trace::ScopedSpan span(span_of(rec));
    CBE_TRACE_EVENT(now_ns(), trace::EventKind::JobReject, -1, jid(rec),
                    rec.spec.tenant, static_cast<std::int64_t>(why));
    ++rejected_;
    finish(rec, JobStatus::Rejected, /*tenant_admitted=*/false);
  }

  void shed(std::size_t j, std::uint64_t displacing_id) {
    Rec& rec = recs_[j];
    trace::ScopedSpan span(span_of(rec));
    unqueue(j);
    CBE_TRACE_EVENT(now_ns(), trace::EventKind::JobShed, -1, jid(rec),
                    rec.spec.tenant,
                    static_cast<std::int64_t>(displacing_id));
    ++shed_;
    finish(rec, JobStatus::Shed, /*tenant_admitted=*/true);
  }

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // -- the dispatch queue: priority -> tenant -> job index -------------------
  // A job's index is its submission seq.  Empty buckets are deleted, and the
  // picks read only the ends of the index (DESIGN.md §8 "Dispatch").

  void enqueue(std::size_t j) {
    const JobSpec& spec = recs_[j].spec;
    queue_[spec.priority][spec.tenant].insert(j);
    ++queued_;
  }

  void unqueue(std::size_t j) {
    const JobSpec& spec = recs_[j].spec;
    const auto prio = queue_.find(spec.priority);
    const auto tenant = prio->second.find(spec.tenant);
    tenant->second.erase(j);
    if (tenant->second.empty()) prio->second.erase(tenant);
    if (prio->second.empty()) queue_.erase(prio);
    --queued_;
  }

  /// Next job to dispatch: highest priority first, then the tenant with the
  /// least work currently running (fairness), then submission order.
  /// O(tenants at that priority).  The queue must be non-empty.
  std::size_t best_queued() {
    std::size_t best = kNone;
    int best_running = 0;
    for (const auto& [tenant, jobs] : std::prev(queue_.end())->second) {
      const int running = tenant_running_[tenant];
      if (best == kNone || running < best_running ||
          (running == best_running && *jobs.begin() < best)) {
        best = *jobs.begin();
        best_running = running;
      }
    }
    return best;
  }

  /// Lowest-priority queued job; youngest breaks ties (it has the least
  /// sunk queueing investment).  kNone when the queue is empty.
  std::size_t worst_queued() const {
    if (queue_.empty()) return kNone;
    std::size_t worst = 0;
    for (const auto& [tenant, jobs] : queue_.begin()->second) {
      worst = std::max(worst, *jobs.rbegin());
    }
    return worst;
  }

  // -- dispatch --------------------------------------------------------------

  /// A blade may receive work when it is alive, has a free slot, and its
  /// breaker allows it.  An open breaker past its cooloff moves to half-open
  /// and admits exactly one probe job.
  bool eligible(Blade& b) {
    if (!b.alive || b.running >= b.spec.slots) return false;
    if (b.breaker == BreakerState::Open) {
      if (eng_.now() < b.open_until) return false;
      b.breaker = BreakerState::HalfOpen;
    }
    if (b.breaker == BreakerState::HalfOpen && b.running > 0) return false;
    return true;
  }

  void try_dispatch() {
    while (queued_ > 0) {
      // Fastest eligible blade; free slots, then index, break ties.
      int target = -1;
      for (int i = 0; i < static_cast<int>(blades_.size()); ++i) {
        Blade& b = blades_[static_cast<std::size_t>(i)];
        if (!eligible(b)) continue;
        if (target < 0) {
          target = i;
          continue;
        }
        const Blade& t = blades_[static_cast<std::size_t>(target)];
        const double bs = b.spec.speed * b.degrade;
        const double ts = t.spec.speed * t.degrade;
        if (bs > ts ||
            (bs == ts &&
             b.spec.slots - b.running > t.spec.slots - t.running)) {
          target = i;
        }
      }
      if (target < 0) return;
      const std::size_t j = best_queued();
      unqueue(j);
      dispatch(j, target);
    }
  }

  void dispatch(std::size_t j, int blade_idx) {
    Rec& rec = recs_[j];
    Blade& b = blades_[static_cast<std::size_t>(blade_idx)];
    rec.state = RecState::Running;
    rec.blade = blade_idx;
    rec.last_blade = blade_idx;
    ++rec.attempts;
    trace::ScopedSpan span(span_of(rec));
    if (rec.first_start_s < 0.0) {
      rec.first_start_s = now_s();
      queue_wait_samples_.push_back(rec.first_start_s - rec.spec.submit_s);
    }
    ++b.running;
    ++b.dispatches;
    b.running_jobs.push_back(j);
    ++tenant_running_[rec.spec.tenant];
    CBE_TRACE_EVENT(now_ns(), trace::EventKind::JobDispatch, blade_idx,
                    jid(rec), rec.attempts, rec.live.steps_done);
    if (cfg_.watchdog_factor > 0.0) {
      const sim::Time deadline =
          eng_.now() + expected_remaining(b, rec) * cfg_.watchdog_factor;
      rec.watchdog_ev =
          eng_.schedule_at(deadline, [this, j] { on_watchdog(j); });
    }
    rec.step_ev = eng_.schedule_after(
        sim::Time::sec(cfg_.dispatch_cost_s) + step_time(b, rec.spec),
        [this, j] { on_step(j); });
  }

  // -- execution -------------------------------------------------------------

  void on_step(std::size_t j) {
    Rec& rec = recs_[j];
    if (rec.state != RecState::Running) return;
    trace::ScopedSpan span(span_of(rec));
    // Crash-clock tick per executed step: --die-at-event N kills the service
    // mid-flight at a deterministic point (kill-and-dump testing).
    sim::crash_clock_tick();
    Blade& b = blades_[static_cast<std::size_t>(rec.blade)];
    if (step_fails(rec)) {
      fail_execution(j, FailReason::StepFault);
      return;
    }
    // Oracles drawn on the step about to execute (pre-increment index).
    const bool corrupted_now = step_corrupts(rec);
    const bool verified_now = step_verified(rec);
    run_step(rec.live);
    if (corrupted_now) {
      // The step "succeeded" but its contribution to the digest is wrong.
      rec.live.digest = sim::corrupt_bits(
          rec.live.digest, cfg_.fault.seed,
          rec.spec.id * 1000003ull +
              static_cast<std::uint64_t>(rec.live.steps_done));
      rec.live_corrupted = true;
      ++corrupt_injected_;
      CBE_TRACE_EVENT(now_ns(), trace::EventKind::ResultCorrupt, rec.blade,
                      jid(rec), 1, rec.live.steps_done);
    }
    sim::Time extra;
    if (verified_now) {
      // Redundant execution of the step just run: same input state, so it
      // exposes a corruption injected *now* (an earlier undetected poison is
      // part of the input and reproduces identically — verification has to
      // catch corruption at the step where it happens, or not at all).
      ++verify_reexecs_;
      extra += step_time(b, rec.spec);
      if (corrupted_now) {
        ++corrupt_detected_;
        CBE_TRACE_EVENT(now_ns(), trace::EventKind::ResultCorrupt, rec.blade,
                        jid(rec), 2, rec.live.steps_done);
        const int blade_idx = rec.blade;
        fail_execution(j, FailReason::Corruption);
        note_corruption(blade_idx);
        return;
      }
    }
    // Completion and snapshots happen strictly after verification: with
    // verify_fraction=1 a poisoned step can never reach a snapshot or a
    // Completed result.
    if (rec.live.steps_done == rec.spec.steps) {
      complete(j);
      return;
    }
    if (cfg_.checkpoint_every > 0 &&
        rec.live.steps_done % cfg_.checkpoint_every == 0) {
      snapshot_job(rec.spec, rec.live, rec.snapshot);
      rec.snap_corrupted = rec.live_corrupted;
      ++snapshots_;
      extra += sim::Time::sec(cfg_.checkpoint_cost_s);
      CBE_TRACE_EVENT(now_ns(), trace::EventKind::JobCheckpoint, rec.blade,
                      jid(rec), rec.live.steps_done,
                      static_cast<std::int64_t>(rec.snapshot.size()));
    }
    rec.step_ev = eng_.schedule_after(extra + step_time(b, rec.spec),
                                      [this, j] { on_step(j); });
  }

  void complete(std::size_t j) {
    Rec& rec = recs_[j];
    trace::ScopedSpan span(span_of(rec));
    Blade& b = blades_[static_cast<std::size_t>(rec.blade)];
    detach_from_blade(rec, b);
    b.consecutive_failures = 0;
    if (b.breaker == BreakerState::HalfOpen) {
      b.breaker = BreakerState::Closed;
      CBE_TRACE_EVENT(now_ns(), trace::EventKind::BreakerClose, rec.blade, -1,
                      0, 0);
    }
    rec.result = result_of(rec.live);
    ++completed_;
    const double latency = now_s() - rec.spec.submit_s;
    latency_samples_.push_back(latency);
    CBE_TRACE_EVENT(now_ns(), trace::EventKind::JobComplete, rec.blade,
                    jid(rec), rec.attempts,
                    static_cast<std::int64_t>(latency * 1e9));
    finish(rec, JobStatus::Completed, /*tenant_admitted=*/true);
    try_dispatch();
  }

  void on_watchdog(std::size_t j) {
    Rec& rec = recs_[j];
    if (rec.state != RecState::Running) return;
    ++watchdog_fires_;
    trace::ScopedSpan span(span_of(rec));
    CBE_TRACE_EVENT(now_ns(), trace::EventKind::WatchdogFire, rec.blade,
                    jid(rec), rec.attempts, 0);
    // A fired watchdog is exactly the moment an operator wants the event
    // tail: dump the flight recorder (budgeted, so churny runs can't spam).
    trace::dump_flight_recorder("watchdog-fire");
    fail_execution(j, FailReason::Watchdog);
  }

  void fail_execution(std::size_t j, FailReason why) {
    Rec& rec = recs_[j];
    trace::ScopedSpan span(span_of(rec));
    Blade& b = blades_[static_cast<std::size_t>(rec.blade)];
    const int blade_idx = rec.blade;
    detach_from_blade(rec, b);
    CBE_TRACE_EVENT(now_ns(), trace::EventKind::JobFail, blade_idx, jid(rec),
                    rec.attempts, static_cast<std::int64_t>(why));
    note_blade_failure(blade_idx, b);
    ++rec.failures;
    recover_state(rec);
    if (rec.failures >= cfg_.retry.max_failures) {
      if (why == FailReason::Corruption) {
        // Fail closed: the budget ran out on integrity failures, so the
        // service never confirmed a clean result and must not report one.
        ++corrupt_jobs_;
        finish(rec, JobStatus::Corrupt, /*tenant_admitted=*/true);
      } else {
        ++failed_;
        finish(rec, JobStatus::Failed, /*tenant_admitted=*/true);
      }
      try_dispatch();
      return;
    }
    const double delay = backoff_s(rec);
    ++retries_;
    CBE_TRACE_EVENT(now_ns(), trace::EventKind::JobRetry, -1, jid(rec),
                    rec.failures, static_cast<std::int64_t>(delay * 1e9));
    rec.state = RecState::Backoff;
    eng_.schedule_after(sim::Time::sec(delay), [this, j] { requeue(j); });
    try_dispatch();
  }

  void requeue(std::size_t j) {
    Rec& rec = recs_[j];
    if (rec.state != RecState::Backoff) return;
    rec.state = RecState::Queued;
    enqueue(j);
    try_dispatch();
  }

  /// Breaker bookkeeping for a failure attributed to `b`: a failed half-open
  /// probe re-opens immediately; a closed blade opens at the threshold.
  void note_blade_failure(int blade_idx, Blade& b) {
    ++b.consecutive_failures;
    const CircuitBreakerPolicy& p = cfg_.breaker;
    const bool reopen = b.breaker == BreakerState::HalfOpen;
    const bool open = p.failure_threshold > 0 &&
                      b.breaker == BreakerState::Closed &&
                      b.consecutive_failures >= p.failure_threshold;
    if (!reopen && !open) return;
    b.breaker = BreakerState::Open;
    b.open_until = eng_.now() + sim::Time::sec(p.cooloff_s);
    ++breaker_opens_;
    CBE_TRACE_EVENT(now_ns(), trace::EventKind::BreakerOpen, blade_idx, -1,
                    b.consecutive_failures,
                    static_cast<std::int64_t>(p.cooloff_s * 1e9));
    // Wake the queue when the cooloff elapses so the half-open probe runs
    // even if no other event lands after it.
    eng_.schedule_at(b.open_until, [this] { try_dispatch(); });
  }

  /// Strike bookkeeping for a *detected* corruption attributed to `blade`.
  /// At the threshold the blade is quarantined for good: unlike a breaker
  /// cooloff, corruption is evidence of bad hardware, so there is no
  /// half-open probe back.  In-flight jobs migrate off it (no retry
  /// penalty — the blade is suspect, not the jobs).
  void note_corruption(int blade_idx) {
    Blade& b = blades_[static_cast<std::size_t>(blade_idx)];
    ++b.corruption_strikes;
    if (cfg_.quarantine_threshold <= 0 || b.quarantined || !b.alive ||
        b.corruption_strikes < cfg_.quarantine_threshold) {
      return;
    }
    b.quarantined = true;
    b.alive = false;
    ++quarantined_blades_;
    CBE_TRACE_EVENT(now_ns(), trace::EventKind::Quarantine, blade_idx, -1,
                    b.corruption_strikes, cfg_.quarantine_threshold);
    trace::dump_flight_recorder("quarantine");
    migrate_all_off(blade_idx);
  }

  /// Requeues every job running on the lost blade `blade_idx` from its last
  /// snapshot: a migration, so the retry budget is untouched.
  void migrate_all_off(int blade_idx) {
    Blade& b = blades_[static_cast<std::size_t>(blade_idx)];
    std::vector<std::size_t> victims = std::move(b.running_jobs);
    b.running_jobs.clear();
    b.running = 0;
    for (std::size_t j : victims) {
      Rec& rec = recs_[j];
      eng_.cancel(rec.step_ev);
      eng_.cancel(rec.watchdog_ev);
      rec.step_ev = rec.watchdog_ev = sim::EventId{};
      --tenant_running_[rec.spec.tenant];
      rec.blade = -1;
      ++rec.migrations;
      ++migrations_;
      recover_state(rec);
      trace::ScopedSpan span(span_of(rec));
      CBE_TRACE_EVENT(now_ns(), trace::EventKind::JobMigrate, -1, jid(rec),
                      blade_idx, rec.live.steps_done);
      rec.state = RecState::Queued;
      enqueue(j);
    }
    try_dispatch();
  }

  // -- blade faults ----------------------------------------------------------

  void on_blade_fault(const sim::FaultEvent& ev) {
    Blade& b = blades_[static_cast<std::size_t>(ev.node)];
    if (!b.alive) return;
    if (ev.kind == sim::FaultKind::Degrade) {
      b.degrade = ev.factor;
      ++blade_degrades_;
      CBE_TRACE_EVENT(ev.at.nanoseconds(), trace::EventKind::BladeFail,
                      ev.node, -1, b.running, 0);
      return;
    }
    // Fail-stop: the blade and every worker on it are gone.  In-flight jobs
    // are re-materialized from their last snapshot and requeued — a
    // migration, not a job failure, so the retry budget is untouched.
    b.alive = false;
    ++blade_failures_;
    CBE_TRACE_EVENT(ev.at.nanoseconds(), trace::EventKind::BladeFail, ev.node,
                    -1, b.running, 1);
    migrate_all_off(ev.node);
  }

  // -- deadlines & teardown --------------------------------------------------

  void on_deadline(std::size_t j) {
    Rec& rec = recs_[j];
    if (rec.state == RecState::Terminal || rec.state == RecState::Submitted) {
      return;
    }
    if (rec.state == RecState::Running) {
      Blade& b = blades_[static_cast<std::size_t>(rec.blade)];
      detach_from_blade(rec, b);
    } else if (rec.state == RecState::Queued) {
      unqueue(j);
    }
    ++deadline_exceeded_;
    finish(rec, JobStatus::DeadlineExceeded, /*tenant_admitted=*/true);
    try_dispatch();
  }

  /// Unlinks a Running job from its blade and cancels its pending events.
  void detach_from_blade(Rec& rec, Blade& b) {
    eng_.cancel(rec.step_ev);
    eng_.cancel(rec.watchdog_ev);
    rec.step_ev = rec.watchdog_ev = sim::EventId{};
    b.running_jobs.erase(
        std::find(b.running_jobs.begin(), b.running_jobs.end(),
                  static_cast<std::size_t>(&rec - recs_.data())));
    --b.running;
    --tenant_running_[rec.spec.tenant];
    rec.blade = -1;
  }

  void finish(Rec& rec, JobStatus status, bool tenant_admitted) {
    if (tenant_admitted) --tenant_active_[rec.spec.tenant];
    eng_.cancel(rec.deadline_ev);
    rec.deadline_ev = sim::EventId{};
    rec.state = RecState::Terminal;
    rec.status = status;
    rec.finish_s = now_s();
  }

  /// Jobs still non-terminal after the engine drained had no blade left to
  /// run on; surface them as failures instead of dropping them silently.
  void fail_starved() {
    for (Rec& rec : recs_) {
      if (rec.state == RecState::Terminal ||
          rec.state == RecState::Submitted) {
        continue;
      }
      trace::ScopedSpan span(span_of(rec));
      CBE_TRACE_EVENT(now_ns(), trace::EventKind::JobFail, -1, jid(rec),
                      rec.attempts,
                      static_cast<std::int64_t>(FailReason::Starved));
      ++failed_;
      finish(rec, JobStatus::Failed, /*tenant_admitted=*/true);
    }
  }

  // -- live status plane (DESIGN.md §12) -------------------------------------

  StatusSnapshot build_snapshot() {
    StatusSnapshot snap;
    snap.t_ns = now_ns();
    snap.seq = statusz_seq_;
    snap.submitted = submitted_;
    snap.completed = completed_;
    snap.rejected = rejected_;
    snap.shed = shed_;
    snap.failed = failed_;
    snap.corrupt_jobs = corrupt_jobs_;
    snap.deadline_exceeded = deadline_exceeded_;
    snap.retries = retries_;
    snap.migrations = migrations_;
    snap.watchdog_fires = watchdog_fires_;
    snap.breaker_opens = breaker_opens_;
    snap.quarantined_blades = quarantined_blades_;
    snap.corrupt_detected = corrupt_detected_;
    snap.queue_depth = static_cast<int>(queued_);
    if (!latency_samples_.empty()) {
      snap.p50_latency_s = util::percentile(latency_samples_, 50);
      snap.p99_latency_s = util::percentile(latency_samples_, 99);
    }

    // Tenant rollup straight off the job records: O(jobs) per snapshot,
    // which keeps the hot path free of extra bookkeeping.
    std::map<std::uint32_t, TenantStatus> tenants;
    std::uint64_t with_deadline = 0, missed = 0;
    std::map<std::uint32_t, std::uint64_t> t_deadline, t_missed;
    for (const Rec& rec : recs_) {
      TenantStatus& t = tenants[rec.spec.tenant];
      t.tenant = rec.spec.tenant;
      switch (rec.state) {
        case RecState::Queued: ++t.queued; break;
        case RecState::Running: ++t.running; ++snap.running; break;
        case RecState::Backoff: ++t.backoff; break;
        case RecState::Submitted: break;
        case RecState::Terminal:
          switch (rec.status) {
            case JobStatus::Completed: ++t.completed; break;
            case JobStatus::Failed:
            case JobStatus::Corrupt: ++t.failed; break;
            case JobStatus::Rejected:
            case JobStatus::Shed: ++t.rejected; break;
            case JobStatus::DeadlineExceeded: ++t.deadline_missed; break;
          }
          if (rec.spec.deadline_s > 0.0) {
            ++with_deadline;
            ++t_deadline[rec.spec.tenant];
            if (rec.status == JobStatus::DeadlineExceeded) {
              ++missed;
              ++t_missed[rec.spec.tenant];
            }
          }
          break;
      }
    }
    snap.slo_miss_ratio =
        with_deadline > 0
            ? static_cast<double>(missed) / static_cast<double>(with_deadline)
            : 0.0;
    snap.tenants.reserve(tenants.size());
    for (auto& [id, t] : tenants) {
      const std::uint64_t d = t_deadline[id];
      t.slo_miss_ratio =
          d > 0 ? static_cast<double>(t_missed[id]) / static_cast<double>(d)
                : 0.0;
      snap.tenants.push_back(std::move(t));
    }

    snap.blades.reserve(blades_.size());
    for (std::size_t i = 0; i < blades_.size(); ++i) {
      const Blade& b = blades_[i];
      BladeStatus bs;
      bs.blade = static_cast<int>(i);
      bs.alive = b.alive;
      bs.quarantined = b.quarantined;
      bs.breaker = b.breaker == BreakerState::Closed
                       ? "closed"
                       : (b.breaker == BreakerState::Open ? "open"
                                                          : "half-open");
      bs.running = b.running;
      bs.slots = b.spec.slots;
      bs.degrade = b.degrade;
      bs.consecutive_failures = b.consecutive_failures;
      bs.corruption_strikes = b.corruption_strikes;
      bs.dispatches = b.dispatches;
      snap.blades.push_back(std::move(bs));
    }
    fill_recorder_status(snap);
    return snap;
  }

  void write_statusz(const StatusSnapshot& snap) {
    if (!cfg_.statusz.json_path.empty() &&
        !trace::write_file(cfg_.statusz.json_path, statusz_json(snap))) {
      CBE_LOG_C(Warn, "jobsvc", "statusz: cannot write %s",
                cfg_.statusz.json_path.c_str());
    }
    if (!cfg_.statusz.text_path.empty() &&
        !trace::write_file(cfg_.statusz.text_path, statusz_text(snap))) {
      CBE_LOG_C(Warn, "jobsvc", "statusz: cannot write %s",
                cfg_.statusz.text_path.c_str());
    }
  }

  void on_statusz() {
    write_statusz(build_snapshot());
    ++statusz_seq_;
    // Reschedule only while work remains, so the status clock never keeps
    // the engine alive past the last job.
    for (const Rec& rec : recs_) {
      if (rec.state != RecState::Terminal) {
        eng_.schedule_after(sim::Time::sec(cfg_.statusz.every_s),
                            [this] { on_statusz(); });
        return;
      }
    }
  }

  // -- reporting -------------------------------------------------------------

  ServiceReport make_report() {
    ServiceReport rep;
    rep.jobs.reserve(recs_.size());
    for (Rec& rec : recs_) {
      JobOutcome o;
      o.spec = rec.spec;
      o.status = rec.status;
      if (rec.status == JobStatus::Completed) o.result = rec.result;
      o.attempts = rec.attempts;
      o.failures = rec.failures;
      o.migrations = rec.migrations;
      o.snapshot_restores = rec.restores;
      o.last_blade = rec.last_blade;
      o.submit_s = rec.spec.submit_s;
      o.first_start_s = rec.first_start_s;
      o.finish_s = rec.finish_s;
      rep.jobs.push_back(std::move(o));
    }
    std::sort(rep.jobs.begin(), rep.jobs.end(),
              [](const JobOutcome& a, const JobOutcome& b) {
                return a.spec.id != b.spec.id ? a.spec.id < b.spec.id
                                              : a.submit_s < b.submit_s;
              });
    rep.makespan_s = eng_.now().to_seconds();
    rep.submitted = submitted_;
    rep.completed = completed_;
    rep.rejected = rejected_;
    rep.shed = shed_;
    rep.deadline_exceeded = deadline_exceeded_;
    rep.failed = failed_;
    rep.retries = retries_;
    rep.migrations = migrations_;
    rep.snapshots = snapshots_;
    rep.snapshot_restores = snapshot_restores_;
    rep.watchdog_fires = watchdog_fires_;
    rep.blade_failures = blade_failures_;
    rep.blade_degrades = blade_degrades_;
    rep.breaker_opens = breaker_opens_;
    rep.corrupt_injected = corrupt_injected_;
    rep.corrupt_detected = corrupt_detected_;
    rep.corrupt_jobs = corrupt_jobs_;
    rep.verify_reexecs = verify_reexecs_;
    rep.quarantined_blades = quarantined_blades_;
    rep.engine_events = eng_.events_processed();
    rep.engine_queue_peak = eng_.queue_peak();
    rep.engine_live_peak = eng_.live_peak();
    rep.throughput_jps = rep.makespan_s > 0.0
                             ? static_cast<double>(completed_) / rep.makespan_s
                             : 0.0;
    if (!latency_samples_.empty()) {
      rep.p50_latency_s = util::percentile(latency_samples_, 50);
      rep.p99_latency_s = util::percentile(latency_samples_, 99);
    }
    if (!queue_wait_samples_.empty()) {
      rep.p50_queue_wait_s = util::percentile(queue_wait_samples_, 50);
      rep.p99_queue_wait_s = util::percentile(queue_wait_samples_, 99);
    }
    {
      const StatusSnapshot snap = build_snapshot();
      rep.statusz_json = statusz_json(snap);
      rep.statusz_text = statusz_text(snap);
      rep.statusz_snapshots = statusz_seq_;
      write_statusz(snap);  // final snapshot supersedes the periodic file
    }
    export_metrics(rep);
    return rep;
  }

  void export_metrics(const ServiceReport& rep) {
    trace::MetricsRegistry* m = cfg_.metrics;
    if (m == nullptr) return;
    m->counter("jobsvc.submitted").add(rep.submitted);
    m->counter("jobsvc.completed").add(rep.completed);
    m->counter("jobsvc.rejected").add(rep.rejected);
    m->counter("jobsvc.shed").add(rep.shed);
    m->counter("jobsvc.deadline_exceeded").add(rep.deadline_exceeded);
    m->counter("jobsvc.failed").add(rep.failed);
    m->counter("jobsvc.retries").add(rep.retries);
    m->counter("jobsvc.migrations").add(rep.migrations);
    m->counter("jobsvc.snapshots").add(rep.snapshots);
    m->counter("jobsvc.snapshot_restores").add(rep.snapshot_restores);
    m->counter("jobsvc.watchdog_fires").add(rep.watchdog_fires);
    m->counter("jobsvc.blade_failures").add(rep.blade_failures);
    m->counter("jobsvc.breaker_opens").add(rep.breaker_opens);
    m->counter("jobsvc.integrity.injected").add(rep.corrupt_injected);
    m->counter("jobsvc.integrity.detected").add(rep.corrupt_detected);
    m->counter("jobsvc.integrity.reexec").add(rep.verify_reexecs);
    m->counter("jobsvc.integrity.corrupt_jobs").add(rep.corrupt_jobs);
    m->counter("jobsvc.integrity.quarantined").add(rep.quarantined_blades);
    m->gauge("jobsvc.engine_queue_peak")
        .set(static_cast<double>(rep.engine_queue_peak));
    m->gauge("jobsvc.engine_live_peak")
        .set(static_cast<double>(rep.engine_live_peak));
    m->gauge("jobsvc.makespan_s").set(rep.makespan_s);
    m->gauge("jobsvc.throughput_jps").set(rep.throughput_jps);
    m->gauge("jobsvc.p50_latency_s").set(rep.p50_latency_s);
    m->gauge("jobsvc.p99_latency_s").set(rep.p99_latency_s);
    trace::Histogram& lat = m->histogram("jobsvc.latency_s");
    for (double s : latency_samples_) lat.observe(s);
    trace::Histogram& qw = m->histogram("jobsvc.queue_wait_s");
    for (double s : queue_wait_samples_) qw.observe(s);
    for (std::size_t i = 0; i < blades_.size(); ++i) {
      m->counter("blade." + std::to_string(i) + ".dispatches")
          .add(blades_[i].dispatches);
    }
  }

  const ServiceConfig& cfg_;
  sim::Engine eng_;
  std::vector<Rec> recs_;
  std::vector<Blade> blades_;
  /// priority -> tenant -> queued job indices; see enqueue().
  std::map<int, std::map<std::uint32_t, std::set<std::size_t>>> queue_;
  std::size_t queued_ = 0;
  std::map<std::uint32_t, int> tenant_active_;   ///< admitted, non-terminal
  std::map<std::uint32_t, int> tenant_running_;  ///< currently on a blade
  std::vector<double> latency_samples_;
  std::vector<double> queue_wait_samples_;

  std::uint64_t submitted_ = 0, completed_ = 0, rejected_ = 0, shed_ = 0,
                deadline_exceeded_ = 0, failed_ = 0, retries_ = 0,
                migrations_ = 0, snapshots_ = 0, snapshot_restores_ = 0,
                watchdog_fires_ = 0, blade_failures_ = 0, blade_degrades_ = 0,
                breaker_opens_ = 0, corrupt_injected_ = 0,
                corrupt_detected_ = 0, corrupt_jobs_ = 0, verify_reexecs_ = 0,
                quarantined_blades_ = 0;
  std::uint64_t statusz_seq_ = 0;  ///< periodic snapshots written so far
};

}  // namespace

Service::Service(ServiceConfig cfg) : cfg_(std::move(cfg)) {}

ServiceReport Service::run(const std::vector<JobSpec>& jobs) {
  ServiceRun run(cfg_, jobs);
  return run.run();
}

}  // namespace cbe::jobsvc
