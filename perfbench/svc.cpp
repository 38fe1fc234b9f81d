// The two job-service workloads.
//
// svc_backlog: thousands of jobs submitted at t=0 into an unbounded queue,
// fault-free, on a mixed-speed fleet with several tenants and priorities.
// The queue stays thousands deep, so dispatch cost dominates host time.
//
// svc_open: open-loop arrivals in virtual time at a fixed ladder of offered
// rates below and above capacity, with blade fail-stops, stragglers,
// transient step faults and verified steps at a low corruption rate.  Below
// capacity the queue stays short; retry, watchdog, breaker, checkpoint and
// integrity paths do the work.  The generator is a schedule of submission
// times in virtual time, so it cannot run late: its lateness is zero.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench.hpp"
#include "jobsvc/job.hpp"
#include "jobsvc/service.hpp"
#include "trace/metrics.hpp"

namespace perfbench {
namespace {

using namespace cbe;

struct Case {
  jobsvc::ServiceConfig cfg;
  jobsvc::JobMixConfig mix;
  std::size_t rung = 0;  ///< offered-rate index (open loop)
  std::vector<jobsvc::JobSpec> jobs;
};

/// A mixed fleet: placement and speed-aware dispatch matter.
platform::BladeFleetConfig fleet() {
  platform::BladeFleetConfig f;
  for (int i = 0; i < 4; ++i) {
    for (double speed : {1.0, 1.5, 0.75, 1.0}) f.blades.push_back({speed, 2});
  }
  return f;
}

/// Every virtual-time quantity a ServiceReport carries.
bool same_report(const jobsvc::ServiceReport& a,
                 const jobsvc::ServiceReport& b) {
  if (a.jobs.size() != b.jobs.size()) return false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const jobsvc::JobOutcome& x = a.jobs[i];
    const jobsvc::JobOutcome& y = b.jobs[i];
    if (x.status != y.status || !(x.result == y.result) ||
        x.attempts != y.attempts || x.finish_s != y.finish_s ||
        x.last_blade != y.last_blade) {
      return false;
    }
  }
  return a.makespan_s == b.makespan_s && a.completed == b.completed &&
         a.retries == b.retries && a.migrations == b.migrations &&
         a.snapshots == b.snapshots &&
         a.snapshot_restores == b.snapshot_restores &&
         a.watchdog_fires == b.watchdog_fires &&
         a.breaker_opens == b.breaker_opens &&
         a.verify_reexecs == b.verify_reexecs &&
         a.corrupt_detected == b.corrupt_detected &&
         a.engine_events == b.engine_events &&
         a.engine_queue_peak == b.engine_queue_peak &&
         a.engine_live_peak == b.engine_live_peak;
}

/// Submission-to-completion latency of every job; jobs that did not
/// complete count as misses (infinite latency).
std::vector<double> latencies(const jobsvc::ServiceReport& rep) {
  std::vector<double> v;
  v.reserve(rep.jobs.size());
  for (const jobsvc::JobOutcome& o : rep.jobs) {
    v.push_back(o.status == jobsvc::JobStatus::Completed
                    ? o.finish_s - o.spec.submit_s
                    : std::numeric_limits<double>::infinity());
  }
  return v;
}

std::uint64_t dispatches(const jobsvc::ServiceReport& rep) {
  std::uint64_t n = 0;
  for (const jobsvc::JobOutcome& o : rep.jobs) {
    n += static_cast<std::uint64_t>(o.attempts);
  }
  return n;
}

class Svc final : public Workload {
 public:
  Svc(const Options& o, bool open) : open_(open) {
    const bool tiny = o.size == Size::Tiny;
    jobsvc::ServiceConfig base;
    base.seed = derive_seed(o.seed, 2);
    base.fleet = fleet();
    base.admission.max_queue = 0;  // unbounded: no job is refused
    jobsvc::JobMixConfig mix;
    mix.seed = derive_seed(o.seed, 3);
    mix.tenants = 8;
    mix.priorities = 4;
    if (!open_) {
      mix.jobs = tiny ? 300 : 6144;
      cases_.push_back({base, mix, 0, {}});
      offered_.push_back(0.0);
      return;
    }
    base.fault.blade_fail_rate = 0.05;
    base.fault.straggler_rate = 0.0625;
    base.fault.straggler_factor = 0.2;  // slow enough to trip watchdogs
    base.step_fail_rate = 0.002;
    // About one attempt in ten fails (step faults, watchdogs, detected
    // corruption), so five failures per job would fail about one job in
    // 10^5; ten keeps every job completing.
    base.retry.max_failures = 10;
    // Every step verified: a corruption is always caught, so a completed
    // job's result must equal the standalone run.  Sampling fewer steps
    // lets corruption through by design.
    base.step_corrupt_rate = 0.00005;
    base.verify_fraction = 1.0;
    mix.jobs = tiny ? 200 : 500;
    const int replicas = tiny ? 1 : 24;
    // Nominal capacity: slot-speed over the mean job's virtual work (its
    // steps run twice under verification, plus snapshots and dispatch).
    const double mean_steps = 0.5 * (mix.min_steps + mix.max_steps);
    const double job_s =
        mean_steps * mix.step_cost_s * 2.0 +
        mean_steps / base.checkpoint_every * base.checkpoint_cost_s +
        base.dispatch_cost_s;
    double slot_speed = 0.0;
    for (const auto& b : base.fleet.blades) slot_speed += b.slots * b.speed;
    const double nominal = slot_speed / job_s;
    // Each rate runs several replicas with their own job mix and fault
    // draws (shared across rates), pooled: one fault draw must not decide
    // a rate's tail.
    for (std::size_t g = 0; g < std::size(kLoads); ++g) {
      offered_.push_back(kLoads[g] * nominal);
      for (int k = 0; k < replicas; ++k) {
        Case c{base, mix, g, {}};
        c.mix.seed = derive_seed(o.seed, 10 + 2 * k);
        c.cfg.fault.seed = derive_seed(o.seed, 11 + 2 * k);
        c.mix.arrival_span_s = mix.jobs / offered_[g];
        cases_.push_back(std::move(c));
      }
    }
  }

  void setup(SpanLog& spans) override {
    for (Case& c : cases_) {
      SpanLog::Scope s(spans, "jobsvc.make_job_mix");
      c.jobs = jobsvc::make_job_mix(c.mix);
    }
  }

  void run(bool traced, SpanLog& spans) override {
    std::vector<jobsvc::ServiceReport> reps(cases_.size());
    std::vector<double> host(cases_.size());
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      jobsvc::ServiceConfig cfg = cases_[i].cfg;
      trace::MetricsRegistry metrics;
      if (traced) cfg.metrics = &metrics;
      const Clock::time_point t0 = Clock::now();
      {
        SpanLog::Scope s(spans, "jobsvc.Service::run");
        jobsvc::Service svc(cfg);
        reps[i] = svc.run(cases_[i].jobs);
      }
      host[i] = seconds_since(t0);
      if (traced &&
          metrics.counter("jobsvc.completed").value() != reps[i].completed) {
        differ_ = true;
      }
    }
    if (ref_.empty()) {
      ref_ = std::move(reps);
    } else {
      for (std::size_t i = 0; i < cases_.size(); ++i) {
        if (!same_report(reps[i], ref_[i])) differ_ = true;
      }
    }
    auto& into = traced ? traced_host_ : host_;
    if (into.empty()) into.resize(cases_.size());
    for (std::size_t i = 0; i < cases_.size(); ++i) into[i].push_back(host[i]);
  }

  void check(Report& r) override {
    const char* w = open_ ? "svc_open" : "svc_backlog";
    r.attempted = 0;
    r.failed = 0;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const jobsvc::ServiceReport& rep = ref_[i];
      r.attempted += cases_[i].jobs.size();
      std::uint64_t wrong = 0;
      for (const jobsvc::JobOutcome& o : rep.jobs) {
        if (o.status != jobsvc::JobStatus::Completed) {
          ++r.failed;
          continue;
        }
        wrong += !(o.result ==
                   jobsvc::run_job_standalone(o.spec, cases_[i].cfg.seed));
      }
      std::vector<std::uint64_t> sent, seen;
      for (const auto& j : cases_[i].jobs) sent.push_back(j.id);
      for (const auto& o : rep.jobs) seen.push_back(o.spec.id);
      std::sort(sent.begin(), sent.end());
      std::sort(seen.begin(), seen.end());
      r.check(sent == seen,
              std::string(w) + ": the report lost or duplicated jobs");
      r.check(wrong == 0, std::string(w) + ": " + std::to_string(wrong) +
                              " completed results differ from "
                              "run_job_standalone");
      r.check(rep.engine_queue_peak <= 2 * rep.engine_live_peak + 64,
              std::string(w) + ": engine queue_peak > 2*live_peak + 64");
    }
    r.check(!differ_, std::string(w) +
                          ": virtual-time results differ between "
                          "repetitions or traced and untraced runs");
  }

  void report(Report& r, bool traced) override {
    std::uint64_t jobs = 0, events = 0, dispatched = 0, completed = 0;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      jobs += ref_[i].jobs.size();
      events += ref_[i].engine_events;
      dispatched += dispatches(ref_[i]);
      completed += ref_[i].completed;
    }
    const std::size_t ref_rung = open_ ? 1 : 0;
    const std::vector<double> lat = rung_latencies(ref_rung);
    const double tail_p = tail_percentile(lat.size());
    const std::string at =
        open_ ? "at " + std::to_string(std::lround(offered_[ref_rung])) +
                    " jobs/s offered"
              : std::string("backlog");
    if (!traced) {
      const double us_per_job = host_seconds(host_) * 1e6 / jobs;
      const auto reps = host_.front().size();
      r.e2e("host_ops_per_s", 1e6 / us_per_job, "1/s", reps,
            "jobs per host second in Service::run");
      r.e2e("p50_latency_s", percentile(lat, 50), "s", lat.size(),
            "virtual, " + at);
      r.e2e("tail_latency_s", percentile(lat, tail_p), "s", lat.size(),
            percentile_label(tail_p) + " virtual, " + at);
      const double cap = open_ ? capacity() : ref_[0].throughput_jps;
      r.e2e("capacity_per_s", cap, "1/s", offered_.size(),
            open_ ? "highest offered rate meeting the limit"
                  : "completed jobs per virtual second");
      r.name("svc_host_us_per_job", us_per_job, "us", reps);
      r.name("svc_p50_latency_s", percentile(lat, 50), "s", lat.size(), at);
      r.name("svc_p99_latency_s", percentile(lat, 99), "s", lat.size(), at);
      if (open_) {
        for (std::size_t g = 0; g < offered_.size(); ++g) {
          const Rung x = rung(g);
          char buf[200];
          std::snprintf(buf, sizeof buf,
                        "#   offered %7.2f jobs/s: p50 %.3f s, p99 %.3f s, "
                        "drain %.3f s%s",
                        offered_[g], x.p50_s, x.p99_s, x.drain_s,
                        x.meets ? "" : "  (misses the limit)");
          r.lines.push_back(buf);
        }
        r.name("svc_capacity_jps", cap, "1/s", offered_.size(),
               "p99 <= " + fmt(kLatencyLimitS) + " s, no growing backlog");
        r.name("svc_generator_lateness_s", 0.0, "s", 1,
               "arrivals are scheduled in virtual time");
      } else {
        r.name("svc_throughput_jps", ref_[0].throughput_jps, "1/s", 1);
      }
      return;
    }
    std::uint64_t retries = 0, migrations = 0, watchdog = 0, breaker = 0,
                  reexecs = 0, corrupt = 0, snaps = 0, restores = 0,
                  qpeak = 0, lpeak = 0;
    for (const jobsvc::ServiceReport& rep : ref_) {
      retries += rep.retries;
      migrations += rep.migrations;
      watchdog += rep.watchdog_fires;
      breaker += rep.breaker_opens;
      reexecs += rep.verify_reexecs;
      corrupt += rep.corrupt_detected;
      snaps += rep.snapshots;
      restores += rep.snapshot_restores;
      qpeak = std::max(qpeak, rep.engine_queue_peak);
      lpeak = std::max(lpeak, rep.engine_live_peak);
    }
    const double host = host_seconds(traced_host_);
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    r.layer("sim.events", d(events), "count");
    r.layer("sim.events_per_job", d(events) / d(jobs), "count");
    r.layer("sim.host_ns_per_event", host * 1e9 / d(events), "ns");
    r.layer("sim.queue_peak", d(qpeak), "count");
    r.layer("sim.live_peak", d(lpeak), "count");
    r.layer("jobsvc.dispatches", d(dispatched), "count");
    r.layer("jobsvc.host_us_per_dispatch", host * 1e6 / d(dispatched), "us");
    r.layer("jobsvc.p99_queue_wait_s", p99_queue_wait(ref_rung), "s");
    r.layer("jobsvc.retries", d(retries), "count");
    r.layer("jobsvc.migrations", d(migrations), "count");
    r.layer("jobsvc.watchdog_fires", d(watchdog), "count");
    r.layer("jobsvc.breaker_opens", d(breaker), "count");
    r.layer("jobsvc.verify_reexecs", d(reexecs), "count");
    r.layer("jobsvc.corrupt_detected", d(corrupt), "count");
    r.layer("jobsvc.useful_dispatch_ratio", d(completed) / d(dispatched),
            "ratio");
    r.layer("ckpt.snapshots", d(snaps), "count");
    r.layer("ckpt.restores", d(restores), "count");
    r.layer("trace.overhead_ratio", host / host_seconds(host_), "ratio");
  }

 private:
  /// Offered load as a share of nominal capacity; the reference rung for
  /// the latency metrics is the second, well below capacity.
  static constexpr double kLoads[] = {0.400, 0.500, 0.600, 0.700, 0.750,
                                      0.800, 0.825, 0.850, 0.875, 0.900,
                                      0.925, 0.950, 1.000, 1.100};
  static constexpr double kLatencyLimitS = 3.0;

  static std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
  }

  struct Rung {
    double p50_s = 0.0, p99_s = 0.0, drain_s = 0.0;
    bool meets = false;
  };

  /// Sum over cases of each case's fastest host time.
  static double host_seconds(const std::vector<std::vector<double>>& h) {
    double s = 0.0;
    for (const auto& c : h) s += fastest(c);
    return s;
  }

  /// Latencies of every replica of one offered rate, pooled.
  std::vector<double> rung_latencies(std::size_t g) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      if (cases_[i].rung != g) continue;
      const std::vector<double> l = latencies(ref_[i]);
      v.insert(v.end(), l.begin(), l.end());
    }
    return v;
  }

  /// p99 queue wait of one offered rate: the worst replica's.
  double p99_queue_wait(std::size_t g) const {
    double w = 0.0;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      if (cases_[i].rung == g) w = std::max(w, ref_[i].p99_queue_wait_s);
    }
    return w;
  }

  /// One offered rate: it meets the limit when its pooled p99 (misses
  /// counted) does and every replica's queue drains within the limit after
  /// its last arrival, i.e. the backlog did not grow.
  Rung rung(std::size_t g) const {
    const std::vector<double> lat = rung_latencies(g);
    Rung x;
    x.p50_s = percentile(lat, 50);
    x.p99_s = percentile(lat, 99);
    std::vector<double> drains;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      if (cases_[i].rung != g) continue;
      double last_submit = 0.0;
      for (const auto& j : cases_[i].jobs) {
        last_submit = std::max(last_submit, j.submit_s);
      }
      drains.push_back(ref_[i].makespan_s - last_submit);
    }
    x.drain_s = median(drains);
    x.meets = x.p99_s <= kLatencyLimitS && x.drain_s <= kLatencyLimitS;
    return x;
  }

  /// Highest offered rate on the ladder that meets the limit.
  double capacity() const {
    double best = 0.0;
    for (std::size_t g = 0; g < offered_.size(); ++g) {
      if (rung(g).meets) best = std::max(best, offered_[g]);
    }
    return best;
  }

  bool open_;
  std::vector<double> offered_;  ///< jobs/s per rung (open loop)
  std::vector<Case> cases_;
  std::vector<jobsvc::ServiceReport> ref_;
  /// Host seconds per case and repetition (untraced / traced passes).
  std::vector<std::vector<double>> host_, traced_host_;
  bool differ_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_svc_backlog(const Options& o) {
  return std::make_unique<Svc>(o, false);
}

std::unique_ptr<Workload> make_svc_open(const Options& o) {
  return std::make_unique<Svc>(o, true);
}

}  // namespace perfbench
