// sim_sweep: the paper's own experiment, closed and serial.  Synthetic
// 42_SC task streams run under Linux, EDTLP, EDTLP-LLP(2/4) and MGPS over
// bootstrap counts 1..128 (run_workload), plus run_cluster points that
// spread 128 bootstraps over several dual-Cell blades.  Exercises task ->
// runtime -> cellsim -> sim engine; runs no jobsvc, phylo or native code.
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>

#include "analysis/analysis.hpp"
#include "bench.hpp"
#include "runtime/mgps.hpp"
#include "runtime/policy.hpp"
#include "runtime/sim_runtime.hpp"
#include "task/synthetic.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace perfbench {
namespace {

using namespace cbe;

enum class Policy { Linux, Edtlp, Llp2, Llp4, Mgps };
constexpr Policy kPolicies[] = {Policy::Linux, Policy::Edtlp, Policy::Llp2,
                                Policy::Llp4, Policy::Mgps};

std::unique_ptr<rt::SchedulerPolicy> make_policy(Policy p) {
  switch (p) {
    case Policy::Linux: return std::make_unique<rt::LinuxPolicy>();
    case Policy::Edtlp: return std::make_unique<rt::EdtlpPolicy>();
    case Policy::Llp2: return std::make_unique<rt::StaticHybridPolicy>(2);
    case Policy::Llp4: return std::make_unique<rt::StaticHybridPolicy>(4);
    case Policy::Mgps: return std::make_unique<rt::MgpsPolicy>();
  }
  return nullptr;
}

struct Point {
  std::size_t input = 0;  ///< index into the generated workloads
  Policy policy = Policy::Mgps;
  int blades = 0;         ///< 0: one Cell via run_workload; else run_cluster
  bool llp_regime = false;
};

/// Every simulated quantity a RunResult carries.  Host-only changes must
/// leave all of it bit-identical.
bool same_stats(const rt::RunResult& a, const rt::RunResult& b) {
  return a.makespan_s == b.makespan_s &&
         a.mean_spe_utilization == b.mean_spe_utilization &&
         a.offloads == b.offloads && a.ppe_fallbacks == b.ppe_fallbacks &&
         a.loop_splits == b.loop_splits &&
         a.mean_loop_degree == b.mean_loop_degree &&
         a.ctx_switches == b.ctx_switches && a.code_loads == b.code_loads &&
         a.events == b.events && a.dma_bytes == b.dma_bytes &&
         a.bootstrap_completion_s == b.bootstrap_completion_s &&
         a.bootstrap_digests == b.bootstrap_digests;
}

class SimSweep final : public Workload {
 public:
  explicit SimSweep(const Options& o) {
    const bool tiny = o.size == Size::Tiny;
    scfg_.seed = derive_seed(o.seed, 1);
    scfg_.tasks_per_bootstrap = tiny ? 40 : 200;
    counts_ = tiny ? std::vector<int>{1, 2, 8, 16}
                   : std::vector<int>{1, 2, 4, 6, 8, 16, 32, 64, 128};
    const std::vector<int> blades =
        tiny ? std::vector<int>{2} : std::vector<int>{2, 4, 8};
    single_.cell = cell::CellParams{};
    blade_.cell.num_cells = 2;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      for (Policy p : kPolicies) {
        points_.push_back(
            {i, p, 0, counts_[i] < single_.cell.total_spes()});
      }
    }
    const std::size_t largest = counts_.size() - 1;
    for (int b : blades) {
      for (Policy p : {Policy::Edtlp, Policy::Mgps}) {
        const int per_blade = (counts_[largest] + b - 1) / b;
        points_.push_back(
            {largest, p, b, per_blade < blade_.cell.total_spes()});
      }
    }
  }

  void setup(SpanLog& spans) override {
    inputs_.clear();
    make_synthetic_s_ = 0.0;
    for (int c : counts_) {
      SpanLog::Scope s(spans, "task.make_synthetic");
      const Clock::time_point t0 = Clock::now();
      inputs_.push_back(task::make_synthetic(c, scfg_));
      make_synthetic_s_ += seconds_since(t0);
    }
  }

  void run(bool traced, SpanLog& spans) override {
    std::vector<double> host(points_.size());
    std::vector<rt::RunResult> results(points_.size());
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const Point& pt = points_[i];
      rt::RunConfig cfg = pt.blades > 0 ? blade_ : single_;
      trace::TraceSink sink;
      trace::MetricsRegistry metrics;
      if (traced) {
        cfg.trace = &sink;
        cfg.metrics = &metrics;
      }
      const task::Workload& wl = inputs_[pt.input];
      const Clock::time_point t0 = Clock::now();
      if (pt.blades == 0) {
        SpanLog::Scope s(spans, "runtime.run_workload");
        auto policy = make_policy(pt.policy);
        results[i] = rt::run_workload(wl, *policy, cfg);
      } else {
        SpanLog::Scope s(spans, "runtime.run_cluster");
        const Policy p = pt.policy;
        results[i] = rt::run_cluster(
            wl, [p] { return make_policy(p); }, pt.blades, cfg);
      }
      host[i] = seconds_since(t0);
      if (traced) observe_trace(i, results[i], sink, metrics, spans);
    }
    if (ref_.empty()) {
      ref_ = results;
    } else {
      for (std::size_t i = 0; i < points_.size(); ++i) {
        if (!same_stats(results[i], ref_[i])) stats_differ_ = true;
      }
    }
    auto& into = traced ? traced_host_ : untraced_host_;
    if (into.empty()) into.resize(points_.size());
    for (std::size_t i = 0; i < points_.size(); ++i) into[i].push_back(host[i]);
  }

  void check(Report& r) override {
    r.attempted = 0;
    r.failed = 0;
    // Digests are schedule-independent and the generator is prefix-stable,
    // so on one Cell bootstrap k has one digest across every policy and
    // count; the reference is the largest single-Cell EDTLP run.  A blade of
    // run_cluster digests its round-robin shard as a workload of its own
    // (results are keyed by position within the run), so each cluster point
    // must match single-Cell runs of exactly its blades' inputs.
    std::vector<std::uint32_t> golden;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (points_[i].blades == 0 && points_[i].policy == Policy::Edtlp &&
          points_[i].input == counts_.size() - 1) {
        golden = ref_[i].bootstrap_digests;
      }
    }
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const rt::RunResult& res = ref_[i];
      const int n = counts_[points_[i].input];
      r.attempted += static_cast<std::uint64_t>(n);
      std::uint64_t incomplete = 0;
      for (double t : res.bootstrap_completion_s) incomplete += t <= 0.0;
      incomplete += static_cast<std::uint64_t>(n) -
                    std::min<std::uint64_t>(n, res.bootstrap_completion_s.size());
      r.failed += incomplete;
      r.check(incomplete == 0, "sim_sweep: a bootstrap did not complete");
      const std::vector<std::uint32_t> expect =
          points_[i].blades == 0
              ? std::vector<std::uint32_t>(golden.begin(), golden.begin() + n)
              : per_blade_digests(points_[i]);
      r.check(res.bootstrap_digests == expect,
              "sim_sweep: bootstrap digests of " + describe(i) +
                  " differ from single-Cell runs of the same inputs");
    }
    r.check(!stats_differ_,
            "sim_sweep: simulated stats differ between repetitions or "
            "between traced and untraced runs");
    r.check(attribution_ok_,
            "sim_sweep: makespan attribution does not sum to the makespan");
    if (!traced_once_) verify_traced_sample(r);
  }

  void report(Report& r, bool traced) override {
    double makespan_mgps = 0.0, boots_mgps = 0.0;
    std::vector<double> latencies;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (points_[i].policy != Policy::Mgps) continue;
      makespan_mgps += ref_[i].makespan_s;
      boots_mgps += counts_[points_[i].input];
      latencies.insert(latencies.end(), ref_[i].bootstrap_completion_s.begin(),
                       ref_[i].bootstrap_completion_s.end());
    }
    const double tail_p = tail_percentile(latencies.size());
    if (!traced) {
      double host = 0.0;
      for (const auto& h : untraced_host_) host += fastest(h);
      const double tps = static_cast<double>(input_tasks()) / host;
      const auto reps = untraced_host_.front().size();
      r.e2e("host_ops_per_s", tps, "1/s", reps, "offloadable tasks");
      r.e2e("p50_latency_s", percentile(latencies, 50), "s", latencies.size(),
            "simulated bootstrap completion, MGPS points");
      r.e2e("tail_latency_s", percentile(latencies, tail_p), "s",
            latencies.size(), percentile_label(tail_p));
      r.e2e("capacity_per_s", boots_mgps / makespan_mgps, "1/s", 1,
            "bootstraps per simulated second, MGPS points");
      r.name("sim_tasks_per_s", tps, "1/s", reps);
      r.name("sim_makespan_s", makespan_mgps, "s", 1);
      return;
    }
    // Per-layer ledger from the traced repetitions.
    std::uint64_t tasks = 0, offloads = 0, fallbacks = 0, splits = 0,
                  ctx = 0, code = 0, events = 0;
    double dma = 0.0, degree_w = 0.0, util = 0.0, util_n = 0.0;
    double host = 0.0, host_llp = 0.0, host_tlp = 0.0;
    std::uint64_t off_llp = 0, off_tlp = 0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const rt::RunResult& res = ref_[i];
      const double h = fastest(traced_host_[i]);
      tasks += static_cast<std::uint64_t>(counts_[points_[i].input]) *
               static_cast<std::uint64_t>(scfg_.tasks_per_bootstrap);
      offloads += res.offloads;
      fallbacks += res.ppe_fallbacks;
      splits += res.loop_splits;
      ctx += res.ctx_switches;
      code += res.code_loads;
      events += res.events;
      dma += res.dma_bytes;
      degree_w += res.mean_loop_degree * static_cast<double>(res.offloads);
      util += res.mean_spe_utilization;
      util_n += 1.0;
      host += h;
      (points_[i].llp_regime ? host_llp : host_tlp) += h;
      (points_[i].llp_regime ? off_llp : off_tlp) += res.offloads;
    }
    const auto per = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    r.layer("task.make_synthetic_s", make_synthetic_s_, "s");
    r.layer("task.tasks", static_cast<double>(tasks), "count");
    r.layer("runtime.host_s_per_call", per(host, points_.size()), "s",
            points_.size());
    r.layer("runtime.host_ns_per_offload", per(host * 1e9, offloads), "ns");
    r.layer("runtime.host_ns_per_offload.llp", per(host_llp * 1e9, off_llp),
            "ns");
    r.layer("runtime.host_ns_per_offload.tlp", per(host_tlp * 1e9, off_tlp),
            "ns");
    r.layer("runtime.offloads", static_cast<double>(offloads), "count");
    r.layer("runtime.ppe_fallbacks", static_cast<double>(fallbacks), "count");
    r.layer("runtime.loop_splits", static_cast<double>(splits), "count");
    r.layer("runtime.mean_loop_degree", per(degree_w, offloads), "spes");
    r.layer("runtime.ctx_switches", static_cast<double>(ctx), "count");
    r.layer("cellsim.spe_utilization", per(util, util_n), "share");
    r.layer("cellsim.code_loads", static_cast<double>(code), "count");
    r.layer("cellsim.dma_bytes", dma, "bytes");
    const double ms = static_cast<double>(attr_.makespan_ns);
    r.layer("cellsim.share_spe_compute", per(attr_.spe_compute_ns, ms),
            "share");
    r.layer("cellsim.share_dma", per(attr_.dma_ns, ms), "share");
    r.layer("cellsim.share_ctx_switch", per(attr_.ctx_switch_ns, ms), "share");
    r.layer("cellsim.share_signal", per(attr_.signal_ns, ms), "share");
    r.layer("cellsim.share_queue", per(attr_.queue_ns, ms), "share");
    r.layer("cellsim.share_ppe", per(attr_.ppe_ns, ms), "share");
    r.layer("sim.events", static_cast<double>(events), "count");
    r.layer("sim.events_per_offload", per(events, offloads), "count");
    r.layer("sim.host_ns_per_event", per(host * 1e9, events), "ns");
    r.layer("trace.overhead_ratio", overhead_ratio(), "ratio");
  }

 private:
  std::uint64_t input_tasks() const {
    std::uint64_t n = 0;
    for (const Point& p : points_) {
      n += static_cast<std::uint64_t>(counts_[p.input]) *
           static_cast<std::uint64_t>(scfg_.tasks_per_bootstrap);
    }
    return n;
  }

  /// Digests, in workload order, of single-Cell EDTLP runs of each blade's
  /// round-robin shard of the point's input.
  std::vector<std::uint32_t> per_blade_digests(const Point& pt) const {
    const task::Workload& wl = inputs_[pt.input];
    std::vector<std::uint32_t> out(wl.size());
    for (int b = 0; b < pt.blades; ++b) {
      task::Workload shard;
      std::vector<std::size_t> orig;
      for (std::size_t i = static_cast<std::size_t>(b); i < wl.size();
           i += static_cast<std::size_t>(pt.blades)) {
        shard.bootstraps.push_back(wl.bootstraps[i]);
        orig.push_back(i);
      }
      rt::EdtlpPolicy edtlp;
      const rt::RunResult res = rt::run_workload(shard, edtlp, blade_);
      for (std::size_t j = 0; j < orig.size(); ++j) {
        out[orig[j]] = j < res.bootstrap_digests.size()
                           ? res.bootstrap_digests[j]
                           : 0u;
      }
    }
    return out;
  }

  std::string describe(std::size_t i) const {
    static const char* const names[] = {"Linux", "EDTLP", "EDTLP-LLP(2)",
                                        "EDTLP-LLP(4)", "MGPS"};
    const Point& p = points_[i];
    return std::string(names[static_cast<int>(p.policy)]) + " at " +
           std::to_string(counts_[p.input]) + " bootstraps" +
           (p.blades > 0 ? " on " + std::to_string(p.blades) + " blades"
                         : std::string());
  }

  /// Traced run: attribution shares from the event stream (single-Cell
  /// points; run_cluster replays its blades into one sink from t=0 each,
  /// so its stream is not one timeline).
  void observe_trace(std::size_t i, const rt::RunResult& res,
                     const trace::TraceSink& sink,
                     trace::MetricsRegistry& metrics, SpanLog& spans) {
    traced_once_ = true;
    if (points_[i].blades != 0) return;
    if (metrics.counter("run.offloads").value() != res.offloads) {
      stats_differ_ = true;
    }
    const auto makespan_ns = std::llround(res.makespan_s * 1e9);
    analysis::Attribution a;
    {
      SpanLog::Scope s(spans, "analysis.attribute_makespan");
      a = analysis::attribute_makespan(sink.events(), makespan_ns);
    }
    if (a.sum() != a.makespan_ns || a.makespan_ns != makespan_ns) {
      attribution_ok_ = false;
    }
    if (attr_done_.size() < points_.size()) attr_done_.resize(points_.size());
    if (attr_done_[i]) return;
    attr_done_[i] = true;
    attr_.makespan_ns += a.makespan_ns;
    attr_.spe_compute_ns += a.spe_compute_ns;
    attr_.dma_ns += a.dma_ns;
    attr_.ctx_switch_ns += a.ctx_switch_ns;
    attr_.signal_ns += a.signal_ns;
    attr_.recovery_ns += a.recovery_ns;
    attr_.queue_ns += a.queue_ns;
    attr_.ppe_ns += a.ppe_ns;
  }

  /// Untraced runs still prove traced == untraced and the attribution sum
  /// on two MGPS points, outside the timed region.
  void verify_traced_sample(Report& r) {
    SpanLog off(false);
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const Point& pt = points_[i];
      const int n = counts_[pt.input];
      if (pt.blades != 0 || pt.policy != Policy::Mgps || (n != 2 && n != 16)) {
        continue;
      }
      rt::RunConfig cfg = single_;
      trace::TraceSink sink;
      trace::MetricsRegistry metrics;
      cfg.trace = &sink;
      cfg.metrics = &metrics;
      auto policy = make_policy(pt.policy);
      const rt::RunResult res = rt::run_workload(inputs_[pt.input], *policy, cfg);
      r.check(same_stats(res, ref_[i]),
              "sim_sweep: traced run differs from untraced run");
      observe_trace(i, res, sink, metrics, off);
    }
    r.check(attribution_ok_,
            "sim_sweep: makespan attribution does not sum to the makespan");
  }

  double overhead_ratio() const {
    double on = 0.0, off = 0.0;
    for (const auto& h : traced_host_) on += fastest(h);
    for (const auto& h : untraced_host_) off += fastest(h);
    return on / off;
  }

  task::SyntheticConfig scfg_;
  std::vector<int> counts_;
  rt::RunConfig single_, blade_;
  std::vector<Point> points_;
  std::vector<task::Workload> inputs_;
  double make_synthetic_s_ = 0.0;

  std::vector<rt::RunResult> ref_;
  bool stats_differ_ = false;
  bool attribution_ok_ = true;
  bool traced_once_ = false;
  std::vector<std::vector<double>> untraced_host_, traced_host_;
  std::vector<bool> attr_done_;
  analysis::Attribution attr_;
};

}  // namespace

std::unique_ptr<Workload> make_sim_sweep(const Options& o) {
  return std::make_unique<SimSweep>(o);
}

}  // namespace perfbench
