// cbe_perfbench: the repository benchmark (see perfbench/README.md).
//
//   cbe_perfbench --workload W --seed N --seconds S --trace 0|1
//                 [--size full|tiny] [--spans-out FILE]
//
// Generates the workload's inputs from the seed, sets up several times
// (median = setup_s), measures repetitions for S seconds, checks every
// output, and prints a human-readable ledger followed by one JSON line.
// --trace 0 reports the end-to-end metrics; --trace 1 interleaves untraced
// and traced repetitions and reports the per-layer metrics.  Exits 1 when
// the correctness gate fails, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Name {
  const char* name;
  const char* unit;
};

// The metric names of BENCHMARK.json, in its order.
constexpr Name kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"host_ops_per_s", "1/s"}, {"p50_latency_s", "s"},
    {"tail_latency_s", "s"},   {"capacity_per_s", "1/s"},
};

constexpr Name kPerLayer[] = {
    {"task.make_synthetic_s", "s"},
    {"task.tasks", "count"},
    {"task.self_s", "s"},
    {"runtime.host_s_per_call", "s"},
    {"runtime.host_ns_per_offload", "ns"},
    {"runtime.host_ns_per_offload.llp", "ns"},
    {"runtime.host_ns_per_offload.tlp", "ns"},
    {"runtime.offloads", "count"},
    {"runtime.ppe_fallbacks", "count"},
    {"runtime.loop_splits", "count"},
    {"runtime.mean_loop_degree", "spes"},
    {"runtime.ctx_switches", "count"},
    {"runtime.self_s", "s"},
    {"cellsim.spe_utilization", "share"},
    {"cellsim.code_loads", "count"},
    {"cellsim.dma_bytes", "bytes"},
    {"cellsim.share_spe_compute", "share"},
    {"cellsim.share_dma", "share"},
    {"cellsim.share_ctx_switch", "share"},
    {"cellsim.share_signal", "share"},
    {"cellsim.share_queue", "share"},
    {"cellsim.share_ppe", "share"},
    {"analysis.self_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_offload", "count"},
    {"sim.events_per_job", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.queue_peak", "count"},
    {"sim.live_peak", "count"},
    {"jobsvc.dispatches", "count"},
    {"jobsvc.host_us_per_dispatch", "us"},
    {"jobsvc.p99_queue_wait_s", "s"},
    {"jobsvc.retries", "count"},
    {"jobsvc.migrations", "count"},
    {"jobsvc.watchdog_fires", "count"},
    {"jobsvc.breaker_opens", "count"},
    {"jobsvc.verify_reexecs", "count"},
    {"jobsvc.corrupt_detected", "count"},
    {"jobsvc.useful_dispatch_ratio", "ratio"},
    {"jobsvc.self_s", "s"},
    {"ckpt.snapshots", "count"},
    {"ckpt.restores", "count"},
    {"phylo.bootstrap_p50_s", "s"},
    {"phylo.bootstrap_p90_s", "s"},
    {"phylo.newview_calls", "count"},
    {"phylo.evaluate_calls", "count"},
    {"phylo.makenewz_calls", "count"},
    {"phylo.pattern_iters", "count"},
    {"phylo.self_s", "s"},
    {"native.tasks_executed", "count"},
    {"native.steals", "count"},
    {"native.queue_wait_p50_s", "s"},
    {"native.queue_wait_p90_s", "s"},
    {"native.worker_busy_share", "share"},
    {"native.self_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

/// Untraced repetitions a run makes at least, however long they take.
constexpr int kMinReps = 3;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cbe_perfbench: %s\nusage: cbe_perfbench --workload "
               "sim_sweep|svc_backlog|svc_open|native_bootstrap --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] "
               "[--spans-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("--seed must be an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") usage("--size must be full or tiny");
      o.size = v == "tiny" ? Size::Tiny : Size::Full;
    } else if (flag == "--spans-out") {
      o.spans_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  return o;
}

std::unique_ptr<Workload> make(const Options& o) {
  if (o.workload == "sim_sweep") return make_sim_sweep(o);
  if (o.workload == "svc_backlog") return make_svc_backlog(o);
  if (o.workload == "svc_open") return make_svc_open(o);
  if (o.workload == "native_bootstrap") return make_native_bootstrap(o);
  usage(("unknown workload " + o.workload).c_str());
}

void print_host(const char* when) {
  const HostState h = host_state();
  std::printf("# host.%s nproc=%d loadavg=%.2f/%.2f/%.2f "
              "calibration_spin_ms=%.3f\n",
              when, h.nproc, h.load1, h.load5, h.load15,
              calibration_spin_ms());
}

void print_metric(const Metric& m) {
  std::printf("%-34s %18.10g %-6s n=%-6llu %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<unsigned long long>(m.samples),
              m.note.c_str());
}

const Metric* find(const std::vector<Metric>& v, const char* name) {
  for (const Metric& m : v) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  const bool tiny = o.size == Size::Tiny;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, tiny ? "tiny" : "full");
  std::printf("# %s\n", build_line().c_str());
  print_host("start");
  std::fflush(stdout);

  std::unique_ptr<Workload> w = make(o);
  SpanLog spans(false);
  Report r;

  // Both loops rotate the measuring thread over the allowed CPUs, one per
  // set-up or repetition, and restore its affinity before the checks.
  std::vector<double> setup_s;
  double measured_s = 0.0;
  int untraced = 0, traced = 0;
  {
    CpuRotation rotation;
    // Set-up, several times: its median is setup_s.  A shared host slows
    // single vCPUs for seconds at a time, so a set-up of a few ms is fast or
    // ~50 % slower depending on the CPU and the moment.  The set-ups
    // therefore repeat for about a second across all CPUs (at least 7, at
    // most 401), so their median covers more than one moment of the host.
    // The traced run records the spans of the first one.
    const Clock::time_point setup_start = Clock::now();
    for (int i = 0; i < 7 || (i < 401 && seconds_since(setup_start) < 1.0);
         ++i) {
      spans.set_enabled(o.trace && i == 0);
      rotation.pin(i);
      const Clock::time_point t0 = Clock::now();
      w->setup(spans);
      setup_s.push_back(seconds_since(t0));
    }
    spans.set_enabled(false);

    // Measure.  The traced run alternates untraced and traced repetitions
    // so trace.overhead_ratio compares interleaved passes; each pair runs
    // on one CPU.
    const Clock::time_point measure_start = Clock::now();
    for (int rep = 0;; ++rep) {
      const bool done = seconds_since(measure_start) >= o.seconds;
      if (!o.trace && done && untraced >= kMinReps) break;
      if (o.trace && done && traced >= 2 && untraced >= 2) break;
      const bool trace_this = o.trace && rep % 2 == 1;
      spans.set_enabled(trace_this);
      spans.set_rep(rep);
      rotation.pin(o.trace ? rep / 2 : rep);
      w->run(trace_this, spans);
      (trace_this ? traced : untraced) += 1;
    }
    measured_s = seconds_since(measure_start);
  }
  spans.set_enabled(false);
  const double rss = peak_rss_mb();

  w->check(r);
  if (!o.trace) {
    r.e2e("setup_s", median(setup_s), "s", setup_s.size());
    r.e2e("peak_rss_mb", rss, "MB");
  }
  w->report(r, o.trace);
  if (o.trace) {
    for (const auto& [layer, self_s] : spans.self_seconds_by_layer()) {
      r.layer(layer + ".self_s", self_s, "s");
    }
    if (!o.spans_out.empty() && !spans.write(o.spans_out, o.workload)) {
      r.check(false, "cannot write spans to " + o.spans_out);
    }
  }
  r.name("setup_s", median(setup_s), "s", setup_s.size());
  r.name("peak_rss_mb", rss, "MB");
  r.name("ops_failed_share",
         r.attempted > 0 ? static_cast<double>(r.failed) /
                               static_cast<double>(r.attempted)
                         : 0.0,
         "share", r.attempted);

  std::printf("# measured %.3f s: %d untraced + %d traced repetitions\n",
              measured_s, untraced, traced);
  print_host("end");
  std::printf("## %s metrics\n", o.workload.c_str());
  for (const Metric& m : r.named) print_metric(m);
  for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());
  std::printf("## %s\n", o.trace ? "per-layer" : "end-to-end");

  // The JSON line: exactly the BENCHMARK.json names, in its order.
  std::string json = "{";
  bool first = true;
  auto emit = [&](const Name& n, const std::vector<Metric>& from,
                  bool must_be_positive) {
    const Metric* m = find(from, n.name);
    const double v = m != nullptr ? m->value : 0.0;
    if (m != nullptr) print_metric(*m);
    if (must_be_positive) {
      r.check(m != nullptr && std::isfinite(v) && v > 0.0,
              std::string("end-to-end metric ") + n.name +
                  " missing or not positive");
    } else {
      r.check(std::isfinite(v), std::string(n.name) + " is not finite");
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", n.name, std::isfinite(v) ? v : 0.0,
                  n.unit);
    json += buf;
    first = false;
  };
  if (o.trace) {
    for (const Name& n : kPerLayer) emit(n, r.per_layer, false);
  } else {
    for (const Name& n : kEndToEnd) emit(n, r.end_to_end, true);
  }
  json += "}";

  for (const std::string& v : r.violations) {
    std::fprintf(stderr, "CORRECTNESS VIOLATION: %s\n", v.c_str());
  }
  const bool correct = r.violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), json.c_str());
  return correct ? 0 : 1;
}
