// Shared vocabulary of the repository benchmark (perfbench/README.md).
//
// The benchmark drives the library only through the public entry points of
// each layer; every span it records sits in these files, around those calls.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 finaliser: derives independent input seeds from the workload
/// seed, so the library only ever sees generated inputs.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}
/// Host cost of a deterministic computation repeated in one run: its
/// fastest repetition.  On a shared host interference only ever slows such
/// work, so the fastest repetition is the steadiest estimate of the code's
/// own cost.
inline double fastest(std::vector<double> v) {
  return percentile(std::move(v), 0.0);
}
/// Highest of p99/p98/p95/p90/p75/p50 that leaves at least ten samples
/// above it, so a reported tail always rests on ten observations.
double tail_percentile(std::size_t samples);
/// "p99"-style label of a percentile.
std::string percentile_label(double p);

enum class Size { Full, Tiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::Full;
  std::string spans_out;  ///< traced run: span dump path ("" = none)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 1;  ///< observations behind the value
  std::string note;           ///< e.g. which percentile a tail is
};

/// What one run reports.  `end_to_end` and `per_layer` use the names in
/// BENCHMARK.json; `named` holds the workload's own metrics under the
/// names later changes claim against (printed, not part of the JSON line).
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> named;
  std::vector<std::string> violations;
  std::vector<std::string> lines;  ///< extra human-readable detail
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  void e2e(const std::string& name, double v, const char* unit,
           std::uint64_t samples = 1, std::string note = {}) {
    end_to_end.push_back({name, v, unit, samples, std::move(note)});
  }
  void layer(const std::string& name, double v, const char* unit,
             std::uint64_t samples = 1) {
    per_layer.push_back({name, v, unit, samples, {}});
  }
  void name(const std::string& name, double v, const char* unit,
            std::uint64_t samples = 1, std::string note = {}) {
    named.push_back({name, v, unit, samples, std::move(note)});
  }
};

// -- Spans ---------------------------------------------------------------

/// In-memory span recorder for the traced run.  One span per call into a
/// layer: name ("<layer>.<call>"), start, end, parent and repetition id.
/// Disabled (every Scope a no-op) in the untraced run.  Thread-safe: pool
/// workers record their own spans under an explicit parent.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t id = 0;
    std::int64_t parent = -1;
    int rep = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  void set_rep(int rep) {
    std::lock_guard<std::mutex> lock(mu_);
    rep_ = rep;
  }

  /// RAII span.  The parent is the calling thread's innermost open span
  /// unless `parent` names one explicitly (for work handed to a worker).
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::int64_t parent = -2);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const noexcept { return id_; }

   private:
    SpanLog* log_;
    std::int64_t id_ = -1;
    std::int64_t prev_ = -1;
    std::size_t index_ = 0;
  };

  std::vector<Span> spans() const;
  /// Total self time per layer (the name up to its first '.'): each span's
  /// duration minus the union of the intervals its children cover.
  std::vector<std::pair<std::string, double>> self_seconds_by_layer() const;
  /// Writes one JSON object per span, then the per-layer self times.
  bool write(const std::string& path, const std::string& workload) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  int rep_ = 0;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// -- Measurement hygiene ---------------------------------------------------

struct HostState {
  int nproc = 0;
  double load1 = 0.0, load5 = 0.0, load15 = 0.0;
};
HostState host_state();
/// Fixed compute spin, timed: a noisy host shows up as a slow spin.
double calibration_spin_ms();
/// Peak resident set of this process so far, in MB.
double peak_rss_mb();
/// Build type, tracing and SIMD state as one printable line.
std::string build_line();

/// Pins the calling thread to the allowed CPUs in turn, one per repetition,
/// so no single core's neighbours decide a run's figures; restores the
/// original affinity on destruction.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void pin(int rep);

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

// -- Workloads -------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates every input from the workload seed (timed as set-up).
  virtual void setup(SpanLog& spans) = 0;
  /// One repetition of the measured work; a traced one attaches the
  /// library's own sinks and records spans into `spans`.
  virtual void run(bool traced, SpanLog& spans) = 0;
  /// Correctness gate, outside any timed region.
  virtual void check(Report& r) = 0;
  /// Fills end-to-end (untraced run) or per-layer (traced run) metrics.
  virtual void report(Report& r, bool traced) = 0;
};

std::unique_ptr<Workload> make_sim_sweep(const Options& o);
std::unique_ptr<Workload> make_svc_backlog(const Options& o);
std::unique_ptr<Workload> make_svc_open(const Options& o);
std::unique_ptr<Workload> make_native_bootstrap(const Options& o);

}  // namespace perfbench
