// native_bootstrap: real maximum-likelihood bootstrap replicates on
// 42 x 1167 synthetic alignments (several, so one alignment's pattern count
// does not decide the figures).  Each replicate runs on its own copy of its
// pattern alignment and is off-loaded as one task to an OffloadPool of at
// most nproc workers.  The only workload that runs the real (SIMD) phylo
// kernels and the host pool.
//
// Each replicate builds its tree by stepwise addition and optimises every
// branch length; it runs no NNI rounds.  Whether a replicate's first NNI is
// accepted decides whether it pays a second full branch optimisation, which
// splits replicate costs into two modes; the median replicate's kernel work
// then moved by ~12 % between seeds on the inputs alone (~4 % without NNI).
//
// A batch of 48 replicates takes about a second on four workers, so a 25 s
// run times each replicate ~20 times.  A shared host slows single vCPUs by
// up to ~70 % for seconds at a time; a replicate's fastest run is its cost
// on a quiet CPU.
#include <algorithm>
#include <cstdint>
#include <atomic>
#include <cmath>
#include <future>
#include <thread>

#include "bench.hpp"
#include "native/offload_pool.hpp"
#include "phylo/alignment.hpp"
#include "phylo/bootstrap.hpp"
#include "phylo/model.hpp"

namespace perfbench {
namespace {

using namespace cbe;

/// Counts kernel calls and the pattern iterations they sweep.
class KernelCounts final : public phylo::KernelObserver {
 public:
  void on_kernel(task::KernelClass kind, int patterns, int) override {
    ++calls[static_cast<int>(kind)];
    pattern_iters += static_cast<std::uint64_t>(patterns);
  }
  std::uint64_t calls[4] = {0, 0, 0, 0};
  std::uint64_t pattern_iters = 0;
};

struct Replicate {
  double loglik = 0.0;
  std::int64_t submit_ns = 0, start_ns = 0, end_ns = 0;
  double bootstrap_s = 0.0;  ///< run_bootstrap alone
  KernelCounts counts;
};

int pool_workers() {
  const int n = host_state().nproc;
  return std::max(1, std::min(n > 0 ? n : 1, 4));
}

class NativeBootstrap final : public Workload {
 public:
  explicit NativeBootstrap(const Options& o)
      : seed_(o.seed),
        alignments_(o.size == Size::Tiny ? 1 : 16),
        replicates_(o.size == Size::Tiny ? 4 : 48),
        sites_(o.size == Size::Tiny ? 300 : 1167),
        pool_(pool_workers()) {
    search_.max_nni_rounds = 0;  // see the top of this file
  }

  void setup(SpanLog& spans) override {
    data_.clear();
    for (int k = 0; k < alignments_; ++k) {
      SpanLog::Scope s(spans, "phylo.setup");
      phylo::SyntheticAlignmentConfig cfg;
      cfg.taxa = 42;
      cfg.sites = sites_;
      cfg.seed = derive_seed(seed_, 5 + static_cast<std::uint64_t>(k));
      const phylo::Alignment a = phylo::make_synthetic_alignment(cfg);
      auto patterns = std::make_unique<phylo::PatternAlignment>(a);
      auto model = std::make_unique<phylo::SubstModel>(
          phylo::GtrParams::hky(2.5, patterns->base_frequencies()), 0.8);
      data_.push_back({std::move(patterns), std::move(model)});
    }
  }

  void run(bool traced, SpanLog& spans) override {
    const std::uint64_t tasks0 = pool_.tasks_executed();
    const std::uint64_t steals0 = pool_.steals();
    const Clock::time_point epoch = Clock::now();
    const auto ns = [epoch] {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - epoch)
          .count();
    };
    std::vector<Replicate> out(static_cast<std::size_t>(replicates_));
    std::vector<std::future<void>> done;
    {
      SpanLog::Scope batch(spans, "native.offload_result");
      const std::int64_t parent = batch.id();
      for (int i = 0; i < replicates_; ++i) {
        Replicate* rep = &out[static_cast<std::size_t>(i)];
        rep->submit_ns = ns();
        done.push_back(pool_.offload_result([this, rep, i, parent, &spans,
                                             &ns, traced] {
          rep->start_ns = ns();
          SpanLog::Scope task(spans, "native.task", parent);
          const Data& d = data_of(i);
          phylo::PatternAlignment copy = *d.patterns;
          util::Rng rng(replicate_seed(i));
          const Clock::time_point t0 = Clock::now();
          {
            SpanLog::Scope s(spans, "phylo.run_bootstrap");
            rep->loglik = phylo::run_bootstrap(copy, *d.model, rng, search_,
                                               traced ? &rep->counts : nullptr)
                              .loglik;
          }
          rep->bootstrap_s = seconds_since(t0);
          rep->end_ns = ns();
        }));
      }
      // Every task references this frame: wait for all before any get()
      // can rethrow.
      for (auto& f : done) f.wait();
      for (auto& f : done) f.get();
    }
    const double wall = static_cast<double>(ns()) * 1e-9;
    // A future is ready before the worker counts its task: let the
    // counters settle (bounded) before reading this batch's share.
    const Clock::time_point settle = Clock::now();
    while (pool_.tasks_executed() - tasks0 <
               static_cast<std::uint64_t>(replicates_) &&
           seconds_since(settle) < 0.1) {
      std::this_thread::yield();
    }
    Batch b;
    b.wall_s = wall;
    b.tasks = pool_.tasks_executed() - tasks0;
    b.steals = pool_.steals() - steals0;
    for (const Replicate& r : out) {
      b.logliks.push_back(r.loglik);
      b.latency_s.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
      b.wait_s.push_back(static_cast<double>(r.start_ns - r.submit_ns) * 1e-9);
      b.bootstrap_s.push_back(r.bootstrap_s);
      b.busy_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
      for (int k = 0; k < 4; ++k) b.counts.calls[k] += r.counts.calls[k];
      b.counts.pattern_iters += r.counts.pattern_iters;
    }
    if (!batches_.empty() && b.logliks != batches_.front().logliks) {
      differ_ = true;
    }
    (traced ? traced_ : batches_).push_back(std::move(b));
  }

  void check(Report& r) override {
    r.attempted = static_cast<std::uint64_t>(replicates_);
    r.failed = 0;
    // Serial reference, outside the timed region: every replicate's
    // log-likelihood must be bit-equal to a plain serial run_bootstrap with
    // the same seed.  The references run on their own threads, not the pool.
    const std::vector<double>& got = batches_.front().logliks;
    std::vector<double> serial(got.size());
    std::atomic<int> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < pool_.workers(); ++t) {
      threads.emplace_back([&] {
        for (int i = next++; i < replicates_; i = next++) {
          const Data& d = data_of(i);
          phylo::PatternAlignment copy = *d.patterns;
          util::Rng rng(replicate_seed(i));
          double& out = serial[static_cast<std::size_t>(i)];
          try {
            out = phylo::run_bootstrap(copy, *d.model, rng, search_).loglik;
          } catch (...) {
            out = std::nan("");  // never equal: reported as a violation
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (int i = 0; i < replicates_; ++i) {
      const bool same = serial[static_cast<std::size_t>(i)] ==
                        got[static_cast<std::size_t>(i)];
      r.failed += !same;
      r.check(same, "native_bootstrap: replicate " + std::to_string(i) +
                        " log-likelihood differs from the serial run");
    }
    for (const Batch& b : traced_) {
      if (b.logliks != got) differ_ = true;
    }
    r.check(!differ_,
            "native_bootstrap: log-likelihoods differ between repetitions");
  }

  void report(Report& r, bool traced) override {
    if (!traced) {
      std::vector<double> wall;
      for (const Batch& b : batches_) wall.push_back(b.wall_s);
      const std::vector<double> lat = each_fastest(batches_, &Batch::latency_s);
      const double tail_p = tail_percentile(lat.size());
      // A batch's wall waits for its slowest worker, so it takes every
      // slow vCPU of the moment: its median over the run is steadier than
      // its fastest.
      const double bps = replicates_ / median(wall);
      const auto batches = batches_.size();
      r.e2e("host_ops_per_s", bps, "1/s", batches,
            "replicates per wall second, median batch, " +
                std::to_string(pool_.workers()) + " workers");
      r.e2e("p50_latency_s", percentile(lat, 50), "s", lat.size(),
            "one replicate on a worker, wall, fastest of its runs");
      r.e2e("tail_latency_s", percentile(lat, tail_p), "s", lat.size(),
            percentile_label(tail_p));
      r.e2e("capacity_per_s", bps, "1/s", batches,
            "wall clock is this workload's own clock");
      r.name("native_bootstraps_per_s", bps, "1/s", batches);
      return;
    }
    std::vector<double> wait, busy_share, ratio_on, ratio_off;
    std::uint64_t tasks = 0, steals = 0;
    for (const Batch& b : traced_) {
      tasks += b.tasks;
      steals += b.steals;
      wait.insert(wait.end(), b.wait_s.begin(), b.wait_s.end());
      busy_share.push_back(b.busy_s / (b.wall_s * pool_.workers()));
      ratio_on.push_back(b.wall_s);
    }
    for (const Batch& b : batches_) ratio_off.push_back(b.wall_s);
    const std::vector<double> boot = each_fastest(traced_, &Batch::bootstrap_s);
    const Batch& first = traced_.front();
    const double n = static_cast<double>(traced_.size());
    r.layer("phylo.bootstrap_p50_s", percentile(boot, 50), "s", boot.size());
    r.layer("phylo.bootstrap_p90_s", percentile(boot, 90), "s", boot.size());
    r.layer("phylo.newview_calls", first.counts.calls[0], "count");
    r.layer("phylo.evaluate_calls", first.counts.calls[1], "count");
    r.layer("phylo.makenewz_calls", first.counts.calls[2], "count");
    r.layer("phylo.pattern_iters", first.counts.pattern_iters, "count");
    r.layer("native.tasks_executed", tasks / n, "count");
    r.layer("native.steals", steals / n, "count");
    r.layer("native.queue_wait_p50_s", percentile(wait, 50), "s", wait.size());
    r.layer("native.queue_wait_p90_s", percentile(wait, 90), "s", wait.size());
    r.layer("native.worker_busy_share", median(busy_share), "share");
    r.layer("trace.overhead_ratio", fastest(ratio_on) / fastest(ratio_off),
            "ratio");
  }

 private:
  struct Batch {
    double wall_s = 0.0, busy_s = 0.0;
    std::uint64_t tasks = 0, steals = 0;  ///< pool counter deltas
    std::vector<double> logliks, latency_s, wait_s, bootstrap_s;
    KernelCounts counts;
  };

  struct Data {
    std::unique_ptr<phylo::PatternAlignment> patterns;
    std::unique_ptr<phylo::SubstModel> model;
  };

  /// Each replicate's fastest time over the batches.
  static std::vector<double> each_fastest(const std::vector<Batch>& batches,
                                          std::vector<double> Batch::*times) {
    std::vector<double> out = batches.front().*times;
    for (const Batch& b : batches) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = std::min(out[i], (b.*times)[i]);
      }
    }
    return out;
  }

  std::uint64_t replicate_seed(int i) const {
    return derive_seed(seed_, 100 + static_cast<std::uint64_t>(i));
  }
  const Data& data_of(int i) const {
    return data_[static_cast<std::size_t>(i % alignments_)];
  }

  std::uint64_t seed_;
  int alignments_;
  int replicates_;
  int sites_;
  phylo::SearchConfig search_;
  std::vector<Data> data_;
  std::vector<Batch> batches_, traced_;
  bool differ_ = false;
  native::OffloadPool pool_;  // last: its workers join before the rest dies
};

}  // namespace

std::unique_ptr<Workload> make_native_bootstrap(const Options& o) {
  return std::make_unique<NativeBootstrap>(o);
}

}  // namespace perfbench
