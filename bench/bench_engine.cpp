// DES-core microbenchmark (ROADMAP item 4): host throughput of the event
// engine against an in-bench replica of the pre-fix engine (binary heap +
// std::function callbacks + unbounded lazy deletion).
//
// Series (cbe-bench-v1):
//   new/pure, legacy/pure      N scattered schedule+run events, wall seconds
//   new/churn, legacy/churn    watchdog churn mix: schedule/cancel on a ring
//                              of outstanding events with periodic run_until
//   ratio/pure, ratio/churn    new/legacy wall-time ratio in permille
//                              (1000 = parity, lower = new engine faster) —
//                              dimensionless, machine-portable, CI-gated via
//                              bench_diff --only=ratio/ (ISSUE 8 demands
//                              <= 333, i.e. >= 3x events/sec, on churn)
//
//   build/bench/bench_engine [--events=N] [--churn=N] [--outstanding=N]
//       [--reps=N] [--seed=S] [--json[=F]]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "bench_report.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

using namespace cbe;
using sim::Time;

volatile std::uint64_t g_sink = 0;  // keeps callback work observable

/// Faithful replica of the engine this PR replaced: one binary heap,
/// std::function slots, and lazy deletion with NO dead-entry bound — every
/// cancel leaves a corpse until it bubbles to the top.
class LegacyEngine {
 public:
  using Callback = std::function<void()>;
  struct Id {
    std::uint32_t slot = UINT32_MAX;
    std::uint32_t generation = 0;
  };

  Id schedule_at(Time t, Callback cb) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slots_.emplace_back();
      slot = static_cast<std::uint32_t>(slots_.size() - 1);
    }
    Slot& s = slots_[slot];
    s.cb = std::move(cb);
    s.live = true;
    heap_.push(Entry{t, seq_++, slot, s.generation});
    return Id{slot, s.generation};
  }

  void cancel(Id id) noexcept {
    if (id.slot == UINT32_MAX || id.slot >= slots_.size()) return;
    Slot& s = slots_[id.slot];
    if (s.live && s.generation == id.generation) {
      s.live = false;
      s.cb = nullptr;
      ++s.generation;
      free_slots_.push_back(id.slot);
    }
  }

  Time run() { return run_until(Time::max()); }
  Time run_until(Time limit) {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      Slot& s = slots_[top.slot];
      if (!s.live || s.generation != top.generation) {
        heap_.pop();
        continue;
      }
      if (top.t > limit) break;
      heap_.pop();
      now_ = top.t;
      Callback cb = std::move(s.cb);
      s.cb = nullptr;
      s.live = false;
      ++s.generation;
      free_slots_.push_back(top.slot);
      cb();
    }
    return now_;
  }

 private:
  struct Entry {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
    bool operator>(const Entry& o) const noexcept {
      if (t != o.t) return t > o.t;
      return seq > o.seq;
    }
  };
  struct Slot {
    Callback cb;
    std::uint32_t generation = 0;
    bool live = false;
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Time now_;
  std::uint64_t seq_ = 0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// N schedules at scattered times, then one drain.
template <class Engine>
double pure_once(int events) {
  Engine eng;
  std::uint64_t fired = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < events; ++i) {
    eng.schedule_at(Time::ns((i * 2654435761u) % 1000003),
                    [&fired] { ++fired; });
  }
  eng.run();
  const double dt = seconds_since(t0);
  g_sink += fired;
  return dt;
}

/// The job-service watchdog pattern: step-completion work events fire in the
/// near future while a ring of ~1 ms timeout timers is cancelled (each step
/// completed) long before firing.  The live work frontier sits at the top of
/// the legacy heap, so its lazy deletion never reaches the far-future
/// corpses: the heap grows with TOTAL cancels and every work push/pop sifts
/// through log2 of the cold backlog.  The new engine's compaction keeps the
/// queue proportional to the live set.
template <class Engine>
double churn_once(int iters, int outstanding) {
  Engine eng;
  using Id = decltype(eng.schedule_at(Time(), [] {}));
  std::vector<Id> ids(static_cast<std::size_t>(outstanding));
  std::uint64_t fired = 0;
  std::int64_t t = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    const std::size_t k = static_cast<std::size_t>(i % outstanding);
    eng.cancel(ids[k]);
    ids[k] = eng.schedule_at(Time::ns(t + 1000000 + i % 97),
                             [&fired] { ++fired; });
    if (i % 4 == 0) {
      // Work lands one 300 ns window ahead: some is always pending, so the
      // live frontier shadows the cancelled watchdogs behind it.
      eng.schedule_at(Time::ns(t + 350 + i % 97), [&fired] { ++fired; });
    }
    if (i % 256 == 0) {
      t += 300;
      eng.run_until(Time::ns(t));
    }
  }
  eng.run();
  const double dt = seconds_since(t0);
  g_sink += fired;
  return dt;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int events = static_cast<int>(cli.get_int("events", 500000));
  const int churn = static_cast<int>(cli.get_int("churn", 600000));
  const int outstanding = static_cast<int>(cli.get_int("outstanding", 1024));
  const int reps = static_cast<int>(cli.get_int("reps", 5));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026));
  bench::BenchReport report(cli, "engine");
  cli.enforce_usage_or_exit(
      "bench_engine [--events=N] [--churn=N] [--outstanding=N] [--reps=N]"
      " [--seed=S] [--json[=F]]");
  report.config("events", events);
  report.config("churn", churn);
  report.config("outstanding", outstanding);
  report.config("seed", static_cast<long long>(seed));
  report.set_repetitions(reps);

  std::vector<double> new_pure, legacy_pure, new_churn, legacy_churn;
  for (int r = 0; r < reps; ++r) {
    new_pure.push_back(pure_once<sim::Engine>(events));
    legacy_pure.push_back(pure_once<LegacyEngine>(events));
    new_churn.push_back(churn_once<sim::Engine>(churn, outstanding));
    legacy_churn.push_back(churn_once<LegacyEngine>(churn, outstanding));
    report.add_sample("new/pure", new_pure.back());
    report.add_sample("legacy/pure", legacy_pure.back());
    report.add_sample("new/churn", new_churn.back());
    report.add_sample("legacy/churn", legacy_churn.back());
  }
  // Ratios in permille on the series medians: machine-portable, CI-gated.
  const double pure_ratio =
      util::median(new_pure) / util::median(legacy_pure);
  const double churn_ratio =
      util::median(new_churn) / util::median(legacy_churn);
  report.add_sample("ratio/pure", pure_ratio * 1e-6);
  report.add_sample("ratio/churn", churn_ratio * 1e-6);

  std::printf(
      "engine: pure %.1fM ev/s (legacy %.1fM, %.2fx)  churn %.1fM op/s "
      "(legacy %.1fM, %.2fx)\n",
      events / util::median(new_pure) * 1e-6,
      events / util::median(legacy_pure) * 1e-6, 1.0 / pure_ratio,
      churn / util::median(new_churn) * 1e-6,
      churn / util::median(legacy_churn) * 1e-6, 1.0 / churn_ratio);
  return report.write() ? 0 : 1;
}
