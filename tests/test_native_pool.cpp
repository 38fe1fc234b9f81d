#include "native/native_runtime.hpp"
#include "native/offload_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "trace/metrics.hpp"
#include "trace/recorder.hpp"
#include "trace/trace.hpp"

namespace cbe::native {
namespace {

TEST(OffloadPool, ExecutesTasks) {
  OffloadPool pool(2);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 20; ++i) {
    futs.push_back(pool.offload([&count] { ++count; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 20);
  EXPECT_EQ(pool.tasks_executed(), 20u);
}

TEST(OffloadPool, ReturnsResults) {
  OffloadPool pool(2);
  auto f = pool.offload_result([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(OffloadPool, PropagatesExceptions) {
  OffloadPool pool(1);
  auto f = pool.offload_result(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(OffloadPool, DefaultsToAtLeastOneWorker) {
  OffloadPool pool(0);
  EXPECT_GE(pool.workers(), 1);
  auto f = pool.offload_result([] { return 1; });
  EXPECT_EQ(f.get(), 1);
}

TEST(OffloadPool, ParallelForCoversRangeExactlyOnce) {
  OffloadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&hits](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  }, /*degree=*/4, /*grain=*/16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(OffloadPool, ParallelForEmptyRangeIsNoop) {
  OffloadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::int64_t, std::int64_t) { ++calls; }, 4);
  EXPECT_EQ(calls, 0);
}

TEST(OffloadPool, ParallelForDegreeOneRunsOnCaller) {
  OffloadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> all_on_caller{true};
  pool.parallel_for(0, 100, [&](std::int64_t, std::int64_t) {
    if (std::this_thread::get_id() != caller) all_on_caller = false;
  }, 1, 10);
  EXPECT_TRUE(all_on_caller.load());
}

TEST(OffloadPool, ParallelForComputesCorrectSum) {
  OffloadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(1, 10001, [&sum](std::int64_t lo, std::int64_t hi) {
    std::int64_t local = 0;
    for (std::int64_t i = lo; i < hi; ++i) local += i;
    sum.fetch_add(local);
  }, 5, 64);
  EXPECT_EQ(sum.load(), 10000ll * 10001 / 2);
}

TEST(OffloadPool, NestedParallelForDoesNotDeadlock) {
  // Regression: helpers queued behind blocked outer tasks must not wedge
  // the pool (the master participates and waits only on completed work).
  OffloadPool pool(2);
  std::vector<std::future<void>> futs;
  std::atomic<int> done{0};
  for (int t = 0; t < 8; ++t) {
    futs.push_back(pool.offload([&pool, &done] {
      std::atomic<int> inner{0};
      pool.parallel_for(0, 64, [&inner](std::int64_t lo, std::int64_t hi) {
        inner.fetch_add(static_cast<int>(hi - lo));
      }, 3, 4);
      if (inner.load() == 64) ++done;
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(done.load(), 8);
}

TEST(OffloadPool, ParallelForRethrowsBodyException) {
  OffloadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(0, 1000,
                        [&ran](std::int64_t lo, std::int64_t) {
                          if (lo >= 512) throw std::runtime_error("mid-loop");
                          ++ran;
                        },
                        4, 16),
      std::runtime_error);
  EXPECT_GT(ran.load(), 0);
  // The pool must stay fully usable after a failed loop.
  auto f = pool.offload_result([] { return 7; });
  EXPECT_EQ(f.get(), 7);
  std::atomic<int> ok{0};
  pool.parallel_for(0, 100, [&ok](std::int64_t lo, std::int64_t hi) {
    ok.fetch_add(static_cast<int>(hi - lo));
  }, 4, 8);
  EXPECT_EQ(ok.load(), 100);
}

TEST(OffloadPool, ParallelForExceptionWithOversubscribedDegree) {
  // degree > workers + 1 queues helpers that may never start; an error must
  // still unwind without waiting on them.
  OffloadPool pool(1);
  EXPECT_THROW(
      pool.parallel_for(0, 64,
                        [](std::int64_t, std::int64_t) {
                          throw std::logic_error("always");
                        },
                        8, 4),
      std::logic_error);
}

TEST(OffloadPool, OffloadWithRetrySucceedsAfterTransientFailures) {
  OffloadPool pool(2);
  std::atomic<int> attempts{0};
  auto f = pool.offload_with_retry(
      [&attempts] {
        if (attempts.fetch_add(1) < 2) throw std::runtime_error("transient");
      },
      /*max_retries=*/3, std::chrono::microseconds(1));
  EXPECT_NO_THROW(f.get());
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(pool.retries(), 2u);
}

TEST(OffloadPool, OffloadWithRetryGivesUpAndCarriesLastError) {
  OffloadPool pool(1);
  std::atomic<int> attempts{0};
  auto f = pool.offload_with_retry(
      [&attempts] {
        ++attempts;
        throw std::runtime_error("permanent");
      },
      /*max_retries=*/2, std::chrono::microseconds(1));
  EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_EQ(attempts.load(), 3);  // 1 try + 2 retries
  EXPECT_EQ(pool.retries(), 2u);
}

TEST(OffloadPool, DeadlineWatchdogFiresOnSlowTask) {
  OffloadPool pool(1);
  std::atomic<bool> timed_out{false};
  // The task outlives its deadline by construction: it blocks until the
  // watchdog has fired (with a generous escape hatch against a wedged
  // watchdog, which the assertion below would then report).
  auto f = pool.offload_with_deadline(
      [&timed_out] {
        for (int i = 0; i < 2000 && !timed_out.load(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      },
      std::chrono::microseconds(2000),
      [&timed_out] { timed_out = true; });
  f.get();
  EXPECT_TRUE(timed_out.load());
  EXPECT_EQ(pool.deadline_misses(), 1u);
}

TEST(OffloadPool, DeadlineWatchdogQuietOnFastTask) {
  OffloadPool pool(1);
  std::atomic<bool> timed_out{false};
  auto f = pool.offload_with_deadline(
      [] {}, std::chrono::milliseconds(500),
      [&timed_out] { timed_out = true; });
  f.get();
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(pool.deadline_misses(), 0u);
}

// Regression: an abandoned deadline-expired task must not be able to write
// into result storage its caller reclaimed after observing the timeout.
// The caller frees the buffer inside on_timeout; the straggler's
// try_commit must refuse to touch it.
TEST(OffloadPool, AbandonedDeadlineTaskCannotTouchFreedResults) {
  OffloadPool pool(1);
  // Heap storage so a use-after-free would be visible to sanitizers, not
  // just to the assertions below.
  auto results = std::make_unique<std::vector<double>>(16, 0.0);
  std::atomic<bool> timed_out{false};
  std::atomic<bool> committed{false};
  auto f = pool.offload_with_deadline(
      [&](const DeadlineToken& token) {
        // Straggle until the watchdog has definitely fired.
        for (int i = 0; i < 2000 && !timed_out.load(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        committed = token.try_commit([&] { (*results)[0] = 42.0; });
      },
      std::chrono::microseconds(2000),
      [&] {
        // Deadline declared expired: the caller now owns the storage
        // exclusively and may free it.
        results.reset();
        timed_out = true;
      });
  f.get();
  EXPECT_TRUE(timed_out.load());
  EXPECT_FALSE(committed.load())
      << "task committed into storage freed by the timeout handler";
  EXPECT_EQ(pool.deadline_misses(), 1u);
}

TEST(OffloadPool, DeadlineTokenCommitsBeforeExpiry) {
  OffloadPool pool(1);
  std::vector<double> results(1, 0.0);
  std::atomic<bool> timed_out{false};
  std::atomic<bool> committed{false};
  auto f = pool.offload_with_deadline(
      [&](const DeadlineToken& token) {
        EXPECT_FALSE(token.expired());
        committed = token.try_commit([&] { results[0] = 7.0; });
      },
      std::chrono::milliseconds(500), [&] { timed_out = true; });
  f.get();
  EXPECT_TRUE(committed.load());
  EXPECT_EQ(results[0], 7.0);
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(pool.deadline_misses(), 0u);
}

// Commit-vs-expiry is decided under one lock: whichever side wins, exactly
// one of {committed, timed_out} holds afterwards.  Run many racy rounds
// with the deadline aimed at "right now" to hammer the window.
TEST(OffloadPool, DeadlineCommitAndExpiryAreMutuallyExclusive) {
  OffloadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    auto results = std::make_shared<std::vector<double>>(1, 0.0);
    std::atomic<bool> timed_out{false};
    std::atomic<bool> committed{false};
    auto f = pool.offload_with_deadline(
        [&, results](const DeadlineToken& token) {
          committed = token.try_commit([&] { (*results)[0] = 1.0; });
        },
        std::chrono::microseconds(50), [&] { timed_out = true; });
    f.get();
    // Let a late watchdog firing land before judging the round.
    for (int i = 0; i < 1000 && !committed.load() && !timed_out.load();
         ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    EXPECT_NE(committed.load(), timed_out.load()) << "round " << round;
    // A refused commit must have left the storage untouched.
    if (!committed.load()) {
      EXPECT_EQ((*results)[0], 0.0);
    }
  }
}

TEST(OffloadPool, ManySmallTasksStress) {
  OffloadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 2000; ++i) {
    futs.push_back(pool.offload([&count] { ++count; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 2000);
}

#if CBE_TRACE_ENABLED
// Workers record straight into a shared FlightRecorder: one dispatch and one
// complete per task, on worker spe ids, each tagged with the span that was
// ambient at submission (the pool re-installs it on the worker).
TEST(OffloadPoolTrace, WorkersRecordDispatchCompletePairs) {
  trace::FlightRecorder rec;
  trace::MetricsRegistry reg;
  OffloadPool pool(3);
  pool.set_trace(&rec);
  pool.set_metrics(&reg);
  constexpr int kTasks = 40;
  const std::uint64_t span = trace::make_span(7, 1, 0, 3);
  std::vector<std::future<void>> futs;
  futs.reserve(kTasks);
  {
    trace::ScopedSpan submitter(span);
    for (int t = 0; t < kTasks; ++t) {
      futs.push_back(pool.offload([] {}));
    }
  }
  for (auto& f : futs) f.get();
  pool.set_trace(nullptr);  // writers quiescent; the tail is exact

  const std::vector<trace::Event> events = rec.tail();
  std::uint64_t dispatch = 0;
  std::uint64_t complete = 0;
  for (const trace::Event& e : events) {
    if (e.kind == trace::EventKind::TaskDispatch) ++dispatch;
    if (e.kind == trace::EventKind::TaskComplete) ++complete;
    EXPECT_GE(e.spe, 0);
    EXPECT_LT(e.spe, 3);
    EXPECT_EQ(e.span, span);
  }
  EXPECT_EQ(dispatch, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(complete, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(rec.overwritten(), 0u);
  // tail() sorts by timestamp.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t_ns, events[i].t_ns);
  }
  EXPECT_GE(rec.threads_attached(), 1u);
  EXPECT_LE(rec.threads_attached(), 3u);
  EXPECT_EQ(reg.histogram("native.task_us").count(),
            static_cast<std::uint64_t>(kTasks));
}
#endif  // CBE_TRACE_ENABLED

TEST(Governor, RecommendsSharingWhenStreamsAreScarce) {
  AdaptiveGovernor gov(8);
  EXPECT_EQ(gov.loop_degree(), 1);
  for (int i = 0; i < 8; ++i) gov.on_departure(0, /*live_streams=*/1);
  EXPECT_EQ(gov.loop_degree(), 8);
}

TEST(Governor, KeepsSequentialWhenStreamsAbound) {
  AdaptiveGovernor gov(8);
  for (int i = 0; i < 8; ++i) gov.on_departure(i, 8);
  EXPECT_EQ(gov.loop_degree(), 1);
}

TEST(Governor, SplitsPoolAcrossTwoStreams) {
  AdaptiveGovernor gov(8);
  for (int i = 0; i < 8; ++i) gov.on_departure(i % 2, 2);
  EXPECT_EQ(gov.loop_degree(), 4);
}

TEST(Governor, ReEvaluatesOnlyAtWindowBoundary) {
  AdaptiveGovernor gov(8, 8);
  for (int i = 0; i < 7; ++i) {
    gov.on_departure(0, 1);
    EXPECT_EQ(gov.loop_degree(), 1);
  }
  gov.on_departure(0, 1);
  EXPECT_GT(gov.loop_degree(), 1);
}

TEST(NativeRuntime, OffloadDrivesGovernor) {
  NativeRuntime rt(4);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 16; ++i) {
    futs.push_back(rt.offload(0, [] { return 1; }, 1));
  }
  int total = 0;
  for (auto& f : futs) total += f.get();
  EXPECT_EQ(total, 16);
  EXPECT_GT(rt.governor().loop_degree(), 1);  // single stream -> share loops
}

TEST(NativeRuntime, ParallelForUsesGovernorDegree) {
  NativeRuntime rt(4);
  std::atomic<std::int64_t> sum{0};
  rt.parallel_for(0, 256, [&sum](std::int64_t lo, std::int64_t hi) {
    sum.fetch_add(hi - lo);
  }, 16);
  EXPECT_EQ(sum.load(), 256);
}

}  // namespace
}  // namespace cbe::native
