// Stress suite for the work-stealing offload pool — the tests the TSan CI
// job (CBE_SANITIZE=thread) runs to prove the Chase–Lev deques, the
// injection queue and the park/wake protocol race-free.  Each test hammers
// one contended edge: many external producers, stealing under load, deque
// overflow into the injection queue, deadline expiry racing try_commit,
// and the parallel_for corner cases (0 iterations, fewer iterations than
// workers, throwing bodies, nesting, uneven tails).
#include "native/offload_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "native/work_deque.hpp"

namespace cbe::native {
namespace {

using namespace std::chrono_literals;

TEST(PoolStress, ManyExternalProducers) {
  OffloadPool pool(4);
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 500;
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  std::vector<std::future<void>> futures[kProducers];
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        futures[t].push_back(pool.offload(
            [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
      }
    });
  }
  for (auto& p : producers) p.join();
  for (auto& fs : futures) {
    for (auto& f : fs) f.get();
  }
  EXPECT_EQ(ran.load(), kProducers * kTasksPerProducer);
  // A task is counted before its future becomes ready.
  EXPECT_EQ(pool.tasks_executed(),
            static_cast<std::uint64_t>(kProducers * kTasksPerProducer));
}

TEST(PoolStress, BlockedSpawnerForcesStealing) {
  // One worker spawns subtasks (they land in its own deque via the
  // lock-free fast path) and then blocks until they all finish.  Since the
  // spawner cannot drain its own deque while blocked, every subtask must
  // be stolen by a peer — steals() has to move.
  OffloadPool pool(4);
  constexpr int kSubtasks = 256;
  std::atomic<int> done{0};
  pool.offload([&] {
        for (int i = 0; i < kSubtasks; ++i) {
          pool.offload(
              [&done] { done.fetch_add(1, std::memory_order_relaxed); });
        }
        while (done.load(std::memory_order_relaxed) < kSubtasks) {
          std::this_thread::yield();
        }
      })
      .get();
  EXPECT_EQ(done.load(), kSubtasks);
  EXPECT_GT(pool.steals(), 0u);
}

TEST(PoolStress, DequeOverflowFallsBackToInjection) {
  // A single-worker pool: the spawner is the only worker, so nothing
  // drains its deque while it floods more tasks than the deque holds.
  // The overflow must spill to the injection queue, and every task must
  // still run exactly once after the spawner returns.
  OffloadPool pool(1);
  constexpr int kFlood = 6000;  // > the 4096-slot deque
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  futures.reserve(kFlood);
  pool.offload([&] {
        for (int i = 0; i < kFlood; ++i) {
          futures.push_back(pool.offload(
              [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
        }
      })
      .get();
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), kFlood);
}

TEST(PoolStress, RawDequeOwnerVersusThieves) {
  // The deque itself, outside the pool: one owner pushing/popping against
  // three thieves.  Every pushed value must be consumed exactly once.
  WorkStealingDeque<int> dq(64);
  constexpr int kItems = 20000;
  std::vector<int> values(kItems);
  std::atomic<int> consumed{0};
  std::vector<std::atomic<int>> seen(kItems);
  std::atomic<bool> owner_done{false};
  auto consume = [&](int* v) {
    seen[static_cast<std::size_t>(v - values.data())].fetch_add(1);
    consumed.fetch_add(1, std::memory_order_relaxed);
  };
  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      while (!owner_done.load(std::memory_order_acquire) ||
             dq.maybe_nonempty()) {
        if (int* v = dq.steal()) consume(v);
      }
    });
  }
  for (int i = 0; i < kItems; ++i) {
    while (!dq.push(&values[static_cast<std::size_t>(i)])) {
      if (int* v = dq.pop()) consume(v);  // full: help drain
    }
    if ((i & 7) == 0) {
      if (int* v = dq.pop()) consume(v);  // owner LIFO pops interleaved
    }
  }
  while (int* v = dq.pop()) consume(v);
  owner_done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  while (int* v = dq.steal()) consume(v);  // anything thieves left behind
  EXPECT_EQ(consumed.load(), kItems);
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  }
}

TEST(PoolStress, DeadlineExpiryRacingCommit) {
  // Commit and expiry race on purpose: the task tries to commit at roughly
  // the same moment the watchdog declares the deadline missed.  The
  // DeadlineToken contract makes the outcomes mutually exclusive — every
  // round must see exactly one of {committed, timed out}, never both.
  OffloadPool pool(2);
  constexpr int kRounds = 60;
  int committed = 0, timed_out = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<bool> commit_ran{false};
    std::promise<void> timeout_fired;
    auto timeout_future = timeout_fired.get_future();
    bool commit_ok = false;
    pool.offload_with_deadline(
            [&](const DeadlineToken& token) {
              // Jitter so some rounds beat the deadline and some lose.
              std::this_thread::sleep_for(
                  std::chrono::microseconds(300 + 37 * (round % 17)));
              commit_ok = token.try_commit(
                  [&] { commit_ran.store(true, std::memory_order_relaxed); });
            },
            500us, [&] { timeout_fired.set_value(); })
        .get();
    if (commit_ok) {
      ++committed;
      EXPECT_TRUE(commit_ran.load());
      EXPECT_NE(timeout_future.wait_for(0s), std::future_status::ready)
          << "round " << round << ": committed AND timed out";
    } else {
      ++timed_out;
      EXPECT_FALSE(commit_ran.load())
          << "round " << round << ": commit body ran after expiry";
      // The miss is declared before try_commit can fail, and on_timeout
      // fires right after the declaration — wait for it.
      EXPECT_EQ(timeout_future.wait_for(5s), std::future_status::ready);
    }
  }
  EXPECT_EQ(committed + timed_out, kRounds);
  EXPECT_EQ(pool.deadline_misses(), static_cast<std::uint64_t>(timed_out));
}

TEST(PoolStress, ParallelForZeroIterations) {
  OffloadPool pool(3);
  std::atomic<int> calls{0};
  pool.parallel_for(
      0, 0, [&](std::int64_t, std::int64_t) { calls.fetch_add(1); }, 4);
  pool.parallel_for(
      5, 5, [&](std::int64_t, std::int64_t) { calls.fetch_add(1); }, 4);
  pool.parallel_for(
      9, 3, [&](std::int64_t, std::int64_t) { calls.fetch_add(1); }, 4);
  EXPECT_EQ(calls.load(), 0);
}

TEST(PoolStress, ParallelForFewerIterationsThanWorkers) {
  OffloadPool pool(6);
  std::vector<std::atomic<int>> hit(3);
  pool.parallel_for(
      0, 3,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          hit[static_cast<std::size_t>(i)].fetch_add(1);
        }
      },
      pool.workers() + 1, 1);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(hit[i].load(), 1) << "index " << i;
}

TEST(PoolStress, ParallelForUnevenTailCoversEveryIndexOnce) {
  // Regression guard for the classic tail-chunk double-count: n not
  // divisible by the participant count or the grain (1003 = prime), with
  // master participation.  Every index must be visited exactly once.
  OffloadPool pool(4);
  constexpr std::int64_t kN = 1003;
  std::vector<std::atomic<int>> hit(kN);
  pool.parallel_for(
      0, kN,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          hit[static_cast<std::size_t>(i)].fetch_add(1);
        }
      },
      pool.workers() + 1, 8);
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hit[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(PoolStress, ParallelForThrowingBodyPropagatesAndPoolSurvives) {
  OffloadPool pool(4);
  std::atomic<int> attempts{0};
  EXPECT_THROW(
      pool.parallel_for(
          0, 10000,
          [&](std::int64_t lo, std::int64_t) {
            attempts.fetch_add(1);
            if (lo >= 128) throw std::runtime_error("chunk failed");
          },
          pool.workers() + 1, 16),
      std::runtime_error);
  // The pool must stay fully usable: run a clean loop afterwards.
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(
      0, 1000,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
      },
      pool.workers() + 1, 32);
  EXPECT_EQ(sum.load(), 1000 * 999 / 2);
  EXPECT_GT(attempts.load(), 0);
}

TEST(PoolStress, NestedParallelForStorm) {
  // parallel_for bodies that themselves parallel_for — the nesting case
  // that deadlocks naive fork-join pools.  Helpers spawned from workers go
  // through the own-deque fast path, so this also churns the steal path.
  OffloadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(
      0, 24,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          pool.parallel_for(
              0, 100,
              [&](std::int64_t ilo, std::int64_t ihi) {
                total.fetch_add(ihi - ilo, std::memory_order_relaxed);
              },
              pool.workers() + 1, 7);
        }
      },
      pool.workers() + 1, 1);
  EXPECT_EQ(total.load(), 24 * 100);
}

TEST(PoolStress, MixedStorm) {
  // Everything at once: external producers, nested off-loads, retries and
  // parallel_for sharing the same pool.  Each retried task counts its own
  // attempts and fails only its first, so every task takes the retry path
  // once and succeeds within its budget under any interleaving.
  OffloadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::atomic<int>> attempts(4 * 50);
  std::vector<std::thread> producers;
  std::vector<std::future<void>> retry_futures;
  std::mutex retry_mu;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        std::atomic<int>* tries =
            &attempts[static_cast<std::size_t>(t * 50 + i)];
        auto f = pool.offload_with_retry(
            [&ran, tries] {
              if (tries->fetch_add(1) == 0) {
                throw std::runtime_error("transient");
              }
              ran.fetch_add(1, std::memory_order_relaxed);
            },
            5, 1us);
        std::lock_guard lock(retry_mu);
        retry_futures.push_back(std::move(f));
      }
    });
  }
  std::atomic<std::int64_t> loop_sum{0};
  for (int rep = 0; rep < 20; ++rep) {
    pool.parallel_for(
        0, 512,
        [&](std::int64_t lo, std::int64_t hi) {
          loop_sum.fetch_add(hi - lo, std::memory_order_relaxed);
        },
        pool.workers() + 1, 9);
  }
  for (auto& p : producers) p.join();
  for (auto& f : retry_futures) f.get();
  EXPECT_EQ(ran.load(), 4 * 50);
  for (const std::atomic<int>& tries : attempts) EXPECT_EQ(tries.load(), 2);
  EXPECT_EQ(loop_sum.load(), 20 * 512);
}

TEST(PoolStress, ShutdownWithQueuedWorkDoesNotHangOrLeak) {
  // Destroy pools while tasks are still in flight, repeatedly: the
  // destructor must join cleanly and delete whatever never ran (ASan
  // verifies the no-leak half; TSan the no-race half).
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    {
      OffloadPool pool(2);
      for (int i = 0; i < 64; ++i) {
        pool.offload([&ran] {
          ran.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(50us);
        });
      }
      // Destructor runs here with most tasks still queued or running.
    }
    EXPECT_GE(ran.load(), 0);
  }
}

}  // namespace
}  // namespace cbe::native
