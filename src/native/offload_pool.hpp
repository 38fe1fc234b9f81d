// Host-threads backend: the runtime's scheduling ideas (event-driven task
// off-loading plus adaptive loop work-sharing) running on real std::thread
// workers instead of the simulated SPEs.  This is what makes the library
// usable outside the simulator: examples off-load real kernels here.
//
// The pool mirrors the Cell topology: a fixed set of "SPE" workers that
// serve off-loaded tasks, and a work-sharing primitive that splits a loop
// across the *idle* workers, master-participating — the host analogue of the
// paper's LLP executor.
//
// Execution is work-stealing (DESIGN.md §9): each worker owns a bounded
// Chase–Lev deque.  A task submitted from a worker thread of this pool is
// pushed lock-free onto that worker's own deque (the fast path — nested
// off-loads and parallel_for helpers never touch a lock); tasks submitted
// from outside, and overflow from a full deque, go through a mutex-guarded
// shared injection queue.  An idle worker drains its own deque LIFO, then
// the injection queue, then steals FIFO from its peers (lock-free CAS);
// only after all three come up empty does it park on a condition variable
// with a short timeout backstop, so a lost wakeup race costs at most one
// timeout period of latency, never liveness.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <vector>

#include "native/work_deque.hpp"

namespace cbe::trace {
class FlightRecorder;
class Histogram;
class MetricsRegistry;
}  // namespace cbe::trace

namespace cbe::native {

class OffloadPool;

/// Thrown (through the returned future) when a checked off-load keeps
/// failing its redundant-execution comparison: the pool fails *closed*
/// rather than handing back a result it could not confirm.
class IntegrityError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Cooperative cancellation handle for deadline off-loads.  The task owns
/// the computation but must publish results through try_commit(); once the
/// watchdog declares the deadline expired, try_commit() refuses to run the
/// commit function.  Expiry declaration and commit are serialized by one
/// mutex, so a task can never write into storage its caller reclaimed after
/// observing the timeout — the two outcomes (committed / expired) are
/// mutually exclusive.
class DeadlineToken {
 public:
  /// True once the watchdog declared this deadline missed.  Advisory: use
  /// it to stop early; only try_commit() is authoritative for publication.
  bool expired() const;

  /// Runs `commit` and marks the task done, unless the deadline already
  /// expired — then `commit` is not invoked at all and false is returned.
  /// The caller's timeout handler is guaranteed to have exclusive ownership
  /// of the result storage once it runs, because expiry and commit hold the
  /// same lock.
  bool try_commit(const std::function<void()>& commit) const;

 private:
  friend class OffloadPool;
  struct State {
    std::mutex mu;
    bool done = false;     ///< task committed (or legacy task finished)
    bool expired = false;  ///< watchdog declared the deadline missed
  };
  explicit DeadlineToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

class OffloadPool {
 public:
  /// `workers` <= 0 selects hardware_concurrency - 1 (min 1).
  explicit OffloadPool(int workers = 0);
  ~OffloadPool();

  OffloadPool(const OffloadPool&) = delete;
  OffloadPool& operator=(const OffloadPool&) = delete;

  int workers() const noexcept { return static_cast<int>(threads_.size()); }

  /// Off-loads a task; the returned future completes when it ran.
  std::future<void> offload(std::function<void()> task);

  /// Off-loads a computation with a result.
  template <typename F, typename R = std::invoke_result_t<F>>
  std::future<R> offload_result(F&& f) {
    auto prom = std::make_shared<std::promise<R>>();
    std::future<R> fut = prom->get_future();
    enqueue([this, prom, fn = std::forward<F>(f)]() mutable {
      try {
        if constexpr (std::is_void_v<R>) {
          fn();
          set_result(*prom);
        } else {
          set_result(*prom, fn());
        }
      } catch (...) {
        set_error(*prom, std::current_exception());
      }
    });
    return fut;
  }

  /// Off-loads `task`, re-running it up to `max_retries` extra times with
  /// exponential backoff (base_backoff, doubled per attempt) when it throws
  /// — the host analogue of the simulator's transient-DMA retry.  The
  /// future carries the last exception once the budget is exhausted.
  std::future<void> offload_with_retry(
      std::function<void()> task, int max_retries = 2,
      std::chrono::microseconds base_backoff =
          std::chrono::microseconds(100));

  /// Off-loads a computation whose declared result is a 64-bit checksum
  /// (e.g. a CRC of the real output).  A deterministic sample of checked
  /// off-loads — `fraction` set by set_verify_fraction(), drawn by
  /// submission index — is executed twice and the checksums compared; a
  /// mismatch re-runs the task (up to `max_retries` extra attempts, each
  /// verified) and, if agreement is never reached, the future carries an
  /// IntegrityError instead of a value.  A confirmed-or-nothing contract:
  /// the caller can never observe an unverified mismatch as a clean result.
  std::future<std::uint64_t> offload_checked(
      std::function<std::uint64_t()> task, int max_retries = 2);

  /// Sets the redundant-execution sampling fraction for offload_checked
  /// (0 = never verify, 1 = verify everything).  The sample is a pure
  /// function of (seed, submission index), so a run's verify schedule is
  /// reproducible.
  void set_verify_fraction(double fraction, std::uint64_t seed = 0) noexcept;

  /// Off-loads `task` under a wall-clock deadline.  If it has not finished
  /// by then, the miss is counted and `on_timeout` (if any) fires once on
  /// the watchdog thread.  The task itself runs to completion regardless —
  /// host threads cannot be safely killed — so this detects stragglers
  /// rather than cancelling them.  NOTE: because the abandoned task keeps
  /// running, it must not write through references the timeout handler may
  /// invalidate; use the DeadlineToken overload for that.
  std::future<void> offload_with_deadline(
      std::function<void()> task, std::chrono::microseconds deadline,
      std::function<void()> on_timeout = {});

  /// Deadline off-load with safe result publication.  The task receives a
  /// DeadlineToken and must publish its results via token.try_commit(...);
  /// by the time `on_timeout` runs, the deadline has been declared expired
  /// under the token's lock, so any later try_commit is a guaranteed no-op
  /// and the caller may free or reuse the result storage inside
  /// `on_timeout` (or after the miss is observed) without racing the
  /// abandoned task.
  std::future<void> offload_with_deadline(
      std::function<void(const DeadlineToken&)> task,
      std::chrono::microseconds deadline,
      std::function<void()> on_timeout = {});

  /// Work-shares [begin, end) across up to `degree` participants (the
  /// calling thread included, playing the master SPE).  Chunks are claimed
  /// dynamically from an atomic cursor (grain-sized), so late-starting
  /// workers self-balance — the host analogue of the paper's purposeful
  /// load unbalancing.  Blocks until the whole range is done.
  ///
  /// If the body throws, the first exception is captured, remaining chunks
  /// are abandoned, and the exception is rethrown here on the caller once
  /// every running participant has stopped.  The pool stays usable.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t, std::int64_t)>&
                        body,
                    int degree, std::int64_t grain = 256);

  /// Tasks the workers have completed.  A task counts before its future
  /// becomes ready, so a caller holding every result sees every task.
  std::uint64_t tasks_executed() const noexcept {
    return tasks_executed_.load(std::memory_order_relaxed);
  }
  /// Task re-executions performed by offload_with_retry.
  std::uint64_t retries() const noexcept {
    return retries_.load(std::memory_order_relaxed);
  }
  /// Deadlines that expired before their task completed.
  std::uint64_t deadline_misses() const noexcept {
    return deadline_misses_.load(std::memory_order_relaxed);
  }
  /// Tasks a worker took from another worker's deque.
  std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }
  /// Redundant executions run by offload_checked's sampled verification.
  std::uint64_t verified_reexecs() const noexcept {
    return verified_reexecs_.load(std::memory_order_relaxed);
  }
  /// Checksum disagreements the verification caught.
  std::uint64_t integrity_mismatches() const noexcept {
    return integrity_mismatches_.load(std::memory_order_relaxed);
  }

  /// Streams per-task dispatch/complete events into `rec` (timestamps are
  /// steady-clock ns since pool construction; spe=worker index; span=the
  /// submitter's).  Each worker records into its own ring of the recorder,
  /// so recording is lock-free.  Pass nullptr to detach.  A no-op with
  /// CBE_TRACE=OFF.
  void set_trace(trace::FlightRecorder* rec) noexcept;
  /// Records per-task latency into `m`'s "native.task_us" histogram.
  /// Pass nullptr to detach.  A no-op with CBE_TRACE=OFF.
  void set_metrics(trace::MetricsRegistry* m);

 private:
  /// A queued task plus the causal span of its submitter, captured at
  /// enqueue() so the span survives the thread hop: the worker re-installs
  /// it before recording/running, and cell_profiler can attribute pool-side
  /// TaskDispatch/TaskComplete events to the job that off-loaded them.
  struct Job {
    std::function<void()> fn;
    std::uint64_t span = 0;  // trace::kNoSpan
  };

  struct Deadline {
    std::chrono::steady_clock::time_point at;
    std::shared_ptr<DeadlineToken::State> state;
    std::function<void()> on_timeout;
    bool operator>(const Deadline& o) const noexcept { return at > o.at; }
  };

  std::shared_ptr<DeadlineToken::State> arm_deadline(
      std::chrono::microseconds deadline, std::function<void()> on_timeout);
  void enqueue(std::function<void()> job);
  void worker_loop(int index);
  /// Per-task bookkeeping (tasks_executed, TaskComplete event, latency
  /// sample) for the task the calling worker runs; once per task.
  void finish_task() noexcept;
  /// Publish a task's outcome after its bookkeeping, so a caller that sees
  /// the result also sees the task counted and traced as complete.
  template <typename T, typename... V>
  void set_result(std::promise<T>& p, V&&... v) {
    finish_task();
    p.set_value(std::forward<V>(v)...);
  }
  template <typename T>
  void set_error(std::promise<T>& p, std::exception_ptr e) {
    finish_task();
    p.set_exception(std::move(e));
  }
  void watchdog_loop();
  /// Wakes one parked worker iff any are parked (lock-free check first).
  void wake_one();
  /// Steals one task from a peer deque, scanning from `self + 1`.
  Job* try_steal(int self) noexcept;
  bool any_deque_nonempty() const noexcept;

  // Shared injection queue (external submitters + deque overflow) and the
  // park/wake channel; `mu_` guards queue_, stop_, work_epoch_, sleepers_.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job*> queue_;
  std::uint64_t work_epoch_ = 0;  ///< bumped per lock-free push, for waits
  std::atomic<int> sleepers_{0};  ///< parked workers (producers peek at it)
  // Per-worker Chase–Lev deques; stable addresses across the pool's life.
  std::vector<std::unique_ptr<WorkStealingDeque<Job>>> deques_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> steals_{0};

  // Sampled redundant execution (offload_checked).
  std::atomic<double> verify_fraction_{0.0};
  std::atomic<std::uint64_t> verify_seed_{0};
  std::atomic<std::uint64_t> checked_seq_{0};
  std::atomic<std::uint64_t> verified_reexecs_{0};
  std::atomic<std::uint64_t> integrity_mismatches_{0};

  // Observability (see set_trace / set_metrics).
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::atomic<trace::FlightRecorder*> trace_rec_{nullptr};
  std::atomic<trace::Histogram*> task_hist_{nullptr};
  std::atomic<std::uint64_t> next_task_id_{0};

  // Deadline watchdog: one lazily started thread serving a min-heap of
  // outstanding deadlines.
  std::mutex wd_mu_;
  std::condition_variable wd_cv_;
  std::priority_queue<Deadline, std::vector<Deadline>, std::greater<Deadline>>
      deadlines_;
  std::thread wd_thread_;
  bool wd_stop_ = false;
  std::atomic<std::uint64_t> deadline_misses_{0};
};

}  // namespace cbe::native
