#include "native/offload_pool.hpp"

#include <algorithm>

#include "trace/metrics.hpp"
#include "trace/recorder.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace cbe::native {

namespace {

/// Identifies the pool (if any) the current thread is a worker of, so
/// enqueue() can take the lock-free own-deque fast path.  Pool identity is
/// checked on every use: threads of pool A submitting into pool B go
/// through B's injection queue like any external thread.
struct WorkerTls {
  OffloadPool* pool = nullptr;
  int index = -1;
  bool finished = true;  ///< finish_task() already ran for the current task
#if CBE_TRACE_ENABLED
  trace::FlightRecorder* rec = nullptr;  ///< loaded at dispatch
  std::int32_t task_id = 0;
  std::chrono::steady_clock::time_point t0;
#endif
};
thread_local WorkerTls tls_worker;

}  // namespace

OffloadPool::OffloadPool(int workers) {
  if (workers <= 0) {
    workers = std::max(1u, std::thread::hardware_concurrency()) > 1
                  ? static_cast<int>(std::thread::hardware_concurrency()) - 1
                  : 1;
  }
  deques_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    deques_.push_back(std::make_unique<WorkStealingDeque<Job>>());
  }
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

void OffloadPool::set_trace(trace::FlightRecorder* rec) noexcept {
#if CBE_TRACE_ENABLED
  trace_rec_.store(rec, std::memory_order_release);
#else
  (void)rec;
#endif
}

void OffloadPool::set_metrics(trace::MetricsRegistry* m) {
#if CBE_TRACE_ENABLED
  task_hist_.store(m != nullptr ? &m->histogram("native.task_us") : nullptr,
                   std::memory_order_release);
#else
  (void)m;
#endif
}

OffloadPool::~OffloadPool() {
  {
    std::lock_guard lock(wd_mu_);
    wd_stop_ = true;
  }
  wd_cv_.notify_all();
  if (wd_thread_.joinable()) wd_thread_.join();
  {
    std::lock_guard lock(mu_);
    stop_ = true;
    ++work_epoch_;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
  // Workers drain everything before exiting; anything left here means a
  // task was submitted after shutdown began — never run, but not leaked.
  for (Job* j : queue_) delete j;
  for (auto& d : deques_) {
    while (Job* j = d->pop()) delete j;
  }
}

void OffloadPool::wake_one() {
  // Lock-free in the common no-sleepers case.  When someone is (or is
  // about to be) parked, bump the epoch under the lock so the sleeper's
  // predicate observes it; a sleeper that raced past the check parks for
  // at most one wait_for timeout.
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  {
    std::lock_guard lock(mu_);
    ++work_epoch_;
  }
  cv_.notify_one();
}

void OffloadPool::enqueue(std::function<void()> job) {
  auto* node = new Job{std::move(job), trace::current_span()};
  if (tls_worker.pool == this && tls_worker.index >= 0 &&
      deques_[static_cast<std::size_t>(tls_worker.index)]->push(node)) {
    wake_one();  // lock-free fast path: own-deque push succeeded
    return;
  }
  // External submitter, or the own deque is full: shared injection queue.
  {
    std::lock_guard lock(mu_);
    queue_.push_back(node);
    ++work_epoch_;
  }
  cv_.notify_one();
}

OffloadPool::Job* OffloadPool::try_steal(int self) noexcept {
  const int n = static_cast<int>(deques_.size());
  // Two sweeps so one lost CAS per victim doesn't abandon a loaded deque.
  for (int round = 0; round < 2; ++round) {
    for (int k = 1; k < n; ++k) {
      const int victim = (self + k) % n;
      if (Job* j = deques_[static_cast<std::size_t>(victim)]->steal()) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        return j;
      }
    }
  }
  return nullptr;
}

bool OffloadPool::any_deque_nonempty() const noexcept {
  for (const auto& d : deques_) {
    if (d->maybe_nonempty()) return true;
  }
  return false;
}

std::future<void> OffloadPool::offload(std::function<void()> task) {
  return offload_result([task = std::move(task)] { task(); });
}

std::future<void> OffloadPool::offload_with_retry(
    std::function<void()> task, int max_retries,
    std::chrono::microseconds base_backoff) {
  auto prom = std::make_shared<std::promise<void>>();
  std::future<void> fut = prom->get_future();
  enqueue([this, prom, task = std::move(task), max_retries, base_backoff] {
    std::chrono::microseconds backoff = base_backoff;
    for (int attempt = 0;; ++attempt) {
      try {
        task();
        set_result(*prom);
        return;
      } catch (...) {
        if (attempt >= max_retries) {
          set_error(*prom, std::current_exception());
          return;
        }
        retries_.fetch_add(1, std::memory_order_relaxed);
        if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
        backoff *= 2;
      }
    }
  });
  return fut;
}

void OffloadPool::set_verify_fraction(double fraction,
                                      std::uint64_t seed) noexcept {
  verify_fraction_.store(fraction, std::memory_order_relaxed);
  verify_seed_.store(seed, std::memory_order_relaxed);
}

std::future<std::uint64_t> OffloadPool::offload_checked(
    std::function<std::uint64_t()> task, int max_retries) {
  auto prom = std::make_shared<std::promise<std::uint64_t>>();
  std::future<std::uint64_t> fut = prom->get_future();
  // The sample is drawn at submission so the verify schedule depends only on
  // (seed, submission index), not on which worker runs the task or when.
  const std::uint64_t ix = checked_seq_.fetch_add(1, std::memory_order_relaxed);
  const double fraction = verify_fraction_.load(std::memory_order_relaxed);
  bool sampled = fraction >= 1.0;
  if (!sampled && fraction > 0.0) {
    std::uint64_t state = verify_seed_.load(std::memory_order_relaxed) ^
                          (ix * 0x9e3779b97f4a7c15ull + 1);
    sampled = static_cast<double>(util::splitmix64(state) >> 11) * 0x1.0p-53 <
              fraction;
  }
  enqueue([this, prom, task = std::move(task), sampled, max_retries] {
    try {
      for (int attempt = 0;; ++attempt) {
        const std::uint64_t r = task();
        if (!sampled) {
          set_result(*prom, r);
          return;
        }
        verified_reexecs_.fetch_add(1, std::memory_order_relaxed);
        if (task() == r) {
          set_result(*prom, r);
          return;
        }
        integrity_mismatches_.fetch_add(1, std::memory_order_relaxed);
        if (attempt >= max_retries) {
          // Fail closed: agreement was never reached, so no checksum is
          // trustworthy enough to hand back.
          set_error(*prom, std::make_exception_ptr(IntegrityError(
              "offload_checked: redundant executions kept disagreeing")));
          return;
        }
        retries_.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (...) {
      set_error(*prom, std::current_exception());
    }
  });
  return fut;
}

bool DeadlineToken::expired() const {
  std::lock_guard lock(state_->mu);
  return state_->expired;
}

bool DeadlineToken::try_commit(const std::function<void()>& commit) const {
  // One lock serializes commit against the watchdog's expiry declaration:
  // either the commit runs first (and the watchdog then sees done), or the
  // expiry lands first (and the commit is refused).  There is no window in
  // which the task writes while the caller believes it was abandoned.
  std::lock_guard lock(state_->mu);
  if (state_->expired) return false;
  commit();
  state_->done = true;
  return true;
}

std::shared_ptr<DeadlineToken::State> OffloadPool::arm_deadline(
    std::chrono::microseconds deadline, std::function<void()> on_timeout) {
  auto state = std::make_shared<DeadlineToken::State>();
  const auto at = std::chrono::steady_clock::now() + deadline;
  {
    std::lock_guard lock(wd_mu_);
    if (!wd_thread_.joinable()) {
      wd_thread_ = std::thread([this] { watchdog_loop(); });
    }
    deadlines_.push({at, state, std::move(on_timeout)});
  }
  wd_cv_.notify_one();
  return state;
}

std::future<void> OffloadPool::offload_with_deadline(
    std::function<void()> task, std::chrono::microseconds deadline,
    std::function<void()> on_timeout) {
  auto state = arm_deadline(deadline, std::move(on_timeout));
  return offload_result([task = std::move(task), state] {
    // Mark completion even on a throwing task: the future already carries
    // the failure, a deadline miss on top would be noise.
    struct Mark {
      std::shared_ptr<DeadlineToken::State> s;
      ~Mark() {
        std::lock_guard lock(s->mu);
        s->done = true;
      }
    } mark{state};
    task();
  });
}

std::future<void> OffloadPool::offload_with_deadline(
    std::function<void(const DeadlineToken&)> task,
    std::chrono::microseconds deadline, std::function<void()> on_timeout) {
  auto state = arm_deadline(deadline, std::move(on_timeout));
  return offload_result([task = std::move(task), state] {
    task(DeadlineToken(state));
    // Deliberately no unconditional done-marking here: a task that never
    // committed is still outstanding from the watchdog's point of view.
  });
}

void OffloadPool::watchdog_loop() {
  std::unique_lock lock(wd_mu_);
  while (!wd_stop_) {
    if (deadlines_.empty()) {
      wd_cv_.wait(lock, [this] { return wd_stop_ || !deadlines_.empty(); });
      continue;
    }
    const auto next = deadlines_.top().at;
    const bool woken = wd_cv_.wait_until(lock, next, [this, next] {
      return wd_stop_ ||
             (!deadlines_.empty() && deadlines_.top().at < next);
    });
    if (woken) continue;  // stopping, or an earlier deadline arrived
    const auto now = std::chrono::steady_clock::now();
    while (!deadlines_.empty() && deadlines_.top().at <= now) {
      Deadline d = deadlines_.top();
      deadlines_.pop();
      lock.unlock();
      bool missed = false;
      {
        // Declare expiry under the token lock: after this block no
        // try_commit can succeed, so on_timeout (and the caller once it
        // observes the miss) owns the result storage exclusively.
        std::lock_guard token_lock(d.state->mu);
        if (!d.state->done) {
          d.state->expired = true;
          missed = true;
        }
      }
      if (missed) {
        deadline_misses_.fetch_add(1, std::memory_order_relaxed);
        if (d.on_timeout) d.on_timeout();
      }
      lock.lock();
    }
  }
}

void OffloadPool::worker_loop(int index) {
  tls_worker.pool = this;
  tls_worker.index = index;
  WorkStealingDeque<Job>& own = *deques_[static_cast<std::size_t>(index)];
  for (;;) {
    // Own deque (LIFO, lock-free) -> injection queue -> steal (FIFO).
    Job* job = own.pop();
    if (job == nullptr) {
      std::lock_guard lock(mu_);
      if (!queue_.empty()) {
        job = queue_.front();
        queue_.pop_front();
      }
    }
    if (job == nullptr) job = try_steal(index);
    if (job == nullptr) {
      std::unique_lock lock(mu_);
      if (!queue_.empty()) continue;  // raced an injection: rescan
      if (stop_) {
        lock.unlock();
        // Drain stragglers other workers left behind before exiting: a
        // worker only exits once every visible source is empty.
        if (any_deque_nonempty()) continue;
        return;
      }
      const std::uint64_t epoch = work_epoch_;
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      // The timeout is the backstop for the one benign race (a producer
      // that read sleepers_ == 0 just before this park): it bounds the
      // latency of a lost wakeup, it is not needed for correctness of
      // shutdown (stop_ bumps the epoch under the lock).
      cv_.wait_for(lock, std::chrono::milliseconds(1), [this, epoch] {
        return stop_ || !queue_.empty() || work_epoch_ != epoch;
      });
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      continue;
    }

    // Re-install the submitter's span for the task's whole execution, so
    // both trace records below and any nested enqueue() inherit it.
    trace::ScopedSpan span(job->span);
#if CBE_TRACE_ENABLED
    trace::FlightRecorder* rec = trace_rec_.load(std::memory_order_acquire);
    const auto task_id = static_cast<std::int32_t>(
        next_task_id_.fetch_add(1, std::memory_order_relaxed));
    const auto t0 = std::chrono::steady_clock::now();
    if (rec != nullptr) {
      rec->record(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - epoch_)
              .count(),
          trace::EventKind::TaskDispatch, index, task_id);
    }
    tls_worker.rec = rec;
    tls_worker.task_id = task_id;
    tls_worker.t0 = t0;
#endif
    tls_worker.finished = false;
    job->fn();  // offload wrappers call finish_task() before publishing
    delete job;
    finish_task();  // tasks without a future: parallel_for helpers
  }
}

void OffloadPool::finish_task() noexcept {
  WorkerTls& w = tls_worker;
  if (w.pool != this || w.finished) return;
  w.finished = true;
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
#if CBE_TRACE_ENABLED
  const auto t1 = std::chrono::steady_clock::now();
  if (w.rec != nullptr) {
    w.rec->record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - epoch_)
            .count(),
        trace::EventKind::TaskComplete, w.index, w.task_id);
  }
  if (trace::Histogram* h = task_hist_.load(std::memory_order_acquire)) {
    h->observe(std::chrono::duration<double, std::micro>(t1 - w.t0).count());
  }
#endif
}

void OffloadPool::parallel_for(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& body, int degree,
    std::int64_t grain) {
  if (begin >= end) return;
  grain = std::max<std::int64_t>(grain, 1);
  degree = std::clamp(degree, 1, workers() + 1);

  // Shared, self-contained loop state.  Chunks are claimed from one atomic
  // cursor, so every index in [begin, end) is covered by exactly one chunk
  // — including the short tail when the trip count does not divide evenly
  // (hi is clamped to end; the next claimant sees lo >= end and stops).
  // Helpers that start late (or after the loop already finished) find the
  // cursor exhausted and return, so the master never has to wait for
  // *queued-but-unstarted* helpers — that wait is what would deadlock a
  // pool whose workers nest parallel_for inside off-loaded tasks.  The
  // master instead waits on the completed-iteration counter, which only
  // running participants advance.  Helper tasks are submitted through
  // enqueue(), so a helper spawned from a worker lands in that worker's
  // own deque and idle peers pick it up by stealing.
  struct LoopState {
    std::atomic<std::int64_t> cursor;
    std::atomic<std::int64_t> completed{0};
    std::atomic<int> inflight{0};  ///< participants inside run_chunks
    std::atomic<bool> has_error{false};
    std::int64_t end;
    std::int64_t grain;
    std::function<void(std::int64_t, std::int64_t)> body;
    std::mutex err_mu;
    std::exception_ptr error;
  };
  auto st = std::make_shared<LoopState>();
  st->cursor.store(begin, std::memory_order_relaxed);
  st->end = end;
  st->grain = grain;
  st->body = body;

  auto run_chunks = [](LoopState& s) {
    s.inflight.fetch_add(1, std::memory_order_acq_rel);
    for (;;) {
      if (s.has_error.load(std::memory_order_acquire)) break;
      const std::int64_t lo =
          s.cursor.fetch_add(s.grain, std::memory_order_relaxed);
      if (lo >= s.end) break;
      const std::int64_t hi = std::min(lo + s.grain, s.end);
      try {
        s.body(lo, hi);
      } catch (...) {
        {
          std::lock_guard lk(s.err_mu);
          if (!s.error) s.error = std::current_exception();
        }
        s.has_error.store(true, std::memory_order_release);
        // Exhaust the cursor so no further chunk is claimed.
        s.cursor.store(s.end, std::memory_order_relaxed);
        break;
      }
      s.completed.fetch_add(hi - lo, std::memory_order_acq_rel);
    }
    s.inflight.fetch_sub(1, std::memory_order_acq_rel);
  };

  for (int i = 0; i < degree - 1; ++i) {
    enqueue([st, run_chunks] { run_chunks(*st); });
  }
  run_chunks(*st);  // master participates
  // A thrown chunk never counts toward `completed`, so an error always
  // lands in the second exit condition; waiting for inflight to drain
  // guarantees no participant is still inside the body when we rethrow
  // (queued-but-unstarted helpers bail on has_error without touching it).
  const std::int64_t total = end - begin;
  while (st->completed.load(std::memory_order_acquire) < total) {
    if (st->has_error.load(std::memory_order_acquire) &&
        st->inflight.load(std::memory_order_acquire) == 0) {
      break;
    }
    std::this_thread::yield();
  }
  if (st->has_error.load(std::memory_order_acquire)) {
    std::lock_guard lk(st->err_mu);
    std::rethrow_exception(st->error);
  }
}

}  // namespace cbe::native
