// Discrete-event simulation engine.
//
// Deterministic: events at equal timestamps fire in scheduling order (a
// monotonically increasing sequence number breaks ties), so a given seed
// always produces the same makespan regardless of host behaviour.
//
// Event queue (DESIGN.md §10): a two-band lazy queue instead of one global
// binary heap.  The earliest band of events lives in `band_`, a vector
// sorted once by (t, seq) and drained by index; events scheduled into the
// band after that sort (reentrant schedules from callbacks) go to `near_`,
// a small binary heap; everything past the band boundary sits unsorted in
// `far_` and is carved into the next band — O(chunk log chunk) amortized —
// only when the current band drains.  The pop order is exactly the (t, seq)
// total order a heap would produce, so traces are bit-identical to the old
// implementation; the win is that the common case pops from a sorted run
// (one compare against a tiny heap head) instead of sifting a million-entry
// heap, and `far_` absorbs schedules with zero comparisons.
//
// Cancellation uses a slot table with generation counters: cancel() marks
// the slot and the queue skips dead entries lazily.  A `dead_` counter
// bounds the corpses: when cancelled entries outnumber live ones the queue
// compacts in O(n), so sustained schedule/cancel churn (the job service's
// per-dispatch watchdogs) keeps memory proportional to *live* events.
// Generations are 64-bit, so a stale EventId can never alias a recycled
// slot within any physically reachable run length.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace cbe::sim {

/// Handle for a scheduled event; valid until the event fires or is cancelled.
struct EventId {
  std::uint32_t slot = UINT32_MAX;
  std::uint64_t generation = 0;
  bool valid() const noexcept { return slot != UINT32_MAX; }
};

class Engine {
 public:
  using Callback = SmallFn;

  /// Schedules `cb` at absolute time `t` (must be >= now()).
  EventId schedule_at(Time t, Callback cb);
  /// Schedules `cb` at now() + dt.  Negative dt clamps to zero (documented:
  /// "no earlier than now"); a dt that would overflow now() + dt past
  /// Time::max() throws std::overflow_error instead of wrapping.
  EventId schedule_after(Time dt, Callback cb);
  /// Cancels a pending event; no-op if it already fired or was cancelled.
  void cancel(EventId id) noexcept;
  /// True if the event is still pending.
  bool pending(EventId id) const noexcept;

  Time now() const noexcept { return now_; }

  /// Runs until the event queue drains.  Returns the final time, which is
  /// the timestamp of the last event fired (now() does NOT jump to
  /// Time::max()).
  Time run();
  /// Simulates the window up to and including events at t == limit.  On
  /// return now() == limit even when the queue drained early or the next
  /// event lies beyond the window — the caller asked for the whole window,
  /// and downstream idle-tail attribution (src/analysis/) needs the window
  /// end, not the last-event time.  Exception: limit == Time::max() means
  /// "drain" (this is what run() calls) and leaves now() at the last event.
  Time run_until(Time limit);

  std::uint64_t events_processed() const noexcept { return processed_; }
  std::size_t events_pending() const noexcept { return live_; }
  /// Cancelled entries still resident in the queue.  Invariant (the leak
  /// fix): dead <= max(live, compaction minimum) after every mutation.
  std::size_t events_dead() const noexcept { return dead_; }
  /// Resident queue entries, live + dead.
  std::size_t queue_size() const noexcept {
    return (band_.size() - band_pos_) + near_.size() + far_.size();
  }
  /// High-water marks, for bounded-memory assertions in long-running
  /// services: queue_peak() <= 2 * live_peak() + compaction minimum.
  std::size_t queue_peak() const noexcept { return queue_peak_; }
  std::size_t live_peak() const noexcept { return live_peak_; }

 private:
  struct Entry {
    Time t;
    std::uint64_t seq;
    std::uint64_t generation;
    std::uint32_t slot;
    bool operator>(const Entry& o) const noexcept {
      if (t != o.t) return t > o.t;
      return seq > o.seq;
    }
    bool operator<(const Entry& o) const noexcept {
      if (t != o.t) return t < o.t;
      return seq < o.seq;
    }
  };
  struct Slot {
    Callback cb;
    std::uint64_t generation = 0;
    bool live = false;
  };

  // Minimum band carved from far_ per refill (the actual chunk scales to a
  // quarter of the backlog, keeping refills amortized O(1) per event);
  // compaction fires when dead entries outnumber live ones and there are at
  // least kCompactMin of them (so tiny queues don't compact on every cancel).
  static constexpr std::size_t kBandChunk = 1024;
  static constexpr std::size_t kCompactMin = 64;

  std::uint32_t acquire_slot();
  bool is_dead(const Entry& e) const noexcept {
    const Slot& s = slots_[e.slot];
    return !s.live || s.generation != e.generation;
  }
  /// Locates the earliest live entry: 0 = queue empty, 1 = band head,
  /// 2 = near-heap head.  Skims dead heads and refills the band as needed.
  int find_head();
  void refill_band();
  /// Drops every dead entry from all three regions in O(n); no allocation,
  /// so cancel() stays noexcept.
  void compact() noexcept;
  void note_queue_growth() noexcept {
    const std::size_t q = queue_size();
    if (q > queue_peak_) queue_peak_ = q;
  }

  std::vector<Entry> band_;   ///< sorted by (t, seq), drained via band_pos_
  std::size_t band_pos_ = 0;
  std::vector<Entry> near_;   ///< min-heap: t <= band_max_, post-sort inserts
  std::vector<Entry> far_;    ///< unsorted: t > band_max_
  Time band_max_ = Time::ns(-1);  ///< inclusive band boundary

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Time now_;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;
  std::size_t queue_peak_ = 0;
  std::size_t live_peak_ = 0;
};

}  // namespace cbe::sim
