#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <stdexcept>
#include <utility>

#include "trace/trace.hpp"

namespace cbe::sim {

std::uint32_t Engine::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

EventId Engine::schedule_at(Time t, Callback cb) {
  if (t < now_) {
    throw std::logic_error("Engine::schedule_at: time in the past");
  }
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.live = true;
  ++live_;
  if (live_ > live_peak_) live_peak_ = live_;
  const Entry e{t, seq_++, s.generation, slot};
  if (t <= band_max_) {
    near_.push_back(e);
    std::push_heap(near_.begin(), near_.end(), std::greater<Entry>{});
  } else {
    far_.push_back(e);
  }
  note_queue_growth();
  return EventId{slot, s.generation};
}

EventId Engine::schedule_after(Time dt, Callback cb) {
  if (dt < Time()) dt = Time();
  if (dt > Time::max() - now_) {
    throw std::overflow_error("Engine::schedule_after: now() + dt overflows");
  }
  return schedule_at(now_ + dt, std::move(cb));
}

void Engine::cancel(EventId id) noexcept {
  if (!id.valid() || id.slot >= slots_.size()) return;
  Slot& s = slots_[id.slot];
  if (s.live && s.generation == id.generation) {
    s.live = false;
    s.cb = nullptr;
    ++s.generation;
    free_slots_.push_back(id.slot);
    --live_;
    // The queue entry stays behind as a corpse the pops skip — but bounded:
    // once corpses outnumber live events, sweep them all in O(n).
    ++dead_;
    if (dead_ > live_ && dead_ >= kCompactMin) compact();
  }
}

bool Engine::pending(EventId id) const noexcept {
  return id.valid() && id.slot < slots_.size() &&
         slots_[id.slot].live && slots_[id.slot].generation == id.generation;
}

int Engine::find_head() {
  for (;;) {
    while (band_pos_ < band_.size() && is_dead(band_[band_pos_])) {
      ++band_pos_;
      --dead_;
    }
    while (!near_.empty() && is_dead(near_.front())) {
      std::pop_heap(near_.begin(), near_.end(), std::greater<Entry>{});
      near_.pop_back();
      --dead_;
    }
    const bool b = band_pos_ < band_.size();
    const bool n = !near_.empty();
    if (!b && !n) {
      if (far_.empty()) return 0;
      refill_band();
      continue;
    }
    if (b && n) return band_[band_pos_] < near_.front() ? 1 : 2;
    return b ? 1 : 2;
  }
}

void Engine::refill_band() {
  assert(band_pos_ >= band_.size() && near_.empty() && !far_.empty());
  band_.clear();
  band_pos_ = 0;
  if (far_.size() <= 2 * kBandChunk) {
    band_.swap(far_);
    Time mx = band_.front().t;
    for (const Entry& e : band_) mx = std::max(mx, e.t);
    band_max_ = mx;
  } else {
    // Carve off the earliest chunk, split on a pure time boundary so equal
    // timestamps never straddle the band edge.  The chunk scales with the
    // backlog: each refill costs O(|far|) in nth_element/erase but drains at
    // least a quarter of it, so a deep pre-scheduled backlog costs O(1)
    // amortized refill work per event instead of O(|far|/kBandChunk).
    const std::size_t chunk = std::max(kBandChunk, far_.size() / 4);
    std::nth_element(far_.begin(),
                     far_.begin() + static_cast<std::ptrdiff_t>(chunk),
                     far_.end());
    const Time tb = far_[chunk].t;
    auto mid = std::partition(far_.begin(), far_.end(),
                              [tb](const Entry& e) { return e.t < tb; });
    if (mid == far_.begin()) {
      // Every earliest event ties at tb: take the whole tie group.
      mid = std::partition(far_.begin(), far_.end(),
                           [tb](const Entry& e) { return e.t == tb; });
      band_max_ = tb;
    } else {
      band_max_ = tb - Time::ns(1);
    }
    band_.assign(std::make_move_iterator(far_.begin()),
                 std::make_move_iterator(mid));
    far_.erase(far_.begin(), mid);
  }
  std::sort(band_.begin(), band_.end());
}

void Engine::compact() noexcept {
  const auto dead = [this](const Entry& e) { return is_dead(e); };
  band_.erase(band_.begin(),
              band_.begin() + static_cast<std::ptrdiff_t>(band_pos_));
  band_pos_ = 0;
  band_.erase(std::remove_if(band_.begin(), band_.end(), dead), band_.end());
  near_.erase(std::remove_if(near_.begin(), near_.end(), dead), near_.end());
  std::make_heap(near_.begin(), near_.end(), std::greater<Entry>{});
  far_.erase(std::remove_if(far_.begin(), far_.end(), dead), far_.end());
  dead_ = 0;  // every dead entry was resident in exactly one region
}

Time Engine::run() { return run_until(Time::max()); }

Time Engine::run_until(Time limit) {
  for (;;) {
    const int h = find_head();
    if (h == 0) break;
    const Entry& head = h == 1 ? band_[band_pos_] : near_.front();
    if (head.t > limit) break;
    const Entry e = head;
    if (h == 1) {
      ++band_pos_;
    } else {
      std::pop_heap(near_.begin(), near_.end(), std::greater<Entry>{});
      near_.pop_back();
    }
    Slot& s = slots_[e.slot];
    assert(e.t >= now_);
    now_ = e.t;
    Callback cb = std::move(s.cb);
    s.live = false;
    ++s.generation;
    free_slots_.push_back(e.slot);
    --live_;
    ++processed_;
    cb();
  }
  // Window semantics: the caller simulated [now, limit], so the clock lands
  // on the window end — except for the drain sentinel (see header).
  if (limit < Time::max() && now_ < limit) now_ = limit;
  CBE_TRACE_EVENT(now_.nanoseconds(), trace::EventKind::EngineDrain, -1, -1,
                  static_cast<std::int64_t>(processed_),
                  static_cast<std::int64_t>(live_));
  return now_;
}

}  // namespace cbe::sim
