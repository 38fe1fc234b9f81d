// Synergistic Processing Element state: occupancy, resident code image,
// local-store budget, and busy-time accounting for utilization metrics.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace cbe::cell {

enum class ModuleVariant : std::uint8_t { None, Sequential, Parallel };

/// SPE availability under fault injection.  Failed is terminal (fail-stop);
/// Degraded keeps serving tasks at a reduced clock (silent straggler).
enum class SpeHealth : std::uint8_t { Healthy, Degraded, Failed };

/// Local-store budget: code + static data + stack/heap must fit in 256 KB.
/// The runtime queries `can_load` before shipping a module (the paper keeps
/// 139 KB free for stack/heap after loading the 117 KB merged module).
class LocalStore {
 public:
  explicit LocalStore(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t code_bytes() const noexcept { return code_; }
  std::size_t free_bytes() const noexcept { return capacity_ - code_; }

  bool can_load(std::size_t code_bytes,
                std::size_t min_free = kMinStackHeap) const noexcept {
    return code_bytes + min_free <= capacity_;
  }
  void load_code(std::size_t bytes) {
    if (!can_load(bytes)) {
      throw std::length_error("LocalStore: module does not fit");
    }
    code_ = bytes;
  }

  /// Minimum stack+heap the runtime insists on keeping free.
  static constexpr std::size_t kMinStackHeap = 32 * 1024;

 private:
  std::size_t capacity_;
  std::size_t code_ = 0;
};

class Spe {
 public:
  Spe(int id, int cell, std::size_t ls_bytes)
      : id_(id), cell_(cell), ls_(ls_bytes) {}

  int id() const noexcept { return id_; }
  int cell() const noexcept { return cell_; }

  bool idle() const noexcept { return !busy_; }

  /// Marks the SPE allocated to a task/loop-chunk.  Utilization counts the
  /// whole allocation (compute + its DMAs), matching how the paper reasons
  /// about "idle SPEs".
  void reserve(sim::Time now) {
    if (busy_) throw std::logic_error("Spe::reserve: already busy");
    busy_ = true;
    last_change_ = now;
    CBE_TRACE_EVENT(now.nanoseconds(), trace::EventKind::SpeBusy, id_, -1,
                    0, 0);
  }
  void release(sim::Time now) {
    if (!busy_) throw std::logic_error("Spe::release: not busy");
    busy_ = false;
    busy_acc_ += now - last_change_;
    last_change_ = now;
    ++tasks_served_;
    CBE_TRACE_EVENT(now.nanoseconds(), trace::EventKind::SpeIdle, id_, -1,
                    0, 0);
  }

  SpeHealth health() const noexcept { return health_; }
  bool usable() const noexcept { return health_ != SpeHealth::Failed; }
  /// Effective clock fraction: 1.0 when healthy, the derate factor when
  /// degraded.
  double speed_factor() const noexcept { return speed_; }

  /// Fail-stop: the SPE halts permanently.  Any task it was running is lost;
  /// the occupancy flag is cleared (with busy-time accounted) so the SPE does
  /// not leak a reservation the runtime can never release.
  void fail(sim::Time now) noexcept {
    if (health_ == SpeHealth::Failed) return;
    if (busy_) {
      busy_ = false;
      busy_acc_ += now - last_change_;
      last_change_ = now;
      CBE_TRACE_EVENT(now.nanoseconds(), trace::EventKind::SpeIdle, id_, -1,
                      0, 0);
    }
    health_ = SpeHealth::Failed;
  }
  /// Silent straggler: the clock drops to `factor` of nominal for all
  /// subsequent compute.  No-op on a failed SPE.
  void degrade(double factor) noexcept {
    if (health_ == SpeHealth::Failed) return;
    health_ = SpeHealth::Degraded;
    speed_ = factor < 0.01 ? 0.01 : (factor > 1.0 ? 1.0 : factor);
  }

  std::uint16_t module() const noexcept { return module_; }
  ModuleVariant variant() const noexcept { return variant_; }
  bool has_module(std::uint16_t m, ModuleVariant v) const noexcept {
    return variant_ != ModuleVariant::None && module_ == m && variant_ == v;
  }
  void set_module(std::uint16_t m, ModuleVariant v, std::size_t bytes) {
    ls_.load_code(bytes);
    module_ = m;
    variant_ = v;
    ++code_loads_;
  }

  sim::Time busy_time(sim::Time now) const noexcept {
    return busy_ ? busy_acc_ + (now - last_change_) : busy_acc_;
  }
  double utilization(sim::Time now) const noexcept {
    return now.nanoseconds() > 0 ? busy_time(now) / now : 0.0;
  }
  std::uint64_t tasks_served() const noexcept { return tasks_served_; }
  std::uint64_t code_loads() const noexcept { return code_loads_; }

 private:
  int id_;
  int cell_;
  LocalStore ls_;
  bool busy_ = false;
  SpeHealth health_ = SpeHealth::Healthy;
  double speed_ = 1.0;
  std::uint16_t module_ = 0;
  ModuleVariant variant_ = ModuleVariant::None;
  sim::Time busy_acc_;
  sim::Time last_change_;
  std::uint64_t tasks_served_ = 0;
  std::uint64_t code_loads_ = 0;
};

}  // namespace cbe::cell
