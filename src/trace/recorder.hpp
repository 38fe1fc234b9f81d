// Always-on flight recorder (DESIGN.md §12 "Live observability").
//
// A FlightRecorder is a TraceSink whose storage is a set of bounded,
// per-thread ring buffers instead of an unbounded vector: the record path is
// one thread-local lookup, a handful of word stores into one slot, and one
// release store of the ring head — no locks, no allocation after attach —
// so it is cheap enough to leave installed for the whole life of a
// long-running service.  When a
// ring fills, the oldest events are overwritten (never the newest): the
// recorder always holds the causal *tail* of what just happened, which is
// exactly what a crash report needs.
//
// Memory model (the TSan suite pins this):
//   - each ring has exactly one writer, the thread that attached it; every
//     slot is a sequence lock whose payload is stored as atomic words, so a
//     concurrent copy is never a data race;
//   - tail() acquires every head once and copies only published slots, so a
//     quiescent-writer snapshot is exact and per-thread order-exact;
//   - a snapshot taken while writers are still recording (the crash path)
//     drops any slot that was overwritten while it was being copied: it may
//     miss some of the *oldest* events, but never returns a torn one.
//
// Dumping: install_flight_recorder() registers a process-wide recorder plus
// a dump path; dump_flight_recorder(reason) writes the merged tail as a
// `# cbe-trace v1` text file (strict-parser compatible — the reason and the
// loss counters ride in `#` comment lines), so every crash artifact feeds
// straight into cell_profiler.  Dump sites: the --die-at-event crash clock
// (via sim::set_crash_clock_hook), jobsvc quarantine/watchdog paths, and
// nonzero-exit paths in the example binaries.  Dumps are rate-limited per
// process; the crash clock's dump bypasses the limit (`force`) because the
// final dump is the one that matters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace cbe::trace {

class FlightRecorder final : public TraceSink {
 public:
  /// `capacity` is events *per attached thread*; at least 16.
  explicit FlightRecorder(std::size_t capacity = 4096);
  ~FlightRecorder() override;

  void record(std::int64_t t_ns, EventKind kind, int spe, int pid,
              std::int64_t a = 0, std::int64_t b = 0) override;

  /// Merged snapshot of every thread's surviving events, sorted by
  /// timestamp (stable across rings in attach order).  Exact when writers
  /// are quiescent; taken mid-flight, as a crash dump is, it leaves out
  /// slots that were overwritten during the copy.
  std::vector<Event> tail() const;

  std::size_t capacity() const noexcept { return capacity_; }
  /// Total events ever recorded, across all threads.
  std::uint64_t recorded() const;
  /// Events lost to ring overwrite (recorded - still held).
  std::uint64_t overwritten() const;
  std::size_t threads_attached() const;

 private:
  struct Ring;
  struct TlsAttach;
  Ring* ring_for_this_thread();

  const std::size_t capacity_;
  const std::uint64_t id_;  ///< process-unique; keys the per-thread cache
  struct Impl;
  Impl* impl_;
};

// -- Process-wide crash-dump registration ------------------------------------

/// Registers `rec` as the process's crash-dump recorder and `dump_path` as
/// its dump file.  Pass nullptr to unregister.  `max_dumps` bounds how many
/// non-forced dumps one process may write (each overwrites the file).
void install_flight_recorder(FlightRecorder* rec, std::string dump_path,
                             int max_dumps = 8);

/// The registered recorder, or nullptr.
FlightRecorder* installed_flight_recorder() noexcept;

/// Writes the registered recorder's tail to the registered path, tagged with
/// `reason`.  Returns false when no recorder is installed, the per-process
/// dump budget is exhausted (unless `force`), or the write fails.  Safe to
/// call from anywhere, including immediately before a SIGKILL.
bool dump_flight_recorder(const char* reason, bool force = false) noexcept;

/// Dumps written so far (for statusz and tests).
std::uint64_t flight_dumps_written() noexcept;

/// Renders `events` plus recorder loss counters as strict `# cbe-trace v1`
/// text with a `# flight-recorder ...` comment line.  Exposed for tests.
std::string flight_dump_text(const FlightRecorder& rec,
                             const std::vector<Event>& events,
                             const char* reason);

}  // namespace cbe::trace
