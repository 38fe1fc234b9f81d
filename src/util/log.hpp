// Leveled, structured logging.  Every line carries a component tag and a
// monotonic timestamp (milliseconds since process start) so interleaved logs
// from the service, runtime, and trace layers can be ordered and attributed:
//
//   [   12.034ms jobsvc WARN] blade 3 breaker opened (4 consecutive faults)
//
// Levels filter globally (set_log_level; benches run at Warn so output stays
// clean).  Hot paths use the *_EVERY_N variants, which keep per-call-site
// counters and emit every Nth hit with a `(suppressed k)` note — a fault storm
// then costs one line per N faults instead of one per fault.  Logging is
// thread-safe at line granularity: each line is formatted into a local buffer
// and written with a single fwrite.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

namespace cbe::util {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

void set_log_level(LogLevel level) noexcept;

/// Milliseconds since the first log call (monotonic clock), as a double.
double log_uptime_ms() noexcept;

namespace detail {

void vlog(LogLevel level, const char* component, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

/// Per-call-site rate-limit state.  `hits` counts calls at the site; the
/// macro logs when hits % every_n == 0 and reports how many were suppressed
/// since the last emitted line.  Atomic so pool threads can share a site.
struct LogSiteState {
  std::atomic<std::uint64_t> hits{0};
};

/// Returns the number of suppressed lines to report (>= 0) when this hit
/// should log, or -1 when it should be suppressed.
std::int64_t rate_limit_tick(LogSiteState& site, std::uint64_t every_n);

}  // namespace detail

/// Component-tagged log line: CBE_LOG_C(Warn, "jobsvc", "fmt", ...).
#define CBE_LOG_C(level, component, ...)                                     \
  ::cbe::util::detail::vlog(::cbe::util::LogLevel::level, component,         \
                            __VA_ARGS__)

/// Rate-limited variant: logs the 1st call and every Nth after, appending
/// how many lines were suppressed in between.  State is per call site.
#define CBE_LOG_EVERY_N(level, component, n, fmt, ...)                       \
  do {                                                                       \
    static ::cbe::util::detail::LogSiteState cbe_log_site_;                  \
    const std::int64_t cbe_log_skipped_ =                                    \
        ::cbe::util::detail::rate_limit_tick(cbe_log_site_, (n));            \
    if (cbe_log_skipped_ == 0) {                                             \
      CBE_LOG_C(level, component, fmt, ##__VA_ARGS__);                       \
    } else if (cbe_log_skipped_ > 0) {                                       \
      CBE_LOG_C(level, component, fmt " (suppressed %lld similar)",          \
                ##__VA_ARGS__,                                               \
                static_cast<long long>(cbe_log_skipped_));                   \
    }                                                                        \
  } while (0)

// Back-compat component-less forms; they tag the line "cbe".
#define CBE_LOG_DEBUG(...) CBE_LOG_C(Debug, "cbe", __VA_ARGS__)
#define CBE_LOG_INFO(...) CBE_LOG_C(Info, "cbe", __VA_ARGS__)
#define CBE_LOG_WARN(...) CBE_LOG_C(Warn, "cbe", __VA_ARGS__)
#define CBE_LOG_ERROR(...) CBE_LOG_C(Error, "cbe", __VA_ARGS__)

}  // namespace cbe::util
