#include "util/log.hpp"

#include <chrono>
#include <cstdarg>

namespace cbe::util {

namespace {

LogLevel g_level = LogLevel::Warn;

const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    default: return "?";
  }
}

std::chrono::steady_clock::time_point log_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

void set_log_level(LogLevel level) noexcept { g_level = level; }

double log_uptime_ms() noexcept {
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(now - log_epoch()).count();
}

namespace detail {

void vlog(LogLevel level, const char* component, const char* fmt, ...) {
  if (level < g_level) return;
  // Format the whole line locally and emit it with one fwrite so lines from
  // concurrent threads interleave at line granularity, not mid-line.
  char line[1024];
  int n = std::snprintf(line, sizeof line, "[%9.3fms %s %s] ",
                        log_uptime_ms(), component, level_name(level));
  if (n < 0) return;
  if (n > static_cast<int>(sizeof line) - 2) n = sizeof line - 2;
  va_list args;
  va_start(args, fmt);
  int m = std::vsnprintf(line + n, sizeof line - static_cast<std::size_t>(n) - 1,
                         fmt, args);
  va_end(args);
  if (m < 0) m = 0;
  int end = n + m;
  if (end > static_cast<int>(sizeof line) - 2) end = sizeof line - 2;
  line[end] = '\n';
  std::fwrite(line, 1, static_cast<std::size_t>(end) + 1, stderr);
}

std::int64_t rate_limit_tick(LogSiteState& site, std::uint64_t every_n) {
  const std::uint64_t h = site.hits.fetch_add(1, std::memory_order_relaxed);
  if (every_n <= 1) return 0;
  if (h % every_n != 0) return -1;
  return h == 0 ? 0 : static_cast<std::int64_t>(every_n - 1);
}

}  // namespace detail

}  // namespace cbe::util
