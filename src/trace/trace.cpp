#include "trace/trace.hpp"

namespace cbe::trace {

EventKind event_kind_from_name(std::string_view name) noexcept {
  for (int i = 0; i < static_cast<int>(EventKind::kCount); ++i) {
    const auto k = static_cast<EventKind>(i);
    if (name == event_name(k)) return k;
  }
  return EventKind::kCount;
}

std::uint64_t TraceSink::count(EventKind kind) const noexcept {
  std::uint64_t n = 0;
  for (const Event& e : events_) n += e.kind == kind ? 1 : 0;
  return n;
}

namespace {
thread_local TraceSink* g_current = nullptr;
thread_local std::uint64_t g_current_span = kNoSpan;
}  // namespace

TraceSink* current() noexcept { return g_current; }

TraceSink* set_current(TraceSink* sink) noexcept {
  TraceSink* prev = g_current;
  g_current = sink;
  return prev;
}

std::uint64_t current_span() noexcept { return g_current_span; }

std::uint64_t set_current_span(std::uint64_t span) noexcept {
  const std::uint64_t prev = g_current_span;
  g_current_span = span;
  return prev;
}

}  // namespace cbe::trace
