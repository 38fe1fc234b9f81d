// Counting replacement of the global operator new for allocation gates.
//
// Include this header in exactly one translation unit of a test binary: it
// defines the replaceable global allocation functions, so every heap
// request the binary makes through new/new[] passes through the counters.
// Each gated binary (test_runtime_alloc, test_jobsvc_alloc, test_jobsvc) is
// its own executable for that reason.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace alloc_counter {

/// Requests made through operator new / new[] so far.
inline std::atomic<std::uint64_t> count{0};
/// Largest single request since the last reset_largest().
inline std::atomic<std::size_t> largest{0};

inline void reset_largest() { largest.store(0, std::memory_order_relaxed); }

inline void* allocate(std::size_t n) {
  count.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = largest.load(std::memory_order_relaxed);
  while (n > seen &&
         !largest.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace alloc_counter

// Every unaligned form, nothrow included (std::stable_sort's temporary
// buffer uses it): a form left to the runtime would pair its allocator with
// this free(), which sanitizers report as a mismatch.
void* operator new(std::size_t n) { return alloc_counter::allocate(n); }
void* operator new[](std::size_t n) { return alloc_counter::allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return alloc_counter::allocate(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
