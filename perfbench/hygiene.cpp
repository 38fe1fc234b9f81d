#include <sched.h>
#include <sys/resource.h>
#include <sys/sysinfo.h>

#include <cstdint>
#include <cstdlib>

#include "bench.hpp"
#include "phylo/kernels_simd.hpp"

#ifndef CBE_PERFBENCH_BUILD_TYPE
#define CBE_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

HostState host_state() {
  HostState h;
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set)
                                                         : 0;
  struct sysinfo si {};
  if (sysinfo(&si) == 0) {
    const double scale = static_cast<double>(1u << SI_LOAD_SHIFT);
    h.load1 = static_cast<double>(si.loads[0]) / scale;
    h.load5 = static_cast<double>(si.loads[1]) / scale;
    h.load15 = static_cast<double>(si.loads[2]) / scale;
  }
  return h;
}

double calibration_spin_ms() {
  const Clock::time_point t0 = Clock::now();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return seconds_since(t0) * 1e3;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::pin(int rep) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[static_cast<std::size_t>(rep) % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

std::string build_line() {
  const char* env = std::getenv("CBE_SIMD");
  std::string s = std::string("build=") + CBE_PERFBENCH_BUILD_TYPE +
                  " CBE_TRACE=" + (CBE_TRACE_ENABLED ? "ON" : "OFF") +
                  " CBE_SIMD=" +
                  (cbe::phylo::simd_compiled() ? "compiled" : "scalar-only") +
                  "/" + (cbe::phylo::simd_enabled() ? "active" : "inactive");
  s += std::string(" env.CBE_SIMD=") + (env != nullptr ? env : "(unset)");
  return s;
}

}  // namespace perfbench
