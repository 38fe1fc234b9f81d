// Deterministic pseudo-random number generation for workload synthesis and
// property tests.  xoshiro256** seeded through splitmix64, following the
// reference algorithms by Blackman & Vigna.  All simulator randomness flows
// through this generator so every experiment is reproducible from a seed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace cbe::util {

/// splitmix64 step; used for seeding and as a cheap stateless hash.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Complete serializable snapshot of an Rng: the xoshiro256** words plus the
/// Box-Muller cache (as raw bits so restore is bit-exact).  Used by the
/// checkpoint subsystem to resume a stream exactly where it stopped.
struct RngState {
  std::array<std::uint64_t, 4> s{};
  std::uint64_t cached_normal_bits = 0;
  bool has_cached_normal = false;

  friend bool operator==(const RngState& a, const RngState& b) noexcept {
    return a.s == b.s && a.cached_normal_bits == b.cached_normal_bits &&
           a.has_cached_normal == b.has_cached_normal;
  }
};

/// xoshiro256** generator.  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t below(std::uint64_t n) noexcept;
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;
  /// Standard normal via Box-Muller (cached second variate).
  double normal() noexcept;
  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;
  /// Lognormal such that the *mean* of the distribution is `mean` and the
  /// coefficient of variation is `cv`.  Used for task-duration jitter.
  double lognormal_mean_cv(double mean, double cv) noexcept;
  /// Exponential with given mean.
  double exponential(double mean) noexcept;
  /// true with probability p.
  bool bernoulli(double p) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (for per-process streams).
  Rng split() noexcept;

  /// Snapshot / restore the full generator state (bit-exact resume).
  /// from_state() skips seeding, so a restore costs no splitmix64 rounds.
  RngState state() const noexcept;
  static Rng from_state(const RngState& st) noexcept;

 private:
  struct Unseeded {};
  explicit Rng(Unseeded) noexcept {}

  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace cbe::util
