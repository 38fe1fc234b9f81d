#include "util/rng.hpp"

#include <cmath>

namespace cbe::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // The all-zero state is invalid for xoshiro; splitmix64 cannot produce four
  // zero outputs in a row, so no further check is needed.
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::below(std::uint64_t n) noexcept {
  // Lemire's multiply-shift rejection method for unbiased bounded integers.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    std::uint64_t t = (0 - n) % n;
    while (lo < t) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
  return lo + static_cast<std::int64_t>(
                  below(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  while (u1 == 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::lognormal_mean_cv(double mean, double cv) noexcept {
  if (cv <= 0.0) return mean;
  const double sigma2 = std::log(1.0 + cv * cv);
  const double mu = std::log(mean) - 0.5 * sigma2;
  return std::exp(mu + std::sqrt(sigma2) * normal());
}

double Rng::exponential(double mean) noexcept {
  double u = 0.0;
  while (u == 0.0) u = uniform();
  return -mean * std::log(u);
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

Rng Rng::split() noexcept { return Rng((*this)()); }

RngState Rng::state() const noexcept {
  RngState st;
  for (int i = 0; i < 4; ++i) st.s[static_cast<std::size_t>(i)] = s_[i];
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(cached_normal_));
  __builtin_memcpy(&bits, &cached_normal_, sizeof(bits));
  st.cached_normal_bits = bits;
  st.has_cached_normal = has_cached_normal_;
  return st;
}

Rng Rng::from_state(const RngState& st) noexcept {
  Rng r{Unseeded{}};
  for (int i = 0; i < 4; ++i) r.s_[i] = st.s[static_cast<std::size_t>(i)];
  __builtin_memcpy(&r.cached_normal_, &st.cached_normal_bits,
                   sizeof(r.cached_normal_));
  r.has_cached_normal_ = st.has_cached_normal;
  return r;
}

}  // namespace cbe::util
