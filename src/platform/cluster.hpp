// Blade-fleet topology for the multi-tenant job service: N simulated blades,
// each with a number of concurrent execution slots (worker contexts) and a
// relative speed.  Extends the Section 5.5 cluster story (bench_cluster's
// homogeneous dual-Cell blades) with heterogeneous fleets, so a fleet can
// mix fast and slow blades and the scheduler's placement decisions matter.
#pragma once

#include <vector>

namespace cbe::platform {

struct BladeSpec {
  /// Relative compute speed: a speed-2 blade finishes a job step in half the
  /// nominal step cost.  1.0 is the reference dual-Cell blade.
  double speed = 1.0;
  /// Concurrent job slots (independent worker contexts on the blade).
  int slots = 4;
};

struct BladeFleetConfig {
  std::vector<BladeSpec> blades;

  /// `n` identical blades.
  static BladeFleetConfig uniform(int n, int slots = 4, double speed = 1.0);

  int size() const noexcept { return static_cast<int>(blades.size()); }
  /// Aggregate service rate in step-costs per second (sum of slots x speed);
  /// the service uses it to estimate a fault horizon for seeded fault plans.
  double total_capacity() const noexcept;
};

}  // namespace cbe::platform
