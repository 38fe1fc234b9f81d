// The unit of work the job service schedules: a deterministic, resumable,
// checkpointable computation.
//
// A job is a chain of `steps` pure state transitions.  The state carries the
// job's private RNG stream plus two order-sensitive accumulators (a mixing
// digest and a floating-point sum), so the final result is a function of
// exactly (job seed, steps) — never of which blade ran it, how often it was
// retried, or where it was migrated.  That invariant is what lets the
// service promise bit-identical results under blade loss, and it is
// testable: flip the replay order or drop a step and the digest changes.
//
// Snapshots use the src/ckpt container format (versioned, CRC-framed), so a
// migrated job restores through the same validation path as an on-disk
// checkpoint: a corrupted snapshot is detected and the job falls back to a
// cold restart instead of computing garbage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace cbe::jobsvc {

/// Deterministic per-job seed from (service seed, tenant, job id).  Two
/// chained splitmix64 rounds separate the inputs, so any individual job can
/// be re-run standalone — outside the service — and reproduce its
/// service-run result exactly.
std::uint64_t derive_job_seed(std::uint64_t service_seed, std::uint32_t tenant,
                              std::uint64_t job_id) noexcept;

struct JobSpec {
  std::uint64_t id = 0;
  std::uint32_t tenant = 0;
  /// Higher runs first; ties break on submission order.
  int priority = 0;
  /// Deterministic work units; each is one run_step() transition.
  int steps = 32;
  /// Nominal virtual seconds per step on a speed-1.0 blade.
  double step_cost_s = 0.004;
  /// Absolute completion deadline relative to submission; 0 disables.
  double deadline_s = 0.0;
  /// Virtual submission time (service arrival process).
  double submit_s = 0.0;
};

/// Everything a blade needs between steps; the whole of it travels in a
/// snapshot, so restoring on another blade loses nothing.
struct JobState {
  util::RngState rng;
  std::uint64_t digest = 0;
  double value = 0.0;
  int steps_done = 0;
};

struct JobResult {
  std::uint64_t digest = 0;
  double value = 0.0;

  friend bool operator==(const JobResult&, const JobResult&) = default;
};

/// Step-0 state for a job under a given service seed.
JobState make_initial_state(const JobSpec& spec, std::uint64_t service_seed);

/// One deterministic unit of work: draws from the job's stream and folds the
/// draw into both accumulators.  Order-sensitive by construction (the digest
/// chains), so replays from the wrong position are detectable.
void run_step(JobState& st);

JobResult result_of(const JobState& st) noexcept;

/// Runs the whole job to completion fault-free in the calling thread.
/// Bit-identical to the service's result for the same (service seed, spec).
JobResult run_job_standalone(const JobSpec& spec, std::uint64_t service_seed);

/// Serializes (spec identity, state) as one CRC-framed checkpoint frame in
/// `out`, replacing its contents.  The buffer keeps its capacity, so
/// re-snapshotting into the same buffer makes no heap request.
void snapshot_job(const JobSpec& spec, const JobState& st,
                  std::vector<std::uint8_t>& out);

/// Validates and decodes a snapshot for `spec` in place, with no heap
/// request; throws ckpt::CkptError on any corruption or a snapshot that
/// belongs to a different job.
JobState restore_job(const JobSpec& spec,
                     const std::vector<std::uint8_t>& bytes);

/// Deterministic synthetic job mix for examples, benches, and tests.
struct JobMixConfig {
  int jobs = 256;
  int tenants = 4;
  std::uint64_t seed = 42;     ///< mix-shape seed (not the service seed)
  int min_steps = 16;
  int max_steps = 64;
  int priorities = 3;          ///< priorities drawn from [0, priorities)
  double step_cost_s = 0.004;
  double deadline_s = 0.0;     ///< applied to every job; 0 disables
  double arrival_span_s = 0.0; ///< submissions uniform in [0, span); 0 = all at t=0
};

std::vector<JobSpec> make_job_mix(const JobMixConfig& cfg);

}  // namespace cbe::jobsvc
