// Allocation gate for the job service's step path.  This binary replaces
// the global operator new with a counting one.  A checkpoint frames the
// job's spec and state straight into the job record's snapshot buffer, and
// a restore decodes that buffer in place, so neither a steady-state snapshot
// nor a restore makes a heap request at all, and a whole run with
// blade kills, stragglers, step faults and verified steps stays under a
// quarter of an allocation per engine event: it measures about 0.11 (run
// set-up, one snapshot buffer per job, restores and the service's own
// bookkeeping), where the old snapshot path made 2.64.  The run must
// complete every job and take and restore snapshots, so a gate that passes
// by doing less cannot pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.hpp"
#include "jobsvc/job.hpp"
#include "jobsvc/service.hpp"

namespace cbe::jobsvc {
namespace {

std::uint64_t allocs() {
  return alloc_counter::count.load(std::memory_order_relaxed);
}

TEST(JobsvcAlloc, CounterSeesAllocations) {
  const std::uint64_t before = allocs();
  auto* p = new int(7);
  EXPECT_EQ(allocs() - before, 1u);
  delete p;
}

TEST(JobsvcAlloc, SteadyStateSnapshotAllocatesNothing) {
  JobSpec spec;
  spec.id = 3;
  spec.tenant = 1;
  spec.steps = 200;
  JobState st = make_initial_state(spec, 2026);
  std::vector<std::uint8_t> buf;
  snapshot_job(spec, st, buf);  // first use sizes the buffer
  const std::uint64_t before = allocs();
  for (int i = 0; i < 100; ++i) {
    run_step(st);
    snapshot_job(spec, st, buf);
  }
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(restore_job(spec, buf).steps_done, 100);
}

TEST(JobsvcAlloc, SteadyStateRestoreAllocatesNothing) {
  JobSpec spec;
  spec.id = 3;
  spec.tenant = 1;
  spec.steps = 200;
  JobState st = make_initial_state(spec, 2026);
  for (int i = 0; i < 7; ++i) run_step(st);
  std::vector<std::uint8_t> buf;
  snapshot_job(spec, st, buf);
  JobState back;
  const std::uint64_t before = allocs();
  for (int i = 0; i < 100; ++i) back = restore_job(spec, buf);
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(back.steps_done, 7);
  EXPECT_TRUE(back.rng == st.rng);
  EXPECT_EQ(back.digest, st.digest);
}

// One rate of the open-loop service benchmark's fault mix (2000 jobs, 16
// mixed-speed blades, every step verified) at 0.8x nominal capacity.
TEST(JobsvcAlloc, FaultedRunStaysUnderAQuarterAllocationPerEvent) {
  ServiceConfig cfg;
  cfg.seed = 41;
  cfg.fleet.blades.clear();
  for (int i = 0; i < 4; ++i) {
    for (double speed : {1.0, 1.5, 0.75, 1.0}) {
      cfg.fleet.blades.push_back({speed, 2});
    }
  }
  cfg.admission.max_queue = 0;
  cfg.fault.seed = 43;
  cfg.fault.blade_fail_rate = 0.05;
  cfg.fault.straggler_rate = 0.0625;
  cfg.fault.straggler_factor = 0.2;
  cfg.step_fail_rate = 0.002;
  cfg.retry.max_failures = 10;
  cfg.step_corrupt_rate = 0.00005;
  cfg.verify_fraction = 1.0;

  JobMixConfig mix;
  mix.seed = 42;
  mix.jobs = 2000;
  mix.tenants = 8;
  mix.priorities = 4;
  const double mean_steps = 0.5 * (mix.min_steps + mix.max_steps);
  const double job_s = mean_steps * mix.step_cost_s * 2.0 +
                       mean_steps / cfg.checkpoint_every *
                           cfg.checkpoint_cost_s +
                       cfg.dispatch_cost_s;
  double slot_speed = 0.0;
  for (const auto& b : cfg.fleet.blades) slot_speed += b.slots * b.speed;
  mix.arrival_span_s = mix.jobs / (0.8 * slot_speed / job_s);
  const std::vector<JobSpec> jobs = make_job_mix(mix);

  const std::uint64_t before = allocs();
  Service svc(cfg);
  const ServiceReport rep = svc.run(jobs);
  const std::uint64_t used = allocs() - before;

  ASSERT_EQ(rep.completed, jobs.size());
  ASSERT_GT(rep.snapshots, 0u);
  ASSERT_GT(rep.snapshot_restores, 0u);
  ASSERT_GT(rep.migrations + rep.retries, 0u);
  ASSERT_GT(rep.engine_events, 0u);
  const double per_event =
      static_cast<double>(used) / static_cast<double>(rep.engine_events);
  EXPECT_LE(per_event, 0.25) << used << " allocations, " << rep.engine_events
                            << " events, " << rep.snapshots << " snapshots";
  RecordProperty("allocs_per_event", std::to_string(per_event));
}

}  // namespace
}  // namespace cbe::jobsvc
