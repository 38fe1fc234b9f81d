#include "jobsvc/job.hpp"

#include "ckpt/format.hpp"

namespace cbe::jobsvc {

namespace {

// Domain separation between the tenant and job-id mixing rounds, and between
// job payload streams and everything else derived from the service seed.
constexpr std::uint64_t kTenantSalt = 0x54454e414e544944ull;  // "TENANTID"
constexpr std::uint64_t kJobSalt = 0x4a4f4253454e4f4eull;     // "JOBSENON"

// A snapshot is one frame: the job's identity, then its state, under one
// CRC, so no splice of two snapshots can pair one job with another's state.
constexpr char kSnapshotTag[] = "JSNP";

constexpr std::uint32_t kMaxSteps = 1u << 24;

}  // namespace

std::uint64_t derive_job_seed(std::uint64_t service_seed, std::uint32_t tenant,
                              std::uint64_t job_id) noexcept {
  std::uint64_t s = service_seed ^ (kTenantSalt + tenant);
  const std::uint64_t a = util::splitmix64(s);
  s = a ^ (kJobSalt + job_id);
  return util::splitmix64(s);
}

JobState make_initial_state(const JobSpec& spec, std::uint64_t service_seed) {
  JobState st;
  st.rng = util::Rng(derive_job_seed(service_seed, spec.tenant, spec.id))
               .state();
  return st;
}

void run_step(JobState& st) {
  util::Rng rng = util::Rng::from_state(st.rng);
  // A phylo-flavoured work unit: a lognormal per-site weight accumulates
  // into the sum, and a raw draw chains through the digest.  Both fold the
  // *previous* accumulator in, so step order is load-bearing.
  st.value += rng.lognormal_mean_cv(1.0, 0.5);
  std::uint64_t mix = st.digest ^ rng();
  st.digest = util::splitmix64(mix);
  st.rng = rng.state();
  ++st.steps_done;
}

JobResult result_of(const JobState& st) noexcept {
  return JobResult{st.digest, st.value};
}

JobResult run_job_standalone(const JobSpec& spec,
                             std::uint64_t service_seed) {
  JobState st = make_initial_state(spec, service_seed);
  for (int i = 0; i < spec.steps; ++i) run_step(st);
  return result_of(st);
}

void snapshot_job(const JobSpec& spec, const JobState& st,
                  std::vector<std::uint8_t>& out) {
  ckpt::ImageWriter w(out, spec.id, 1);
  w.begin(kSnapshotTag);
  w.u64(spec.id);
  w.u32(spec.tenant);
  w.i32(spec.priority);
  w.i32(spec.steps);
  w.f64(spec.step_cost_s);
  for (std::uint64_t word : st.rng.s) w.u64(word);
  w.u64(st.rng.cached_normal_bits);
  w.u8(st.rng.has_cached_normal ? 1 : 0);
  w.u64(st.digest);
  w.f64(st.value);
  w.i32(st.steps_done);
  w.end();
}

JobState restore_job(const JobSpec& spec,
                     const std::vector<std::uint8_t>& bytes) {
  ckpt::ImageReader image(bytes);
  ckpt::PayloadReader r = image.next(kSnapshotTag);
  const std::uint64_t id = r.u64();
  const std::uint32_t tenant = r.u32();
  r.i32();  // priority: informational, may be retuned between runs
  const std::int32_t steps = r.i32();
  r.f64();  // step cost: informational
  JobState st;
  for (auto& word : st.rng.s) word = r.u64();
  st.rng.cached_normal_bits = r.u64();
  const std::uint8_t cached = r.u8();
  st.digest = r.u64();
  st.value = r.f64();
  st.steps_done = r.i32();
  r.expect_end();
  if (id != spec.id || tenant != spec.tenant || image.seed() != spec.id) {
    r.fail("snapshot belongs to a different job (id " + std::to_string(id) +
           ", tenant " + std::to_string(tenant) + ", header " +
           std::to_string(image.seed()) + ")");
  }
  if (steps != spec.steps) {
    r.fail("snapshot step count disagrees with the job spec");
  }
  if (cached > 1) r.fail("boolean flag out of range");
  st.rng.has_cached_normal = cached == 1;
  if (st.steps_done < 0 || st.steps_done > spec.steps ||
      st.steps_done > static_cast<int>(kMaxSteps)) {
    r.fail("restored progress (" + std::to_string(st.steps_done) +
           " steps) out of range for the job");
  }
  return st;
}

std::vector<JobSpec> make_job_mix(const JobMixConfig& cfg) {
  std::vector<JobSpec> jobs;
  const int n = cfg.jobs < 0 ? 0 : cfg.jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  util::Rng rng(cfg.seed ^ 0x4a4f424d49584d58ull);  // "JOBMIXMX"
  const int tenants = cfg.tenants < 1 ? 1 : cfg.tenants;
  const int lo = cfg.min_steps < 1 ? 1 : cfg.min_steps;
  const int hi = cfg.max_steps < lo ? lo : cfg.max_steps;
  for (int i = 0; i < n; ++i) {
    JobSpec spec;
    spec.id = static_cast<std::uint64_t>(i);
    spec.tenant = static_cast<std::uint32_t>(i % tenants);
    spec.priority = cfg.priorities > 1
                        ? static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(cfg.priorities)))
                        : 0;
    spec.steps = static_cast<int>(
        rng.range(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
    spec.step_cost_s = cfg.step_cost_s;
    spec.deadline_s = cfg.deadline_s;
    spec.submit_s =
        cfg.arrival_span_s > 0.0 ? rng.uniform(0.0, cfg.arrival_span_s) : 0.0;
    jobs.push_back(spec);
  }
  return jobs;
}

}  // namespace cbe::jobsvc
