#include "ckpt/runner.hpp"

#include <cstdio>

#include "phylo/bootstrap.hpp"
#include "phylo/support.hpp"
#include "runtime/mgps.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/fault.hpp"

namespace cbe::ckpt {

namespace {

// Independent stream for the reference ML search, domain-separated from the
// replicate master stream so neither perturbs the other.
constexpr std::uint64_t kReferenceSalt = 0x5245464552454e43ull;  // "REFERENC"
// Per-replicate corruption-plan namespace: salted by the absolute replicate
// index, so the corruption weather a replicate's Cell replay sees is a pure
// function of (job, index) — identical whether or not the run was resumed.
constexpr std::uint64_t kIntegritySalt = 0x494e544547524954ull;  // "INTEGRIT"

std::string fmt_f64(double v) {
  // %.17g round-trips every double, so text comparison is bit comparison.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string RunReport::to_text() const {
  std::string out;
  out += "# cellmg bootstrap-job report v1\n";
  out += "bootstraps " + std::to_string(total_bootstraps) + "\n";
  out += "reference_lnL " + fmt_f64(reference_loglik) + "\n";
  for (std::size_t i = 0; i < replicate_logliks.size(); ++i) {
    out += "replicate " + std::to_string(i) + " lnL " +
           fmt_f64(replicate_logliks[i]) + "\n";
  }
  for (std::size_t i = 0; i < support.size(); ++i) {
    out += "support " + std::to_string(i) + " " + fmt_f64(support[i]) + "\n";
  }
  out += "sched kernels " + std::to_string(sched.kernels) + "\n";
  out += "sched offloads " + std::to_string(sched.offloads) + "\n";
  out += "sched loop_splits " + std::to_string(sched.loop_splits) + "\n";
  out += "sched ppe_fallbacks " + std::to_string(sched.ppe_fallbacks) + "\n";
  out += "sched code_loads " + std::to_string(sched.code_loads) + "\n";
  out += "sched sim_events " + std::to_string(sched.sim_events) + "\n";
  out += "sched dma_bytes " + fmt_f64(sched.dma_bytes) + "\n";
  out += "sched sim_seconds " + fmt_f64(sched.sim_seconds) + "\n";
  out += "sched loop_degree_sum " + fmt_f64(sched.loop_degree_sum) + "\n";
  return out;
}

RunReport run_job(RunState& st, const RunnerOptions& opt) {
  const BootstrapJob& job = st.job;

  // Inputs are regenerated deterministically from the job recipe; only the
  // recipe lives in the checkpoint.
  phylo::SyntheticAlignmentConfig acfg;
  acfg.taxa = job.taxa;
  acfg.sites = job.sites;
  acfg.seed = job.alignment_seed;
  acfg.mean_branch_length = job.mean_branch_length;
  const phylo::Alignment alignment = phylo::make_synthetic_alignment(acfg);
  phylo::PatternAlignment patterns(alignment);
  const phylo::SubstModel model(
      phylo::GtrParams::hky(2.5, patterns.base_frequencies()), 0.8);

  // The reference (best-known ML) tree the replicates assign support to.
  // Recomputed on every run — including resumed ones — from its own salted
  // stream, so it is identical regardless of where the run restarted.
  phylo::LikelihoodEngine engine(patterns, model);
  util::Rng ref_rng(job.seed ^ kReferenceSalt);
  const phylo::SearchResult reference =
      phylo::search(engine, ref_rng, job.search);

  util::Rng master = util::Rng::from_state(st.master);

  const int total = job.bootstraps;
  const int every = opt.checkpoint_every > 0 ? opt.checkpoint_every : 1;
  int ckpt_io_retries = 0;
  int ckpt_failed_snapshots = 0;
  std::string ckpt_error;
  for (int i = static_cast<int>(st.done.size()); i < total; ++i) {
    // Each replicate consumes exactly one split of the master stream; the
    // checkpoint stores the master state *after* the split, so a resumed
    // run derives the next replicate's stream identically.
    util::Rng rng = master.split();
    phylo::TraceGenerator gen;
    phylo::BootstrapResult res =
        phylo::run_bootstrap(patterns, model, rng, job.search, &gen);
    st.sched.kernels +=
        static_cast<std::uint64_t>(gen.trace().segments.size());

    // Replay the replicate's kernel trace through the simulated Cell under
    // MGPS and fold the scheduler's counters into the running totals
    // (independent per replicate, hence additive and resume-invariant).
    task::Workload wl;
    wl.bootstraps.push_back(gen.take_trace());
    rt::MgpsPolicy mgps;
    rt::RunConfig rcfg;
    if (job.dma_bitflip_rate > 0.0 || job.result_corrupt_rate > 0.0 ||
        job.verify_fraction > 0.0) {
      std::uint64_t stream =
          job.fault_seed ^ (kIntegritySalt + static_cast<std::uint64_t>(i));
      rcfg.fault.seed = util::splitmix64(stream);
      rcfg.fault.dma_bitflip_rate = job.dma_bitflip_rate;
      rcfg.fault.result_corrupt_rate = job.result_corrupt_rate;
      rcfg.integrity.verify_fraction = job.verify_fraction;
      rcfg.integrity.crc_framing = job.verify_fraction > 0.0;
    }
    const rt::RunResult rr = rt::run_workload(wl, mgps, rcfg);
    st.sched.offloads += rr.offloads;
    st.sched.loop_splits += rr.loop_splits;
    st.sched.ppe_fallbacks += rr.ppe_fallbacks;
    st.sched.code_loads += rr.code_loads;
    st.sched.sim_events += rr.events;
    st.sched.dma_bytes += rr.dma_bytes;
    st.sched.sim_seconds += rr.makespan_s;
    st.sched.loop_degree_sum += rr.mean_loop_degree;

    st.done.push_back(Replicate{res.loglik, std::move(res.tree)});
    st.master = master.state();

    // Replicate boundary: one crash-clock event (kill-and-resume tests aim
    // die-at-event faults here), then possibly a snapshot.
    sim::crash_clock_tick();
    st.crash_position = sim::crash_clock_position();
    if (!opt.checkpoint_path.empty() &&
        ((i + 1) % every == 0 || i + 1 == total)) {
      // A snapshot that fails after every retry must not burn the hours of
      // computed progress behind it: record the error in the report (the
      // run's result), keep going, and try again at the next boundary.
      try {
        ckpt_io_retries += save(opt.checkpoint_path, st, opt.ckpt_retry) - 1;
      } catch (const CkptError& e) {
        if (!opt.ckpt_best_effort) throw;
        ++ckpt_failed_snapshots;
        ckpt_error = std::string(error_kind_name(e.kind())) + ": " + e.what();
      }
      st.crash_position = sim::crash_clock_position();
    }
  }

  RunReport report;
  report.total_bootstraps = total;
  report.reference_loglik = reference.loglik;
  std::vector<phylo::Tree> replicate_trees;
  replicate_trees.reserve(st.done.size());
  for (const Replicate& rep : st.done) {
    report.replicate_logliks.push_back(rep.loglik);
    replicate_trees.push_back(rep.tree);
  }
  report.support = phylo::branch_support(reference.tree, replicate_trees);
  report.sched = st.sched;
  report.ckpt_io_retries = ckpt_io_retries;
  report.ckpt_failed_snapshots = ckpt_failed_snapshots;
  report.ckpt_error = std::move(ckpt_error);
  return report;
}

}  // namespace cbe::ckpt
