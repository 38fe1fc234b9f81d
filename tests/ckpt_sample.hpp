// The checkpoint tests' sample run: a small but fully populated bootstrap
// checkpoint state.  Shared by test_ckpt and by the snapshot byte golden in
// test_jobsvc, which pins the CRC of its serialized image.
#pragma once

#include "ckpt/checkpoint.hpp"
#include "ckpt/runner.hpp"

namespace cbe::ckpt::sample {

inline BootstrapJob tiny_job() {
  BootstrapJob job;
  job.taxa = 6;
  job.sites = 60;
  job.bootstraps = 3;
  job.seed = 77;
  return job;
}

/// Two of tiny_job()'s three replicates completed.
inline RunState sample_state() {
  RunState st = make_fresh(tiny_job());
  st.job.bootstraps = 2;
  run_job(st, {});
  st.job.bootstraps = tiny_job().bootstraps;
  return st;
}

}  // namespace cbe::ckpt::sample
