// Checkpoint overhead: how expensive is a crash-consistent snapshot
// relative to the replicate work it protects?  Runs the real bootstrap job
// once to build up progressively larger RunStates, then measures encode /
// atomic-write / validate (ImageReader) / full-decode cost and bytes at each
// size.
//
//   build/bench/bench_ckpt [--bootstraps=N] [--taxa=N] [--sites=N]
//       [--seed=S] [--reps=N] [--path=F]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "bench_report.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/format.hpp"
#include "ckpt/runner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

double time_us(const std::function<void()>& fn, int reps) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / reps;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cbe;
  util::Cli cli(argc, argv);
  ckpt::BootstrapJob job;
  job.bootstraps = static_cast<int>(cli.get_int("bootstraps", 8));
  job.taxa = static_cast<int>(cli.get_int("taxa", job.taxa));
  job.sites = static_cast<int>(cli.get_int("sites", job.sites));
  job.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2024));
  const int reps = static_cast<int>(cli.get_int("reps", 50));
  const std::string path = cli.get("path", "bench_ckpt.ckpt");
  bench::BenchReport report(cli, "ckpt");
  cli.enforce_usage_or_exit(
      "bench_ckpt [--bootstraps=N] [--taxa=N] [--sites=N] [--seed=S]"
      " [--reps=N] [--path=F] [--json[=F]]");
  report.config("bootstraps", static_cast<long long>(job.bootstraps));
  report.config("taxa", static_cast<long long>(job.taxa));
  report.config("sites", static_cast<long long>(job.sites));
  report.config("seed", static_cast<long long>(job.seed));
  report.set_repetitions(reps);

  // Run the full job once (no checkpointing) to get a final-size state,
  // then measure snapshot cost at several progress points by truncating.
  ckpt::RunState full = ckpt::make_fresh(job);
  const auto job_t0 = std::chrono::steady_clock::now();
  ckpt::run_job(full, {});
  const auto job_t1 = std::chrono::steady_clock::now();
  const double per_replicate_us =
      std::chrono::duration<double, std::micro>(job_t1 - job_t0).count() /
      job.bootstraps;

  util::Table table("Checkpoint overhead vs progress (" +
                    std::to_string(job.taxa) + " taxa, " +
                    std::to_string(job.sites) + " sites)");
  table.header({"replicates", "bytes", "serialize", "atomic write", "parse",
                "decode", "write/replicate"});
  for (int k : {0, 1, job.bootstraps / 2, job.bootstraps}) {
    ckpt::RunState st = full;
    st.done.assign(full.done.begin(), full.done.begin() + k);
    const std::vector<std::uint8_t> bytes = ckpt::encode(st);
    const double ser_us = time_us([&] { (void)ckpt::encode(st); }, reps);
    const double write_us =
        time_us([&] { ckpt::write_file_atomic(path, bytes); }, reps);
    // parse: the reader's validation pass (header, every frame's bounds and
    // CRC); decode: validation plus decoding every frame into a RunState.
    const double parse_us =
        time_us([&] { (void)ckpt::ImageReader(bytes); }, reps);
    const double dec_us = time_us([&] { (void)ckpt::decode(bytes); }, reps);
    const std::string at = std::to_string(k);
    report.add_sample("serialize/" + at, ser_us * 1e-6);
    report.add_sample("atomic_write/" + at, write_us * 1e-6);
    report.add_sample("parse/" + at, parse_us * 1e-6);
    report.add_sample("decode/" + at, dec_us * 1e-6);
    table.row({std::to_string(k), std::to_string(bytes.size()),
               util::Table::num(ser_us) + "us",
               util::Table::num(write_us) + "us",
               util::Table::num(parse_us) + "us",
               util::Table::num(dec_us) + "us",
               util::Table::num(100.0 * write_us / per_replicate_us) + "%"});
  }
  table.print();
  std::printf(
      "One replicate of real bootstrap work costs ~%.0fus; the atomic\n"
      "write column shows the fsync-dominated snapshot cost it amortizes.\n",
      per_replicate_us);
  std::remove(path.c_str());
  return report.write() ? 0 : 1;
}
