// Checkpoint subsystem: container-format integrity (every corruption mode
// maps to a distinct, actionable error), domain round-trips, crash
// consistency of the atomic writer, and in-process resume equivalence (a
// run continued from a snapshot is bit-identical to an uninterrupted one).
// The subprocess SIGKILL variant lives in tests/kill_and_resume.cmake.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/format.hpp"
#include "ckpt/runner.hpp"
#include "ckpt_sample.hpp"

namespace cbe::ckpt {
namespace {

constexpr std::size_t kHeaderSize = 36;

std::uint64_t read_u64(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(b[at + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

// Walks the serialized section frames: returns (tag, payload offset,
// payload length) per section.
struct Frame {
  std::string tag;
  std::size_t payload_at;
  std::size_t payload_len;
};
std::vector<Frame> frames(const std::vector<std::uint8_t>& bytes) {
  std::vector<Frame> out;
  std::size_t pos = kHeaderSize;
  while (pos < bytes.size()) {
    Frame f;
    f.tag = std::string(reinterpret_cast<const char*>(bytes.data() + pos), 4);
    f.payload_len = static_cast<std::size_t>(read_u64(bytes, pos + 4));
    f.payload_at = pos + 12;
    out.push_back(f);
    pos += 12 + f.payload_len + 4;
  }
  return out;
}

// Re-frames `good` through ImageWriter under header seed `seed`, leaving
// out the frame tagged `skip` (if any).
std::vector<std::uint8_t> reframe(const std::vector<std::uint8_t>& good,
                                  std::uint64_t seed,
                                  const std::string& skip = "") {
  std::vector<Frame> fs = frames(good);
  std::erase_if(fs, [&](const Frame& f) { return f.tag == skip; });
  std::vector<std::uint8_t> out;
  ImageWriter w(out, seed, static_cast<std::uint32_t>(fs.size()));
  for (const Frame& f : fs) {
    w.begin(f.tag);
    for (std::size_t i = 0; i < f.payload_len; ++i) {
      w.u8(good[f.payload_at + i]);
    }
    w.end();
  }
  return out;
}

ErrorKind parse_failure(const std::vector<std::uint8_t>& bytes,
                        std::string* section = nullptr) {
  try {
    (void)decode(bytes);
  } catch (const CkptError& e) {
    if (section != nullptr) *section = e.section();
    return e.kind();
  }
  ADD_FAILURE() << "corrupted checkpoint was accepted";
  return ErrorKind::Io;
}

using sample::sample_state;
using sample::tiny_job;

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(CkptFormat, ImageRoundtrip) {
  std::vector<std::uint8_t> bytes;
  ImageWriter w(bytes, 0xdeadbeefcafe1234ull, 3);
  w.begin("AAAA");
  for (std::uint8_t b : {1, 2, 3}) w.u8(b);
  w.end();
  w.begin("BBBB");
  w.end();
  w.begin("CCCC");
  w.u8(0xff);
  w.end();

  ImageReader image(bytes);
  EXPECT_EQ(image.seed(), 0xdeadbeefcafe1234ull);
  PayloadReader a = image.next("AAAA");
  EXPECT_EQ(a.u8(), 1);
  EXPECT_EQ(a.u8(), 2);
  EXPECT_EQ(a.u8(), 3);
  EXPECT_NO_THROW(a.expect_end());
  EXPECT_NO_THROW(image.next("BBBB").expect_end());
  // Frames come back in the order they were written: asking for another
  // tag names the one that was asked for, and leaves the frame unread.
  try {
    (void)image.next("DDDD");
    FAIL() << "a frame was yielded under the wrong tag";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::MissingSection);
    EXPECT_EQ(e.section(), "DDDD");
  }
  PayloadReader c = image.next("CCCC");
  EXPECT_EQ(c.u8(), 0xff);
  EXPECT_NO_THROW(c.expect_end());
  try {
    (void)image.next("CCCC");
    FAIL() << "a frame was yielded past the last one";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::MissingSection);
    EXPECT_EQ(e.section(), "CCCC");
  }
}

TEST(CkptFormat, PayloadRoundtripIsBitExact) {
  std::vector<std::uint8_t> bytes;
  ImageWriter w(bytes, 0, 1);
  w.begin("TEST");
  w.u8(200);
  w.u32(0xfeedf00du);
  w.i32(-17);
  w.i64(-(1ll << 40));
  w.f64(-0.0);
  w.f64(1.0 / 3.0);
  w.end();
  ImageReader image(bytes);
  PayloadReader r = image.next("TEST");
  EXPECT_EQ(r.u8(), 200);
  EXPECT_EQ(r.u32(), 0xfeedf00du);
  EXPECT_EQ(r.i32(), -17);
  EXPECT_EQ(r.i64(), -(1ll << 40));
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_NO_THROW(r.expect_end());
  try {
    (void)r.u8();
    FAIL() << "read past the end of the payload";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Truncated);
    EXPECT_EQ(e.section(), "TEST");
  }
}

TEST(CkptFormat, RejectsTruncation) {
  const RunState st = sample_state();
  const std::vector<std::uint8_t> good = encode(st);
  // Shorter than the header.
  EXPECT_EQ(parse_failure({good.begin(), good.begin() + 10}),
            ErrorKind::Truncated);
  // Ends inside a section frame.
  EXPECT_EQ(parse_failure({good.begin(), good.begin() + kHeaderSize + 6}),
            ErrorKind::Truncated);
  // Ends inside a section payload.
  EXPECT_EQ(
      parse_failure({good.begin(), good.begin() + good.size() / 2}),
      ErrorKind::Truncated);
}

TEST(CkptFormat, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes = encode(sample_state());
  bytes[0] ^= 0xff;
  EXPECT_EQ(parse_failure(bytes), ErrorKind::BadMagic);
}

// A future version and version 1 (a job snapshot in two frames, before the
// spec and the state shared one) are both refused, never misread.
TEST(CkptFormat, RejectsVersionBump) {
  for (const std::uint32_t version : {kFormatVersion + 1, 1u}) {
    std::vector<std::uint8_t> bytes = encode(sample_state());
    for (int i = 0; i < 4; ++i) {  // version field
      bytes[8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(version >> (8 * i));
    }
    try {
      (void)ImageReader(bytes);
      FAIL() << "version " << version << " checkpoint was accepted";
    } catch (const CkptError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::BadVersion);
      // The message must name both versions so the user knows what to do.
      const std::string what = e.what();
      EXPECT_NE(what.find("version " + std::to_string(version)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("version " + std::to_string(kFormatVersion)),
                std::string::npos)
          << what;
    }
  }
}

TEST(CkptFormat, RejectsForeignBuildConfig) {
  std::vector<std::uint8_t> bytes = encode(sample_state());
  bytes[12] ^= 0x01;  // config-hash field
  EXPECT_EQ(parse_failure(bytes), ErrorKind::BadConfigHash);
}

TEST(CkptFormat, RejectsHeaderCorruption) {
  std::vector<std::uint8_t> bytes = encode(sample_state());
  bytes[20] ^= 0x40;  // seed field: covered only by the header CRC
  std::string section;
  EXPECT_EQ(parse_failure(bytes, &section), ErrorKind::CrcMismatch);
  EXPECT_EQ(section, "HEAD");
}

TEST(CkptFormat, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> bytes = encode(sample_state());
  bytes.push_back(0x00);
  EXPECT_EQ(parse_failure(bytes), ErrorKind::Malformed);
}

TEST(CkptFormat, BitFlipInEverySectionNamesTheSection) {
  const RunState st = sample_state();
  const std::vector<std::uint8_t> good = encode(st);
  const std::vector<Frame> fs = frames(good);
  ASSERT_EQ(fs.size(), 5u);  // JOB, RNG, PROG, SCHD, FALT
  for (const Frame& f : fs) {
    ASSERT_GT(f.payload_len, 0u) << f.tag;
    for (const std::size_t at :
         {f.payload_at, f.payload_at + f.payload_len / 2,
          f.payload_at + f.payload_len - 1}) {
      std::vector<std::uint8_t> bytes = good;
      bytes[at] ^= 0x10;
      std::string section;
      EXPECT_EQ(parse_failure(bytes, &section), ErrorKind::CrcMismatch)
          << f.tag << " flipped at " << at;
      // The diagnostic must name the damaged section, nothing else.
      EXPECT_EQ(section, f.tag) << "flipped at " << at;
    }
  }
}

TEST(CkptFormat, MissingSectionIsDiagnosed) {
  const std::vector<std::uint8_t> good = encode(sample_state());
  const std::uint64_t seed = read_u64(good, 20);
  // Re-framed whole, the image decodes: the skips below are the only change.
  EXPECT_NO_THROW((void)decode(reframe(good, seed)));
  for (const Frame& skip : frames(good)) {
    try {
      (void)decode(reframe(good, seed, skip.tag));
      FAIL() << "checkpoint without " << skip.tag << " was accepted";
    } catch (const CkptError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::MissingSection) << skip.tag;
      EXPECT_EQ(e.section(), skip.tag);
    }
  }
}

TEST(CkptFormat, HeaderSeedMustMatchJobSection) {
  const std::vector<std::uint8_t> good = encode(sample_state());
  EXPECT_EQ(parse_failure(reframe(good, read_u64(good, 20) ^ 1)),
            ErrorKind::Malformed);
}

TEST(CkptFormat, MissingFileIsAnIoError) {
  try {
    (void)load(temp_path("no_such_checkpoint.ckpt"));
    FAIL() << "missing file was loaded";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Io);
  }
}

TEST(CkptState, SaveLoadRoundtripIsBitExact) {
  const RunState st = sample_state();
  const std::string path = temp_path("roundtrip.ckpt");
  save(path, st);
  const RunState back = load(path);
  EXPECT_EQ(back.job.seed, st.job.seed);
  EXPECT_EQ(back.job.bootstraps, st.job.bootstraps);
  EXPECT_TRUE(back.master == st.master);
  EXPECT_EQ(back.done.size(), st.done.size());
  EXPECT_TRUE(back.sched == st.sched);
  EXPECT_EQ(back.crash_position, st.crash_position);
  // Strongest check: the round-tripped state re-serializes to the same
  // bytes, so trees and doubles survived exactly.
  EXPECT_EQ(encode(back), encode(st));
  std::remove(path.c_str());
}

TEST(CkptState, AtomicWriteLeavesNoTempAndIgnoresStaleTemp) {
  const std::string path = temp_path("atomic.ckpt");
  const std::string tmp = path + ".tmp";
  // A stale temp file from a crashed writer must affect nothing.
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("torn garbage from a dead process", f);
    std::fclose(f);
  }
  const RunState st = sample_state();
  save(path, st);
  EXPECT_EQ(std::fopen(tmp.c_str(), "rb"), nullptr)
      << "temp file survived a successful atomic write";
  EXPECT_NO_THROW((void)load(path));
  std::remove(path.c_str());
}

TEST(CkptState, OverwriteReplacesPreviousCheckpoint) {
  const std::string path = temp_path("overwrite.ckpt");
  RunState st = make_fresh(tiny_job());
  save(path, st);
  const RunState empty = load(path);
  EXPECT_EQ(empty.done.size(), 0u);
  const RunState progressed = sample_state();
  save(path, progressed);
  EXPECT_EQ(load(path).done.size(), progressed.done.size());
  std::remove(path.c_str());
}

// The tentpole property, in-process: resuming from the saved snapshot and
// finishing yields byte-identical output to the uninterrupted run.  (The
// subprocess SIGKILL variant is tests/kill_and_resume.cmake.)
TEST(CkptResume, ResumedRunIsBitIdentical) {
  const BootstrapJob job = tiny_job();

  RunState uninterrupted = make_fresh(job);
  const std::string report_a = run_job(uninterrupted, {}).to_text();

  // "Crash" after one replicate: run a one-replicate prefix, snapshot it,
  // then resume from the loaded snapshot exactly as the driver would.
  RunState prefix = make_fresh(job);
  prefix.job.bootstraps = 1;
  run_job(prefix, {});
  prefix.job.bootstraps = job.bootstraps;
  const std::string path = temp_path("resume.ckpt");
  save(path, prefix);

  RunState resumed = load(path);
  ASSERT_EQ(resumed.done.size(), 1u);
  const std::string report_b = run_job(resumed, {}).to_text();

  EXPECT_EQ(report_a, report_b);
  EXPECT_NE(report_a.find("replicate 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CkptResume, EveryPrefixLengthResumesIdentically) {
  const BootstrapJob job = tiny_job();
  RunState uninterrupted = make_fresh(job);
  const std::string expect = run_job(uninterrupted, {}).to_text();
  for (int k = 0; k <= job.bootstraps; ++k) {
    RunState prefix = make_fresh(job);
    prefix.job.bootstraps = k;
    if (k > 0) run_job(prefix, {});
    prefix.job.bootstraps = job.bootstraps;
    RunState resumed = decode(encode(prefix));  // ser/de in memory
    EXPECT_EQ(run_job(resumed, {}).to_text(), expect) << "prefix " << k;
  }
}

TEST(CkptRunner, ReportIsDeterministic) {
  RunState a = make_fresh(tiny_job());
  RunState b = make_fresh(tiny_job());
  EXPECT_EQ(run_job(a, {}).to_text(), run_job(b, {}).to_text());
}

TEST(CkptRunner, CheckpointCadenceHonored) {
  const std::string path = temp_path("cadence.ckpt");
  RunState st = make_fresh(tiny_job());
  RunnerOptions opt;
  opt.checkpoint_path = path;
  opt.checkpoint_every = 2;
  run_job(st, opt);
  // The final snapshot always lands, and it holds the complete run.
  const RunState final_state = load(path);
  EXPECT_EQ(final_state.done.size(),
            static_cast<std::size_t>(tiny_job().bootstraps));
  std::remove(path.c_str());
}

// -- transient-I/O hardening of snapshot writes ------------------------------

// Installs a no-op sleeper (tests must not really back off) and guarantees
// the injection budget is cleared again even when an assertion throws.
struct RetryHooksGuard {
  RetryHooksGuard() {
    test_hooks::set_retry_sleeper(+[](double) {});
  }
  ~RetryHooksGuard() {
    test_hooks::fail_next_atomic_writes(0);
    test_hooks::set_retry_sleeper(nullptr);
  }
};

TEST(CkptRetry, TransientWriteFailuresAreRetriedAway) {
  RetryHooksGuard guard;
  const std::string path = temp_path("retry_ok.ckpt");
  const RunState st = sample_state();
  test_hooks::fail_next_atomic_writes(2);
  IoRetryPolicy policy;
  policy.max_attempts = 5;
  const int attempts = save(path, st, policy);
  EXPECT_EQ(attempts, 3);  // two injected failures, then success
  const RunState back = load(path);
  EXPECT_EQ(encode(back), encode(st));
  std::remove(path.c_str());
}

TEST(CkptRetry, ExhaustedRetriesSurfaceTheIoError) {
  RetryHooksGuard guard;
  const std::string path = temp_path("retry_fail.ckpt");
  const RunState st = sample_state();
  test_hooks::fail_next_atomic_writes(100);
  IoRetryPolicy policy;
  policy.max_attempts = 3;
  try {
    save(path, st, policy);
    FAIL() << "save() should have thrown after exhausting retries";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Io);
  }
}

// A run whose snapshots keep failing still completes and reports the same
// bytes — the checkpoint trouble is surfaced through the side channel, not
// by corrupting the result or aborting the job.
TEST(CkptRetry, RunnerBestEffortSurvivesPersistentWriteFailure) {
  RetryHooksGuard guard;
  RunState clean = make_fresh(tiny_job());
  const RunReport clean_rep = run_job(clean, {});

  const std::string path = temp_path("retry_besteffort.ckpt");
  RunnerOptions opt;
  opt.checkpoint_path = path;
  opt.checkpoint_every = 1;
  opt.ckpt_retry.max_attempts = 2;
  test_hooks::fail_next_atomic_writes(1000000);
  RunState st = make_fresh(tiny_job());
  const RunReport rep = run_job(st, opt);
  test_hooks::fail_next_atomic_writes(0);

  EXPECT_GT(rep.ckpt_failed_snapshots, 0);
  EXPECT_NE(rep.ckpt_error.find("io:"), std::string::npos) << rep.ckpt_error;
  // The report text ignores I/O weather entirely.
  EXPECT_EQ(rep.to_text(), clean_rep.to_text());
}

TEST(CkptRetry, RunnerStrictModeRethrows) {
  RetryHooksGuard guard;
  const std::string path = temp_path("retry_strict.ckpt");
  RunnerOptions opt;
  opt.checkpoint_path = path;
  opt.checkpoint_every = 1;
  opt.ckpt_retry.max_attempts = 2;
  opt.ckpt_best_effort = false;
  test_hooks::fail_next_atomic_writes(1000000);
  RunState st = make_fresh(tiny_job());
  EXPECT_THROW(run_job(st, opt), CkptError);
  test_hooks::fail_next_atomic_writes(0);
}

// -- data integrity x checkpointing (DESIGN.md section 11) -------------------

TEST(CkptIntegrity, KnobsRoundTripBitExact) {
  BootstrapJob job = tiny_job();
  job.dma_bitflip_rate = 0.125;
  job.result_corrupt_rate = 0.0625;
  job.verify_fraction = 0.5;
  const RunState st = make_fresh(job);
  const RunState back = decode(encode(st));
  EXPECT_EQ(back.job.dma_bitflip_rate, job.dma_bitflip_rate);
  EXPECT_EQ(back.job.result_corrupt_rate, job.result_corrupt_rate);
  EXPECT_EQ(back.job.verify_fraction, job.verify_fraction);
  EXPECT_EQ(encode(back), encode(st));
}

TEST(CkptIntegrity, OutOfRangeRateIsRejected) {
  BootstrapJob job = tiny_job();
  job.dma_bitflip_rate = 1.5;  // not a probability
  const std::vector<std::uint8_t> bytes =
      encode(make_fresh(job));
  try {
    (void)decode(bytes);
    FAIL() << "a rate outside [0, 1] should not validate";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Malformed);
  }
}

// Resume under an active corruption plan: the knobs live in the checkpoint,
// so a resumed run replays the same per-replicate corruption weather and
// finishes byte-identical to the uninterrupted corrupting run.
TEST(CkptIntegrity, ResumeUnderCorruptionPlanIsBitIdentical) {
  BootstrapJob job = tiny_job();
  job.dma_bitflip_rate = 0.05;
  job.result_corrupt_rate = 0.05;
  job.verify_fraction = 1.0;
  job.fault_seed = 99;

  RunState uninterrupted = make_fresh(job);
  const std::string expect = run_job(uninterrupted, {}).to_text();

  for (int k = 1; k < job.bootstraps; ++k) {
    RunState prefix = make_fresh(job);
    prefix.job.bootstraps = k;
    run_job(prefix, {});
    prefix.job.bootstraps = job.bootstraps;
    RunState resumed = decode(encode(prefix));
    EXPECT_EQ(run_job(resumed, {}).to_text(), expect) << "prefix " << k;
  }
}

// With full verification, corruption may cost recovery time but never
// answers: the phylo results (everything except the sched counters) match
// the fault-free run exactly.
TEST(CkptIntegrity, VerifiedCorruptingRunMatchesFaultFreeResults) {
  auto strip_sched = [](std::string text) {
    std::string out;
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size() - 1;
      const std::string line = text.substr(pos, eol - pos + 1);
      if (line.rfind("sched ", 0) != 0) out += line;
      pos = eol + 1;
    }
    return out;
  };

  RunState clean = make_fresh(tiny_job());
  const std::string clean_text = run_job(clean, {}).to_text();

  BootstrapJob job = tiny_job();
  job.dma_bitflip_rate = 0.05;
  job.result_corrupt_rate = 0.05;
  job.verify_fraction = 1.0;
  job.fault_seed = 99;
  RunState chaos = make_fresh(job);
  const std::string chaos_text = run_job(chaos, {}).to_text();

  EXPECT_EQ(strip_sched(clean_text), strip_sched(chaos_text));
}

TEST(CkptRetry, RunnerCountsRetriesThatSucceeded) {
  RetryHooksGuard guard;
  const std::string path = temp_path("retry_counted.ckpt");
  RunnerOptions opt;
  opt.checkpoint_path = path;
  opt.checkpoint_every = 1;
  opt.ckpt_retry.max_attempts = 4;
  test_hooks::fail_next_atomic_writes(2);  // first snapshot needs 3 attempts
  RunState st = make_fresh(tiny_job());
  const RunReport rep = run_job(st, opt);
  EXPECT_EQ(rep.ckpt_io_retries, 2);
  EXPECT_EQ(rep.ckpt_failed_snapshots, 0);
  EXPECT_TRUE(rep.ckpt_error.empty());
  // Later snapshots (no injection left) wrote the complete run.
  const RunState final_state = load(path);
  EXPECT_EQ(final_state.done.size(),
            static_cast<std::size_t>(tiny_job().bootstraps));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cbe::ckpt
