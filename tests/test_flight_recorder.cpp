// Flight-recorder invariants (DESIGN.md §12): bounded storage, newest-wins
// overwrite ordering, loss accounting, span capture, dump formatting, and
// race-freedom of concurrent record()/tail() under the TSan CI leg.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/trace_parse.hpp"
#include "trace/export.hpp"
#include "trace/recorder.hpp"
#include "trace/trace.hpp"

namespace {

using namespace cbe;
using trace::EventKind;

TEST(FlightRecorderTest, HoldsEverythingUnderCapacity) {
  trace::FlightRecorder rec(64);
  for (int i = 0; i < 50; ++i) {
    rec.record(i, EventKind::TaskDispatch, 0, i);
  }
  const std::vector<trace::Event> tail = rec.tail();
  ASSERT_EQ(tail.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(tail[static_cast<std::size_t>(i)].t_ns, i);
    EXPECT_EQ(tail[static_cast<std::size_t>(i)].pid, i);
  }
  EXPECT_EQ(rec.recorded(), 50u);
  EXPECT_EQ(rec.overwritten(), 0u);
  EXPECT_EQ(rec.threads_attached(), 1u);
}

// The load-bearing invariant: when the ring wraps, what survives is exactly
// the *newest* `capacity` events, in order, and the loss counter accounts
// for every event that fell off the back.
TEST(FlightRecorderTest, OverwriteKeepsExactlyTheNewestInOrder) {
  constexpr int kCapacity = 64;
  constexpr int kTotal = 5 * kCapacity + 17;
  trace::FlightRecorder rec(kCapacity);
  for (int i = 0; i < kTotal; ++i) {
    rec.record(i, EventKind::TaskDispatch, 0, i);
  }
  const std::vector<trace::Event> tail = rec.tail();
  ASSERT_EQ(tail.size(), static_cast<std::size_t>(kCapacity));
  for (int k = 0; k < kCapacity; ++k) {
    const int want = kTotal - kCapacity + k;
    EXPECT_EQ(tail[static_cast<std::size_t>(k)].t_ns, want);
    EXPECT_EQ(tail[static_cast<std::size_t>(k)].pid, want);
  }
  EXPECT_EQ(rec.recorded(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(rec.overwritten(),
            static_cast<std::uint64_t>(kTotal - kCapacity));
}

TEST(FlightRecorderTest, CapacityClampsToMinimum) {
  trace::FlightRecorder rec(1);
  EXPECT_GE(rec.capacity(), 16u);
}

TEST(FlightRecorderTest, CapturesAmbientSpan) {
  trace::FlightRecorder rec(64);
  rec.record(1, EventKind::TaskDispatch, 0, 0);
  {
    trace::ScopedSpan span(trace::make_span(7, 2, 1, 3));
    rec.record(2, EventKind::TaskComplete, 0, 0);
  }
  const std::vector<trace::Event> tail = rec.tail();
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].span, trace::kNoSpan);
  const trace::SpanParts p = trace::span_parts(tail[1].span);
  ASSERT_TRUE(p.valid);
  EXPECT_EQ(p.job, 7u);
  EXPECT_EQ(p.attempt, 2u);
  EXPECT_EQ(p.hop, 1u);
  EXPECT_EQ(p.task, 3u);
}

// Each thread gets its own ring: per-thread capacity, per-thread ordering,
// merged tail sorted by timestamp.
TEST(FlightRecorderTest, PerThreadRingsMergeByTimestamp) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  trace::FlightRecorder rec(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.record(i * kThreads + t, EventKind::TaskDispatch, t, i);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const std::vector<trace::Event> tail = rec.tail();
  ASSERT_EQ(tail.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 1; i < tail.size(); ++i) {
    EXPECT_LE(tail[i - 1].t_ns, tail[i].t_ns);
  }
  EXPECT_EQ(rec.threads_attached(), static_cast<std::size_t>(kThreads));
}

// A thread that recorded into a destroyed recorder must attach afresh to a
// new recorder built at the same address: its cached ring belonged to the
// old recorder and was freed with it.
TEST(FlightRecorderTest, ThreadReattachesToNewRecorderAtReusedAddress) {
  std::optional<trace::FlightRecorder> rec;
  rec.emplace(64);
  const trace::FlightRecorder* first = &*rec;
  std::promise<void> first_recorded;
  std::promise<void> rebuilt;
  std::thread writer([&rec, &first_recorded, go = rebuilt.get_future()] {
    rec->record(1, EventKind::TaskDispatch, 0, 1);
    first_recorded.set_value();
    go.wait();
    rec->record(2, EventKind::TaskComplete, 0, 2);
  });
  first_recorded.get_future().wait();
  rec.reset();
  rec.emplace(64);
  EXPECT_EQ(&*rec, first);
  rebuilt.set_value();
  writer.join();

  const std::vector<trace::Event> tail = rec->tail();
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].t_ns, 2);
  EXPECT_EQ(tail[0].kind, EventKind::TaskComplete);
  EXPECT_EQ(tail[0].pid, 2);
  EXPECT_EQ(rec->recorded(), 1u);
  EXPECT_EQ(rec->threads_attached(), 1u);
}

// A thread that alternates between two recorders keeps one ring in each:
// the per-thread cache holds only the last recorder, so a switch back must
// find the ring attached before rather than attach another.
TEST(FlightRecorderTest, AlternatingRecordersKeepOneRingEach) {
  trace::FlightRecorder a(64);
  trace::FlightRecorder b(64);
  for (int i = 0; i < 1000; ++i) {
    a.record(i, EventKind::TaskDispatch, 0, i);
    b.record(i, EventKind::TaskComplete, 0, i);
  }
  EXPECT_EQ(a.threads_attached(), 1u);
  EXPECT_EQ(b.threads_attached(), 1u);
  EXPECT_EQ(a.recorded(), 1000u);
  EXPECT_EQ(b.recorded(), 1000u);
  const std::vector<trace::Event> tail = a.tail();
  ASSERT_EQ(tail.size(), 64u);
  EXPECT_EQ(tail.front().t_ns, 1000 - 64);
  EXPECT_EQ(tail.back().t_ns, 999);
}

// TSan stress: writers hammer their rings while a reader snapshots
// concurrently.  The memory-model contract (per-slot sequence locks over
// atomic payload words; tail() acquires heads) must hold race-free, and every
// mid-flight snapshot must stay well-formed: bounded size, monotone
// timestamps, and only values a writer could have produced.
TEST(FlightRecorderStressTest, ConcurrentRecordAndTail) {
  static constexpr int kWriters = 4;
  static constexpr int kEvents = 20000;
  trace::FlightRecorder rec(128);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rec, w] {
      for (int i = 0; i < kEvents; ++i) {
        rec.record(i, EventKind::TaskDispatch, w, i, w, i);
      }
    });
  }
  std::thread reader([&rec, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<trace::Event> snap = rec.tail();
      EXPECT_LE(snap.size(), rec.capacity() * kWriters);
      for (std::size_t i = 1; i < snap.size(); ++i) {
        EXPECT_LE(snap[i - 1].t_ns, snap[i].t_ns);
      }
      for (const trace::Event& e : snap) {
        EXPECT_GE(e.t_ns, 0);
        EXPECT_LT(e.t_ns, kEvents);
        EXPECT_GE(e.spe, 0);
        EXPECT_LT(e.spe, kWriters);
      }
    }
  });
  for (std::thread& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Quiescent now: the final snapshot is exact.
  const std::vector<trace::Event> tail = rec.tail();
  EXPECT_EQ(tail.size(), rec.capacity() * kWriters);
  EXPECT_EQ(rec.recorded(),
            static_cast<std::uint64_t>(kWriters) * kEvents);
  EXPECT_EQ(rec.overwritten(),
            rec.recorded() - static_cast<std::uint64_t>(tail.size()));
}

// A span survives the full text round trip: tagged events render with a
// trailing ` s=<span>`, the strict parser restores the exact id, and
// untagged events stay byte-identical to the pre-span format.
TEST(SpanRoundTripTest, TextFormatPreservesSpans) {
  std::vector<trace::Event> events;
  events.push_back(
      trace::Event{100, 0, 1, 3, 0, EventKind::TaskDispatch, trace::kNoSpan});
  events.push_back(trace::Event{200, 4, 5, 8, 1, EventKind::TaskComplete,
                                trace::make_span(12, 3, 1, 8)});
  const std::string text = trace::to_text(events);
  EXPECT_EQ(text.find(" s="), text.rfind(" s="))
      << "untagged events must not grow a span field";

  std::vector<trace::Event> parsed;
  std::string err;
  ASSERT_TRUE(analysis::parse_text_trace(text, parsed, &err)) << err;
  ASSERT_EQ(parsed.size(), events.size());
  EXPECT_EQ(parsed[0].span, trace::kNoSpan);
  EXPECT_EQ(parsed[1].span, trace::make_span(12, 3, 1, 8));
  const trace::SpanParts p = trace::span_parts(parsed[1].span);
  ASSERT_TRUE(p.valid);
  EXPECT_EQ(p.job, 12u);
  EXPECT_EQ(p.attempt, 3u);
  EXPECT_EQ(p.hop, 1u);
  EXPECT_EQ(p.task, 8u);
}

TEST(SpanRoundTripTest, MalformedSpanTailIsRejected) {
  std::vector<trace::Event> parsed;
  std::string err;
  EXPECT_FALSE(analysis::parse_text_trace(
      "# cbe-trace v1\n100 task_dispatch spe=0 pid=3 a=0 b=1 s=junk\n",
      parsed, &err));
  EXPECT_FALSE(analysis::parse_text_trace(
      "# cbe-trace v1\n100 task_dispatch spe=0 pid=3 a=0 b=1 s=5 extra\n",
      parsed, &err));
}

TEST(SpanPackingTest, SaturatesInsteadOfBleedingAcrossFields) {
  // job 0 is representable and distinct from "no span".
  EXPECT_NE(trace::make_span(0, 0, 0, 0), trace::kNoSpan);
  // Oversized narrow fields saturate instead of corrupting neighbours.
  const trace::SpanParts p =
      trace::span_parts(trace::make_span(5, 1u << 20, 1u << 20, 1u << 20));
  ASSERT_TRUE(p.valid);
  EXPECT_EQ(p.job, 5u);
  EXPECT_EQ(p.attempt, 0xffu);
  EXPECT_EQ(p.hop, 0xffu);
  EXPECT_EQ(p.task, 0xffffu);
}

// The dump text is a strict `# cbe-trace v1` stream (comments carry the
// reason and loss counters), so every crash artifact feeds cell_profiler.
TEST(FlightDumpTest, DumpTextParsesStrictAndCarriesReason) {
  trace::FlightRecorder rec(32);
  {
    trace::ScopedSpan span(trace::make_span(3, 1, 0, 2));
    for (int i = 0; i < 40; ++i) {
      rec.record(i, EventKind::TaskDispatch, 0, i);
    }
  }
  const std::string text = trace::flight_dump_text(rec, rec.tail(), "test");
  EXPECT_NE(text.find("# flight-recorder reason=test"), std::string::npos);
  std::vector<trace::Event> parsed;
  std::string err;
  ASSERT_TRUE(analysis::parse_text_trace(text, parsed, &err)) << err;
  ASSERT_EQ(parsed.size(), 32u);
  // The causal span tail survives the dump round trip.
  EXPECT_EQ(trace::span_parts(parsed.back().span).job, 3u);
}

TEST(FlightDumpTest, InstallDumpBudgetAndForce) {
  const std::string path =
      testing::TempDir() + "/flight_recorder_dump_test.trace";
  trace::FlightRecorder rec(32);
  rec.record(1, EventKind::TaskDispatch, 0, 0);
  const std::uint64_t before = trace::flight_dumps_written();
  trace::install_flight_recorder(&rec, path, /*max_dumps=*/1);
  EXPECT_EQ(trace::installed_flight_recorder(), &rec);
  EXPECT_TRUE(trace::dump_flight_recorder("first"));
  EXPECT_FALSE(trace::dump_flight_recorder("budget-exhausted"));
  EXPECT_TRUE(trace::dump_flight_recorder("forced", /*force=*/true));
  EXPECT_EQ(trace::flight_dumps_written(), before + 2);
  trace::install_flight_recorder(nullptr, "");
  EXPECT_FALSE(trace::dump_flight_recorder("uninstalled"));
  std::remove(path.c_str());
}

}  // namespace
