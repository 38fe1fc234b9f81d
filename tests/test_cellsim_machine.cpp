#include "cellsim/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace cbe::cell {
namespace {

struct MachineTest : ::testing::Test {
  sim::Engine eng;
  task::ModuleRegistry modules;
  CellParams params;
};

TEST_F(MachineTest, TopologySingleCell) {
  CellMachine m(eng, params, modules);
  EXPECT_EQ(m.num_spes(), 8);
  EXPECT_EQ(m.num_cells(), 1);
  EXPECT_EQ(m.count_idle_spes(), 8);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(m.spe(i).cell(), 0);
}

TEST_F(MachineTest, TopologyBlade) {
  CellMachine m(eng, CellParams::blade(), modules);
  EXPECT_EQ(m.num_spes(), 16);
  EXPECT_EQ(m.num_cells(), 2);
  EXPECT_EQ(m.spe(7).cell(), 0);
  EXPECT_EQ(m.spe(8).cell(), 1);
}

TEST_F(MachineTest, IdleSpesPreferRequestedCell) {
  CellMachine m(eng, CellParams::blade(), modules);
  const auto pref1 = m.idle_spes(1);
  ASSERT_EQ(pref1.size(), 16u);
  EXPECT_EQ(m.spe(pref1.front()).cell(), 1);
  EXPECT_EQ(m.spe(pref1.back()).cell(), 0);
}

TEST_F(MachineTest, IdleSpesSkipBusy) {
  CellMachine m(eng, params, modules);
  m.reserve(0);
  m.reserve(3);
  const auto idle = m.idle_spes(0);
  EXPECT_EQ(idle.size(), 6u);
  for (int s : idle) {
    EXPECT_NE(s, 0);
    EXPECT_NE(s, 3);
  }
}

TEST_F(MachineTest, EnsureModuleLoadsOnceThenFree) {
  CellMachine m(eng, params, modules);
  int done = 0;
  m.ensure_module(0, 0, ModuleVariant::Sequential, [&] { ++done; });
  eng.run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(m.spe(0).code_loads(), 1u);
  // Second call: already resident, completes immediately without a DMA.
  m.ensure_module(0, 0, ModuleVariant::Sequential, [&] { ++done; });
  EXPECT_EQ(done, 2);
  EXPECT_EQ(m.spe(0).code_loads(), 1u);
}

TEST_F(MachineTest, VariantSwapCostsAnotherLoad) {
  CellMachine m(eng, params, modules);
  m.ensure_module(0, 0, ModuleVariant::Sequential, [] {});
  eng.run();
  m.ensure_module(0, 0, ModuleVariant::Parallel, [] {});
  eng.run();
  EXPECT_EQ(m.spe(0).code_loads(), 2u);
  EXPECT_TRUE(m.spe(0).has_module(0, ModuleVariant::Parallel));
}

TEST_F(MachineTest, SpeComputeTakesCycleTime) {
  CellMachine m(eng, params, modules);
  sim::Time done_at;
  m.spe_compute(0, 3200.0, [&] { done_at = eng.now(); });  // 1 us at 3.2 GHz
  eng.run();
  EXPECT_EQ(done_at, sim::Time::us(1.0));
}

TEST_F(MachineTest, DmaZeroBytesImmediate) {
  CellMachine m(eng, params, modules);
  bool done = false;
  m.dma(0, 0.0, 1, [&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_EQ(m.active_dmas(), 0);
}

TEST_F(MachineTest, DmaTracksInFlightCount) {
  CellMachine m(eng, params, modules);
  m.dma(0, 64 * 1024, 4, [] {});
  EXPECT_EQ(m.active_dmas(), 1);
  eng.run();
  EXPECT_EQ(m.active_dmas(), 0);
}

TEST_F(MachineTest, DmaCongestionIsPerCell) {
  // Busy SPEs on cell 1 must not slow a transfer on cell 0.
  CellMachine m2(eng, CellParams::blade(), modules);
  for (int s = 8; s < 16; ++s) m2.reserve(s);
  sim::Time t_cell0;
  m2.dma(0, 64 * 1024, 4, [&] { t_cell0 = eng.now(); });
  eng.run();
  for (int s = 8; s < 16; ++s) m2.release(s);

  // Same transfer but with the *local* cell busy.
  sim::Engine eng2;
  CellMachine m3(eng2, CellParams::blade(), modules);
  for (int s = 1; s < 8; ++s) m3.reserve(s);
  sim::Time t_busy;
  m3.dma(0, 64 * 1024, 4, [&] { t_busy = eng2.now(); });
  eng2.run();
  EXPECT_GT(t_busy, t_cell0);
}

TEST_F(MachineTest, SignalAndPassLatencies) {
  CellMachine m(eng, CellParams::blade(), modules);
  EXPECT_EQ(m.signal_latency(0), params.mailbox_latency);
  EXPECT_EQ(m.pass_latency(0, 1), params.pass_latency_local);
  EXPECT_EQ(m.pass_latency(0, 9),
            params.pass_latency_local * params.cross_cell_factor);
  sim::Time at;
  m.signal(0, [&] { at = eng.now(); });
  eng.run();
  EXPECT_EQ(at, params.mailbox_latency);
}

TEST_F(MachineTest, SoloTimingHelpersAreUncontended) {
  CellMachine m(eng, params, modules);
  for (int s = 0; s < 8; ++s) m.reserve(s);
  // solo_dma_time must ignore the congestion.
  const auto solo = m.solo_dma_time(19.0 * 1000.0, 1);
  const double wire = static_cast<double>(solo.nanoseconds()) -
                      static_cast<double>(params.dma_setup.nanoseconds());
  EXPECT_NEAR(wire, 1000.0, 2.0);
  EXPECT_GT(m.code_load_time(0, cell::ModuleVariant::Parallel),
            m.code_load_time(0, cell::ModuleVariant::Sequential));
}

TEST_F(MachineTest, MeanUtilizationAveragesSpes) {
  CellMachine m(eng, params, modules);
  m.reserve(0);
  eng.schedule_at(sim::Time::us(10.0), [&] { m.release(0); });
  eng.run();
  // 1 of 8 SPEs busy the whole time -> 12.5%.
  EXPECT_NEAR(m.mean_spe_utilization(), 0.125, 1e-9);
}

// The O(1) occupancy counters against a brute-force scan, after every step
// of a seeded random reserve/release/fail-stop/quarantine sequence on a
// dual-Cell blade: counts, idle_spes order per preferred Cell, and the
// per-Cell DMA congestion a transfer actually sees.
TEST_F(MachineTest, OccupancyCountersMatchBruteForce) {
  const CellParams bp = CellParams::blade();
  const Mfc mfc(bp);
  for (unsigned seed = 1; seed <= 20; ++seed) {
    sim::Engine e;
    CellMachine m(e, bp, modules);
    std::mt19937 rng(seed);
    const auto pick = [&rng](int n) {
      return std::uniform_int_distribution<int>(0, n - 1)(rng);
    };
    for (int step = 0; step < 200; ++step) {
      const int op = pick(10);
      const int s = pick(m.num_spes());
      if (op < 5) {
        if (m.spe(s).idle() && m.spe(s).usable()) m.reserve(s);
      } else if (op < 8) {
        if (!m.spe(s).idle()) m.release(s);
      } else if (op == 8) {
        if (pick(4) == 0) m.fail_spe(s);
      } else if (pick(4) == 0) {
        m.quarantine_spe(s, 3, 3);
      }

      int idle = 0, healthy = 0;
      std::vector<int> busy(static_cast<std::size_t>(m.num_cells()), 0);
      for (int i = 0; i < m.num_spes(); ++i) {
        const Spe& x = m.spe(i);
        idle += x.idle() && x.usable();
        healthy += x.usable();
        busy[static_cast<std::size_t>(x.cell())] += !x.idle();
      }
      ASSERT_EQ(m.count_idle_spes(), idle) << "seed " << seed << " step " << step;
      ASSERT_EQ(m.healthy_spes(), healthy);
      ASSERT_EQ(m.failed_spes(), m.num_spes() - healthy);
      for (int c = 0; c < m.num_cells(); ++c) {
        ASSERT_EQ(m.busy_spes(c), busy[static_cast<std::size_t>(c)]);
        std::vector<int> want;
        for (const bool local : {true, false}) {
          for (int i = 0; i < m.num_spes(); ++i) {
            const Spe& x = m.spe(i);
            if (x.idle() && x.usable() && (x.cell() == c) == local) {
              want.push_back(i);
            }
          }
        }
        ASSERT_EQ(m.idle_spes(c), want) << "seed " << seed << " step " << step;
      }

      // A transfer on a live SPE pays its own Cell's congestion only.
      const int d = pick(m.num_spes());
      if (!m.spe(d).usable()) continue;
      const double bytes = 4096.0 * (1 + pick(32));
      const int cell = m.spe(d).cell();
      const sim::Time want =
          e.now() + mfc.transfer_time(
                        bytes, 2,
                        std::max(busy[static_cast<std::size_t>(cell)], 1),
                        /*cross_cell=*/false);
      sim::Time got;
      m.dma(d, bytes, 2, [&] { got = e.now(); });
      e.run();
      ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
    }
  }
}

}  // namespace
}  // namespace cbe::cell
