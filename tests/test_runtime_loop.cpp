#include "runtime/loop_executor.hpp"

#include <gtest/gtest.h>

#include "cellsim/machine.hpp"

namespace cbe::rt {
namespace {

struct LoopTest : ::testing::Test {
  LoopTest() : machine(eng, params, modules), exec(machine, LoopParams{}) {}

  task::TaskDesc make_task(std::uint32_t iters, double cycles_per_iter,
                           double nonloop = 1000.0) {
    task::TaskDesc t;
    t.kind = task::KernelClass::Generic;
    t.spe_cycles_nonloop = nonloop;
    t.loop.iterations = iters;
    t.loop.spe_cycles_per_iter = cycles_per_iter;
    t.loop.bytes_in_per_iter = 64.0;
    t.loop.reduction_cycles_per_worker = 100.0;
    return t;
  }

  /// Runs the loop on `degree` SPEs and returns the simulated duration.
  sim::Time run_loop(const task::TaskDesc& t, int degree) {
    const sim::Time start = eng.now();
    std::vector<int> workers;
    for (int w = 1; w < degree; ++w) {
      workers.push_back(w);
      machine.reserve(w);
    }
    machine.reserve(0);
    sim::Time end;
    if (degree == 1) {
      machine.spe_compute(0, t.spe_cycles_total(), [&] { end = eng.now(); });
    } else {
      exec.run(0, workers, t, balancer, [&] { end = eng.now(); });
    }
    eng.run();
    machine.release(0);
    return end - start;
  }

  sim::Engine eng;
  cell::CellParams params;
  task::ModuleRegistry modules;
  cell::CellMachine machine;
  LoopExecutor exec;
  LoopBalancer balancer;
};

TEST_F(LoopTest, BigLoopsSpeedUpWithWorkers) {
  const auto t = make_task(1000, 3200.0);  // 1 ms of loop work
  const sim::Time t1 = run_loop(t, 1);
  sim::Engine eng2;
  const sim::Time t4 = run_loop(t, 4);
  EXPECT_LT(t4, t1);
  EXPECT_GT(t4, t1 / 4.0);  // overheads keep it sublinear
}

TEST_F(LoopTest, TinyLoopsDoNotBenefit) {
  // 228 iterations x ~100 cycles: fork/join overheads dominate at degree 8.
  const auto t = make_task(228, 100.0, 100.0);
  const sim::Time t1 = run_loop(t, 1);
  const sim::Time t8 = run_loop(t, 8);
  EXPECT_GT(t8, t1);
}

TEST_F(LoopTest, WorkersAreReleasedAfterTheLoop) {
  const auto t = make_task(512, 1000.0);
  std::vector<int> workers = {1, 2, 3};
  for (int w : workers) machine.reserve(w);
  machine.reserve(0);
  bool done = false;
  exec.run(0, workers, t, balancer, [&] { done = true; });
  eng.run();
  EXPECT_TRUE(done);
  for (int w : workers) EXPECT_TRUE(machine.spe(w).idle());
  // Master is the caller's to release.
  EXPECT_FALSE(machine.spe(0).idle());
}

TEST_F(LoopTest, RequiresAtLeastOneWorker) {
  const auto t = make_task(100, 100.0);
  EXPECT_THROW(exec.run(0, {}, t, balancer, [] {}), std::logic_error);
}

TEST_F(LoopTest, DegreeAboveIterationsThrows) {
  const auto t = make_task(2, 100.0);
  std::vector<int> workers = {1, 2};
  EXPECT_THROW(exec.run(0, workers, t, balancer, [] {}), std::logic_error);
}

TEST_F(LoopTest, ReductionCostScalesWithWorkers) {
  auto t = make_task(1000, 1000.0);
  t.loop.reduction_cycles_per_worker = 100000.0;  // make it visible
  const sim::Time cheap_redux = [&] {
    auto t2 = t;
    t2.loop.reduction_cycles_per_worker = 0.0;
    return run_loop(t2, 4);
  }();
  const sim::Time costly_redux = run_loop(t, 4);
  EXPECT_GT(costly_redux, cheap_redux);
}

TEST(LoopBalancer, DefaultGivesMasterHeadStart) {
  LoopBalancer b;
  EXPECT_GT(b.master_fraction(2), 0.5);
  EXPECT_GT(b.master_fraction(4), 0.25);
}

TEST(LoopBalancer, AdaptsTowardIdleSide) {
  LoopBalancer b;
  const double bias0 = b.bias();
  // Master idled waiting on workers -> its share was too small -> bias up.
  b.observe(/*master_idle=*/20.0, /*worker_wait=*/0.0, /*span=*/100.0);
  EXPECT_GT(b.bias(), bias0);
  // Workers waited on the master -> bias back down.
  const double bias1 = b.bias();
  b.observe(0.0, 30.0, 100.0);
  EXPECT_LT(b.bias(), bias1);
}

TEST(LoopBalancer, StepsAreBoundedAndClamped) {
  LoopBalancer b;
  for (int i = 0; i < 100; ++i) b.observe(1000.0, 0.0, 100.0);
  EXPECT_LE(b.bias(), 3.0);
  for (int i = 0; i < 200; ++i) b.observe(0.0, 1000.0, 100.0);
  EXPECT_GE(b.bias(), 0.5);
}

TEST(LoopBalancer, NonAdaptiveStaysFixed) {
  LoopBalancer b;
  b.set_adaptive(false);
  const double bias = b.bias();
  b.observe(50.0, 0.0, 100.0);
  EXPECT_DOUBLE_EQ(b.bias(), bias);
}

TEST_F(LoopTest, BalancerConvergesAcrossInvocations) {
  // After many invocations of the same loop the imbalance should shrink.
  const auto t = make_task(2000, 800.0, 500.0);
  sim::Time first, last;
  for (int i = 0; i < 25; ++i) {
    const sim::Time d = run_loop(t, 4);
    if (i == 0) first = d;
    last = d;
  }
  EXPECT_LE(last, first);
}

}  // namespace
}  // namespace cbe::rt
