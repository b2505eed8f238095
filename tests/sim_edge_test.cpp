// Simulator edge cases: degenerate parameters, simultaneous events,
// horizon boundaries, and pathological shapes the main suites don't
// cover.
#include <gtest/gtest.h>

#include "sched/edf.hpp"
#include "sched/rua.hpp"
#include "sim/simulator.hpp"
#include "support/check.hpp"

namespace lfrt {
namespace {

using sim::ShareMode;
using sim::SimConfig;
using sim::Simulator;

TaskParams tiny(TaskId id, Time exec, Time critical,
                std::vector<AccessSpec> acc = {}) {
  TaskParams p;
  p.id = id;
  p.exec_time = exec;
  p.tuf = make_step_tuf(10.0, critical);
  p.arrival = UamSpec{1, 4, critical};
  p.accesses = std::move(acc);
  return p;
}

TEST(SimEdge, OneNanosecondJobs) {
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(tiny(0, 1, nsec(100)));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kIdeal;
  cfg.horizon = usec(1);
  Simulator sim(ts, edf, cfg);
  sim.set_arrivals(0, {0, nsec(100), nsec(200)});
  const auto rep = sim.run();
  EXPECT_EQ(rep.completed, 3);
  for (const Job& j : rep.jobs) EXPECT_EQ(j.sojourn(), 1);
}

TEST(SimEdge, SimultaneousBurstArrivals) {
  // Four jobs of the same task arriving at the same instant (UAM allows
  // simultaneous arrivals) are all admitted and run back to back.
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(tiny(0, usec(5), usec(100)));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kIdeal;
  cfg.horizon = msec(1);
  Simulator sim(ts, edf, cfg);
  sim.set_arrivals(0, {0, 0, 0, 0});
  const auto rep = sim.run();
  EXPECT_EQ(rep.counted_jobs, 4);
  EXPECT_EQ(rep.completed, 4);
  std::vector<Time> completions;
  for (const Job& j : rep.jobs) completions.push_back(j.completion);
  std::sort(completions.begin(), completions.end());
  EXPECT_EQ(completions.back(), usec(20));
}

TEST(SimEdge, ZeroHorizonRunsNothing) {
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(tiny(0, usec(5), usec(100)));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kIdeal;
  cfg.horizon = 0;
  Simulator sim(ts, edf, cfg);
  sim.set_arrivals(0, {0});
  const auto rep = sim.run();
  // The arrival at t=0 is processed but its critical time (100us) is
  // beyond the horizon: nothing is counted.
  EXPECT_EQ(rep.counted_jobs, 0);
}

TEST(SimEdge, AccessAtOffsetZeroAndAtExecTime) {
  // Accesses at the very start and very end of the compute interval.
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(tiny(0, usec(10), usec(200),
                          {{0, 0}, {0, usec(10)}}));
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  SimConfig cfg;
  cfg.mode = ShareMode::kLockFree;
  cfg.lockfree_access_time = usec(3);
  cfg.horizon = msec(1);
  Simulator sim(ts, rua, cfg);
  sim.set_arrivals(0, {0});
  const auto rep = sim.run();
  EXPECT_EQ(rep.completed, 1);
  EXPECT_EQ(rep.jobs[0].completion, usec(16));  // 10 + 2*3
}

TEST(SimEdge, BackToBackAccessesSameOffset) {
  TaskSet ts;
  ts.object_count = 2;
  ts.tasks.push_back(tiny(0, usec(10), usec(200),
                          {{0, usec(5)}, {1, usec(5)}, {0, usec(5)}}));
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  SimConfig cfg;
  cfg.mode = ShareMode::kLockFree;
  cfg.lockfree_access_time = usec(2);
  cfg.horizon = msec(1);
  Simulator sim(ts, rua, cfg);
  sim.set_arrivals(0, {0});
  const auto rep = sim.run();
  EXPECT_EQ(rep.jobs[0].completion, usec(16));  // 10 + 3*2
  EXPECT_EQ(rep.jobs[0].retries, 0);
}

TEST(SimEdge, LockBasedSelfContentionAcrossJobsOfSameTask) {
  // Burst of two jobs of one task contending on their own object.
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(tiny(0, usec(10), usec(200), {{0, usec(2)}}));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kLockBased;
  cfg.lock_access_time = usec(5);
  cfg.horizon = msec(1);
  Simulator sim(ts, edf, cfg);
  sim.set_arrivals(0, {0, 0});
  const auto rep = sim.run();
  EXPECT_EQ(rep.completed, 2);
  // Serialized: 15us for the first, 30us for the second, at most one
  // blocking between them.
  EXPECT_LE(rep.total_blockings, 1);
}

TEST(SimEdge, ExpiryDuringSchedulerOverheadWindow) {
  // A job whose critical time lands inside the overhead window of its
  // own dispatch must still abort cleanly.
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(tiny(0, usec(50), usec(1)));  // critical in 1us
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kIdeal;
  cfg.sched_ns_per_op = 10000.0;  // overhead per invocation >> 1us
  cfg.horizon = msec(1);
  Simulator sim(ts, edf, cfg);
  sim.set_arrivals(0, {0});
  const auto rep = sim.run();
  EXPECT_EQ(rep.aborted, 1);
  EXPECT_EQ(rep.completed, 0);
}

TEST(SimEdge, ArrivalExactlyAtHorizonStillCountsByCritical) {
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(tiny(0, usec(5), usec(100)));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kIdeal;
  cfg.horizon = usec(100);
  Simulator sim(ts, edf, cfg);
  sim.set_arrivals(0, {0, usec(100)});
  const auto rep = sim.run();
  // Job at t=0: critical 100 == horizon -> counted and completed.
  // Job at t=100: critical 200 > horizon -> uncounted.
  EXPECT_EQ(rep.counted_jobs, 1);
  EXPECT_EQ(rep.completed, 1);
}

TEST(SimEdge, ManyCpusFewJobs) {
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(tiny(0, usec(5), usec(100)));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kIdeal;
  cfg.cpu_count = 8;
  cfg.horizon = msec(1);
  Simulator sim(ts, edf, cfg);
  sim.set_arrivals(0, {0});
  const auto rep = sim.run();
  EXPECT_EQ(rep.completed, 1);
  EXPECT_EQ(rep.jobs[0].completion, usec(5));
}

TEST(SimEdge, InvalidConfigsRejected) {
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(tiny(0, usec(5), usec(100)));
  const sched::EdfScheduler edf;
  {
    SimConfig cfg;
    cfg.cpu_count = 0;
    EXPECT_THROW(Simulator(ts, edf, cfg), InvariantViolation);
  }
  {
    SimConfig cfg;
    cfg.mode = ShareMode::kLockFree;
    cfg.lockfree_access_time = 0;
    EXPECT_THROW(Simulator(ts, edf, cfg), InvariantViolation);
  }
}

TEST(SimEdge, ZeroLockAccessTimeRejectedWhenItPricesAccesses) {
  // A zero r would be priced as a 1 ns critical section; with no cost
  // table the scalar prices every lock-based access, so it must be
  // positive, exactly like s under lock-free sharing.
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(tiny(0, usec(5), usec(100), {{0, usec(1), true}}));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kLockBased;
  cfg.lock_access_time = 0;
  EXPECT_THROW(Simulator(ts, edf, cfg), InvariantViolation);
  cfg.lock_access_time = -1;
  EXPECT_THROW(Simulator(ts, edf, cfg), InvariantViolation);
  // The ideal yardstick prices nothing, so the scalar goes unread.
  cfg.mode = ShareMode::kIdeal;
  EXPECT_NO_THROW(Simulator(ts, edf, cfg));
}

TEST(SimEdge, ScalarsUncheckedWhenACostTableIsGiven) {
  // A table prices every access; the scalars next to it are unused and
  // therefore not validated.
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(tiny(0, usec(5), usec(100), {{0, usec(1), true}}));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kLockFree;
  cfg.lockfree_access_time = 0;
  cfg.lock_access_time = 0;
  cfg.cost_model = runtime::CostModel::flat(usec(2), usec(3));
  Simulator sim(ts, edf, cfg);
  sim.set_arrivals(0, {0});
  const auto rep = sim.run();
  EXPECT_EQ(rep.completed, 1);
  EXPECT_EQ(rep.jobs[0].completion, usec(5) + usec(2));
}

}  // namespace
}  // namespace lfrt
