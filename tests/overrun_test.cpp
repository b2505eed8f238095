// Context-dependent execution times: jobs' actual demand varies around
// the estimate the scheduler sees, so overruns (and their aborts) arise
// exactly as the paper's model allows (Section 3, footnote 4).
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

TaskParams varying(TaskId id, Time exec, Time critical, double variation,
                   std::vector<AccessSpec> acc = {}) {
  TaskParams p;
  p.id = id;
  p.exec_time = exec;
  p.tuf = make_step_tuf(10.0, critical);
  p.arrival = UamSpec{1, 1, critical};
  p.exec_variation = variation;
  p.accesses = std::move(acc);
  return p;
}

TEST(Overrun, ValidationBoundsVariation) {
  EXPECT_NO_THROW(varying(0, usec(10), usec(100), 0.5).validate());
  EXPECT_THROW(varying(0, usec(10), usec(100), 1.0).validate(),
               InvariantViolation);
  EXPECT_THROW(varying(0, usec(10), usec(100), -0.1).validate(),
               InvariantViolation);
}

TEST(Overrun, ActualDemandVariesAcrossJobs) {
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(varying(0, usec(100), msec(1), 0.4));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kIdeal;
  cfg.horizon = msec(50);
  Simulator sim(ts, edf, cfg);
  std::vector<Time> arrivals;
  for (Time t = 0; t < msec(40); t += msec(1)) arrivals.push_back(t);
  sim.set_arrivals(0, arrivals);
  const auto rep = sim.run();
  // Sojourns equal the per-job actuals (no interference): they must
  // spread across the variation band, not sit at the nominal.
  Time lo = kTimeNever, hi = 0;
  for (const Job& j : rep.jobs) {
    ASSERT_EQ(j.state, JobState::kCompleted);
    lo = std::min(lo, j.sojourn());
    hi = std::max(hi, j.sojourn());
    EXPECT_GE(j.sojourn(), usec(60) - 1);
    EXPECT_LE(j.sojourn(), usec(140) + 1);
  }
  EXPECT_LT(lo, usec(90));
  EXPECT_GT(hi, usec(110));
}

TEST(Overrun, DeterministicForSeed) {
  auto run_once = [] {
    TaskSet ts;
    ts.object_count = 0;
    ts.tasks.push_back(varying(0, usec(100), msec(1), 0.4));
    const sched::EdfScheduler edf;
    SimConfig cfg;
    cfg.mode = ShareMode::kIdeal;
    cfg.exec_seed = 123;
    cfg.horizon = msec(20);
    Simulator sim(ts, edf, cfg);
    sim.set_arrivals(0, {0, msec(1), msec(2)});
    return sim.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    EXPECT_EQ(a.jobs[i].completion, b.jobs[i].completion);
}

TEST(Overrun, TightCriticalTimesConvertOverrunsToAborts) {
  // Nominal fits exactly; any upward draw overruns and aborts.
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(varying(0, usec(100), usec(100), 0.5));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kIdeal;
  cfg.horizon = msec(100);
  Simulator sim(ts, edf, cfg);
  std::vector<Time> arrivals;
  for (Time t = 0; t < msec(90); t += usec(200)) arrivals.push_back(t);
  sim.set_arrivals(0, arrivals);
  const auto rep = sim.run();
  // Roughly half the draws overrun; both outcomes must be present and
  // every aborted job must be an actual overrun.
  EXPECT_GT(rep.completed, 0);
  EXPECT_GT(rep.aborted, 0);
  for (const Job& j : rep.jobs) {
    if (j.state == JobState::kAborted) {
      EXPECT_GT(j.exec_actual, usec(100));
    }
    if (j.state == JobState::kCompleted) {
      EXPECT_LE(j.exec_actual, usec(100));
    }
  }
}

TEST(Overrun, AccessOffsetsScaleWithActual) {
  // One access at the nominal midpoint: with a varied draw it must
  // still fire mid-execution (not past completion), and the job's
  // completion equals actual + access time.
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(
      varying(0, usec(100), msec(1), 0.4, {{0, usec(50)}}));
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  SimConfig cfg;
  cfg.mode = ShareMode::kLockFree;
  cfg.lockfree_access_time = usec(7);
  cfg.horizon = msec(60);
  Simulator sim(ts, rua, cfg);
  std::vector<Time> arrivals;
  for (Time t = 0; t < msec(50); t += msec(1)) arrivals.push_back(t);
  sim.set_arrivals(0, arrivals);
  const auto rep = sim.run();
  for (const Job& j : rep.jobs) {
    ASSERT_EQ(j.state, JobState::kCompleted);
    EXPECT_EQ(j.sojourn(), j.exec_actual + usec(7));
  }
}

}  // namespace
}  // namespace lfrt
