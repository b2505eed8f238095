// Multiprocessor-mode tests: global scheduling over M CPUs, true-
// concurrency lock-free conflicts, lock blocking across CPUs — the
// paper's "multiprocessor systems" future-work direction.
#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "sched/edf.hpp"
#include "sched/rua.hpp"
#include "sim/simulator.hpp"
#include "support/check.hpp"
#include "workload/workload.hpp"

namespace lfrt {
namespace {

using sim::ShareMode;
using sim::SimConfig;
using sim::Simulator;

TaskParams simple_task(TaskId id, Time exec, Time critical,
                       std::vector<AccessSpec> accesses = {},
                       double height = 10.0) {
  TaskParams p;
  p.id = id;
  p.exec_time = exec;
  p.tuf = make_step_tuf(height, critical);
  p.arrival = UamSpec{1, 1, critical};
  p.accesses = std::move(accesses);
  return p;
}

const Job& job_of_task(const sim::SimReport& rep, TaskId task) {
  for (const Job& j : rep.jobs)
    if (j.task == task) return j;
  LFRT_CHECK_MSG(false, "no such job");
  static Job dummy;
  return dummy;
}

TEST(MultiCpu, TwoIndependentJobsRunConcurrently) {
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(simple_task(0, usec(10), usec(100)));
  ts.tasks.push_back(simple_task(1, usec(10), usec(100)));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kIdeal;
  cfg.cpu_count = 2;
  cfg.horizon = msec(1);
  Simulator sim(ts, edf, cfg);
  sim.set_arrivals(0, {0});
  sim.set_arrivals(1, {0});
  const auto rep = sim.run();
  // Both finish at 10us — no serialization.
  EXPECT_EQ(job_of_task(rep, 0).completion, usec(10));
  EXPECT_EQ(job_of_task(rep, 1).completion, usec(10));
  EXPECT_EQ(rep.total_preemptions, 0);
}

TEST(MultiCpu, SameWorkloadSerializesOnOneCpu) {
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(simple_task(0, usec(10), usec(100)));
  ts.tasks.push_back(simple_task(1, usec(10), usec(100)));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kIdeal;
  cfg.cpu_count = 1;
  cfg.horizon = msec(1);
  Simulator sim(ts, edf, cfg);
  sim.set_arrivals(0, {0});
  sim.set_arrivals(1, {0});
  const auto rep = sim.run();
  // One at 10us, the other at 20us.
  const Time c0 = job_of_task(rep, 0).completion;
  const Time c1 = job_of_task(rep, 1).completion;
  EXPECT_EQ(std::min(c0, c1), usec(10));
  EXPECT_EQ(std::max(c0, c1), usec(20));
}

TEST(MultiCpu, ThirdJobWaitsForAFreeCpu) {
  TaskSet ts;
  ts.object_count = 0;
  for (TaskId i = 0; i < 3; ++i)
    ts.tasks.push_back(simple_task(i, usec(10), usec(100)));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kIdeal;
  cfg.cpu_count = 2;
  cfg.horizon = msec(1);
  Simulator sim(ts, edf, cfg);
  for (TaskId i = 0; i < 3; ++i) sim.set_arrivals(i, {0});
  const auto rep = sim.run();
  std::vector<Time> completions;
  for (const Job& j : rep.jobs) completions.push_back(j.completion);
  std::sort(completions.begin(), completions.end());
  EXPECT_EQ(completions[0], usec(10));
  EXPECT_EQ(completions[1], usec(10));
  EXPECT_EQ(completions[2], usec(20));
}

TEST(MultiCpu, LockBlocksAcrossCpus) {
  // Holder on CPU0 keeps the lock; the requester on CPU1 must block
  // even though a CPU is free for it.
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(simple_task(0, usec(10), usec(200), {{0, usec(2)}}));
  ts.tasks.push_back(simple_task(1, usec(10), usec(100), {{0, usec(2)}}));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kLockBased;
  cfg.lock_access_time = usec(10);
  cfg.cpu_count = 2;
  cfg.horizon = msec(1);
  Simulator sim(ts, edf, cfg);
  sim.set_arrivals(0, {0});
  sim.set_arrivals(1, {usec(1)});
  const auto rep = sim.run();
  // T0: compute 0-2, lock 2-12, compute 12-20.
  // T1: compute 1-3, blocked 3-12, lock 12-22, compute 22-30.
  EXPECT_EQ(job_of_task(rep, 0).completion, usec(20));
  EXPECT_EQ(job_of_task(rep, 1).completion, usec(30));
  EXPECT_EQ(job_of_task(rep, 1).blockings, 1);
  EXPECT_EQ(rep.total_blockings, 1);
}

TEST(MultiCpu, ConcurrentLockFreeAccessOneLoserRetries) {
  // Both jobs start accesses to the same object concurrently; the first
  // CAS to land wins, the loser retries — the true-concurrency conflict
  // source absent from the uniprocessor model.
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(simple_task(0, usec(10), usec(300), {{0, usec(2)}}));
  ts.tasks.push_back(simple_task(1, usec(10), usec(300), {{0, usec(4)}}));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kLockFree;
  cfg.lockfree_access_time = usec(10);
  cfg.cpu_count = 2;
  cfg.horizon = msec(1);
  Simulator sim(ts, edf, cfg);
  sim.set_arrivals(0, {0});
  sim.set_arrivals(1, {0});
  const auto rep = sim.run();
  // T0: compute 0-2, access attempt 2-12 (CAS lands at 12, first: wins).
  // T1: compute 0-4, attempt 4-14: T0 completed the object at 12 inside
  // T1's window -> retry 14-24, then compute 24-30.
  const Job& j0 = job_of_task(rep, 0);
  const Job& j1 = job_of_task(rep, 1);
  EXPECT_EQ(j0.retries, 0);
  EXPECT_EQ(j0.completion, usec(20));
  EXPECT_EQ(j1.retries, 1);
  EXPECT_EQ(j1.completion, usec(30));
}

TEST(MultiCpu, DisjointObjectsNoConflict) {
  TaskSet ts;
  ts.object_count = 2;
  ts.tasks.push_back(simple_task(0, usec(10), usec(300), {{0, usec(2)}}));
  ts.tasks.push_back(simple_task(1, usec(10), usec(300), {{1, usec(2)}}));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kLockFree;
  cfg.lockfree_access_time = usec(10);
  cfg.cpu_count = 2;
  cfg.horizon = msec(1);
  Simulator sim(ts, edf, cfg);
  sim.set_arrivals(0, {0});
  sim.set_arrivals(1, {0});
  const auto rep = sim.run();
  EXPECT_EQ(rep.total_retries, 0);
  EXPECT_EQ(job_of_task(rep, 0).completion, usec(20));
  EXPECT_EQ(job_of_task(rep, 1).completion, usec(20));
}

TEST(MultiCpu, MoreCpusNeverHurtCmr) {
  for (const auto mode : {ShareMode::kLockFree, ShareMode::kIdeal}) {
    workload::WorkloadSpec spec;
    spec.task_count = 8;
    spec.object_count = 4;
    spec.accesses_per_job = 2;
    spec.load = 1.4;  // overloaded on one CPU
    spec.seed = 31;
    const TaskSet ts = workload::make_task_set(spec);
    const sched::RuaScheduler rua(sched::Sharing::kLockFree);
    double prev_cmr = -1.0;
    for (const int cpus : {1, 2, 4}) {
      SimConfig cfg;
      cfg.mode = mode;
      cfg.lockfree_access_time = usec(2);
      cfg.cpu_count = cpus;
      cfg.horizon = msec(50);
      Simulator sim(ts, rua, cfg);
      sim.seed_arrivals(8);
      const auto rep = sim.run();
      EXPECT_GE(rep.cmr(), prev_cmr - 0.02)
          << "mode " << sim::to_string(mode) << " cpus " << cpus;
      prev_cmr = rep.cmr();
    }
    // With 4 CPUs the 1.4-load workload is comfortably underloaded.
    EXPECT_GT(prev_cmr, 0.95) << sim::to_string(mode);
  }
}

TEST(MultiCpu, AbortHandlersMayRunConcurrently) {
  TaskSet ts;
  ts.object_count = 0;
  for (TaskId i = 0; i < 2; ++i) {
    auto t = simple_task(i, usec(100), usec(10));  // hopeless
    t.abort_handler_time = usec(5);
    ts.tasks.push_back(std::move(t));
  }
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kIdeal;
  cfg.cpu_count = 2;
  cfg.horizon = msec(1);
  Simulator sim(ts, edf, cfg);
  sim.set_arrivals(0, {0});
  sim.set_arrivals(1, {0});
  const auto rep = sim.run();
  EXPECT_EQ(rep.aborted, 2);
  // Handlers fire at the common expiry (10us) and run concurrently.
  for (const Job& j : rep.jobs) EXPECT_EQ(j.state, JobState::kAborted);
}

/// Property sweep: report invariants hold across CPU counts, modes, and
/// loads; retries stay within the (uniprocessor) Theorem-2 bound on one
/// CPU.
///
/// gtest names each case by printing McParams byte by byte, so the
/// four bytes after `cpus` must not be left as uninitialised padding:
/// that made the case names differ from run to run.  `name_tag` fills
/// them; its values reproduce the names the cases are listed under.
/// The test body never reads it.
struct McParams {
  int cpus;
  std::uint32_t name_tag;
  double load;
  std::uint64_t seed;
};

class MultiCpuPropertyTest : public ::testing::TestWithParam<McParams> {};

TEST_P(MultiCpuPropertyTest, ReportInvariants) {
  const auto p = GetParam();
  workload::WorkloadSpec spec;
  spec.task_count = 6;
  spec.object_count = 3;
  spec.accesses_per_job = 2;
  spec.load = p.load;
  spec.seed = p.seed;
  const TaskSet ts = workload::make_task_set(spec);

  for (const auto mode :
       {ShareMode::kLockFree, ShareMode::kLockBased, ShareMode::kIdeal}) {
    const sched::RuaScheduler rua(mode == ShareMode::kLockBased
                                      ? sched::Sharing::kLockBased
                                      : sched::Sharing::kLockFree);
    SimConfig cfg;
    cfg.mode = mode;
    cfg.lock_access_time = usec(4);
    cfg.lockfree_access_time = usec(1);
    cfg.cpu_count = p.cpus;
    cfg.horizon = msec(25);
    Simulator sim(ts, rua, cfg);
    sim.seed_arrivals(p.seed);
    const auto rep = sim.run();

    EXPECT_EQ(rep.completed + rep.aborted, rep.counted_jobs);
    EXPECT_LE(rep.accrued_utility, rep.max_possible_utility + 1e-9);
    EXPECT_LE(rep.aur(), 1.0 + 1e-12);
    for (const Job& j : rep.jobs) {
      if (j.state == JobState::kCompleted) {
        EXPECT_LE(j.completion, j.critical_abs);
      }
      if (p.cpus == 1 && mode == ShareMode::kLockFree) {
        EXPECT_LE(j.retries, analysis::retry_bound(ts, j.task));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiCpuPropertyTest,
    ::testing::Values(McParams{1, 0, 0.8, 1}, McParams{2, 0, 0.8, 2},
                      McParams{2, 0xEFD00000, 1.5, 3},
                      McParams{3, 0, 1.5, 4},
                      McParams{4, 0x00091E03, 2.5, 5},
                      McParams{4, 0xCAC50000, 0.5, 6}));

}  // namespace
}  // namespace lfrt
