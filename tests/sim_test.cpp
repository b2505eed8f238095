// Simulator tests: hand-computed schedules for both sharing modes, the
// abort model, overhead charging, and property sweeps validating the
// paper's bounds against measured behaviour.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "sched/edf.hpp"
#include "sched/rua.hpp"
#include "support/check.hpp"
#include "workload/workload.hpp"

namespace lfrt {
namespace {

using sim::ShareMode;
using sim::SimConfig;
using sim::SimReport;
using sim::Simulator;

TaskParams simple_task(TaskId id, Time exec, Time critical,
                       std::vector<AccessSpec> accesses = {},
                       double height = 10.0, Time window = 0,
                       std::int64_t a = 1) {
  TaskParams p;
  p.id = id;
  p.exec_time = exec;
  p.tuf = make_step_tuf(height, critical);
  p.arrival = UamSpec{1, a, window > 0 ? window : critical};
  p.accesses = std::move(accesses);
  return p;
}

const Job& job_of_task(const SimReport& rep, TaskId task,
                       std::size_t nth = 0) {
  std::size_t seen = 0;
  for (const Job& j : rep.jobs)
    if (j.task == task && seen++ == nth) return j;
  LFRT_CHECK_MSG(false, "no such job in report");
  static Job dummy;
  return dummy;
}

TEST(Sim, SingleJobNoAccessesCompletesExactly) {
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(simple_task(0, usec(10), usec(100)));
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  SimConfig cfg;
  cfg.mode = ShareMode::kLockFree;
  cfg.horizon = usec(200);
  Simulator sim(std::move(ts), rua, cfg);
  sim.set_arrivals(0, {0});
  const SimReport rep = sim.run();
  EXPECT_EQ(rep.counted_jobs, 1);
  EXPECT_EQ(rep.completed, 1);
  EXPECT_EQ(rep.aborted, 0);
  const Job& j = job_of_task(rep, 0);
  EXPECT_EQ(j.completion, usec(10));
  EXPECT_EQ(j.sojourn(), usec(10));
  EXPECT_DOUBLE_EQ(rep.aur(), 1.0);
  EXPECT_DOUBLE_EQ(rep.cmr(), 1.0);
  EXPECT_EQ(j.retries, 0);
  EXPECT_EQ(j.blockings, 0);
}

TEST(Sim, AccessTimeAddsToCompletion) {
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(
      simple_task(0, usec(10), usec(100), {{0, usec(5)}}));
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  SimConfig cfg;
  cfg.mode = ShareMode::kLockFree;
  cfg.lockfree_access_time = usec(3);
  cfg.horizon = usec(200);
  Simulator sim(std::move(ts), rua, cfg);
  sim.set_arrivals(0, {0});
  const SimReport rep = sim.run();
  EXPECT_EQ(job_of_task(rep, 0).completion, usec(13));
}

TEST(Sim, IdealModeAccessesAreFree) {
  TaskSet ts;
  ts.object_count = 2;
  ts.tasks.push_back(simple_task(
      0, usec(10), usec(100), {{0, usec(2)}, {1, usec(2)}, {0, usec(9)}}));
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  SimConfig cfg;
  cfg.mode = ShareMode::kIdeal;
  cfg.horizon = usec(200);
  Simulator sim(std::move(ts), rua, cfg);
  sim.set_arrivals(0, {0});
  const SimReport rep = sim.run();
  EXPECT_EQ(job_of_task(rep, 0).completion, usec(10));
}

TEST(Sim, SchedulerOverheadDelaysCompletion) {
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(simple_task(0, usec(10), msec(1)));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kIdeal;
  cfg.sched_ns_per_op = 100.0;
  cfg.horizon = msec(2);
  Simulator sim(std::move(ts), edf, cfg);
  sim.set_arrivals(0, {0});
  const SimReport rep = sim.run();
  EXPECT_GT(rep.sched_overhead, 0);
  // One job: scheduler runs at arrival; completion = overhead + u.
  EXPECT_EQ(job_of_task(rep, 0).completion, rep.sched_overhead + usec(10));
}

TEST(Sim, ExpiredJobIsAbortedWithZeroUtility) {
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(simple_task(0, usec(100), usec(50)));  // hopeless
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  SimConfig cfg;
  cfg.mode = ShareMode::kLockFree;
  cfg.horizon = usec(500);
  Simulator sim(std::move(ts), rua, cfg);
  sim.set_arrivals(0, {0});
  const SimReport rep = sim.run();
  EXPECT_EQ(rep.aborted, 1);
  EXPECT_EQ(rep.completed, 0);
  EXPECT_DOUBLE_EQ(rep.aur(), 0.0);
  EXPECT_DOUBLE_EQ(rep.cmr(), 0.0);
  EXPECT_EQ(job_of_task(rep, 0).state, JobState::kAborted);
}

TEST(Sim, IncreasingTufCountsItsPeakAsMaxPossibleUtility) {
  // A ramp TUF is worth 0 at release and peaks at its critical time, so
  // the AUR denominator must take the peak, not U(0).
  TaskSet ts;
  ts.object_count = 0;
  TaskParams p = simple_task(0, usec(200), msec(1));
  p.tuf = make_ramp_tuf(10.0, msec(1));
  ts.tasks.push_back(std::move(p));
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  SimConfig cfg;
  cfg.mode = ShareMode::kLockFree;
  cfg.horizon = msec(20);
  Simulator sim(std::move(ts), rua, cfg);
  sim.seed_arrivals(4);
  const SimReport rep = sim.run();
  ASSERT_GT(rep.counted_jobs, 0);
  EXPECT_EQ(rep.completed, rep.counted_jobs);
  EXPECT_DOUBLE_EQ(rep.max_possible_utility,
                   10.0 * static_cast<double>(rep.counted_jobs));
  EXPECT_GT(rep.aur(), 0.0);
  EXPECT_LE(rep.aur(), 1.0);
}

TEST(Sim, CompletionExactlyAtCriticalTimeCounts) {
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(simple_task(0, usec(50), usec(50)));
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  SimConfig cfg;
  cfg.mode = ShareMode::kLockFree;
  cfg.horizon = usec(500);
  Simulator sim(std::move(ts), rua, cfg);
  sim.set_arrivals(0, {0});
  const SimReport rep = sim.run();
  EXPECT_EQ(rep.completed, 1);
  EXPECT_EQ(job_of_task(rep, 0).completion, usec(50));
}

TEST(Sim, AbortHandlerRunsBeforeRelease) {
  // Job holds a lock when its critical time expires; the abort handler
  // executes (10us) and only then is the lock available to the waiter.
  TaskSet ts;
  ts.object_count = 1;
  auto t0 = simple_task(0, usec(100), usec(20), {{0, usec(5)}});
  t0.abort_handler_time = usec(10);
  ts.tasks.push_back(std::move(t0));
  // Second task arrives later, wants the same object, generous deadline.
  ts.tasks.push_back(
      simple_task(1, usec(10), usec(500), {{0, usec(1)}}, 10.0, usec(500)));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kLockBased;
  cfg.lock_access_time = usec(50);
  cfg.horizon = msec(1);
  Simulator sim(std::move(ts), edf, cfg);
  sim.set_arrivals(0, {0});
  sim.set_arrivals(1, {usec(6)});
  const SimReport rep = sim.run();
  // T0: computes 5us, acquires at 5us, holds (access needs 50us) but C=20.
  // T1 arrives at 6us (C=506 > 20): EDF keeps T0 running; T1 waits.
  // At t=20 T0 expires -> handler runs 20..30 -> lock released at 30.
  const Job& j0 = job_of_task(rep, 0);
  EXPECT_EQ(j0.state, JobState::kAborted);
  const Job& j1 = job_of_task(rep, 1);
  EXPECT_EQ(j1.state, JobState::kCompleted);
  // T1: runs from 30, 1us compute, blocked?  The lock is free by then:
  // 30 + 1 + 50 + 9 = 90us completion, arrival 6 -> sojourn 84us.
  EXPECT_EQ(j1.completion, usec(90));
}

TEST(Sim, LockBasedBlockingHandComputed) {
  // The worked scenario from the test plan: T0 (C=200us) arrives at 0,
  // T1 (C=100us) at 8us, both u=10us with one access at offset 5us to
  // the same object, r=10us, EDF dispatching.
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(simple_task(0, usec(10), usec(200), {{0, usec(5)}}));
  ts.tasks.push_back(simple_task(1, usec(10), usec(100), {{0, usec(5)}}));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kLockBased;
  cfg.lock_access_time = usec(10);
  cfg.horizon = msec(1);
  Simulator sim(std::move(ts), edf, cfg);
  sim.set_arrivals(0, {0});
  sim.set_arrivals(1, {usec(8)});
  const SimReport rep = sim.run();

  const Job& j0 = job_of_task(rep, 0);
  const Job& j1 = job_of_task(rep, 1);
  // T1 blocks once at 13us (T0 holds), T0 finishes access at 20us,
  // T1 then accesses 20-30, computes to 35; T0 completes at 40.
  EXPECT_EQ(j1.blockings, 1);
  EXPECT_EQ(j0.blockings, 0);
  EXPECT_EQ(j1.completion, usec(35));
  EXPECT_EQ(j0.completion, usec(40));
  EXPECT_EQ(rep.total_blockings, 1);
  EXPECT_EQ(rep.completed, 2);
  EXPECT_DOUBLE_EQ(rep.cmr(), 1.0);
}

TEST(Sim, LockFreeRetryHandComputed) {
  // Same arrival pattern under lock-free sharing, s=10us: T0 is
  // preempted mid-access by T1 and must retry the whole access.
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(simple_task(0, usec(10), usec(200), {{0, usec(5)}}));
  ts.tasks.push_back(simple_task(1, usec(10), usec(100), {{0, usec(5)}}));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kLockFree;
  cfg.lockfree_access_time = usec(10);
  cfg.horizon = msec(1);
  Simulator sim(std::move(ts), edf, cfg);
  sim.set_arrivals(0, {0});
  sim.set_arrivals(1, {usec(8)});
  const SimReport rep = sim.run();

  const Job& j0 = job_of_task(rep, 0);
  const Job& j1 = job_of_task(rep, 1);
  // T1 runs 8..28 uninterrupted (compute 5, access 10, compute 5); its
  // access to the shared object completes (CAS succeeds) at 23.
  EXPECT_EQ(j1.completion, usec(28));
  EXPECT_EQ(j1.retries, 0);
  // T0's attempt began at 5 (3us done before the preemption); it
  // resumes at 28, its CAS executes at the end of the attempt (35) and
  // fails against T1's 23us completion, so the whole attempt is wasted:
  // retry 35..45, compute 45..50.
  EXPECT_EQ(j0.retries, 1);
  EXPECT_EQ(j0.completion, usec(50));
  EXPECT_EQ(rep.total_retries, 1);
  EXPECT_EQ(rep.total_blockings, 0);
}

TEST(Sim, NoRetryWithoutInterferenceMidAccess) {
  // A preemption while *not* in an access causes no retry.
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(simple_task(0, usec(20), usec(200), {{0, usec(15)}}));
  ts.tasks.push_back(simple_task(1, usec(5), usec(50)));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kLockFree;
  cfg.lockfree_access_time = usec(10);
  cfg.horizon = msec(1);
  Simulator sim(std::move(ts), edf, cfg);
  sim.set_arrivals(0, {0});
  sim.set_arrivals(1, {usec(5)});  // preempts T0 during pure compute
  const SimReport rep = sim.run();
  EXPECT_EQ(job_of_task(rep, 0).retries, 0);
  EXPECT_EQ(job_of_task(rep, 0).preemptions, 1);
  EXPECT_EQ(rep.total_retries, 0);
}

TEST(Sim, LockHeldAcrossPreemptionNoRetryLockBased) {
  // Lock-based never retries: the preempted holder resumes its critical
  // section where it left off.
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(simple_task(0, usec(10), usec(200), {{0, usec(5)}}));
  ts.tasks.push_back(simple_task(1, usec(5), usec(50)));  // no accesses
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kLockBased;
  cfg.lock_access_time = usec(10);
  cfg.horizon = msec(1);
  Simulator sim(std::move(ts), edf, cfg);
  sim.set_arrivals(0, {0});
  sim.set_arrivals(1, {usec(8)});  // preempts mid-critical-section
  const SimReport rep = sim.run();
  const Job& j0 = job_of_task(rep, 0);
  EXPECT_EQ(j0.retries, 0);
  EXPECT_EQ(j0.preemptions, 1);
  // T1 runs 8..13; T0's access had covered 5..8, resumes 13..20, then
  // compute 20..25.
  EXPECT_EQ(j0.completion, usec(25));
  EXPECT_EQ(job_of_task(rep, 1).completion, usec(13));
}

TEST(Sim, RejectsNonConformantArrivalTrace) {
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(simple_task(0, usec(10), usec(100)));  // a=1, W=100us
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  SimConfig cfg;
  cfg.horizon = msec(1);
  Simulator sim(std::move(ts), rua, cfg);
  sim.set_arrivals(0, {0, usec(10)});  // two arrivals inside one window
  EXPECT_THROW(sim.run(), InvariantViolation);
}

TEST(Sim, SimulatorIsSingleShot) {
  TaskSet ts;
  ts.object_count = 0;
  ts.tasks.push_back(simple_task(0, usec(10), usec(100)));
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  SimConfig cfg;
  cfg.horizon = msec(1);
  Simulator sim(std::move(ts), rua, cfg);
  sim.set_arrivals(0, {0});
  (void)sim.run();
  EXPECT_THROW(sim.run(), InvariantViolation);
}

TEST(Sim, TraceRecordsLifecycle) {
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(simple_task(0, usec(10), usec(100), {{0, usec(5)}}));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kLockBased;
  cfg.record_trace = true;
  cfg.horizon = msec(1);
  Simulator sim(std::move(ts), edf, cfg);
  sim.set_arrivals(0, {0});
  const SimReport rep = sim.run();
  ASSERT_FALSE(rep.trace.empty());
  bool saw_arrival = false, saw_lock = false, saw_completion = false;
  for (const auto& line : rep.trace) {
    if (line.find("arrival") != std::string::npos) saw_arrival = true;
    if (line.find("lock acquired") != std::string::npos) saw_lock = true;
    if (line.find("completion") != std::string::npos) saw_completion = true;
  }
  EXPECT_TRUE(saw_arrival);
  EXPECT_TRUE(saw_lock);
  EXPECT_TRUE(saw_completion);
}

TEST(Sim, DeterministicAcrossRuns) {
  auto run_once = [] {
    workload::WorkloadSpec spec;
    spec.task_count = 6;
    spec.object_count = 4;
    spec.load = 0.8;
    spec.seed = 77;
    const sched::RuaScheduler rua(sched::Sharing::kLockFree);
    SimConfig cfg;
    cfg.mode = ShareMode::kLockFree;
    cfg.lockfree_access_time = usec(2);
    cfg.horizon = msec(20);
    Simulator sim(workload::make_task_set(spec), rua, cfg);
    sim.seed_arrivals(5);
    return sim.run();
  };
  const SimReport a = run_once();
  const SimReport b = run_once();
  EXPECT_EQ(a.counted_jobs, b.counted_jobs);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_DOUBLE_EQ(a.accrued_utility, b.accrued_utility);
}

TEST(Sim, RuaEqualsEdfUnderloadStepNoSharing) {
  // Paper, Section 1/3.4: with step TUFs, no sharing, underload, RUA
  // defaults to EDF — identical completions.
  workload::WorkloadSpec spec;
  spec.task_count = 5;
  spec.object_count = 1;
  spec.accesses_per_job = 0;
  spec.load = 0.5;
  spec.seed = 3;
  auto run_with = [&](const sched::Scheduler& s) {
    SimConfig cfg;
    cfg.mode = ShareMode::kIdeal;
    cfg.horizon = msec(50);
    Simulator sim(workload::make_task_set(spec), s, cfg);
    sim.seed_arrivals(11);
    return sim.run();
  };
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  const sched::EdfScheduler edf;
  const SimReport a = run_with(rua);
  const SimReport b = run_with(edf);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_DOUBLE_EQ(a.cmr(), 1.0);
  EXPECT_DOUBLE_EQ(b.cmr(), 1.0);
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    EXPECT_EQ(a.jobs[i].completion, b.jobs[i].completion)
        << "job " << a.jobs[i].id;
}

// ---------------------------------------------------------------------
// Property sweeps: the paper's bounds hold on randomized workloads.
// ---------------------------------------------------------------------

// gtest names each case by printing PropertyParams byte by byte, so the
// four bytes after `accesses` must not be left as uninitialised padding:
// that made the case names differ from run to run.  `name_tag` fills
// them; its values reproduce the names the cases are listed under.  The
// tests never read it.
struct PropertyParams {
  int tasks;
  int objects;
  int accesses;
  std::uint32_t name_tag;
  double load;
  std::uint64_t seed;
};

class SimPropertyTest : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(SimPropertyTest, RetriesNeverExceedTheorem2Bound) {
  const auto p = GetParam();
  workload::WorkloadSpec spec;
  spec.task_count = p.tasks;
  spec.object_count = p.objects;
  spec.accesses_per_job = p.accesses;
  spec.load = p.load;
  spec.seed = p.seed;
  spec.max_per_window = 1 + static_cast<std::int32_t>(p.seed % 2);
  const TaskSet ts = workload::make_task_set(spec);

  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  SimConfig cfg;
  cfg.mode = ShareMode::kLockFree;
  cfg.lockfree_access_time = usec(2);
  cfg.horizon = msec(50);
  Simulator sim(ts, rua, cfg);
  sim.seed_arrivals(p.seed * 31 + 7);
  const SimReport rep = sim.run();

  for (const Job& j : rep.jobs) {
    EXPECT_LE(j.retries, analysis::retry_bound(ts, j.task))
        << "task " << j.task << " job " << j.id;
    EXPECT_EQ(j.blockings, 0);
  }
}

TEST_P(SimPropertyTest, BlockingsNeverExceedMinOfAccessesAndJobs) {
  const auto p = GetParam();
  workload::WorkloadSpec spec;
  spec.task_count = p.tasks;
  spec.object_count = p.objects;
  spec.accesses_per_job = p.accesses;
  spec.load = p.load;
  spec.seed = p.seed;
  const TaskSet ts = workload::make_task_set(spec);

  const sched::RuaScheduler rua(sched::Sharing::kLockBased);
  SimConfig cfg;
  cfg.mode = ShareMode::kLockBased;
  cfg.lock_access_time = usec(4);
  cfg.horizon = msec(50);
  Simulator sim(ts, rua, cfg);
  sim.seed_arrivals(p.seed * 17 + 3);
  const SimReport rep = sim.run();

  for (const Job& j : rep.jobs) {
    const auto& tp = ts.by_id(j.task);
    const auto n_bound = analysis::max_blocking_jobs(ts, j.task);
    EXPECT_LE(j.blockings,
              std::min<std::int64_t>(tp.access_count(), n_bound))
        << "task " << j.task << " job " << j.id;
    EXPECT_EQ(j.retries, 0);
  }
}

TEST_P(SimPropertyTest, ReportInvariants) {
  const auto p = GetParam();
  workload::WorkloadSpec spec;
  spec.task_count = p.tasks;
  spec.object_count = p.objects;
  spec.accesses_per_job = p.accesses;
  spec.load = p.load;
  spec.seed = p.seed;
  const TaskSet ts = workload::make_task_set(spec);

  for (const ShareMode mode :
       {ShareMode::kLockFree, ShareMode::kLockBased, ShareMode::kIdeal}) {
    const sched::RuaScheduler rua(mode == ShareMode::kLockBased
                                      ? sched::Sharing::kLockBased
                                      : sched::Sharing::kLockFree);
    SimConfig cfg;
    cfg.mode = mode;
    cfg.lock_access_time = usec(4);
    cfg.lockfree_access_time = usec(1);
    cfg.horizon = msec(30);
    Simulator sim(ts, rua, cfg);
    sim.seed_arrivals(p.seed);
    const SimReport rep = sim.run();

    EXPECT_EQ(rep.completed + rep.aborted, rep.counted_jobs);
    EXPECT_LE(rep.accrued_utility, rep.max_possible_utility + 1e-9);
    EXPECT_GE(rep.aur(), 0.0);
    EXPECT_LE(rep.aur(), 1.0 + 1e-12);
    EXPECT_GE(rep.cmr(), 0.0);
    EXPECT_LE(rep.cmr(), 1.0);
    for (const Job& j : rep.jobs) {
      if (j.state == JobState::kCompleted) {
        EXPECT_LE(j.completion, j.critical_abs);
        EXPECT_GE(j.sojourn(), ts.by_id(j.task).exec_time);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimPropertyTest,
    ::testing::Values(PropertyParams{3, 2, 1, 0, 0.4, 1},
                      PropertyParams{5, 3, 2, 0, 0.8, 2},
                      PropertyParams{8, 4, 2, 0x8DB3B3, 1.1, 3},
                      PropertyParams{10, 10, 3, 0x7F33, 0.4, 4},
                      PropertyParams{10, 10, 3, 0x5645, 1.2, 5},
                      PropertyParams{6, 2, 4, 0x8DB3B3, 1.0, 6},
                      PropertyParams{4, 1, 2, 0x5645, 0.6, 7},
                      PropertyParams{12, 6, 1, 0x7F33, 0.9, 8}));

}  // namespace
}  // namespace lfrt
