// M-worker executor: deterministic witnesses that cpu_count > 1 really
// overlaps job bodies, that cpu_count = 1 really serializes them, and
// that the executor agrees with the simulator's multi-CPU scenarios
// (same workload, same arrival traces, same cpu_count) — the tier-1
// counterpart of bench/ext_executor_validation's sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "runtime/exec_adapter.hpp"
#include "rt/executor.hpp"
#include "sched/rua.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace lfrt {
namespace {

/// Two jobs that each hold their body until *both* bodies have started.
/// With two CPU slots the dispatcher runs them concurrently, so the
/// rendezvous succeeds and both complete — deterministically, not by
/// timing luck.  The parked-forever alternative is impossible: with two
/// ready jobs and two slots the top-2 selection dispatches both.
TEST(ExecutorMultiCpu, TwoJobsRendezvousWithTwoCpus) {
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  std::atomic<int> started{0};
  rt::ExecutorReport rep;
  rt::ExecutorConfig cfg;
  cfg.cpu_count = 2;
  {
    rt::Executor ex(rua, cfg);
    for (int i = 0; i < 2; ++i) {
      rt::RtJob job;
      job.tuf = make_step_tuf(10.0, sec(30));  // generous: no aborts
      job.expected_exec = usec(100);
      job.body = [&started](rt::JobContext& ctx) {
        started.fetch_add(1);
        while (started.load() < 2) {
          ctx.checkpoint();
          std::this_thread::yield();
        }
      };
      ex.submit(std::move(job));
    }
    rep = ex.shutdown();
  }
  EXPECT_EQ(rep.completed, 2);
  EXPECT_EQ(rep.aborted, 0);
  EXPECT_EQ(rep.cpu_count, 2);
  EXPECT_GE(rep.max_concurrency_observed, 2);
  EXPECT_LE(rep.max_concurrency_observed, rep.cpu_count);
  ASSERT_EQ(rep.cpu_busy.size(), 2u);
  // Both slots were actually occupied at some point.
  EXPECT_GT(rep.cpu_busy[0], 0);
  EXPECT_GT(rep.cpu_busy[1], 0);
}

/// The serialized counterpart: with one CPU slot the parked job cannot
/// start its body, so the dispatched job never observes the rendezvous
/// inside its spin window — it gives up at a wall-clock deadline and
/// completes; the second job then runs alone and trivially observes
/// both increments.  Exactly one body sees the rendezvous, nothing is
/// preempted (the running job's utility density only grows, so RUA
/// never demotes it), and the concurrency gauge stays at 1: one slot
/// really serializes bodies.  (An abort-based variant of this witness
/// is racy by design — an abort mark is delivered at the next
/// checkpoint, so a body that returns first completes normally; see
/// the thread-model comment in rt/executor.hpp.)
TEST(ExecutorMultiCpu, RendezvousImpossibleOnOneCpu) {
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  std::atomic<int> started{0};
  std::atomic<int> saw_both{0};
  rt::ExecutorReport rep;
  {
    rt::Executor ex(rua);  // default cpu_count = 1
    for (int i = 0; i < 2; ++i) {
      rt::RtJob job;
      job.tuf = make_step_tuf(10.0, sec(30));  // generous: no aborts
      job.expected_exec = usec(100);
      job.body = [&started, &saw_both](rt::JobContext& ctx) {
        started.fetch_add(1);
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(200);
        while (std::chrono::steady_clock::now() < deadline) {
          if (started.load() == 2) {
            saw_both.fetch_add(1);
            return;
          }
          ctx.checkpoint();
          std::this_thread::yield();
        }
      };
      ex.submit(std::move(job));
    }
    rep = ex.shutdown();
  }
  EXPECT_EQ(rep.completed, 2);
  EXPECT_EQ(rep.aborted, 0);
  EXPECT_EQ(rep.cpu_count, 1);
  // Only the job dispatched after the first one completed can observe
  // both increments: the bodies never overlapped.
  EXPECT_EQ(saw_both.load(), 1);
  EXPECT_EQ(rep.max_concurrency_observed, 1);
  EXPECT_EQ(rep.total_preemptions, 0);
}

/// Cross-substrate agreement across CPU counts: the simulator and the
/// M-worker executor run the same generated task set on the same
/// arrival traces at cpu_count 1, 2, and 4; in underload the AUR/CMR
/// must match within tolerance (the deterministic tier-1 version of the
/// bench sweep, mirroring multicpu_test's workload shape).
TEST(ExecutorMultiCpu, AgreesWithSimulatorAcrossCpuCounts) {
  workload::WorkloadSpec spec;
  spec.task_count = 6;
  spec.object_count = 3;
  spec.accesses_per_job = 2;
  spec.avg_exec = msec(2);
  spec.tuf_class = workload::TufClass::kStep;
  spec.load = 0.35;  // underloaded even on one CPU
  spec.seed = 31;
  const TaskSet ts = workload::make_task_set(spec);
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);

  Time max_window = 0;
  for (const auto& t : ts.tasks)
    max_window = std::max(max_window, t.arrival.window);
  const Time horizon = max_window * 2;
  constexpr std::uint64_t kArrivalSeed = 1000;
  // Real-thread noise (scheduling latency, sanitizer slowdown) is why
  // this is looser than the bench's full-run tolerance.
  constexpr double kTol = 0.3;

  for (const int cpus : {1, 2, 4}) {
    sim::SimConfig cfg;
    cfg.mode = sim::ShareMode::kLockFree;
    cfg.lockfree_access_time = usec(1);
    cfg.cpu_count = cpus;
    cfg.horizon = horizon;
    sim::Simulator sim(ts, rua, cfg);
    const auto traces = runtime::make_arrival_traces(ts, horizon, kArrivalSeed,
                                                     /*periodic=*/true);
    for (const auto& t : ts.tasks)
      sim.set_arrivals(t.id, traces[static_cast<std::size_t>(t.id)]);
    const sim::SimReport sim_rep = sim.run();

    runtime::ExecConfig ec;
    ec.horizon = horizon;  // objects default: uniform lock-free queues
    ec.cpu_count = cpus;
    ec.arrival_seed = kArrivalSeed;
    const rt::ExecutorReport exec_rep = runtime::run_on_executor(ts, rua, ec);

    EXPECT_EQ(sim_rep.counted_jobs, exec_rep.counted_jobs)
        << "cpus " << cpus << ": different job populations";
    EXPECT_EQ(exec_rep.cpu_count, cpus);
    EXPECT_LE(exec_rep.max_concurrency_observed, cpus);
    EXPECT_LE(std::abs(sim_rep.aur() - exec_rep.aur()), kTol)
        << "cpus " << cpus << ": AUR sim " << sim_rep.aur() << " vs exec "
        << exec_rep.aur();
    EXPECT_LE(std::abs(sim_rep.cmr() - exec_rep.cmr()), kTol)
        << "cpus " << cpus << ": CMR sim " << sim_rep.cmr() << " vs exec "
        << exec_rep.cmr();
  }
}

}  // namespace
}  // namespace lfrt
