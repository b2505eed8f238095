// Read/write object flavours through the executor adapter.
//
// fig14-style reader/writer workloads (read_fraction = 0.75, one
// writer task per object) lowered onto NbwBuffer and AtomicSnapshot
// objects via runtime::run_on_executor, at cpu_count 1 and 2.  The
// property under test is the retry-attribution invariant of the
// unified SharedObject layer: the per-job tallies, the run totals, and
// the per-(object, task) contention heatmap all count the same
// record_retry / record_acquisition events, so their sums must be
// *equal*, not merely close — under real threads, not the simulator.
#include <gtest/gtest.h>

#include <cstdint>

#include "runtime/exec_adapter.hpp"
#include "sched/rua.hpp"
#include "support/check.hpp"
#include "workload/workload.hpp"

namespace lfrt {
namespace {

workload::WorkloadSpec reader_writer_spec() {
  workload::WorkloadSpec spec;
  spec.task_count = 6;
  spec.object_count = 3;
  spec.accesses_per_job = 4;
  spec.avg_exec = msec(1);
  spec.load = 0.6;
  spec.read_fraction = 0.75;       // fig14's reader-heavy mix
  spec.single_writer_objects = true;  // NBW/snapshot intended usage
  spec.tuf_class = workload::TufClass::kStep;
  spec.seed = 17;
  return spec;
}

/// Σ per-job retries == report total == Σ heatmap cells (and the same
/// for blockings): every event the structures recorded was attributed
/// both to its job and to its (object, task) cell.  And no more bodies
/// ever ran at once than the run had CPU slots.
void check_attribution(const rt::ExecutorReport& rep, const TaskSet& ts) {
  ASSERT_EQ(rep.contention.objects, ts.object_count);
  ASSERT_EQ(rep.contention.tasks,
            static_cast<std::int32_t>(ts.tasks.size()));
  ASSERT_FALSE(rep.contention.empty());
  EXPECT_LE(rep.max_concurrency_observed, rep.cpu_count);
  EXPECT_LE(rep.mean_concurrency_observed, rep.cpu_count);

  std::int64_t job_retries = 0, job_blockings = 0;
  for (const Job& j : rep.jobs) {
    job_retries += j.retries;
    job_blockings += j.blockings;
  }
  EXPECT_EQ(job_retries, rep.total_retries);
  EXPECT_EQ(job_blockings, rep.total_blockings);

  const runtime::ContentionCell cells = rep.contention.totals();
  EXPECT_EQ(cells.retries, rep.total_retries);
  EXPECT_EQ(cells.blockings, rep.total_blockings);
  // Every completed access landed in a cell; jobs that ran at all did
  // accesses, so a run with completed jobs has a non-trivial heatmap.
  if (rep.completed > 0) {
    EXPECT_GT(cells.ops, 0);
  }
}

rt::ExecutorReport run(const TaskSet& ts, runtime::ObjectKind kind,
                       runtime::ObjectImpl impl, int cpus) {
  const sched::RuaScheduler rua(impl == runtime::ObjectImpl::kLockFree
                                    ? sched::Sharing::kLockFree
                                    : sched::Sharing::kLockBased);
  Time max_window = 0;
  for (const auto& t : ts.tasks)
    max_window = std::max(max_window, t.arrival.window);

  runtime::ExecConfig ec;
  ec.horizon = max_window * 2;
  ec.objects = runtime::uniform_objects(ts.object_count, kind, impl);
  ec.cpu_count = cpus;
  ec.arrival_seed = 99;
  return runtime::run_on_executor(ts, rua, ec);
}

class ExecObjects
    : public ::testing::TestWithParam<std::tuple<runtime::ObjectKind, int>> {
};

TEST_P(ExecObjects, LockFreeRetryAttributionInvariant) {
  const auto [kind, cpus] = GetParam();
  const TaskSet ts = workload::make_task_set(reader_writer_spec());
  const rt::ExecutorReport rep =
      run(ts, kind, runtime::ObjectImpl::kLockFree, cpus);
  ASSERT_GT(rep.counted_jobs, 0);
  EXPECT_EQ(rep.cpu_count, cpus);
  check_attribution(rep, ts);
  // Lock-free objects never take the blocking path.
  EXPECT_EQ(rep.total_blockings, 0);
}

INSTANTIATE_TEST_SUITE_P(
    ReaderWriterKinds, ExecObjects,
    ::testing::Combine(::testing::Values(runtime::ObjectKind::kBuffer,
                                         runtime::ObjectKind::kSnapshot),
                       ::testing::Values(1, 2)),
    [](const auto& info) {
      return std::string(runtime::to_string(std::get<0>(info.param))) +
             "_cpus" + std::to_string(std::get<1>(info.param));
    });

/// The same invariant holds for blocking episodes under a lock-based
/// universe (mutex-guarded buffer), where retries must stay zero.
TEST(ExecObjectsLockBased, BlockingAttributionInvariant) {
  const TaskSet ts = workload::make_task_set(reader_writer_spec());
  const rt::ExecutorReport rep =
      run(ts, runtime::ObjectKind::kBuffer, runtime::ObjectImpl::kMutex,
          /*cpus=*/2);
  ASSERT_GT(rep.counted_jobs, 0);
  check_attribution(rep, ts);
  EXPECT_EQ(rep.total_retries, 0);
}

/// A mixed universe — one object per kind — lowers and runs end to end,
/// and the heatmap still reconciles.
TEST(ExecObjectsMixed, HeterogeneousUniverseRuns) {
  workload::WorkloadSpec spec = reader_writer_spec();
  spec.object_count = 4;
  const TaskSet ts = workload::make_task_set(spec);

  runtime::ExecConfig ec;
  Time max_window = 0;
  for (const auto& t : ts.tasks)
    max_window = std::max(max_window, t.arrival.window);
  ec.horizon = max_window * 2;
  ec.objects = {{runtime::ObjectKind::kQueue, runtime::ObjectImpl::kLockFree},
                {runtime::ObjectKind::kStack, runtime::ObjectImpl::kMutex},
                {runtime::ObjectKind::kBuffer, runtime::ObjectImpl::kLockFree},
                {runtime::ObjectKind::kSnapshot,
                 runtime::ObjectImpl::kMutex}};
  ec.cpu_count = 2;
  ec.arrival_seed = 99;
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  const rt::ExecutorReport rep = runtime::run_on_executor(ts, rua, ec);
  ASSERT_GT(rep.counted_jobs, 0);
  check_attribution(rep, ts);
}

/// A spec list whose size contradicts the task set's object count is a
/// configuration bug and trips the invariant check.
TEST(ExecObjectsMixed, WrongSpecCountThrows) {
  const TaskSet ts = workload::make_task_set(reader_writer_spec());
  runtime::ExecConfig ec;
  ec.objects = runtime::uniform_objects(ts.object_count + 1,
                                        runtime::ObjectKind::kQueue,
                                        runtime::ObjectImpl::kLockFree);
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  EXPECT_THROW(runtime::run_on_executor(ts, rua, ec), InvariantViolation);
}

}  // namespace
}  // namespace lfrt
