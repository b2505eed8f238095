// sched::SchedulingPass on its own, with no threads and no simulator:
// the per-CPU decisions it returns (vacate-before-fill), the
// abort-priority front, the blocked-job filter, and the placement
// setter both substrates validate through.
#include <gtest/gtest.h>

#include <vector>

#include "sched/scheduling_pass.hpp"
#include "support/check.hpp"

namespace lfrt {
namespace {

using sched::DispatchOptions;
using sched::Placement;
using sched::PlacementPolicy;
using sched::SchedJob;
using sched::SchedulingPass;
using Decision = SchedulingPass::Decision;

// Keeps the view's id order and nominates its head, runnable or not,
// so the pass's own rules are the only thing under test.
class IdOrderScheduler final : public sched::Scheduler {
 public:
  void build_into(const std::vector<SchedJob>& jobs, Time, Workspace*,
                  sched::ScheduleResult& out) const override {
    out.clear();
    for (const SchedJob& j : jobs) out.schedule.push_back(j.id);
    if (!jobs.empty()) out.dispatch = jobs.front().id;
  }
  std::string name() const override { return "id-order"; }
};

SchedJob job(JobId id, TaskId task, JobId waits_on = kNoJob) {
  SchedJob j;
  j.id = id;
  j.remaining = usec(10);
  j.waits_on = waits_on;
  j.task = task;
  return j;
}

DispatchOptions partitioned(std::vector<std::int32_t> task_cpu) {
  DispatchOptions opts;
  opts.placement.policy = PlacementPolicy::kPartitioned;
  opts.placement.task_affinity = std::move(task_cpu);
  return opts;
}

const std::vector<Decision>& run_pass(SchedulingPass& pass,
                                      const std::vector<JobId>& ids) {
  pass.begin();
  for (JobId id : ids) pass.add(job(id, /*task=*/static_cast<TaskId>(id)));
  pass.build(0);
  return pass.dispatch();
}

TEST(SchedulingPass, MigrationToALowerCpuIsOneVacateAndOneFill) {
  const IdOrderScheduler sched;
  SchedulingPass pass(sched, 2, partitioned({1}));
  EXPECT_EQ(run_pass(pass, {0}), (std::vector<Decision>{{1, kNoJob, 0}}));

  Placement moved = pass.placement();
  moved.task_affinity = {0};
  pass.set_placement(moved);
  EXPECT_EQ(run_pass(pass, {0}),
            (std::vector<Decision>{{1, 0, kNoJob}, {0, kNoJob, 0}}));
  EXPECT_EQ(pass.running_on(0), 0);
  EXPECT_EQ(pass.running_on(1), kNoJob);
  EXPECT_EQ(pass.cpu_of(0), 0);

  EXPECT_TRUE(run_pass(pass, {0}).empty());  // settled: nothing to do
}

TEST(SchedulingPass, FrontJobsTakeCpusBeforeScheduleEntries) {
  const IdOrderScheduler sched;
  SchedulingPass pass(sched, 2, {});
  pass.begin();
  pass.add(job(0, 0));
  pass.add(job(1, 0));
  pass.add_front(2, 0);
  pass.add_front(3, 0);
  // The front is not the scheduler's to order.
  EXPECT_EQ(pass.build(0).schedule, (std::vector<JobId>{0, 1}));
  EXPECT_EQ(pass.dispatch(),
            (std::vector<Decision>{{0, kNoJob, 2}, {1, kNoJob, 3}}));

  // Once the front is gone the schedule takes the CPUs back.
  EXPECT_EQ(run_pass(pass, {0, 1}),
            (std::vector<Decision>{{0, 2, kNoJob},
                                   {1, 3, kNoJob},
                                   {0, kNoJob, 0},
                                   {1, kNoJob, 1}}));
}

TEST(SchedulingPass, EntriesThatMayNotRunAreNeverDispatched) {
  const IdOrderScheduler sched;
  SchedulingPass pass(sched, 3, {});
  pass.begin();
  pass.add(job(0, 0, /*waits_on=*/1));  // blocked
  pass.add(job(1, 1));
  pass.add(job(2, 2, /*waits_on=*/1));
  // The scheduler nominates the blocked head; CPUs stay idle rather
  // than run a blocked job.
  EXPECT_EQ(pass.build(0).dispatch, 0);
  EXPECT_EQ(pass.dispatch(), (std::vector<Decision>{{0, kNoJob, 1}}));
  EXPECT_EQ(pass.cpu_of(0), -1);
  EXPECT_EQ(pass.cpu_of(2), -1);
}

TEST(SchedulingPass, VacateFreesTheCpuOutsideAPass) {
  const IdOrderScheduler sched;
  SchedulingPass pass(sched, 1, {});
  run_pass(pass, {4});
  EXPECT_EQ(pass.vacate(4), 0);
  EXPECT_EQ(pass.cpu_of(4), -1);
  EXPECT_EQ(pass.vacate(4), -1);
  EXPECT_EQ(run_pass(pass, {4}), (std::vector<Decision>{{0, kNoJob, 4}}));
}

TEST(SchedulingPass, SetPlacementMovesAffinitiesOnly) {
  const IdOrderScheduler sched;
  SchedulingPass pass(sched, 2, partitioned({1, 0}));

  Placement stray = pass.placement();
  stray.task_affinity = {2, 0};  // CPU 2 does not exist
  EXPECT_THROW(pass.set_placement(stray), InvariantViolation);

  Placement global;  // a policy change
  EXPECT_THROW(pass.set_placement(global), InvariantViolation);

  Placement clustered = pass.placement();
  clustered.policy = PlacementPolicy::kClustered;  // with no cpu_cluster
  EXPECT_THROW(pass.set_placement(clustered), InvariantViolation);

  Placement unscoped = pass.placement();
  unscoped.scope_objects = false;
  EXPECT_THROW(pass.set_placement(unscoped), InvariantViolation);

  // Every rejected call left the constructor's placement in force.
  EXPECT_EQ(pass.placement().policy, PlacementPolicy::kPartitioned);
  EXPECT_EQ(pass.placement().task_affinity, (std::vector<std::int32_t>{1, 0}));

  Placement swapped = pass.placement();
  swapped.task_affinity = {0, -1};
  pass.set_placement(swapped);
  EXPECT_EQ(pass.placement().task_affinity,
            (std::vector<std::int32_t>{0, -1}));
}

TEST(SchedulingPass, ConstructorValidatesThroughTheSetter) {
  const IdOrderScheduler sched;
  EXPECT_THROW(SchedulingPass(sched, 2, partitioned({3})), InvariantViolation);
  EXPECT_THROW(SchedulingPass(sched, 0, {}), InvariantViolation);
  DispatchOptions gap;
  gap.placement.policy = PlacementPolicy::kClustered;
  gap.placement.cpu_cluster = {1, 1};  // no CPU in cluster 0
  EXPECT_THROW(SchedulingPass(sched, 2, gap), InvariantViolation);
}

}  // namespace
}  // namespace lfrt
