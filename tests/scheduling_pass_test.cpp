// sched::SchedulingPass on its own, with no threads and no simulator:
// the per-CPU decisions it returns (vacate-before-fill), the
// abort-priority front, the blocked-job filter, the placement setter
// both substrates validate through, and the persistent view: a pass
// over a view edited in place must decide exactly what a pass over a
// freshly built view of the same jobs decides, and the one-slot branch
// exactly what select/assign decide.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "sched/rua.hpp"
#include "sched/scheduling_pass.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tuf/tuf.hpp"

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

// Keeps the view's id order but nominates its last job, runnable or
// not: a nomination that is not the first runnable entry (as EDF+PIP's
// lock holder can be).
class LastNominatingScheduler final : public sched::Scheduler {
 public:
  void build_into(const std::vector<SchedJob>& jobs, Time, Workspace*,
                  sched::ScheduleResult& out) const override {
    out.clear();
    for (const SchedJob& j : jobs) out.schedule.push_back(j.id);
    if (!jobs.empty()) out.dispatch = jobs.back().id;
  }
  std::string name() const override { return "last-nominating"; }
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

// The estimator for views whose jobs never make progress.
Time unchanged(JobId) { return usec(10); }

// Make the view hold exactly `ids` (in increasing order; each job its
// own task), then run a pass.
const std::vector<Decision>& run_pass(SchedulingPass& pass,
                                      const std::vector<JobId>& ids) {
  std::vector<JobId> gone;
  for (const SchedJob& j : pass.view())
    if (std::find(ids.begin(), ids.end(), j.id) == ids.end())
      gone.push_back(j.id);
  for (JobId id : gone) pass.erase(id);
  for (JobId id : ids)
    if (pass.view().empty() || pass.view().back().id < id)
      pass.insert(job(id, /*task=*/static_cast<TaskId>(id)));
  pass.build(0, unchanged);
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
  for (JobId id : {0, 1, 2, 3}) pass.insert(job(id, 0));
  pass.to_front(2, 0);
  pass.to_front(3, 0);
  // The front is not the scheduler's to order.
  EXPECT_EQ(pass.build(0, unchanged).schedule, (std::vector<JobId>{0, 1}));
  EXPECT_EQ(pass.dispatch(),
            (std::vector<Decision>{{0, kNoJob, 2}, {1, kNoJob, 3}}));

  // Once the front is gone the schedule takes the CPUs back.
  pass.erase(2);
  pass.erase(3);
  EXPECT_EQ(run_pass(pass, {0, 1}),
            (std::vector<Decision>{{0, 2, kNoJob},
                                   {1, 3, kNoJob},
                                   {0, kNoJob, 0},
                                   {1, kNoJob, 1}}));
}

TEST(SchedulingPass, EntriesThatMayNotRunAreNeverDispatched) {
  const IdOrderScheduler sched;
  SchedulingPass pass(sched, 3, {});
  pass.insert(job(0, 0, /*waits_on=*/1));  // blocked
  pass.insert(job(1, 1));
  pass.insert(job(2, 2, /*waits_on=*/1));
  // The scheduler nominates the blocked head; CPUs stay idle rather
  // than run a blocked job.
  EXPECT_EQ(pass.build(0, unchanged).dispatch, 0);
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


// A placement of `policy` over `cpus` CPUs with random affinities for
// `tasks` tasks (-1 = unplaced).
DispatchOptions random_options(Rng& rng, PlacementPolicy policy, int cpus,
                               int tasks) {
  DispatchOptions opts;
  opts.placement.policy = policy;
  int clusters = 1;
  if (policy == PlacementPolicy::kPartitioned) clusters = cpus;
  if (policy == PlacementPolicy::kClustered) {
    clusters = cpus > 1 ? 2 : 1;
    for (int c = 0; c < cpus; ++c)
      opts.placement.cpu_cluster.push_back(c * clusters / cpus);
  }
  if (policy != PlacementPolicy::kGlobal)
    for (int t = 0; t < tasks; ++t)
      opts.placement.task_affinity.push_back(
          static_cast<std::int32_t>(rng.uniform(-1, clusters - 1)));
  return opts;
}

// One randomized run of PersistentViewDecidesLikeAFreshView.
void check_persistent_view(const sched::Scheduler& scheduler, int cpus,
                           PlacementPolicy policy, std::uint64_t seed,
                           const std::vector<std::unique_ptr<Tuf>>& tufs) {
  SCOPED_TRACE(testing::Message()
               << scheduler.name() << " cpus " << cpus << " policy "
               << sched::to_string(policy) << " seed " << seed);
  const int tasks = static_cast<int>(tufs.size());
  Rng rng(seed * 1000 + static_cast<std::uint64_t>(cpus) * 10 +
          static_cast<std::uint64_t>(policy));
  const DispatchOptions opts = random_options(rng, policy, cpus, tasks);
  SchedulingPass live(scheduler, cpus, opts);
  SchedulingPass fresh(scheduler, cpus, opts);
  sched::DispatchSelector selector;
  selector.set_options(opts);
  if (seed == 3) {  // conflict steering on
    std::vector<std::int32_t> groups;
    for (int t = 0; t < tasks; ++t)
      groups.push_back(static_cast<std::int32_t>(rng.uniform(-1, 1)));
    live.set_conflict_groups(groups);
    fresh.set_conflict_groups(groups);
    selector.set_conflict_groups(groups);
  }

  std::map<JobId, SchedJob> jobs;  // every job the passes hold
  std::vector<JobId> front;        // those in the front, id order
  std::vector<JobId> ran;          // occupancy the last dispatch left
  std::vector<JobId> fresh_held;   // the jobs `fresh` holds
  JobId next_id = 0;
  Time now = 0;
  const auto in_front = [&](JobId id) {
    return std::find(front.begin(), front.end(), id) != front.end();
  };
  // A random job of the view satisfying `pred`, or kNoJob.
  const auto pick = [&](auto pred) {
    std::vector<JobId> ids;
    for (const auto& [id, j] : jobs)
      if (!in_front(id) && pred(j)) ids.push_back(id);
    if (ids.empty()) return kNoJob;
    return ids[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(ids.size()) - 1))];
  };
  const auto any = [](const SchedJob&) { return true; };
  const auto vacate = [&](JobId id) {
    EXPECT_EQ(live.vacate(id), fresh.vacate(id));
  };
  const auto edit = [&] {
    JobId id = kNoJob;
    switch (rng.uniform(0, 5)) {
      case 0: {  // arrival
        if (jobs.size() >= 16) return;
        const auto t = static_cast<std::size_t>(rng.uniform(0, tasks - 1));
        SchedJob j = job(next_id++, static_cast<TaskId>(t));
        j.arrival = now;
        j.critical = now + tufs[t]->critical_time();
        j.remaining = usec(rng.uniform(5, 300));
        j.tuf = tufs[t].get();
        jobs[j.id] = j;
        live.insert(j);
        return;
      }
      case 1:  // retirement, from the view or the front
        if (!front.empty() && rng.chance(0.5)) {
          id = front[static_cast<std::size_t>(
              rng.uniform(0, static_cast<std::int64_t>(front.size()) - 1))];
          front.erase(std::find(front.begin(), front.end(), id));
        } else if ((id = pick(any)) == kNoJob) {
          return;
        }
        jobs.erase(id);
        live.erase(id);
        vacate(id);
        return;
      case 2:  // an abort handler joins the front
        if ((id = pick(any)) == kNoJob) return;
        front.insert(std::upper_bound(front.begin(), front.end(), id), id);
        live.to_front(id, jobs[id].task);
        vacate(id);
        return;
      case 3: {  // a lock request blocks on a holder (cycles too)
        id = pick([](const SchedJob& j) { return j.runnable(); });
        if (id == kNoJob) return;
        JobId holder = static_cast<JobId>(rng.uniform(0, next_id - 1));
        if (holder == id) holder = next_id;  // a departed holder
        jobs[id].waits_on = holder;
        live.set_waits_on(id, holder);
        vacate(id);
        return;
      }
      case 4:  // a release wakes a waiter
        id = pick([](const SchedJob& j) { return !j.runnable(); });
        if (id == kNoJob) return;
        jobs[id].waits_on = kNoJob;
        live.set_waits_on(id, kNoJob);
        return;
      default:  // progress by the jobs the last dispatch placed
        for (JobId r : ran)
          if (jobs.count(r) != 0 && !in_front(r))
            jobs[r].remaining = std::max<Time>(
                1, jobs[r].remaining - usec(rng.uniform(0, 60)));
        return;
    }
  };

  for (int step = 0; step < 300; ++step) {
    for (auto edits = rng.uniform(1, 3); edits > 0; --edits) edit();
    now += usec(rng.uniform(0, 20));

    // The fresh view: every job out, then back in, in id order.
    for (JobId h : fresh_held) fresh.erase(h);
    fresh_held.clear();
    for (const auto& [id, j] : jobs) {
      fresh.insert(j);
      fresh_held.push_back(id);
    }
    for (JobId f : front) fresh.to_front(f, jobs[f].task);

    const auto estimate = [&](JobId id) { return jobs.at(id).remaining; };
    const sched::ScheduleResult want = fresh.build(now, estimate);
    const sched::ScheduleResult& got = live.build(now, estimate);
    ASSERT_EQ(got.schedule, want.schedule) << "step " << step;
    ASSERT_EQ(got.dispatch, want.dispatch) << "step " << step;
    ASSERT_EQ(got.rejected, want.rejected) << "step " << step;
    ASSERT_EQ(got.deadlock_victims, want.deadlock_victims) << "step " << step;
    ASSERT_EQ(got.ops, want.ops) << "step " << step;

    std::vector<JobId> before;
    for (int c = 0; c < cpus; ++c) before.push_back(live.running_on(c));
    const auto task_of = [&](JobId id) {
      const auto it = jobs.find(id);
      return it == jobs.end() ? TaskId{-1} : it->second.task;
    };
    const auto may_run = [&](JobId id) {
      const auto it = jobs.find(id);
      return it != jobs.end() && !in_front(id) && it->second.runnable();
    };
    const auto cpu_of = [&](JobId id) {
      const auto it = std::find(before.begin(), before.end(), id);
      return it == before.end() ? -1 : static_cast<int>(it - before.begin());
    };
    const std::vector<JobId> next = selector.assign(
        selector.select(front, got, cpus,
                        std::numeric_limits<std::size_t>::max(), may_run,
                        task_of),
        cpus, task_of, cpu_of);

    const std::vector<Decision> decided = live.dispatch();
    ASSERT_EQ(decided, fresh.dispatch()) << "step " << step;
    ran.clear();
    for (int c = 0; c < cpus; ++c) {
      ASSERT_EQ(live.running_on(c), next[static_cast<std::size_t>(c)])
          << "step " << step << " cpu " << c;
      ran.push_back(live.running_on(c));
    }
  }
}

TEST(SchedulingPass, PersistentViewDecidesLikeAFreshView) {
  // Random edits as the substrates make them (insert, erase, move to
  // the front, block, wake, and a new estimate for the jobs the last
  // dispatch left on a CPU), one to three of them before each pass.  A
  // second pass gets a view rebuilt from scratch every time; both must
  // build the same result and return the same decisions, and the
  // occupancy must be what DispatchSelector::select/assign make of that
  // result (at one CPU under global placement, the one-slot branch).
  // RUA nominates the first runnable schedule entry; the second
  // scheduler nominates one that may not be.
  std::vector<std::unique_ptr<Tuf>> tufs;
  for (int t = 0; t < 6; ++t)
    tufs.push_back(t % 2 == 0
                       ? make_step_tuf(10.0 + t, usec(300 + 100 * t))
                       : make_linear_tuf(10.0 + t, usec(400 + 150 * t)));
  const sched::RuaScheduler rua(sched::Sharing::kLockBased,
                                /*detect_deadlocks=*/true);
  const LastNominatingScheduler last;
  for (const sched::Scheduler* scheduler :
       std::initializer_list<const sched::Scheduler*>{&rua, &last})
    for (const int cpus : {1, 2, 4})
      for (const PlacementPolicy policy :
           {PlacementPolicy::kGlobal, PlacementPolicy::kPartitioned,
            PlacementPolicy::kClustered})
        for (const std::uint64_t seed : {1u, 2u, 3u})
          check_persistent_view(*scheduler, cpus, policy, seed, tufs);
}

}  // namespace
}  // namespace lfrt
