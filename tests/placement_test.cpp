// Placement layer (PR 10): policy semantics, placement-aware dispatch
// selection/assignment, per-cluster object scoping in the simulator,
// controller placement epoch actions, the analysis::mp zero-overlap
// refinement, and the RunReport per-CPU-slot breakdowns — across both
// substrates.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "analysis/mp.hpp"
#include "runtime/contention_controller.hpp"
#include "runtime/exec_adapter.hpp"
#include "runtime/report_json.hpp"
#include "rt/executor.hpp"
#include "sched/dispatch.hpp"
#include "sched/edf.hpp"
#include "sched/placement.hpp"
#include "sched/rua.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace lfrt {
namespace {

using analysis::mp::MpOptions;
using analysis::mp::Substrate;
using runtime::ObjectImpl;
using runtime::ObjectKind;
using runtime::ObjectSpec;
using sched::DispatchOptions;
using sched::DispatchSelector;
using sched::Placement;
using sched::PlacementPolicy;
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

Placement partitioned(std::vector<std::int32_t> task_cpu) {
  Placement p;
  p.policy = PlacementPolicy::kPartitioned;
  p.task_affinity = std::move(task_cpu);
  return p;
}

Placement clustered(std::vector<std::int32_t> cpu_cluster,
                    std::vector<std::int32_t> task_cluster) {
  Placement p;
  p.policy = PlacementPolicy::kClustered;
  p.cpu_cluster = std::move(cpu_cluster);
  p.task_affinity = std::move(task_cluster);
  return p;
}

// ---- Placement struct semantics ------------------------------------

TEST(Placement, ClusterTopologyPerPolicy) {
  Placement g;  // global
  EXPECT_TRUE(g.global());
  EXPECT_EQ(g.cluster_count(4), 1);
  EXPECT_EQ(g.cluster_of_task(0), -1);
  EXPECT_EQ(g.cluster_of_cpu(0), -1);

  const Placement part = partitioned({1, 0, -1});
  EXPECT_FALSE(part.global());
  EXPECT_EQ(part.cluster_count(2), 2);
  EXPECT_EQ(part.cluster_of_cpu(1), 1);  // each CPU its own cluster
  EXPECT_EQ(part.cluster_of_task(0), 1);
  EXPECT_EQ(part.cluster_of_task(2), -1);  // unplaced
  EXPECT_EQ(part.cluster_of_task(99), -1); // out of range = unplaced
  part.validate(2, 3);

  const Placement clus = clustered({0, 0, 1, 1}, {1, 0});
  EXPECT_EQ(clus.cluster_count(4), 2);
  EXPECT_EQ(clus.cluster_of_cpu(3), 1);
  EXPECT_EQ(clus.cluster_of_task(0), 1);
  clus.validate(4, 2);
}

TEST(Placement, ValidateRejectsBrokenTopologies) {
  // Clustered with a gap in cluster numbering (no CPU in cluster 0).
  const Placement gap = clustered({1, 1}, {0});
  EXPECT_THROW(gap.validate(2, 1), InvariantViolation);
  // Placed task naming a nonexistent cluster.
  const Placement oob = partitioned({5});
  EXPECT_THROW(oob.validate(2, 1), InvariantViolation);
  // Clustered map must cover every CPU.
  Placement shortmap;
  shortmap.policy = PlacementPolicy::kClustered;
  shortmap.cpu_cluster = {0};
  EXPECT_THROW(shortmap.validate(2, 0), InvariantViolation);
}

// ---- Selector: global placement reproduces the steered rule -------

// Frozen copy of the pre-placement dispatch rule (conflict-group
// steered top-M selection + sticky assignment), kept only as the
// reference the unified selector must reproduce under global
// placement.  Do not "fix" or optimize it.
struct FrozenSteeredSelector {
  std::vector<std::int32_t> groups;
  bool strict = false;

  template <typename Eligible, typename TaskOf>
  std::vector<JobId> select(const std::vector<JobId>& front,
                            const sched::ScheduleResult& res, int cpu_count,
                            std::size_t id_limit, Eligible&& eligible,
                            TaskOf&& task_of) const {
    std::vector<JobId> targets;
    std::vector<JobId> deferred;
    std::vector<bool> picked(id_limit, false);
    std::vector<bool> group_picked;
    const auto full = [&] {
      return static_cast<int>(targets.size()) >= cpu_count;
    };
    const auto group_of = [&](JobId id) -> std::int32_t {
      if (groups.empty()) return -1;
      const TaskId task = task_of(id);
      if (task < 0 || static_cast<std::size_t>(task) >= groups.size())
        return -1;
      return groups[static_cast<std::size_t>(task)];
    };
    const auto group_taken = [&](std::int32_t g) {
      return g >= 0 && static_cast<std::size_t>(g) < group_picked.size() &&
             group_picked[static_cast<std::size_t>(g)];
    };
    const auto push = [&](JobId id) {
      picked[static_cast<std::size_t>(id)] = true;
      const std::int32_t g = group_of(id);
      if (g >= 0) {
        if (static_cast<std::size_t>(g) >= group_picked.size())
          group_picked.resize(static_cast<std::size_t>(g) + 1, false);
        group_picked[static_cast<std::size_t>(g)] = true;
      }
      targets.push_back(id);
    };
    const auto in_range = [&](JobId id) {
      return id >= 0 && static_cast<std::size_t>(id) < id_limit;
    };
    for (JobId id : front) {
      if (full()) break;
      push(id);
    }
    if (!full() && in_range(res.dispatch) &&
        !picked[static_cast<std::size_t>(res.dispatch)] &&
        eligible(res.dispatch)) {
      push(res.dispatch);
    }
    for (JobId id : res.schedule) {
      if (full()) break;
      if (!in_range(id)) continue;
      if (picked[static_cast<std::size_t>(id)]) continue;
      if (!eligible(id)) continue;
      if (group_taken(group_of(id))) {
        deferred.push_back(id);
        continue;
      }
      push(id);
    }
    if (!strict) {
      for (JobId id : deferred) {
        if (full()) break;
        push(id);
      }
    }
    return targets;
  }

  template <typename CpuOf>
  std::vector<JobId> assign(const std::vector<JobId>& targets, int cpu_count,
                            CpuOf&& cpu_of) const {
    std::vector<JobId> next(static_cast<std::size_t>(cpu_count), kNoJob);
    std::vector<JobId> newcomers;
    for (JobId id : targets) {
      const int c = cpu_of(id);
      if (c >= 0)
        next[static_cast<std::size_t>(c)] = id;
      else
        newcomers.push_back(id);
    }
    std::size_t fill = 0;
    for (JobId id : newcomers) {
      while (fill < next.size() && next[fill] != kNoJob) ++fill;
      EXPECT_LT(fill, next.size());
      if (fill < next.size()) next[fill] = id;
    }
    return next;
  }
};

TEST(PlacementSelect, GlobalPolicyIsSelectSteeredBitForBit) {
  // Fuzz: random schedules, eligibility and CPU occupancy; under the
  // global policy the unified select/assign must reproduce the frozen
  // steered rule exactly, with and without conflict groups installed.
  Rng rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    const int cpu_count = static_cast<int>(rng.uniform(1, 4));
    const std::size_t id_limit = 12;
    sched::ScheduleResult res;
    res.dispatch = rng.uniform(-1, static_cast<std::int64_t>(id_limit));
    const std::int64_t n = rng.uniform(0, 9);
    for (std::int64_t k = 0; k < n; ++k)
      res.schedule.push_back(rng.uniform(0, 11));
    std::vector<bool> ok(id_limit);
    std::vector<int> cpu(id_limit, -1);
    std::vector<std::int32_t> task(id_limit);
    for (std::size_t j = 0; j < id_limit; ++j) {
      ok[j] = rng.uniform(0, 3) != 0;
      task[j] = static_cast<std::int32_t>(rng.uniform(0, 5));
      if (rng.chance(0.25))
        cpu[j] = static_cast<int>(rng.uniform(0, cpu_count - 1));
    }
    std::vector<std::int32_t> groups(6);
    for (auto& g : groups) g = static_cast<std::int32_t>(rng.uniform(-1, 1));

    const auto eligible = [&](JobId id) {
      return ok[static_cast<std::size_t>(id)];
    };
    const auto task_of = [&](JobId id) -> TaskId {
      return task[static_cast<std::size_t>(id)];
    };
    const auto cpu_of = [&](JobId id) {
      return cpu[static_cast<std::size_t>(id)];
    };
    const bool strict = rng.chance(0.5);

    for (const bool grouped : {true, false}) {
      FrozenSteeredSelector frozen;
      DispatchSelector unified;  // global placement (the default)
      if (grouped) {
        frozen.groups = groups;
        unified.set_conflict_groups(groups);
      }
      frozen.strict = strict;
      DispatchOptions opts;
      opts.strict_groups = strict;
      unified.set_options(opts);

      const std::vector<JobId> front;
      const auto a =
          frozen.select(front, res, cpu_count, id_limit, eligible, task_of);
      const auto b =
          unified.select(front, res, cpu_count, id_limit, eligible, task_of);
      ASSERT_EQ(a, b) << "iter " << iter << " grouped=" << grouped;
      const auto na = frozen.assign(a, cpu_count, cpu_of);
      const auto nb = unified.assign(b, cpu_count, task_of, cpu_of);
      ASSERT_EQ(na, nb) << "iter " << iter << " grouped=" << grouped;
    }
  }
}

// ---- Selector: partitioned admission and assignment ----------------

TEST(PlacementSelect, PartitionedAdmissionRespectsClusterCapacity) {
  // 2 CPUs; tasks 0 and 1 pinned to CPU 0, task 2 to CPU 1.  Jobs
  // 0,1,2 belong to tasks 0,1,2.  Cluster 0 has one slot, so job 1 is
  // skipped and job 2 (cluster 1) still fits.
  DispatchSelector sel;
  DispatchOptions opts;
  opts.placement = partitioned({0, 0, 1});
  sel.set_options(opts);
  sched::ScheduleResult res;
  res.schedule = {0, 1, 2};
  const std::vector<std::int32_t> task = {0, 1, 2};
  const auto targets = sel.select(
      {}, res, 2, 3, [](JobId) { return true; },
      [&](JobId id) -> TaskId { return task[static_cast<std::size_t>(id)]; });
  EXPECT_EQ(targets, (std::vector<JobId>{0, 2}));

  // Assignment puts each job on its own partition's CPU.
  const auto next = sel.assign(
      targets, 2,
      [&](JobId id) -> TaskId { return task[static_cast<std::size_t>(id)]; },
      [](JobId) { return -1; });
  EXPECT_EQ(next[0], 0);
  EXPECT_EQ(next[1], 2);
}

TEST(PlacementSelect, UnplacedJobsFillRemainingSlots) {
  // Task 0 pinned to CPU 1, task 1 unplaced: the placed job takes its
  // partition CPU, the unplaced one the leftover slot.
  DispatchSelector sel;
  DispatchOptions opts;
  opts.placement = partitioned({1, -1});
  sel.set_options(opts);
  sched::ScheduleResult res;
  res.schedule = {0, 1};
  const std::vector<std::int32_t> task = {0, 1};
  const auto task_of = [&](JobId id) -> TaskId {
    return task[static_cast<std::size_t>(id)];
  };
  const auto targets =
      sel.select({}, res, 2, 2, [](JobId) { return true; }, task_of);
  EXPECT_EQ(targets, (std::vector<JobId>{0, 1}));
  const auto next = sel.assign(targets, 2, task_of, [](JobId) { return -1; });
  EXPECT_EQ(next[1], 0);  // placed job on its partition CPU
  EXPECT_EQ(next[0], 1);  // unplaced job fills the free slot
}

TEST(PlacementSelect, StickyJobLeavesItsClusterOnlyByMigration) {
  // Job 0 (task 0, cluster 0) currently on CPU 1 — a stale position
  // after a migration.  assign must move it back inside its
  // cluster instead of keeping the foreign CPU.
  DispatchSelector sel;
  DispatchOptions opts;
  opts.placement = partitioned({0});
  sel.set_options(opts);
  const std::vector<JobId> targets = {0};
  const auto next = sel.assign(
      targets, 2, [](JobId) -> TaskId { return 0; },
      [](JobId) { return 1; });
  EXPECT_EQ(next[0], 0);
  EXPECT_EQ(next[1], kNoJob);
}

// ---- Selector: steering x strict-groups x placement ----------------

TEST(PlacementSelect, DeferredSameGroupJobStaysOnItsPartition) {
  // Tasks 0 and 1 share conflict group 7 and are both pinned to CPU 0;
  // task 2 is pinned to CPU 1.  Schedule [0, 1, 2]:
  //   - job 0 takes cluster 0 and stamps group 7,
  //   - job 1 is deferred (same group),
  //   - job 2 takes cluster 1.
  // The work-conserving refill then re-checks *capacity*: cluster 0 is
  // full, so job 1 must NOT be refilled onto the foreign free-less
  // slot — on a partitioned mask a deferred same-group job stays on its
  // partition or waits.
  for (const bool strict : {false, true}) {
    DispatchSelector sel;
    DispatchOptions opts;
    opts.placement = partitioned({0, 0, 1});
    opts.strict_groups = strict;
    sel.set_options(opts);
    sel.set_conflict_groups({7, 7, -1});
    sched::ScheduleResult res;
    res.schedule = {0, 1, 2};
    const std::vector<std::int32_t> task = {0, 1, 2};
    const auto task_of = [&](JobId id) -> TaskId {
      return task[static_cast<std::size_t>(id)];
    };
    const auto targets = sel.select(
        {}, res, 2, 3, [](JobId) { return true; }, task_of);
    EXPECT_EQ(targets, (std::vector<JobId>{0, 2})) << "strict=" << strict;
    const auto next =
        sel.assign(targets, 2, task_of, [](JobId) { return -1; });
    EXPECT_EQ(next[0], 0) << "strict=" << strict;
    EXPECT_EQ(next[1], 2) << "strict=" << strict;
  }
}

TEST(PlacementSelect, DeferredJobRefillsWithinItsOwnCluster) {
  // Same-group tasks 0,1 pinned to cluster 0 of a 2-CPU cluster
  // {0,0}; with work conservation the deferred job refills into its
  // own cluster's second slot; strict mode leaves it idle.
  for (const bool strict : {false, true}) {
    DispatchSelector sel;
    DispatchOptions opts;
    opts.placement = clustered({0, 0}, {0, 0});
    opts.strict_groups = strict;
    sel.set_options(opts);
    sel.set_conflict_groups({7, 7});
    sched::ScheduleResult res;
    res.schedule = {0, 1};
    const std::vector<std::int32_t> task = {0, 1};
    const auto targets = sel.select(
        {}, res, 2, 2, [](JobId) { return true; },
        [&](JobId id) -> TaskId { return task[static_cast<std::size_t>(id)]; });
    if (strict)
      EXPECT_EQ(targets, (std::vector<JobId>{0}));
    else
      EXPECT_EQ(targets, (std::vector<JobId>{0, 1}));
  }
}

// ---- Simulator: scoped placement kills cross-cluster conflicts ------

// Two tasks, each one write access to shared object 0: overlapped
// windows make the later CAS retry (lock-free) or the later request
// block (lock-based) under global dispatch on 2 CPUs.
TaskSet conflict_pair() {
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(
      simple_task(0, usec(10), usec(200), {{0, usec(2), true}}));
  ts.tasks.push_back(
      simple_task(1, usec(10), usec(200), {{0, usec(2), true}}));
  return ts;
}

SimConfig conflict_cfg(ShareMode mode) {
  SimConfig cfg;
  cfg.mode = mode;
  cfg.lockfree_access_time = usec(10);
  cfg.lock_access_time = usec(10);
  cfg.cpu_count = 2;
  cfg.horizon = msec(1);
  return cfg;
}

sim::SimReport run_pair(ShareMode mode, ObjectImpl impl,
                        const Placement& placement) {
  const TaskSet ts = conflict_pair();
  const sched::EdfScheduler edf;
  SimConfig cfg = conflict_cfg(mode);
  cfg.objects = {ObjectSpec{ObjectKind::kQueue, impl}};
  cfg.dispatch.placement = placement;
  Simulator sim(ts, edf, cfg);
  sim.set_arrivals(0, {0});
  sim.set_arrivals(1, {usec(1)});
  return sim.run();
}

TEST(PlacementSim, ScopedPlacementZeroesCrossClusterRetries) {
  const auto global = run_pair(ShareMode::kLockFree, ObjectImpl::kLockFree,
                               Placement{});
  EXPECT_GT(global.total_retries, 0);  // the conflict is real

  const auto part = run_pair(ShareMode::kLockFree, ObjectImpl::kLockFree,
                             partitioned({0, 1}));
  // Disjoint partitions => per-cluster instances => no CAS ever loses.
  EXPECT_EQ(part.total_retries, 0);
  EXPECT_EQ(part.completed, global.completed);
}

TEST(PlacementSim, ScopedPlacementZeroesCrossClusterBlockings) {
  const auto global = run_pair(ShareMode::kLockBased, ObjectImpl::kMutex,
                               Placement{});
  EXPECT_GT(global.total_blockings, 0);

  const auto part = run_pair(ShareMode::kLockBased, ObjectImpl::kMutex,
                             partitioned({0, 1}));
  EXPECT_EQ(part.total_blockings, 0);
  // Without the blocking stall both jobs finish strictly earlier than
  // the serialized global run's later job.
  Time late_part = 0, late_global = 0;
  for (const Job& j : part.jobs) late_part = std::max(late_part, j.completion);
  for (const Job& j : global.jobs)
    late_global = std::max(late_global, j.completion);
  EXPECT_LT(late_part, late_global);
}

TEST(PlacementSim, UnscopedPlacementKeepsSharedObjectConflicts) {
  // scope_objects = false: the partition pins WHERE jobs run but the
  // object stays one structure — the conflict survives.
  Placement p = partitioned({0, 1});
  p.scope_objects = false;
  const auto rep = run_pair(ShareMode::kLockFree, ObjectImpl::kLockFree, p);
  EXPECT_GT(rep.total_retries, 0);
}

TEST(PlacementSim, PartitionedRunsAreDeterministic) {
  const auto a = run_pair(ShareMode::kLockFree, ObjectImpl::kLockFree,
                          partitioned({0, 1}));
  const auto b = run_pair(ShareMode::kLockFree, ObjectImpl::kLockFree,
                          partitioned({0, 1}));
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.cpu_jobs, b.cpu_jobs);
  EXPECT_EQ(a.cpu_busy, b.cpu_busy);
  EXPECT_EQ(a.accrued_utility, b.accrued_utility);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    EXPECT_EQ(a.jobs[i].completion, b.jobs[i].completion);
}

TEST(PlacementSim, CpuSlotBreakdownsAccountEveryDispatch) {
  const auto rep = run_pair(ShareMode::kLockFree, ObjectImpl::kLockFree,
                            partitioned({0, 1}));
  ASSERT_EQ(rep.cpu_jobs.size(), 2u);
  ASSERT_EQ(rep.cpu_busy.size(), 2u);
  EXPECT_EQ(std::accumulate(rep.cpu_jobs.begin(), rep.cpu_jobs.end(),
                            std::int64_t{0}),
            rep.dispatches);
  // Each partition executed its own job: both slots saw work.
  EXPECT_GT(rep.cpu_jobs[0], 0);
  EXPECT_GT(rep.cpu_jobs[1], 0);
  EXPECT_GT(rep.cpu_busy[0], 0);
  EXPECT_GT(rep.cpu_busy[1], 0);
}

// ---- Controller placement epoch actions ----------------------------

TEST(PlacementController, CoreSpreadsHotScopedGroupAcrossClusters) {
  runtime::ControllerConfig cfg;
  cfg.steer_min_retries = 4;
  cfg.place = true;
  const std::vector<ObjectSpec> specs = {
      ObjectSpec{ObjectKind::kQueue, ObjectImpl::kLockFree}};
  runtime::ContentionControllerCore core(cfg, specs);
  core.enable_placement(partitioned({0, 0}), {0, 0}, 2, {{0, 1}}, {-1});
  ASSERT_TRUE(core.placement_enabled());

  runtime::ContentionMatrix m(1, 2);
  core.step(m);  // baseline
  m.at(0, 0).retries = 8;
  m.at(0, 1).retries = 8;
  const auto ep = core.step(m);
  // Task 0 stays on (0 + 0) % 2 = 0 (no move emitted), task 1 spreads
  // to (0 + 1) % 2 = 1.
  ASSERT_EQ(ep.placement_moves.size(), 1u);
  EXPECT_EQ(ep.placement_moves[0].task, 1);
  EXPECT_EQ(ep.placement_moves[0].to_cluster, 1);
  EXPECT_EQ(ep.placement_moves[0].why,
            runtime::PlacementMove::Why::kSpreadHotGroup);
  EXPECT_EQ(core.cluster_of(1), 1);

  // Quiet epoch: no further moves; the core remembers the new homes.
  const auto ep2 = core.step(m);
  EXPECT_TRUE(ep2.placement_moves.empty());
}

TEST(PlacementController, CoreHomesSingleWriterObjectOnItsWriter) {
  runtime::ControllerConfig cfg;
  cfg.steer_min_retries = 4;
  cfg.place = true;
  const std::vector<ObjectSpec> specs = {
      ObjectSpec{ObjectKind::kBuffer, ObjectImpl::kLockFree}};
  runtime::ContentionControllerCore core(cfg, specs);
  // Writer task 0 lives in cluster 1; reader task 1 in cluster 0.
  core.enable_placement(partitioned({1, 0}), {1, 0}, 2, {{0, 1}}, {0});

  runtime::ContentionMatrix m(1, 2);
  core.step(m);
  m.at(0, 1).retries = 8;  // the reader pays the spin
  const auto ep = core.step(m);
  ASSERT_EQ(ep.placement_moves.size(), 1u);
  EXPECT_EQ(ep.placement_moves[0].task, 1);
  EXPECT_EQ(ep.placement_moves[0].to_cluster, 1);  // the writer's home
  EXPECT_EQ(ep.placement_moves[0].why,
            runtime::PlacementMove::Why::kWriterHome);
}

// Both tasks start in cluster 0 of a 2-cluster machine (one CPU per
// cluster) sharing one lock-free queue.  Task 1 has a much tighter
// deadline, so it preempts task 0 mid-access every period — each
// preemption restarts the access and charges a retry.
sim::SimReport run_co_located_hammerers(bool scope_objects, bool place) {
  TaskSet ts;
  ts.object_count = 1;
  std::vector<AccessSpec> hammer;
  for (int k = 0; k < 8; ++k)
    hammer.push_back({0, usec(2 + 10 * k), true});
  ts.tasks.push_back(simple_task(0, usec(90), usec(400), hammer));
  ts.tasks.push_back(simple_task(1, usec(10), usec(60), {{0, usec(2), true}}));
  const sched::EdfScheduler edf;
  SimConfig cfg;
  cfg.mode = ShareMode::kLockFree;
  cfg.lockfree_access_time = usec(8);
  cfg.cpu_count = 2;
  cfg.horizon = msec(4);
  cfg.objects = {ObjectSpec{ObjectKind::kQueue, ObjectImpl::kLockFree}};
  cfg.dispatch.placement = clustered({0, 1}, {0, 0});
  cfg.dispatch.placement.scope_objects = scope_objects;
  cfg.controller.place = place;
  cfg.controller.epoch = usec(200);
  cfg.controller.steer_min_retries = 1;
  Simulator sim(ts, edf, cfg);
  std::vector<Time> arrivals;
  for (Time t = 0; t < msec(4); t += usec(400)) arrivals.push_back(t);
  sim.set_arrivals(0, arrivals);
  std::vector<Time> arrivals1;
  for (Time t = usec(3); t < msec(4); t += usec(100))
    arrivals1.push_back(t);
  sim.set_arrivals(1, arrivals1);
  return sim.run();
}

TEST(PlacementSim, ControllerMigrationSeparatesCoLocatedHammerers) {
  // With the queue scoped, the controller's spread action must migrate
  // task 1 to cluster 1 (task 0 keeps (0 + 0) % 2 = 0), after which the
  // tasks run on separate CPUs against separate instances and the
  // retries stop.
  const auto rep = run_co_located_hammerers(/*scope_objects=*/true,
                                            /*place=*/true);
  ASSERT_FALSE(rep.placement_moves.empty());
  EXPECT_EQ(rep.placement_moves[0].task, 1);
  EXPECT_EQ(rep.placement_moves[0].to_cluster, 1);
  EXPECT_EQ(rep.placement_moves[0].why,
            runtime::PlacementMove::Why::kSpreadHotGroup);
  // After the spread the tasks write disjoint instances: retries stop
  // accumulating.  Compare against the same run with the controller
  // off.
  const auto rep2 = run_co_located_hammerers(true, /*place=*/false);
  EXPECT_LT(rep.total_retries, rep2.total_retries);
}

TEST(PlacementSim, ControllerLeavesUnscopedHammerersTogether) {
  // Without scope_objects the queue is one shared instance: spreading
  // its accessors would only turn preemption retries into
  // true-parallel ones, so the controller must not spread them.
  const auto rep = run_co_located_hammerers(/*scope_objects=*/false,
                                            /*place=*/true);
  for (const auto& m : rep.placement_moves)
    EXPECT_NE(m.why, runtime::PlacementMove::Why::kSpreadHotGroup)
        << "task " << m.task << " spread to cluster " << m.to_cluster;
  const auto rep2 = run_co_located_hammerers(false, /*place=*/false);
  EXPECT_EQ(rep.total_retries, rep2.total_retries);
}

// ---- analysis::mp zero-overlap refinement --------------------------

TEST(PlacementAnalysis, SeparatedTasksDropFromEachOthersBounds) {
  const TaskSet ts = conflict_pair();
  const ObjectSpec lf{ObjectKind::kQueue, ObjectImpl::kLockFree};
  const ObjectSpec mx{ObjectKind::kQueue, ObjectImpl::kMutex};

  MpOptions global;
  global.cpu_count = 2;
  global.substrate = Substrate::kSimulator;
  MpOptions part = global;
  part.placement = partitioned({0, 1});

  EXPECT_FALSE(analysis::mp::placement_separated(global, lf, 0, 1));
  EXPECT_TRUE(analysis::mp::placement_separated(part, lf, 0, 1));
  // Buffer/snapshot kinds are never scoped.
  const ObjectSpec buf{ObjectKind::kBuffer, ObjectImpl::kLockFree};
  EXPECT_FALSE(analysis::mp::placement_separated(part, buf, 0, 1));
  // Unscoped placements separate nothing.
  MpOptions unscoped = part;
  unscoped.placement.scope_objects = false;
  EXPECT_FALSE(analysis::mp::placement_separated(unscoped, lf, 0, 1));

  // Strictly tighter per-job bounds on the shared scoped object.
  const auto r_g = analysis::mp::retry_job_bound(ts, 0, 0, lf, global);
  const auto r_p = analysis::mp::retry_job_bound(ts, 0, 0, lf, part);
  EXPECT_LT(r_p, r_g);
  const auto b_g = analysis::mp::blocking_job_bound(ts, 0, 0, mx, global);
  const auto b_p = analysis::mp::blocking_job_bound(ts, 0, 0, mx, part);
  EXPECT_LT(b_p, b_g);
  // The time bounds price the same separation: strictly tighter spin
  // time (unordered mutex and FIFO MCS) and retry time.
  const auto model = runtime::CostModel::flat(usec(1), usec(2));
  for (const ObjectSpec& lock :
       {mx, ObjectSpec{ObjectKind::kQueue, ObjectImpl::kMcs}}) {
    EXPECT_LT(
        analysis::mp::spin_block_time_bound(ts, 0, 0, lock, model, part),
        analysis::mp::spin_block_time_bound(ts, 0, 0, lock, model, global));
  }
  EXPECT_LT(analysis::mp::retry_time_bound(ts, 0, 0, lf, model, part),
            analysis::mp::retry_time_bound(ts, 0, 0, lf, model, global));
  // Fully separated accessors: the conflicting-jobs term shrinks, and
  // from task 0's viewpoint only task 0 itself can touch its instance.
  EXPECT_LT(analysis::mp::conflicting_jobs(ts, 0, 0, part, lf),
            analysis::mp::conflicting_jobs(ts, 0, 0, global, lf));
  EXPECT_EQ(analysis::mp::worker_cap(ts, 0, part, lf, 0), 1);
  EXPECT_EQ(analysis::mp::worker_cap(ts, 0, global, lf, 0),
            analysis::mp::worker_cap(ts, 0, global));
}

TEST(PlacementAnalysis, PartitionedCertificateIsTighterCellByCell) {
  // Run the same conflicting trace under global and partitioned
  // placement; both certify, and the partitioned bound is strictly
  // tighter on the shared object's cells.
  const TaskSet ts = conflict_pair();
  const ObjectSpec lf{ObjectKind::kQueue, ObjectImpl::kLockFree};
  const runtime::CostModel model;

  const auto rep_g = run_pair(ShareMode::kLockFree, ObjectImpl::kLockFree,
                              Placement{});
  MpOptions og;
  og.cpu_count = 2;
  og.substrate = Substrate::kSimulator;
  const auto cert_g = analysis::mp::certify(rep_g, ts, {lf}, model, og);
  EXPECT_TRUE(cert_g.ok);

  const auto rep_p = run_pair(ShareMode::kLockFree, ObjectImpl::kLockFree,
                              partitioned({0, 1}));
  MpOptions op = og;
  op.placement = partitioned({0, 1});
  const auto cert_p = analysis::mp::certify(rep_p, ts, {lf}, model, op);
  EXPECT_TRUE(cert_p.ok);

  ASSERT_EQ(cert_g.retries.size(), cert_p.retries.size());
  for (std::size_t i = 0; i < cert_g.retries.size(); ++i) {
    EXPECT_LE(cert_p.retries[i].measured, cert_p.retries[i].bound);
    EXPECT_LT(cert_p.retries[i].bound, cert_g.retries[i].bound)
        << "cell " << i;
  }
}

TEST(PlacementAnalysis, OptionsFromSelectorCarryThePlacement) {
  DispatchSelector sel;
  DispatchOptions opts;
  opts.placement = partitioned({0, 1});
  opts.strict_groups = true;
  sel.set_options(opts);
  const MpOptions mp = analysis::mp::options_from_selector(
      sel, 2, Substrate::kSimulator);
  EXPECT_TRUE(mp.strict_groups);
  EXPECT_EQ(mp.placement.policy, PlacementPolicy::kPartitioned);
  EXPECT_EQ(mp.placement.cluster_of_task(1), 1);
}

// ---- Both substrates: one object-scoping rule ----------------------

/// Each universe runs under a scoped partitioned placement on the
/// simulator and on the executor, and both must give the same verdict:
/// stripes of any kind on a scoped object are rejected, while `adapt`
/// on an object that cannot stripe is ignored.
TEST(PlacementScope, BothSubstratesAcceptTheSameUniverses) {
  struct Row {
    const char* what;
    ObjectSpec spec;
    bool accepted;
  };
  const Row rows[] = {
      {"adaptive lock-free queue",
       {ObjectKind::kQueue, ObjectImpl::kLockFree, 1, /*adapt=*/true}, false},
      {"two static stripes on a lock-free queue",
       {ObjectKind::kQueue, ObjectImpl::kLockFree, 2, /*adapt=*/false}, false},
      {"adaptive mutex queue",
       {ObjectKind::kQueue, ObjectImpl::kMutex, 1, /*adapt=*/true}, true},
  };
  const auto accepts = [](const auto& run) {
    try {
      run();
      return true;
    } catch (const InvariantViolation&) {
      return false;
    }
  };
  const TaskSet ts = conflict_pair();
  const sched::EdfScheduler edf;
  for (const Row& row : rows) {
    SCOPED_TRACE(row.what);
    const bool sim_accepts = accepts([&] {
      SimConfig cfg = conflict_cfg(runtime::is_lock_based(row.spec.impl)
                                       ? ShareMode::kLockBased
                                       : ShareMode::kLockFree);
      cfg.objects = {row.spec};
      cfg.dispatch.placement = partitioned({0, 1});
      Simulator sim(ts, edf, cfg);
      sim.set_arrivals(0, {0});
      sim.set_arrivals(1, {usec(1)});
      sim.run();
    });
    const bool exec_accepts = accepts([&] {
      runtime::ExecConfig ec;
      ec.horizon = msec(2);
      ec.objects = {row.spec};
      ec.cpu_count = 2;
      ec.dispatch.placement = partitioned({0, 1});
      runtime::run_on_executor(ts, edf, ec);
    });
    EXPECT_EQ(sim_accepts, row.accepted);
    EXPECT_EQ(exec_accepts, row.accepted);
  }
}

// ---- Executor substrate --------------------------------------------

rt::ExecutorReport run_exec(const Placement& placement) {
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(
      simple_task(0, usec(200), msec(4), {{0, usec(50), true}}));
  ts.tasks.push_back(
      simple_task(1, usec(200), msec(4), {{0, usec(50), true}}));
  for (auto& t : ts.tasks) t.arrival = UamSpec{1, 1, msec(4)};
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  runtime::ExecConfig ec;
  ec.horizon = msec(20);
  ec.objects = {ObjectSpec{ObjectKind::kQueue, ObjectImpl::kLockFree}};
  ec.cpu_count = 2;
  ec.arrival_seed = 5;
  ec.dispatch.placement = placement;
  return runtime::run_on_executor(ts, rua, ec);
}

TEST(PlacementExecutor, CpuSlotBreakdownsAccountEveryDispatch) {
  const auto rep = run_exec(Placement{});
  ASSERT_EQ(rep.cpu_jobs.size(), 2u);
  ASSERT_EQ(rep.cpu_busy.size(), 2u);
  EXPECT_EQ(std::accumulate(rep.cpu_jobs.begin(), rep.cpu_jobs.end(),
                            std::int64_t{0}),
            rep.dispatches);
  EXPECT_GT(rep.dispatches, 0);
}

TEST(PlacementExecutor, ScopedPartitionEliminatesRetriesAndCertifies) {
  const auto rep = run_exec(partitioned({0, 1}));
  ASSERT_GT(rep.counted_jobs, 0);
  // Disjoint per-cluster instances: the tasks' queue ops cannot
  // conflict, and each task's jobs are serialized by UAM(1,1,W), so no
  // retry source remains.
  EXPECT_EQ(rep.total_retries, 0);

  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(
      simple_task(0, usec(200), msec(4), {{0, usec(50), true}}));
  ts.tasks.push_back(
      simple_task(1, usec(200), msec(4), {{0, usec(50), true}}));
  MpOptions opt;
  opt.cpu_count = 2;
  opt.substrate = Substrate::kExecutor;
  opt.placement = partitioned({0, 1});
  const auto cert = analysis::mp::certify(
      rep, ts, {ObjectSpec{ObjectKind::kQueue, ObjectImpl::kLockFree}},
      runtime::CostModel{}, opt);
  EXPECT_TRUE(cert.ok);
}

// A job of task 0 whose body spins on checkpoint() for 50 ms after
// `release` is set.
rt::RtJob checkpointing_job(const std::atomic<bool>& release,
                            std::atomic<bool>* started = nullptr) {
  rt::RtJob job;
  job.task = 0;
  job.tuf = make_step_tuf(10.0, msec(2000));
  job.expected_exec = msec(50);
  job.body = [&release, started](rt::JobContext& ctx) {
    if (started != nullptr) started->store(true);
    while (!release.load()) ctx.checkpoint();
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    while (std::chrono::steady_clock::now() < until) ctx.checkpoint();
  };
  return job;
}

TEST(PlacementExecutor, MigrationToALowerCpuKeepsTheJobRunning) {
  // Task 0 runs on CPU 1; set_placement moves it to CPU 0 mid-body.
  // One pass must release CPU 1 before it binds CPU 0: binding first
  // let the old CPU's release unbind the job, which then parked at its
  // next checkpoint until its critical time aborted it.
  const sched::EdfScheduler edf;
  rt::ExecutorConfig cfg;
  cfg.cpu_count = 2;
  cfg.dispatch.placement = partitioned({1});
  rt::Executor ex(edf, cfg);
  std::atomic<bool> started{false};
  std::atomic<bool> moved{false};
  ASSERT_NE(ex.submit(checkpointing_job(moved, &started)), kNoJob);
  while (!started.load()) std::this_thread::yield();
  ex.set_placement(partitioned({0}));
  moved.store(true);
  ex.drain();
  const auto rep = ex.shutdown();
  EXPECT_EQ(rep.completed, 1);
  EXPECT_EQ(rep.aborted, 0);
  EXPECT_EQ(rep.cpu_jobs, (std::vector<std::int64_t>{1, 1}));
}

TEST(PlacementExecutor, SetPlacementRejectsAllButAffinityChanges) {
  const sched::EdfScheduler edf;
  rt::ExecutorConfig cfg;
  cfg.cpu_count = 2;
  cfg.dispatch.placement = partitioned({1});
  rt::Executor ex(edf, cfg);
  const std::atomic<bool> go{true};
  const auto run_one = [&] {
    ASSERT_NE(ex.submit(checkpointing_job(go)), kNoJob);
    ex.drain();
  };
  // CPU 2 does not exist: dispatch would index past the cluster table.
  EXPECT_THROW(ex.set_placement(partitioned({2})), InvariantViolation);
  run_one();
  // A policy change, here to clustered with no CPU map.
  EXPECT_THROW(ex.set_placement(clustered({}, {0})), InvariantViolation);
  run_one();
  EXPECT_THROW(ex.set_placement(Placement{}), InvariantViolation);
  run_one();
  const auto rep = ex.shutdown();
  EXPECT_EQ(rep.completed, 3);
  EXPECT_EQ(rep.aborted, 0);
  // Every job ran on its pinned CPU: no rejected placement took hold.
  EXPECT_EQ(rep.cpu_jobs, (std::vector<std::int64_t>{0, 3}));
}

// ---- RunReport JSON round-trip -------------------------------------

TEST(PlacementJson, CpuSlotBreakdownsRoundTrip) {
  runtime::RunReport rep;
  rep.counted_jobs = 3;
  rep.dispatches = 7;
  rep.cpu_busy = {usec(5), usec(9)};
  rep.cpu_jobs = {4, 3};
  const std::string js = runtime::to_json(rep);
  EXPECT_NE(js.find("\"cpu_busy\":[5000,9000]"), std::string::npos);
  EXPECT_NE(js.find("\"cpu_jobs\":[4,3]"), std::string::npos);
  const runtime::RunReport back = runtime::from_json(js);
  EXPECT_EQ(back.cpu_busy, rep.cpu_busy);
  EXPECT_EQ(back.cpu_jobs, rep.cpu_jobs);
}

TEST(PlacementJson, LegacyReportsStayByteIdenticalAndParse) {
  runtime::RunReport rep;
  rep.counted_jobs = 1;
  const std::string js = runtime::to_json(rep);
  // Empty breakdowns are omitted entirely — pre-PR-10 bytes.
  EXPECT_EQ(js.find("cpu_busy"), std::string::npos);
  EXPECT_EQ(js.find("cpu_jobs"), std::string::npos);
  const runtime::RunReport back = runtime::from_json(js);
  EXPECT_TRUE(back.cpu_busy.empty());
  EXPECT_TRUE(back.cpu_jobs.empty());
}

}  // namespace
}  // namespace lfrt
