// Simulator regression pins: full-report fingerprints of fixed-seed
// runs across every sharing mode, nested/deadlock workloads, and
// multiprocessor configurations.
//
// The expected values below were captured from the pre-slab simulator
// (the std::unordered_map<JobId, Job> job table) and pin the dense-slab
// rewrite to bit-identical event-loop behaviour: any change to event
// ordering, dispatch, retry/blocking accounting, or abort handling
// shows up as a fingerprint mismatch.  The event-level pins further
// down were captured before arrivals were streamed and the
// remaining-work estimate was precomputed, and pin those changes the
// same way.  Integer counters must match
// exactly; AUR is compared to 1e-9 (the report-accumulation order over
// terminal jobs is not part of the pinned behaviour).
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "runtime/cost_model.hpp"
#include "runtime/object_spec.hpp"
#include "sched/edf.hpp"
#include "sched/placement.hpp"
#include "sched/rua.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "uam/uam.hpp"
#include "workload/workload.hpp"

namespace lfrt {
namespace {

struct Fingerprint {
  std::int64_t counted = 0;
  std::int64_t completed = 0;
  std::int64_t aborted = 0;
  std::int64_t retries = 0;
  std::int64_t blockings = 0;
  std::int64_t preemptions = 0;
  std::int64_t invocations = 0;
  std::int64_t ops = 0;
  std::int64_t deadlocks = 0;
  std::int64_t job_records = 0;
  std::int64_t sojourn_sum = 0;  ///< sum of completed jobs' sojourns (ns)
  double aur = 0.0;

  friend std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
    return os << "{" << f.counted << ", " << f.completed << ", "
              << f.aborted << ", " << f.retries << ", " << f.blockings
              << ", " << f.preemptions << ", " << f.invocations << ", "
              << f.ops << ", " << f.deadlocks << ", " << f.job_records
              << ", " << f.sojourn_sum << ", " << f.aur << "}";
  }
};

Fingerprint fingerprint(const sim::SimReport& r) {
  Fingerprint f;
  f.counted = r.counted_jobs;
  f.completed = r.completed;
  f.aborted = r.aborted;
  f.retries = r.total_retries;
  f.blockings = r.total_blockings;
  f.preemptions = r.total_preemptions;
  f.invocations = r.sched_invocations;
  f.ops = r.sched_ops;
  f.deadlocks = r.deadlocks_resolved;
  f.job_records = static_cast<std::int64_t>(r.jobs.size());
  for (const Job& j : r.jobs)
    if (j.state == JobState::kCompleted) f.sojourn_sum += j.sojourn();
  f.aur = r.aur();
  return f;
}

void expect_eq(const Fingerprint& got, const Fingerprint& want) {
  EXPECT_EQ(got.counted, want.counted);
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.aborted, want.aborted);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.blockings, want.blockings);
  EXPECT_EQ(got.preemptions, want.preemptions);
  EXPECT_EQ(got.invocations, want.invocations);
  EXPECT_EQ(got.ops, want.ops);
  EXPECT_EQ(got.deadlocks, want.deadlocks);
  EXPECT_EQ(got.job_records, want.job_records);
  EXPECT_EQ(got.sojourn_sum, want.sojourn_sum);
  EXPECT_NEAR(got.aur, want.aur, 1e-9);
  // On any mismatch, print the whole actual fingerprint so it can be
  // re-pinned deliberately after an *intentional* behaviour change.
  if (::testing::Test::HasNonfatalFailure())
    ADD_FAILURE() << "actual fingerprint: " << got;
}

/// The fig09-shaped workload of the determinism suite.
TaskSet fig09_like_taskset() {
  workload::WorkloadSpec spec;
  spec.task_count = 10;
  spec.object_count = 10;
  spec.accesses_per_job = 2;
  spec.avg_exec = usec(100);
  spec.load = 0.9;
  spec.tuf_class = workload::TufClass::kStep;
  spec.seed = 42;
  return workload::make_task_set(spec);
}

Time max_window(const TaskSet& ts) {
  Time w = 0;
  for (const auto& t : ts.tasks) w = std::max(w, t.arrival.window);
  return w;
}

/// One run with the exact arrival construction of bench::run_series
/// (periodic phase-jittered, per-task seed mix) at repeat index 0.
sim::SimReport run_fig09_like(sim::ShareMode mode, int cpus = 1) {
  const TaskSet ts = fig09_like_taskset();
  sim::SimConfig cfg;
  cfg.mode = mode;
  cfg.lock_access_time = usec(25);
  cfg.lockfree_access_time = nsec(500);
  cfg.sched_ns_per_op = 5.0;
  cfg.horizon = max_window(ts) * 50;
  cfg.cpu_count = cpus;
  const sched::RuaScheduler rua(mode == sim::ShareMode::kLockBased
                                    ? sched::Sharing::kLockBased
                                    : sched::Sharing::kLockFree);
  sim::Simulator s(ts, rua, cfg);
  for (const auto& t : ts.tasks) {
    Rng rng(1000 ^ (0xA5A5A5A5ULL * static_cast<std::uint64_t>(t.id + 1)));
    s.set_arrivals(t.id,
                   arrivals::periodic_phased(t.arrival, cfg.horizon, rng));
  }
  return s.run();
}

TEST(SimPin, LockFree) {
  expect_eq(fingerprint(run_fig09_like(sim::ShareMode::kLockFree)),
            Fingerprint{712, 712, 0, 1, 0, 289, 1441, 31215, 0, 722,
                        151863359, 1.0});
}

TEST(SimPin, LockBased) {
  expect_eq(fingerprint(run_fig09_like(sim::ShareMode::kLockBased)),
            Fingerprint{712, 507, 205, 0, 0, 14, 3464, 588217, 0, 722,
                        453768556, 0.78972859021463537});
}

TEST(SimPin, Ideal) {
  expect_eq(fingerprint(run_fig09_like(sim::ShareMode::kIdeal)),
            Fingerprint{712, 712, 0, 0, 0, 287, 1441, 30033, 0, 722,
                        147779606, 1.0});
}

TEST(SimPin, LockFreeTwoCpus) {
  expect_eq(fingerprint(run_fig09_like(sim::ShareMode::kLockFree, 2)),
            Fingerprint{712, 712, 0, 0, 0, 108, 1441, 16592, 0, 722,
                        75242497, 1.0});
}

TEST(SimPin, NestedDeadlockDetection) {
  workload::WorkloadSpec spec;
  spec.task_count = 6;
  spec.object_count = 4;
  spec.avg_exec = usec(300);
  spec.load = 0.8;
  spec.seed = 9;
  spec.nest_depth = 2;
  const TaskSet ts = workload::make_task_set(spec);

  sim::SimConfig cfg;
  cfg.mode = sim::ShareMode::kLockBased;
  cfg.lock_access_time = usec(20);
  cfg.sched_ns_per_op = 5.0;
  cfg.horizon = max_window(ts) * 40;
  const sched::RuaScheduler rua(sched::Sharing::kLockBased,
                                /*detect_deadlocks=*/true);
  sim::Simulator s(ts, rua, cfg);
  s.seed_arrivals(100);
  expect_eq(fingerprint(s.run()),
            Fingerprint{213, 213, 0, 0, 20, 66, 1319, 19071, 0, 217,
                        110002849, 1.0});
}

TEST(SimPin, EdfOverrunAborts) {
  workload::WorkloadSpec spec;
  spec.task_count = 8;
  spec.object_count = 4;
  spec.accesses_per_job = 2;
  spec.avg_exec = usec(400);
  spec.load = 1.02;
  spec.seed = 3;
  TaskSet ts = workload::make_task_set(spec);
  for (auto& t : ts.tasks) t.exec_variation = 0.4;

  sim::SimConfig cfg;
  cfg.mode = sim::ShareMode::kLockFree;
  cfg.lockfree_access_time = nsec(500);
  cfg.sched_ns_per_op = 5.0;
  cfg.horizon = max_window(ts) * 40;
  cfg.exec_seed = 104;
  const sched::EdfScheduler edf;
  sim::Simulator s(ts, edf, cfg);
  s.seed_arrivals(91);
  expect_eq(fingerprint(s.run()),
            Fingerprint{321, 321, 0, 1, 0, 110, 652, 1539, 0, 326,
                        184690659, 1.0});
}

// ---- event-level pins ------------------------------------------------
//
// The cases below also pin how many events the loop consumed and which
// task each job id went to, so a change to event-queue bookkeeping
// (arrival seqs, tie order among equal-time events, milestone reposts)
// or to the scheduler's remaining-work view shows up even when the
// job-level tallies happen to agree.

struct EventFingerprint {
  Fingerprint run;
  std::int64_t events = 0;
  std::uint64_t task_order = 0;  ///< FNV-1a over the job table's task ids

  friend std::ostream& operator<<(std::ostream& os,
                                  const EventFingerprint& f) {
    return os << "{" << f.run << ", " << f.events << ", " << f.task_order
              << "u}";
  }
};

EventFingerprint event_fingerprint(const sim::SimReport& r) {
  EventFingerprint f;
  f.run = fingerprint(r);
  f.events = r.events_processed;
  f.task_order = 14695981039346656037ULL;
  for (const Job& j : r.jobs) {
    f.task_order ^= static_cast<std::uint64_t>(j.task);
    f.task_order *= 1099511628211ULL;
  }
  return f;
}

void expect_eq(const EventFingerprint& got, const EventFingerprint& want) {
  expect_eq(got.run, want.run);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.task_order, want.task_order);
  if (::testing::Test::HasNonfatalFailure())
    ADD_FAILURE() << "actual event fingerprint: " << got;
}

/// Four periodic tasks whose releases coincide at every multiple of the
/// longest period.  Which job id each task's job gets there, and so
/// every tie RUA breaks by id, follows the queue's order among
/// equal-time arrivals.  The periods differ, so that order is the
/// order of the traces, not the order in which the arrivals were last
/// queued.
TEST(SimPin, EqualTimeArrivalsKeepTieOrder) {
  TaskSet ts;
  ts.object_count = 2;
  const Time periods[] = {usec(1000), usec(500), usec(2000), usec(1000)};
  const Time execs[] = {usec(300), usec(150), usec(500), usec(250)};
  for (TaskId id = 0; id < 4; ++id) {
    TaskParams p;
    p.id = id;
    p.arrival = UamSpec::periodic(periods[id]);
    p.tuf = make_step_tuf(id == 1 ? 40.0 : 20.0, periods[id]);
    p.exec_time = execs[id];
    p.accesses = {{id % 2, execs[id] / 4}, {(id + 1) % 2, execs[id] / 2}};
    ts.tasks.push_back(p);
  }

  sim::SimConfig cfg;
  cfg.mode = sim::ShareMode::kLockFree;
  cfg.lockfree_access_time = nsec(500);
  cfg.sched_ns_per_op = 5.0;
  cfg.horizon = usec(40000);
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  sim::Simulator s(ts, rua, cfg);
  for (TaskId id : {2, 0, 3, 1}) {
    std::vector<Time> times;
    for (Time t = 0; t < cfg.horizon; t += periods[id]) times.push_back(t);
    s.set_arrivals(id, times);
  }
  expect_eq(event_fingerprint(s.run()),
            EventFingerprint{{180, 160, 20, 0, 0, 60, 360, 8000, 0, 180,
                              62357700, 0.92307692307692313},
                             1360, 10934191122387928261u});
}

/// Mixed universe under a contention-scaled cost model on two CPUs:
/// flat tasks access lock-free queue/buffer/snapshot and MCS objects,
/// nested tasks hold MCS/ticket locks, and every job's demand varies.
/// Pins the scheduler's remaining-work estimate (pending per-object
/// costs, the in-flight attempt's stored length) and deadlock victims.
TEST(SimPin, MixedUniverseCostModelTwoCpus) {
  workload::WorkloadSpec flat;
  flat.task_count = 6;
  flat.object_count = 4;
  flat.accesses_per_job = 3;
  flat.avg_exec = usec(200);
  flat.load = 2.2;
  flat.read_fraction = 0.4;
  flat.seed = 17;
  TaskSet ts = workload::make_task_set(flat);

  workload::WorkloadSpec nested;
  nested.task_count = 3;
  nested.object_count = 2;
  nested.avg_exec = usec(300);
  nested.load = 0.8;
  nested.nest_depth = 2;
  nested.seed = 23;
  for (TaskParams t : workload::make_task_set(nested).tasks) {
    t.id += flat.task_count;
    for (auto& sp : t.spans) sp.object += flat.object_count;
    ts.tasks.push_back(std::move(t));
  }
  ts.object_count = flat.object_count + nested.object_count;
  for (auto& t : ts.tasks) t.exec_variation = 0.3;

  using runtime::ObjectImpl;
  using runtime::ObjectKind;
  sim::SimConfig cfg;
  cfg.mode = sim::ShareMode::kLockBased;
  cfg.objects = {{ObjectKind::kQueue, ObjectImpl::kLockFree},
                 {ObjectKind::kQueue, ObjectImpl::kMcs},
                 {ObjectKind::kBuffer, ObjectImpl::kLockFree},
                 {ObjectKind::kSnapshot, ObjectImpl::kLockFree},
                 {ObjectKind::kQueue, ObjectImpl::kMcs},
                 {ObjectKind::kStack, ObjectImpl::kTicket}};
  cfg.cost_model.emplace();
  for (ObjectKind kind : runtime::all_object_kinds()) {
    for (ObjectImpl impl : runtime::all_object_impls()) {
      auto& c = cfg.cost_model->at(kind, impl);
      const bool lf = impl == ObjectImpl::kLockFree;
      c.base = lf ? usec(15) : usec(25);
      c.per_contender = impl == ObjectImpl::kTicket ? usec(8)
                        : lf                        ? usec(2)
                                                    : usec(3);
      c.per_segment = kind == ObjectKind::kSnapshot ? usec(1) : 0;
      c.retry_penalty = lf ? usec(4) : 0;
    }
  }
  cfg.sched_ns_per_op = 5.0;
  cfg.horizon = max_window(ts) * 30;
  cfg.exec_seed = 5;
  cfg.cpu_count = 2;
  const sched::RuaScheduler rua(sched::Sharing::kLockBased,
                                /*detect_deadlocks=*/true);
  sim::Simulator s(ts, rua, cfg);
  s.seed_arrivals(55);
  expect_eq(event_fingerprint(s.run()),
            EventFingerprint{{370, 304, 66, 26, 11, 121, 1123, 60869, 1, 375,
                              118433341, 0.86799029213427537},
                             5889, 5211325072361689744u});
}

// The pins below were captured before milestones moved out of the event
// heap into per-CPU slots.  They cover the shapes the pins above miss:
// perfbench's sim-sweep cell, controller epochs with shard decisions and
// placement moves, and abort handlers with execution slices.

/// One sim-sweep cell (perfbench/sim_sweep.cpp): 10 tasks x 10 objects,
/// heterogeneous TUFs, every job touching every object, arrivals drawn
/// from `arrival_seed` with perfbench's per-task mix.
sim::SimReport run_sweep_cell(double load, bool lock_free,
                              std::uint64_t arrival_seed) {
  workload::WorkloadSpec spec;
  spec.task_count = 10;
  spec.object_count = 10;
  spec.accesses_per_job = 10;
  spec.avg_exec = usec(500);
  spec.load = load;
  spec.tuf_class = workload::TufClass::kHeterogeneous;
  spec.seed = 2006;
  const TaskSet ts = workload::make_task_set(spec);

  sim::SimConfig cfg;
  cfg.mode = lock_free ? sim::ShareMode::kLockFree : sim::ShareMode::kLockBased;
  cfg.lockfree_access_time = nsec(500);
  cfg.lock_access_time = usec(50);
  cfg.sched_ns_per_op = 5.0;
  cfg.horizon = max_window(ts) * 100;
  const sched::RuaScheduler rua(lock_free ? sched::Sharing::kLockFree
                                          : sched::Sharing::kLockBased);
  sim::Simulator s(ts, rua, cfg);
  for (const auto& t : ts.tasks) {
    Rng rng(arrival_seed ^
            (0xA5A5A5A5ULL * static_cast<std::uint64_t>(t.id + 1)));
    s.set_arrivals(t.id,
                   arrivals::periodic_phased(t.arrival, cfg.horizon, rng));
  }
  return s.run();
}

// perfbench's first pass at --seed 1 draws arrival seed 1000003.
TEST(SimPin, SweepCellLockFreeLowLoad) {
  expect_eq(event_fingerprint(run_sweep_cell(0.4, true, 1000003)),
            EventFingerprint{{1782, 1782, 0, 4, 0, 401, 3584, 26463, 0, 1792,
                              1003510761, 0.98745489089787342},
                             41859, 4304793104485210563u});
}

TEST(SimPin, SweepCellLockBasedLowLoad) {
  expect_eq(event_fingerprint(run_sweep_cell(0.4, false, 1000003)),
            EventFingerprint{{1782, 1782, 0, 0, 235, 912, 39627, 956479, 0,
                              1792, 3551940555, 0.95068119076856972},
                             42837, 4304793104485210563u});
}

TEST(SimPin, SweepCellLockFreeOverload) {
  expect_eq(event_fingerprint(run_sweep_cell(1.6, true, 1000003)),
            EventFingerprint{{1783, 1169, 614, 0, 0, 79, 3579, 531598, 0, 1793,
                              2147778858, 0.5874727404151896},
                             30755, 5003275927698279939u});
}

TEST(SimPin, SweepCellLockBasedOverload) {
  expect_eq(event_fingerprint(run_sweep_cell(1.6, false, 1000003)),
            EventFingerprint{{1783, 520, 1263, 0, 63, 198, 14464, 2144332, 0,
                              1793, 832093104, 0.33382358332793882},
                             18039, 5003275927698279939u});
}

/// Four CPUs in two clusters, lock-free queues that adapt their shard
/// count, and a controller with placement actions on: the kController
/// epochs interleave with milestones at equal priority.  The queues are
/// not scoped (scope_objects = false), so the controller spreads no
/// accessors and the run makes no placement move; it used to make 28,
/// spreading tasks away from queues they still shared.
TEST(SimPin, ControllerEpochsFourCpus) {
  workload::WorkloadSpec spec;
  spec.task_count = 8;
  spec.object_count = 2;
  spec.accesses_per_job = 10;
  spec.avg_exec = usec(200);
  spec.load = 3.0;
  spec.tuf_class = workload::TufClass::kStep;
  spec.seed = 9;
  const TaskSet ts = workload::make_task_set(spec);

  sim::SimConfig cfg;
  cfg.mode = sim::ShareMode::kLockFree;
  cfg.objects = runtime::uniform_objects(ts.object_count,
                                         runtime::ObjectKind::kQueue,
                                         runtime::ObjectImpl::kLockFree);
  for (auto& o : cfg.objects) o.adapt = true;
  cfg.cost_model.emplace(runtime::CostModel::flat(usec(10), usec(10)));
  cfg.sched_ns_per_op = 5.0;
  cfg.controller.epoch = usec(500);
  cfg.controller.min_epoch_ops = 16;
  cfg.controller.promote_rate = 0.02;
  cfg.controller.steer_min_retries = 1;
  cfg.controller.place = true;
  cfg.dispatch.placement.policy = sched::PlacementPolicy::kClustered;
  cfg.dispatch.placement.cpu_cluster = {0, 0, 1, 1};
  cfg.dispatch.placement.task_affinity = {0, 0, 0, 0, 0, 0, 1, 1};
  cfg.dispatch.placement.scope_objects = false;
  cfg.cpu_count = 4;
  cfg.horizon = max_window(ts) * 6;
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  sim::Simulator s(ts, rua, cfg);
  s.seed_arrivals(3000);
  const sim::SimReport r = s.run();
  EXPECT_EQ(r.controller_epochs, 8);
  EXPECT_EQ(r.shard_decisions.size(), 3u);
  EXPECT_EQ(r.placement_moves.size(), 0u);
  expect_eq(event_fingerprint(r),
            EventFingerprint{{51, 21, 30, 25, 0, 10, 115, 5452, 0, 56, 6175688,
                              0.49299111308860588},
                             1119, 17788284834513527258u});
}

// The two pins below were captured before the simulator cached each
// job's scheduler-view entry.  Besides the running jobs, they reach
// every path that changes a job's view entry: the controller's
// re-ready loop, lock requests and wake-ups; abort handlers add jobs
// that leave the view for the abort front.

/// Lock-based sharing under clustered placement with per-cluster mutex
/// queues (scope_objects), and a controller that spreads the hot
/// objects' accessors across the clusters.  All tasks start in cluster
/// 0, so the first hot epoch moves some of them, and the moved tasks'
/// blocked jobs are re-readied to re-request on their new cluster's
/// instance.  `abort_handler_time` > 0 adds abort handlers that take a
/// CPU ahead of the schedule.
sim::SimReport run_lock_based_controller(Time abort_handler_time) {
  workload::WorkloadSpec spec;
  spec.task_count = 8;
  spec.object_count = 2;
  spec.accesses_per_job = 4;
  spec.avg_exec = usec(200);
  spec.load = 3.0;
  spec.tuf_class = workload::TufClass::kStep;
  spec.seed = 9;
  TaskSet ts = workload::make_task_set(spec);
  for (auto& t : ts.tasks) t.abort_handler_time = abort_handler_time;

  sim::SimConfig cfg;
  cfg.mode = sim::ShareMode::kLockBased;
  cfg.objects = runtime::uniform_objects(ts.object_count,
                                         runtime::ObjectKind::kQueue,
                                         runtime::ObjectImpl::kMutex);
  cfg.lock_access_time = usec(20);
  cfg.sched_ns_per_op = 5.0;
  cfg.controller.epoch = usec(500);
  cfg.controller.steer_min_retries = 1;
  cfg.controller.place = true;
  cfg.dispatch.placement.policy = sched::PlacementPolicy::kClustered;
  cfg.dispatch.placement.cpu_cluster = {0, 0, 1, 1};
  cfg.dispatch.placement.task_affinity.assign(8, 0);
  cfg.dispatch.placement.scope_objects = true;
  cfg.cpu_count = 4;
  cfg.horizon = max_window(ts) * 6;
  const sched::RuaScheduler rua(sched::Sharing::kLockBased);
  sim::Simulator s(ts, rua, cfg);
  s.seed_arrivals(3000);
  return s.run();
}

TEST(SimPin, LockBasedControllerReReadiesBlockedJobs) {
  const sim::SimReport r = run_lock_based_controller(0);
  EXPECT_GT(r.placement_moves.size(), 0u);
  EXPECT_GT(r.total_blockings, 0);
  EXPECT_EQ(r.controller_epochs, 9);
  EXPECT_EQ(r.placement_moves.size(), 32u);
  expect_eq(event_fingerprint(r),
            EventFingerprint{{55, 33, 22, 0, 30, 33, 437, 23870, 0, 59, 9389120,
                              0.69298550960995864},
                             1005, 6743656581098715691u});
}

TEST(SimPin, LockBasedControllerAbortHandlers) {
  const sim::SimReport r = run_lock_based_controller(usec(40));
  EXPECT_GT(r.placement_moves.size(), 0u);
  EXPECT_GT(r.total_blockings, 0);
  EXPECT_EQ(r.controller_epochs, 9);
  EXPECT_EQ(r.placement_moves.size(), 33u);
  expect_eq(event_fingerprint(r),
            EventFingerprint{{55, 30, 25, 0, 30, 52, 443, 25025, 0, 59, 8688103,
                              0.63860778151602804},
                             1082, 6743656581098715691u});
}

/// FNV-1a over every execution slice and each CPU's busy time.  Slices
/// are digested in their merged per-CPU form: contiguous stretches of
/// one job on one CPU count as one, however many events cut them.
std::uint64_t slice_digest(const sim::SimReport& r) {
  std::vector<sim::SimReport::ExecSlice> merged;
  std::vector<std::size_t> last(r.cpu_busy.size(), SIZE_MAX);
  for (const auto& s : r.slices) {
    std::size_t& k = last[static_cast<std::size_t>(s.cpu)];
    if (k != SIZE_MAX && merged[k].job == s.job && merged[k].end == s.begin) {
      merged[k].end = s.end;
      continue;
    }
    k = merged.size();
    merged.push_back(s);
  }
  std::uint64_t h = 14695981039346656037ULL;
  const auto add = [&h](std::int64_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ULL;
  };
  for (const auto& s : merged)
    for (std::int64_t v : {std::int64_t{s.job}, std::int64_t{s.task},
                           std::int64_t{s.cpu}, s.begin, s.end})
      add(v);
  for (Time busy : r.cpu_busy) add(busy);
  return h;
}

/// Two CPUs, lock-based sharing and abort handlers that hold the CPU
/// after an expiry (kHandlerEnd milestones), with execution slices on.
TEST(SimPin, AbortHandlersTwoCpusSlices) {
  workload::WorkloadSpec spec;
  spec.task_count = 6;
  spec.object_count = 3;
  spec.accesses_per_job = 2;
  spec.avg_exec = usec(300);
  spec.load = 2.5;
  spec.tuf_class = workload::TufClass::kHeterogeneous;
  spec.seed = 31;
  TaskSet ts = workload::make_task_set(spec);
  for (auto& t : ts.tasks) {
    t.abort_handler_time = usec(40);
    t.exec_variation = 0.2;
  }

  sim::SimConfig cfg;
  cfg.mode = sim::ShareMode::kLockBased;
  cfg.lock_access_time = usec(30);
  cfg.sched_ns_per_op = 5.0;
  cfg.horizon = max_window(ts) * 30;
  cfg.cpu_count = 2;
  cfg.record_slices = true;
  const sched::RuaScheduler rua(sched::Sharing::kLockBased);
  sim::Simulator s(ts, rua, cfg);
  s.seed_arrivals(61);
  const sim::SimReport r = s.run();
  expect_eq(event_fingerprint(r),
            EventFingerprint{{154, 131, 23, 0, 18, 74, 893, 26766, 0, 159,
                              54125411, 0.66928368991515719},
                             1887, 16912565295044649046u});
  EXPECT_FALSE(r.slices.empty());
  EXPECT_EQ(slice_digest(r), 12872688895543679454u);
}

}  // namespace
}  // namespace lfrt
