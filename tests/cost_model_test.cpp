// runtime::CostModel and its host calibration.
//
// Three contracts:
//
//   * arithmetic — access_cost folds base / per-contender / retry /
//     snapshot-scan terms exactly as documented, and never returns a
//     zero-length access,
//   * flat identity — a CostModel::flat(s, r) table fed to the
//     simulator reproduces the runs it makes with no table (priced by
//     the s and r scalars) bit-exactly, pinned by comparing serialized
//     reports, across flat and nested accesses, one CPU and a
//     partitioned pair with per-cluster objects,
//   * calibration — calibrate() returns a measured cell for every
//     (kind, impl) combo (base >= 1, per-contender >= 0, no retry
//     penalty, a scan term on snapshot cells only), sizes its contended
//     pass from the affinity mask (one usable CPU: every slope is 0),
//     and measures on every call without reading or writing any file.
#include <gtest/gtest.h>

#include <sched.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/calibrate.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/report_json.hpp"
#include "sched/rua.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace lfrt {
namespace {

using runtime::AccessCost;
using runtime::CostModel;
using runtime::ObjectImpl;
using runtime::ObjectKind;

TEST(AccessCostArithmetic, FoldsEveryTerm) {
  AccessCost c;
  c.base = 100;
  c.per_contender = 7;
  c.per_segment = 11;
  c.retry_penalty = 30;

  // Queue write: base + slope * contenders + retry term, no scan term.
  EXPECT_EQ(runtime::access_cost(c, ObjectKind::kQueue, true, 0), 100);
  EXPECT_EQ(runtime::access_cost(c, ObjectKind::kQueue, true, 3), 121);
  EXPECT_EQ(runtime::access_cost(c, ObjectKind::kQueue, true, 3, 2), 181);
  // Only snapshot *reads* collect segments.
  EXPECT_EQ(runtime::access_cost(c, ObjectKind::kSnapshot, true, 0), 100);
  EXPECT_EQ(
      runtime::access_cost(c, ObjectKind::kSnapshot, false, 0),
      100 + 11 * static_cast<Time>(runtime::kSnapshotSegments));
  EXPECT_EQ(runtime::access_cost(c, ObjectKind::kQueue, false, 0), 100);
}

TEST(AccessCostArithmetic, NeverShorterThanOneTick) {
  EXPECT_EQ(runtime::access_cost(AccessCost{}, ObjectKind::kQueue, true, 0),
            1);
  EXPECT_EQ(
      runtime::access_cost(AccessCost{}, ObjectKind::kSnapshot, false, 5),
      1);
}

TEST(AccessCostArithmetic, MonotoneInContenders) {
  AccessCost c;
  c.base = 50;
  c.per_contender = 5;
  Time prev = 0;
  for (std::int64_t n = 0; n <= 8; ++n) {
    const Time t = runtime::access_cost(c, ObjectKind::kQueue, true, n);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CostModelTable, FlatFillsEveryCell) {
  const CostModel m = CostModel::flat(7, 13);
  for (const ObjectKind kind : runtime::all_object_kinds()) {
    for (const ObjectImpl impl : runtime::all_object_impls()) {
      const AccessCost& c = m.at(kind, impl);
      EXPECT_EQ(c.base, impl == ObjectImpl::kLockFree ? 7 : 13);
      EXPECT_EQ(c.per_contender, 0);
      EXPECT_EQ(c.per_segment, 0);
      EXPECT_EQ(c.retry_penalty, 0);
    }
  }
  EXPECT_EQ(CostModel{}, CostModel::flat(0, 0));
}

// ---- flat identity against the simulator ---------------------------

sim::SimReport run_once(sim::ShareMode mode, bool with_flat_model) {
  workload::WorkloadSpec spec;
  spec.task_count = 5;
  spec.object_count = 2;
  spec.accesses_per_job = 3;
  spec.avg_exec = usec(300);
  spec.load = 0.9;
  spec.read_fraction = 0.5;
  spec.tuf_class = workload::TufClass::kStep;
  spec.seed = 33;
  const TaskSet ts = workload::make_task_set(spec);

  sim::SimConfig cfg;
  cfg.mode = mode;
  Time max_window = 0;
  for (const auto& t : ts.tasks)
    max_window = std::max(max_window, t.arrival.window);
  cfg.horizon = max_window * 20;
  if (with_flat_model)
    cfg.cost_model =
        CostModel::flat(cfg.lockfree_access_time, cfg.lock_access_time);

  static const sched::RuaScheduler lb(sched::Sharing::kLockBased);
  static const sched::RuaScheduler lf(sched::Sharing::kLockFree);
  sim::Simulator sim(ts,
                     mode == sim::ShareMode::kLockBased
                         ? static_cast<const sched::Scheduler&>(lb)
                         : static_cast<const sched::Scheduler&>(lf),
                     cfg);
  sim.seed_arrivals(42);
  return sim.run();
}

/// CostModel::flat(s, r) must be indistinguishable from no table: same jobs, same retries/blockings, same completions — pinned
/// by comparing the serialized reports byte for byte.
TEST(CostModelFlatIdentity, LockFreeRunsBitIdentical) {
  const sim::SimReport off = run_once(sim::ShareMode::kLockFree, false);
  const sim::SimReport on = run_once(sim::ShareMode::kLockFree, true);
  EXPECT_GT(off.counted_jobs, 0);
  EXPECT_EQ(runtime::to_json(off), runtime::to_json(on));
}

TEST(CostModelFlatIdentity, LockBasedRunsBitIdentical) {
  const sim::SimReport off = run_once(sim::ShareMode::kLockBased, false);
  const sim::SimReport on = run_once(sim::ShareMode::kLockBased, true);
  EXPECT_GT(off.counted_jobs, 0);
  EXPECT_EQ(runtime::to_json(off), runtime::to_json(on));
}

/// Runs `cfg` once with no table and once with CostModel::flat of its
/// own scalars, expects byte-identical serialized reports, and returns
/// the first run.
sim::SimReport expect_flat_identity(const TaskSet& ts, const sim::SimConfig& cfg,
                                    const sched::Scheduler& scheduler) {
  const auto run = [&](bool with_flat_model) {
    sim::SimConfig c = cfg;
    if (with_flat_model)
      c.cost_model =
          CostModel::flat(c.lockfree_access_time, c.lock_access_time);
    sim::Simulator sim(ts, scheduler, c);
    sim.seed_arrivals(42);
    return sim.run();
  };
  const sim::SimReport off = run(false);
  const sim::SimReport on = run(true);
  EXPECT_GT(off.counted_jobs, 0);
  EXPECT_EQ(runtime::to_json(off), runtime::to_json(on));
  return off;
}

Time horizon_of(const TaskSet& ts, Time windows) {
  Time max_window = 0;
  for (const auto& t : ts.tasks)
    max_window = std::max(max_window, t.arrival.window);
  return max_window * windows;
}

TEST(CostModelFlatIdentity, NestedSpansWithDeadlockDetectionBitIdentical) {
  workload::WorkloadSpec spec;
  spec.task_count = 4;
  spec.object_count = 2;
  spec.avg_exec = usec(300);
  spec.load = 0.9;
  spec.nest_depth = 2;
  spec.seed = 23;
  const TaskSet ts = workload::make_task_set(spec);

  sim::SimConfig cfg;
  cfg.mode = sim::ShareMode::kLockBased;
  cfg.lock_access_time = usec(20);
  cfg.horizon = horizon_of(ts, 30);
  const sched::RuaScheduler rua(sched::Sharing::kLockBased,
                                /*detect_deadlocks=*/true);
  const sim::SimReport rep = expect_flat_identity(ts, cfg, rua);
  EXPECT_GT(rep.total_blockings, 0);
  EXPECT_GT(rep.deadlocks_resolved, 0);
}

TEST(CostModelFlatIdentity, PartitionedScopedObjectsOnTwoCpusBitIdentical) {
  workload::WorkloadSpec spec;
  spec.task_count = 6;
  spec.object_count = 2;
  spec.accesses_per_job = 3;
  spec.avg_exec = usec(300);
  spec.load = 1.4;
  spec.read_fraction = 0.2;
  spec.seed = 33;
  const TaskSet ts = workload::make_task_set(spec);

  sim::SimConfig cfg;
  cfg.mode = sim::ShareMode::kLockBased;
  cfg.lockfree_access_time = usec(60);
  cfg.lock_access_time = usec(50);
  cfg.objects = {{ObjectKind::kQueue, ObjectImpl::kLockFree},
                 {ObjectKind::kStack, ObjectImpl::kMcs}};
  cfg.cpu_count = 2;
  cfg.dispatch.placement.policy = sched::PlacementPolicy::kPartitioned;
  cfg.dispatch.placement.task_affinity = {0, 1, 0, 1, 0, 1};
  cfg.horizon = horizon_of(ts, 100);
  const sched::RuaScheduler rua(sched::Sharing::kLockBased);
  const sim::SimReport rep = expect_flat_identity(ts, cfg, rua);
  EXPECT_GT(rep.total_retries, 0);
  EXPECT_GT(rep.total_blockings, 0);
}

// ---- calibration -----------------------------------------------------

constexpr std::int64_t kSamples = 64;

TEST(Calibrate, EveryCellHasTheDocumentedShape) {
  const runtime::AccessCalibration cal = runtime::calibrate(kSamples);
  EXPECT_EQ(cal.samples, kSamples);
  for (const ObjectKind kind : runtime::all_object_kinds())
    for (const ObjectImpl impl : runtime::all_object_impls()) {
      SCOPED_TRACE(runtime::to_string(kind) + "/" + runtime::to_string(impl));
      const AccessCost& c = cal.model.at(kind, impl);
      EXPECT_GE(c.base, 1);
      EXPECT_GE(c.per_contender, 0);
      EXPECT_EQ(c.retry_penalty, 0);
      if (kind == ObjectKind::kSnapshot)
        EXPECT_GE(c.per_segment, 0);
      else
        EXPECT_EQ(c.per_segment, 0);
    }
}

TEST(Calibrate, OneUsableCpuMeasuresNoContention) {
  // Spinning contenders on one CPU measure the OS scheduler, not the
  // lock: with a one-CPU affinity mask the contended pass must not run,
  // whatever the host's CPU count.  The calibration threads inherit the
  // calling thread's mask.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const runtime::AccessCalibration cal = runtime::calibrate(kSamples);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);

  for (const ObjectKind kind : runtime::all_object_kinds())
    for (const ObjectImpl impl : runtime::all_object_impls())
      EXPECT_EQ(cal.model.at(kind, impl).per_contender, 0)
          << runtime::to_string(kind) << "/" << runtime::to_string(impl);
}

TEST(Calibrate, WritesNoFiles) {
  // Calibration keeps nothing between runs.  Point HOME, and every
  // lfrt variable the caller's environment sets, into an empty scratch
  // directory: after calibrating it must still be empty.
  std::string dir_template =
      (std::filesystem::temp_directory_path() / "lfrt_calXXXXXX").string();
  ASSERT_NE(mkdtemp(dir_template.data()), nullptr);
  const std::filesystem::path dir = dir_template;

  std::vector<std::pair<std::string, std::optional<std::string>>> saved;
  const auto redirect = [&](const std::string& name, const std::string& to) {
    const char* old = std::getenv(name.c_str());
    saved.emplace_back(name, old != nullptr ? std::optional<std::string>(old)
                                            : std::nullopt);
    setenv(name.c_str(), to.c_str(), 1);
  };
  redirect("HOME", dir.string());
  std::vector<std::string> lfrt_vars;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "LFRT_", 5) == 0)
      lfrt_vars.emplace_back(*e, std::strchr(*e, '=') - *e);
  for (const std::string& name : lfrt_vars)
    redirect(name, (dir / (name + ".json")).string());

  runtime::AccessCalibration cal;
  EXPECT_NO_THROW(cal = runtime::calibrate(kSamples));
  EXPECT_NE(cal.model, CostModel{});

  for (const auto& [name, value] : saved) {
    if (value)
      setenv(name.c_str(), value->c_str(), 1);
    else
      unsetenv(name.c_str());
  }
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir))
    ADD_FAILURE() << "calibrate() wrote " << entry.path();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lfrt
