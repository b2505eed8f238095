// runtime::CostModel and its calibration cache.
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
//   * cache schema — the persistent calibration cache is gated on
//     kCalibrationCacheSchema: a malformed file, a pre-zoo flat-format
//     file (no "schema" key), a schema-2 file with flat s/r next to
//     its cells, or a current-schema entry without the full cell table
//     all read as a miss, so calibrate() silently re-measures and
//     overwrites in the current format.  An entry written by another
//     build flavour (sanitized vs optimized) is a miss too.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

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

// ---- calibration cache schema --------------------------------------

constexpr const char* kCachePath = "cost_model_test_cache.json";
constexpr std::int64_t kSamples = 64;

void write_file(const std::string& content) {
  std::ofstream f(kCachePath, std::ios::trunc);
  f << content;
}

std::string read_file() {
  std::ifstream in(kCachePath);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

runtime::AccessCalibration calibrate_here() {
  runtime::CalibrateOptions opts;
  opts.cache_path = kCachePath;
  return runtime::calibrate(kSamples, opts);
}

TEST(CalibrationCache, MalformedFileRecalibratesAndRewrites) {
  write_file("this is not json {{{");
  const runtime::AccessCalibration cal = calibrate_here();
  EXPECT_FALSE(cal.from_cache);
  EXPECT_NE(cal.model, CostModel{});
  EXPECT_EQ(cal.samples, kSamples);

  const std::string rewritten = read_file();
  EXPECT_NE(rewritten.find("\"schema\":3"), std::string::npos);
  EXPECT_NE(rewritten.find("\"cells\":"), std::string::npos);
  std::remove(kCachePath);
}

TEST(CalibrationCache, PreZooFlatSchemaReadsAsMiss) {
  // The pre-zoo format: no "schema" key, flat scalars only.  Must be
  // treated exactly like a missing cache, then overwritten in v3.
  write_file(R"({"entries":[{"host":"anyhost","cpus":1,"samples":64,)"
             R"("lockfree_ns":123,"lock_ns":456}]})");
  const runtime::AccessCalibration cal = calibrate_here();
  EXPECT_FALSE(cal.from_cache);
  EXPECT_NE(cal.model, CostModel{});

  // The rewrite is schema-current, so the very next calibrate hits.
  const runtime::AccessCalibration cal2 = calibrate_here();
  EXPECT_TRUE(cal2.from_cache);
  EXPECT_EQ(cal2.model, cal.model);

  // A schema-2 file: flat s/r and a full cell table, no build flavour.
  // The version gate makes it a miss, and it is rewritten as v3
  // without the scalars.
  std::string v2 = read_file();
  const std::string v3_tag = "\"schema\":3";
  const std::size_t tag = v2.find(v3_tag);
  ASSERT_NE(tag, std::string::npos);
  v2.replace(tag, v3_tag.size(), "\"schema\":2");
  const std::size_t flavour = v2.find(",\"flavour\":");
  const std::size_t cells = v2.find(",\"cells\":[");
  ASSERT_NE(flavour, std::string::npos);
  ASSERT_NE(cells, std::string::npos);
  v2.replace(flavour, cells - flavour,
             ",\"lockfree_ns\":123,\"lock_ns\":456");
  write_file(v2);
  const runtime::AccessCalibration cal3 = calibrate_here();
  EXPECT_FALSE(cal3.from_cache);
  const std::string rewritten = read_file();
  EXPECT_NE(rewritten.find(v3_tag), std::string::npos);
  EXPECT_EQ(rewritten.find("lockfree_ns"), std::string::npos);
  EXPECT_EQ(rewritten.find("lock_ns"), std::string::npos);
  EXPECT_TRUE(calibrate_here().from_cache);
  std::remove(kCachePath);
}

TEST(CalibrationCache, OtherBuildFlavourIsAMiss) {
  // Sanitizer instrumentation changes every cell: an entry a sanitized
  // build wrote must not price an optimized run (and back).  Relabel
  // this build's entry as another flavour; the next calibration must
  // re-measure and keep both entries side by side.
  std::remove(kCachePath);
  ASSERT_FALSE(calibrate_here().from_cache);
  std::string content = read_file();
  const std::string key = "\"flavour\":\"";
  const std::size_t at = content.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t value = at + key.size();
  content.replace(value, content.find('"', value) - value, "other-build");
  write_file(content);

  EXPECT_FALSE(calibrate_here().from_cache);
  const std::string rewritten = read_file();
  EXPECT_NE(rewritten.find(key), rewritten.rfind(key));  // two entries
  EXPECT_NE(rewritten.find("\"flavour\":\"other-build\""),
            std::string::npos);
  EXPECT_TRUE(calibrate_here().from_cache);
  std::remove(kCachePath);
}

TEST(CalibrationCache, SchemaCurrentEntryWithoutCellsIsAMiss) {
  // Seed a valid v3 cache, then strip the cell table: a hit requires
  // the *full* per-(kind, impl) model.
  const runtime::AccessCalibration seeded = calibrate_here();
  ASSERT_FALSE(seeded.from_cache);

  std::string content = read_file();
  const std::size_t cells = content.find(",\"cells\":[");
  ASSERT_NE(cells, std::string::npos);
  const std::size_t end = content.find(']', cells);
  ASSERT_NE(end, std::string::npos);
  content.erase(cells, end - cells + 1);
  write_file(content);

  const runtime::AccessCalibration cal = calibrate_here();
  EXPECT_FALSE(cal.from_cache);
  EXPECT_NE(cal.model, CostModel{});
  std::remove(kCachePath);
}

TEST(CalibrationCache, NoCacheLocationCalibratesUncachedWithoutFiles) {
  // With both $LFRT_CALIBRATION_CACHE and $HOME unset there is nowhere
  // sensible to persist measurements.  calibrate() must degrade to an
  // uncached measurement — no throw, no ./.lfrt_calibration.json
  // dropped into the working directory (the old fallback).
  const char* old_cache = std::getenv("LFRT_CALIBRATION_CACHE");
  const char* old_home = std::getenv("HOME");
  const std::string saved_cache = old_cache ? old_cache : "";
  const std::string saved_home = old_home ? old_home : "";
  unsetenv("LFRT_CALIBRATION_CACHE");
  unsetenv("HOME");
  std::remove(".lfrt_calibration.json");

  EXPECT_TRUE(runtime::calibration_cache_path().empty());
  runtime::AccessCalibration cal;
  EXPECT_NO_THROW(cal = runtime::calibrate(kSamples));
  EXPECT_FALSE(cal.from_cache);
  EXPECT_NE(cal.model, CostModel{});

  // Still uncached on the second call (nothing was persisted), and the
  // cwd stays clean.
  const runtime::AccessCalibration cal2 = runtime::calibrate(kSamples);
  EXPECT_FALSE(cal2.from_cache);
  EXPECT_FALSE(std::ifstream(".lfrt_calibration.json").good());

  if (old_cache) setenv("LFRT_CALIBRATION_CACHE", saved_cache.c_str(), 1);
  if (old_home) setenv("HOME", saved_home.c_str(), 1);
}

TEST(CalibrationCache, UnwritableCachePathStillCalibrates) {
  // A cache directory that cannot be created/written must not fail the
  // calibration — measure, warn once, move on.
  runtime::CalibrateOptions opts;
  opts.cache_path = "/proc/definitely/not/writable/cache.json";
  runtime::AccessCalibration cal;
  EXPECT_NO_THROW(cal = runtime::calibrate(kSamples, opts));
  EXPECT_FALSE(cal.from_cache);
  EXPECT_NE(cal.model, CostModel{});
}

TEST(CalibrationCache, SecondCalibrationHits) {
  std::remove(kCachePath);
  const runtime::AccessCalibration measured = calibrate_here();
  EXPECT_FALSE(measured.from_cache);

  const runtime::AccessCalibration cached = calibrate_here();
  EXPECT_TRUE(cached.from_cache);
  EXPECT_EQ(cached.model, measured.model);
  for (const ObjectKind kind : runtime::all_object_kinds())
    for (const ObjectImpl impl : runtime::all_object_impls())
      EXPECT_GE(cached.model.at(kind, impl).base, 1);
  std::remove(kCachePath);
}

}  // namespace
}  // namespace lfrt
