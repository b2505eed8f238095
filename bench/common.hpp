// Shared helpers for the figure-regeneration benches.
//
// Every bench prints: the experiment id, all parameters (including
// seeds, so rows are exactly regenerable), a human-readable table, and a
// trailing CSV block for plotting.
//
// Parallel regeneration: every (sweep-point × repeat) cell is an
// independent, seed-determined simulation, so the helpers below fan the
// cells out over exp::ThreadPool and reduce the results on the calling
// thread in deterministic cell order.  Stdout is therefore byte-
// identical for --threads=1 and --threads=N (see tests/
// determinism_test.cpp); only wall-clock changes.  Call bench::init at
// the top of main to honour --threads=N / LFRT_THREADS (default: every
// CPU in the affinity mask).
//
// Default access-time parameters (overridable per bench via argv):
//   s = 500 ns   (lock-free queue op, cf. measured values in fig08)
//   r = 50 us    (lock-based op incl. the RUA resource-management
//                 invocation each lock/unlock request triggers; the
//                 paper's meta-scheduler r is of the same order relative
//                 to its 30-1000 us job execution times)
//   sched_ns_per_op = 5  (scheduler overhead charge per counted op)
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep.hpp"
#include "exp/thread_pool.hpp"
#include "runtime/calibrate.hpp"
#include "sched/edf.hpp"
#include "sched/rua.hpp"
#include "sim/simulator.hpp"
#include "support/cpus.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "workload/workload.hpp"

namespace lfrt::bench {

inline constexpr Time kDefaultS = nsec(500);
inline constexpr Time kDefaultR = usec(50);
inline constexpr double kDefaultNsPerOp = 5.0;

// ---- thread-pool plumbing -------------------------------------------

namespace detail {
inline std::unique_ptr<exp::ThreadPool>& pool_slot() {
  static std::unique_ptr<exp::ThreadPool> slot;
  return slot;
}
}  // namespace detail

/// Configure the bench's pool from --threads=N / LFRT_THREADS.  Call
/// once at the top of main, before the first sweep.  The banner goes to
/// stderr so stdout stays byte-identical across thread counts.
inline void init(int argc, const char* const* argv) {
  const int threads = exp::threads_from_args(argc, argv);
  detail::pool_slot() = std::make_unique<exp::ThreadPool>(threads);
  if (threads > 1) std::cerr << "[bench] threads=" << threads << "\n";
}

/// The process-wide bench pool (default-sized if init was never called).
inline exp::ThreadPool& pool() {
  if (!detail::pool_slot())
    detail::pool_slot() =
        std::make_unique<exp::ThreadPool>(exp::default_threads());
  return *detail::pool_slot();
}

// ---- series running --------------------------------------------------

/// Mean and 95% CI of AUR and CMR over repeated runs (the paper reports
/// every data point with a 95% confidence error bar).
struct SeriesPoint {
  double aur_mean = 0.0, aur_ci = 0.0;
  double cmr_mean = 0.0, cmr_ci = 0.0;
  double retries_per_job = 0.0;
  double blockings_per_job = 0.0;
  std::int64_t jobs = 0;
  // Sums over the series' repeats (simulator-side accounting, used by
  // the ablation benches).
  std::int64_t aborted = 0;
  std::int64_t deadlocks = 0;
  std::int64_t sched_invocations = 0;
  std::int64_t sched_ops = 0;
  Time sched_overhead = 0;
};

struct RunParams {
  sim::ShareMode mode = sim::ShareMode::kLockFree;
  Time r = kDefaultR;
  Time s = kDefaultS;
  double ns_per_op = kDefaultNsPerOp;
  Time horizon = 0;           ///< 0: auto (windows_per_run windows)
  int windows_per_run = 200;  ///< horizon = max W_i * windows_per_run
  int repeats = 5;
  std::uint64_t arrival_seed = 1000;

  /// Arrival pattern: phase-jittered periodic (exact a_i/W_i rate, so
  /// the generated load equals the configured AL) or gate-thinned
  /// random (shape-stressing, slightly below the configured AL).
  bool periodic_arrivals = true;

  /// Scheduler override (e.g. EDF, or RUA with deadlock detection).
  /// nullptr: scheduler_for(mode).  The pointee must outlive the run
  /// and its build_into must be const-thread-safe (see scheduler_for).
  const sched::Scheduler* scheduler = nullptr;
};

/// Scheduler paired with a sharing mode: RUA/lock-based for kLockBased,
/// RUA/lock-free otherwise (the "ideal" yardstick also runs lock-free
/// RUA — it differs only in zero-cost object accesses).
///
/// The returned instances are shared by every simulation cell of every
/// worker thread.  That is safe because Scheduler::build_into is const
/// and keeps all scratch in the caller-owned Workspace (each Simulator
/// owns its own) — the contract documented in sched/scheduler.hpp and
/// enforced under TSan by tests/concurrent_build_test.cpp.
inline const sched::Scheduler& scheduler_for(sim::ShareMode mode) {
  static const sched::RuaScheduler lb(sched::Sharing::kLockBased);
  static const sched::RuaScheduler lf(sched::Sharing::kLockFree);
  return mode == sim::ShareMode::kLockBased
             ? static_cast<const sched::Scheduler&>(lb)
             : static_cast<const sched::Scheduler&>(lf);
}

/// The RUA flavour for an object universe of one impl: lock-based RUA
/// for every lock in the zoo, lock-free RUA for kLockFree.
inline const sched::Scheduler& scheduler_for(runtime::ObjectImpl impl) {
  return scheduler_for(runtime::is_lock_based(impl)
                           ? sim::ShareMode::kLockBased
                           : sim::ShareMode::kLockFree);
}

/// Build the simulator for one (series, repeat) cell exactly as the
/// serial harness always has: per-cell seed = arrival_seed + repeat,
/// per-task RNGs mixed from it.
inline sim::Simulator make_cell_sim(const TaskSet& ts, const RunParams& rp,
                                    int rep) {
  Time max_window = 0;
  for (const auto& t : ts.tasks)
    max_window = std::max(max_window, t.arrival.window);

  sim::SimConfig cfg;
  cfg.mode = rp.mode;
  cfg.lock_access_time = rp.r;
  cfg.lockfree_access_time = rp.s;
  cfg.sched_ns_per_op = rp.ns_per_op;
  cfg.horizon =
      rp.horizon > 0 ? rp.horizon : max_window * rp.windows_per_run;
  const sched::Scheduler& sch =
      rp.scheduler != nullptr ? *rp.scheduler : scheduler_for(rp.mode);
  sim::Simulator s(ts, sch, cfg);
  const std::uint64_t seed =
      rp.arrival_seed + static_cast<std::uint64_t>(rep);
  if (rp.periodic_arrivals) {
    for (const auto& t : ts.tasks) {
      Rng rng(seed ^
              (0xA5A5A5A5ULL * static_cast<std::uint64_t>(t.id + 1)));
      s.set_arrivals(t.id,
                     arrivals::periodic_phased(t.arrival, cfg.horizon, rng));
    }
  } else {
    s.seed_arrivals(seed);
  }
  return s;
}

/// Run one cell to its full report (per-job records included).
inline sim::SimReport run_cell(const TaskSet& ts, const RunParams& rp,
                               int rep) {
  return make_cell_sim(ts, rp, rep).run();
}

/// Reduce one series' per-repeat reports, in repeat order, to the
/// aggregate point.  Pure and order-fixed: the reduction is identical
/// however the cells were computed.
inline SeriesPoint reduce_cells(const sim::SimReport* cells,
                                std::size_t count) {
  RunningStats aur, cmr;
  SeriesPoint p;
  std::int64_t retries = 0, blockings = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const sim::SimReport& rep_out = cells[i];
    aur.add(rep_out.aur());
    cmr.add(rep_out.cmr());
    retries += rep_out.total_retries;
    blockings += rep_out.total_blockings;
    p.jobs += rep_out.counted_jobs;
    p.aborted += rep_out.aborted;
    p.deadlocks += rep_out.deadlocks_resolved;
    p.sched_invocations += rep_out.sched_invocations;
    p.sched_ops += rep_out.sched_ops;
    p.sched_overhead += rep_out.sched_overhead;
  }
  p.aur_mean = aur.mean();
  p.aur_ci = aur.ci95();
  p.cmr_mean = cmr.mean();
  p.cmr_ci = cmr.ci95();
  p.retries_per_job =
      p.jobs > 0
          ? static_cast<double>(retries) / static_cast<double>(p.jobs)
          : 0.0;
  p.blockings_per_job =
      p.jobs > 0
          ? static_cast<double>(blockings) / static_cast<double>(p.jobs)
          : 0.0;
  return p;
}

/// One sweep point: a task set plus its run parameters (`repeats`
/// cells).
struct SeriesSpec {
  TaskSet ts;
  RunParams rp;
};

/// Run a batch of series with every (series × repeat) cell fanned out
/// over the pool, reduced per series in repeat order.  Results are in
/// series order and byte-identical at any pool size.
inline std::vector<SeriesPoint> run_series_batch(
    exp::ThreadPool& pool, const std::vector<SeriesSpec>& series) {
  struct Cell {
    std::size_t series = 0;
    int rep = 0;
  };
  std::vector<Cell> cells;
  for (std::size_t si = 0; si < series.size(); ++si)
    for (int rep = 0; rep < series[si].rp.repeats; ++rep)
      cells.push_back({si, rep});

  const std::vector<sim::SimReport> reports =
      exp::sweep(pool, cells, [&](const Cell& c) {
        return run_cell(series[c.series].ts, series[c.series].rp, c.rep);
      });

  std::vector<SeriesPoint> points;
  points.reserve(series.size());
  std::size_t at = 0;
  for (const SeriesSpec& s : series) {
    const auto n = static_cast<std::size_t>(s.rp.repeats);
    points.push_back(reduce_cells(reports.data() + at, n));
    at += n;
  }
  return points;
}

/// Run `repeats` simulations of the task set with fresh arrival seeds
/// and aggregate AUR/CMR statistics.  Repeats are fanned out over the
/// bench pool.
inline SeriesPoint run_series(const TaskSet& ts, const RunParams& rp) {
  return run_series_batch(pool(), {{ts, rp}}).front();
}

/// Critical time-Miss Load (Section 6.1): the largest approximate load
/// AL on a sweep grid at which the scheduler still misses (essentially)
/// no critical times.  `make_spec` maps an AL to a workload spec.
///
/// The whole grid is evaluated speculatively in parallel, then the cut
/// is applied in grid order: CML is the last point of the initial
/// consecutive passing run — the same value the serial early-break loop
/// produced.  The speculative tail also makes the "misses only grow
/// with load" assumption auditable: any later point that would have
/// passed after the first miss is logged to stderr.
template <typename MakeSpec>
double measure_cml(exp::ThreadPool& pool, MakeSpec&& make_spec,
                   const RunParams& rp, double al_step = 0.05,
                   double al_max = 1.3, double miss_tolerance = 0.001) {
  std::vector<double> grid;
  for (double al = al_step; al <= al_max + 1e-9; al += al_step)
    grid.push_back(al);

  std::vector<SeriesSpec> series;
  series.reserve(grid.size());
  for (const double al : grid)
    series.push_back({workload::make_task_set(make_spec(al)), rp});
  const std::vector<SeriesPoint> points = run_series_batch(pool, series);

  double cml = 0.0;
  std::size_t first_miss = grid.size();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (1.0 - points[i].cmr_mean <= miss_tolerance)
      cml = grid[i];
    else {
      first_miss = i;
      break;
    }
  }
  for (std::size_t i = first_miss + 1; i < grid.size(); ++i) {
    if (1.0 - points[i].cmr_mean <= miss_tolerance)
      std::cerr << "[measure_cml] audit: AL=" << grid[i]
                << " passes after the first miss at AL=" << grid[first_miss]
                << " (CMR " << points[i].cmr_mean
                << ") — the monotone-miss cut under-reports CML\n";
  }
  return cml;
}

/// Back-compat form on the bench pool.
template <typename MakeSpec>
double measure_cml(MakeSpec&& make_spec, const RunParams& rp,
                   double al_step = 0.05, double al_max = 1.3,
                   double miss_tolerance = 0.001) {
  return measure_cml(pool(), std::forward<MakeSpec>(make_spec), rp,
                     al_step, al_max, miss_tolerance);
}

#ifndef LFRT_BUILD_TYPE
#define LFRT_BUILD_TYPE "unknown"
#endif

/// The host an artifact was taken on, as a JSON object for its "host"
/// key: CPUs this process may run on, the 1-minute load average, the
/// CMake build type and the compiler (the same facts perfbench prints).
/// Call it before the bench's own threads load the host.
inline std::string host_json() {
  const int nproc = support::usable_cpus();
  double load1 = -1.0;
  if (getloadavg(&load1, 1) != 1) load1 = -1.0;
  load1 = std::round(load1 * 100.0) / 100.0;
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::ostringstream os;
  os << "{\"nproc\": " << nproc << ", \"loadavg_1m\": " << load1
     << ", \"build_type\": \"" << LFRT_BUILD_TYPE
     << "\", \"compiler\": \"" << compiler << "\"}";
  return os.str();
}

/// Print the cost model a bench priced with: every (kind, impl) cell
/// this run measured, in ns (retry_penalty is always 0 and omitted).
inline void print_cost_model(const runtime::AccessCalibration& cal) {
  std::cout << "calibrated cost model (" << cal.samples
            << " samples, measured in this run):\n";
  Table t({"kind", "impl", "base_ns", "per_contender_ns", "per_segment_ns"});
  for (const runtime::ObjectKind kind : runtime::all_object_kinds())
    for (const runtime::ObjectImpl impl : runtime::all_object_impls()) {
      const runtime::AccessCost& c = cal.model.at(kind, impl);
      t.add_row({runtime::to_string(kind), runtime::to_string(impl),
                 std::to_string(c.base), std::to_string(c.per_contender),
                 std::to_string(c.per_segment)});
    }
  t.print();
}

/// The same cells as a JSON object for an artifact's "cost_model" key.
inline std::string cost_model_json(const runtime::AccessCalibration& cal) {
  std::ostringstream os;
  os << "{\"samples\": " << cal.samples << ", \"cells\": [";
  bool first = true;
  for (const runtime::ObjectKind kind : runtime::all_object_kinds())
    for (const runtime::ObjectImpl impl : runtime::all_object_impls()) {
      const runtime::AccessCost& c = cal.model.at(kind, impl);
      os << (first ? "" : ", ") << "{\"kind\": \"" << runtime::to_string(kind)
         << "\", \"impl\": \"" << runtime::to_string(impl)
         << "\", \"base_ns\": " << c.base
         << ", \"per_contender_ns\": " << c.per_contender
         << ", \"per_segment_ns\": " << c.per_segment << "}";
      first = false;
    }
  os << "]}";
  return os.str();
}

/// Print the standard bench header.
inline void print_header(const std::string& id, const std::string& what) {
  std::cout << "=== " << id << " — " << what << " ===\n";
}

}  // namespace lfrt::bench
