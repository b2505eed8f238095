// Executor-side access-time calibration.
//
// Cross-validation (bench/ext_executor_validation) feeds the simulator
// per-access costs so it predicts what the executor will measure.
// calibrate() runs the fig08 access-time microbenchmarks
// (rt::measure_lockfree_access / rt::measure_lockbased_access) on the
// current host and returns the measured means as the paper's s and r —
// so the simulator side of a cross-validation run is parameterized by
// the same machine that produces the executor side (the paper's
// Section 5 measurement, feeding its Section 6 simulation).
//
// It also measures one AccessCost cell per (ObjectKind, ObjectImpl)
// combo by hammering the real runtime::SharedObject for that spec: a
// single-threaded pass gives the cell's base cost, a multi-threaded
// pass (capped at the host's core count) gives the contended cost, and
// the per-contender slope is the clamped difference per extra thread —
// the measured counterpart of the mechanism shapes the zoo's cost
// models predict (ticket linear, Anderson flatter, MCS near-flat).
// Snapshot cells also get a per-segment scan term from the
// read-vs-write gap.  A harness hands the table to
// sim::SimConfig::cost_model.
//
// Measurements are stable per host, so they are cached persistently:
// calibrate() consults a small JSON file keyed by hostname + CPU count
// + sample budget and skips the microbenchmarks on a hit.  The cache
// lives at $LFRT_CALIBRATION_CACHE if set, else
// $HOME/.cache/lfrt_calibration.json.  When neither variable names a
// location, there is no cache: calibrate() measures every time, warns
// once per process, and never drops files into the working directory.
// The file carries a schema version (kCalibrationCacheSchema); a cache
// written by an older build — including the pre-zoo flat-scalar format,
// which had no version field — fails the schema check and is treated
// exactly like a missing cache, and an entry without the full cell
// table is dropped when the file is read: calibrate() silently
// re-measures and overwrites it in the current format.  Pass
// CalibrateOptions{.force = true} (the benches' --recalibrate) to
// re-measure and overwrite the entry; cache I/O failures fall back to
// measuring with a once-per-process warning — calibration never fails
// because the cache is missing or unwritable.
#pragma once

#include <string>

#include "rt/access_time.hpp"
#include "runtime/cost_model.hpp"
#include "support/time.hpp"
#include "task/task.hpp"

namespace lfrt::runtime {

/// Version of the on-disk calibration-cache format.  Bump when the
/// entry shape changes; old files then read as empty and recalibrate.
inline constexpr std::int64_t kCalibrationCacheSchema = 2;

/// Measured per-access costs, in the simulator's vocabulary.
struct AccessCalibration {
  Time lockfree_access_time = 0;  ///< s — mean lock-free access (ns)
  Time lock_access_time = 0;      ///< r — mean lock-based access (ns)
  std::int64_t samples = 0;       ///< samples behind each mean
  bool from_cache = false;        ///< true when served from the cache

  /// Per-(kind, impl) cell measurements.
  CostModel model;
};

/// Cache behaviour for calibrate().
struct CalibrateOptions {
  bool use_cache = true;   ///< consult/update the persistent cache
  bool force = false;      ///< re-measure even on a hit (--recalibrate)
  std::string cache_path;  ///< override the file; empty = default chain
};

/// The cache file calibrate() would use for an empty
/// CalibrateOptions::cache_path — $LFRT_CALIBRATION_CACHE if set, else
/// $HOME/.cache/lfrt_calibration.json.  Empty when neither variable is
/// set: calibrate() then runs uncached (and says so, once).
std::string calibration_cache_path();

/// Run both fig08 microbenchmarks and return the measured means,
/// clamped to >= 1 ns (the simulator requires positive access times).
/// Flat scalars only; the per-cell table comes from measure_cost_model.
AccessCalibration calibrate_access_times(const rt::AccessTimeConfig& mcfg);

/// Measure one AccessCost cell per (kind, impl) combo on this host (see
/// the header comment for the method).  `ops` is the access count per
/// measurement pass; a few hundred suffices for cross-validation-grade
/// numbers.
CostModel measure_cost_model(std::int64_t ops);

/// Measure s, r and the cell table with a config shaped like `ts`'s
/// universe (object/task counts).  `samples` trades precision for
/// startup time (the fig08 bench uses 2000; a few hundred suffices to
/// get the order of magnitude right for cross-validation).  With the
/// default options a prior measurement for this host/CPU-count/sample
/// budget is reused from the persistent cache; a fresh measurement is
/// written back (best-effort).
AccessCalibration calibrate(const TaskSet& ts, std::int64_t samples = 500,
                            const CalibrateOptions& opts = {});

}  // namespace lfrt::runtime
