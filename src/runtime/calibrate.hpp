// Host calibration of the simulator's per-(kind, impl) cost model.
//
// Cross-validation (bench/ext_executor_validation) and the benches that
// price analytic bounds or simulated runs from this host
// (heatmap_contention, placement_sweep, thm3_sojourn) need to know what
// one access of each shared-object flavour costs here.  calibrate()
// measures one AccessCost cell per (ObjectKind, ObjectImpl) combo by
// hammering the real runtime::SharedObject for that spec: a
// single-threaded pass gives the cell's base cost, a multi-threaded
// pass (capped at the host's core count) gives the contended cost, and
// the per-contender slope is the clamped difference per extra thread —
// the measured counterpart of the mechanism shapes the zoo's cost
// models predict (ticket linear, Anderson flatter, MCS near-flat).
// Snapshot cells also get a per-segment scan term from the
// read-vs-write gap.  A harness hands the table to
// sim::SimConfig::cost_model.  The paper's flat s and r (Figure 8) are
// reproduced separately by bench/fig08_access_time.
//
// Measurements are stable per host and build, so they are cached
// persistently: calibrate() consults a small JSON file keyed by
// hostname + CPU count + sample budget + build flavour (sanitized,
// optimized or not — instrumentation changes every cell) and skips the
// measurement on a hit.  The cache lives at $LFRT_CALIBRATION_CACHE if
// set, else $HOME/.cache/lfrt_calibration.json.  When neither variable
// names a location, there is no cache: calibrate() measures every time,
// warns once per process, and never drops files into the working
// directory.  The file carries a schema version
// (kCalibrationCacheSchema); a cache written by an older build —
// including the pre-zoo flat-scalar format, which had no version field
// — fails the schema check and is treated exactly like a missing cache,
// and an entry without the full cell table is dropped when the file is
// read: calibrate() silently re-measures and overwrites it in the
// current format.  Pass CalibrateOptions{.force = true} (the benches'
// --recalibrate) to re-measure and overwrite the entry; cache I/O
// failures fall back to measuring with a once-per-process warning —
// calibration never fails because the cache is missing or unwritable.
#pragma once

#include <cstdint>
#include <string>

#include "runtime/cost_model.hpp"

namespace lfrt::runtime {

/// Version of the on-disk calibration-cache format.  Bump when the
/// entry shape changes; old files then read as empty and recalibrate.
inline constexpr std::int64_t kCalibrationCacheSchema = 3;

/// The measured per-(kind, impl) cost model and where it came from.
struct AccessCalibration {
  CostModel model;
  std::int64_t samples = 0;  ///< accesses per measurement pass
  bool from_cache = false;   ///< true when served from the cache
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

/// Measure the cell table on this host.  `samples` is the access count
/// per measurement pass and trades precision for startup time (a few
/// hundred suffices for cross-validation-grade numbers).  With the
/// default options a prior measurement for this host, CPU count, sample
/// budget and build flavour is reused from the persistent cache; a
/// fresh measurement is written back (best-effort).
AccessCalibration calibrate(std::int64_t samples = 500,
                            const CalibrateOptions& opts = {});

}  // namespace lfrt::runtime
