// Host calibration of the simulator's per-(kind, impl) cost model.
//
// Cross-validation (bench/ext_executor_validation) and the benches that
// price analytic bounds or simulated runs from this host
// (heatmap_contention, placement_sweep, thm3_sojourn) need to know what
// one access of each shared-object flavour costs here.  calibrate()
// measures one AccessCost cell per (ObjectKind, ObjectImpl) combo by
// hammering the real runtime::SharedObject for that spec: a
// single-threaded pass gives the cell's base cost, a multi-threaded
// pass (capped at the CPUs in this process's affinity mask) gives the
// contended cost, and the per-contender slope is the clamped difference
// per extra thread — the measured counterpart of the mechanism shapes
// the zoo's cost models predict (ticket linear, Anderson flatter, MCS
// near-flat).  With one usable CPU there is no contended pass and every
// slope is 0.  Snapshot cells also get a per-segment scan term from the
// read-vs-write gap.  A harness hands the table to
// sim::SimConfig::cost_model.  The paper's flat s and r (Figure 8) are
// reproduced separately by bench/fig08_access_time.
//
// Every call measures: the whole table takes tens of milliseconds
// (median 30 ms at 500 samples in Release on a shared 4-vCPU host), so
// nothing is stored or reused, and every priced number comes from cells
// this build measured in this process.
#pragma once

#include <cstdint>

#include "runtime/cost_model.hpp"

namespace lfrt::runtime {

/// The measured per-(kind, impl) cost model.
struct AccessCalibration {
  CostModel model;
  std::int64_t samples = 0;  ///< accesses per measurement pass
};

/// Measure the cell table on this host.  `samples` is the access count
/// per measurement pass and trades precision for time (a few hundred
/// suffices for cross-validation-grade numbers).
AccessCalibration calibrate(std::int64_t samples = 500);

}  // namespace lfrt::runtime
