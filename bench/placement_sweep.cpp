// Multiprocessor certification sweep: every analysis::mp bound, on
// both substrates, under global, partitioned and clustered dispatch.
//
// One generated task set (queue-kind universe, the paper's shape) and
// byte-identical arrival traces per (cpus, impl) cell are swept over
//
//   cpus ∈ {1, 2, 4} × every ObjectImpl (lock-free / mutex / ticket /
//        anderson / mcs) × placement ∈ {global, partitioned, clustered}
//
// each point run once on sim::Simulator and once on rt::Executor (70
// certificates).  At cpus = 1 only global placement runs: a one-CPU
// partition is global.  Every run's contention heatmap is certified
// cell by cell by analysis::certify against the per-(object, task)
// retry/blocking bounds for its substrate and placement, plus the
// per-job backoff-ladder invariant.  Static placements: partitioned
// pins task t to CPU t % cpus; clustered pairs CPUs {0,1} / {2,3} at
// cpus = 4 (task t to cluster t % 2) and uses singleton clusters at
// cpus = 2.
//
// The placement layer (sched/placement.hpp) claims that a non-global
// placement with object scoping structurally removes cross-cluster
// conflicts, and the placement-aware bounds price exactly that
// separation: sound, and tighter than the global bounds.
//
// Assertions (exit 1 on violation):
//   * every certificate is violation-free,
//   * for each (cpus >= 2, impl, substrate), every partitioned per-cell
//     count bound and every per-task spin/retry time bound is <= its
//     global twin, with at least one cell strictly tighter per
//     (cpus, impl) (the zero-overlap refinement has teeth),
//   * lock impls never record a retry; lock-free never records a
//     blocking episode (the mechanism fork is exact),
//   * sim and executor score the same job population per configuration.
//
// AUR, the per-cell slack and the per-task spin/retry TIME bounds
// priced from the calibrated cost model are recorded in
// BENCH_placement.json with the host they were taken on.  The bench
// also prints how many certificates per substrate checked an all-zero
// heatmap (no retries, no blockings): those gate nothing.
//
// Usage: placement_sweep [--out FILE]
//   --out  JSON output (default BENCH_placement.json in the cwd)
#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/mp.hpp"
#include "common.hpp"
#include "runtime/calibrate.hpp"
#include "runtime/exec_adapter.hpp"
#include "sched/placement.hpp"

namespace {

using namespace lfrt;

enum class Pl { kGlobal, kPartitioned, kClustered };

const char* pl_name(Pl p) {
  switch (p) {
    case Pl::kGlobal: return "global";
    case Pl::kPartitioned: return "partitioned";
    case Pl::kClustered: return "clustered";
  }
  return "?";
}

/// The static placement for one grid point.  task_count entries; the
/// clustered shape pairs CPUs at cpus = 4 and degenerates to singleton
/// clusters at cpus = 2.
sched::Placement make_placement(Pl p, int cpus, std::size_t task_count) {
  sched::Placement out;
  if (p == Pl::kGlobal) return out;
  if (p == Pl::kPartitioned) {
    out.policy = sched::PlacementPolicy::kPartitioned;
    for (std::size_t t = 0; t < task_count; ++t)
      out.task_affinity.push_back(static_cast<std::int32_t>(t) % cpus);
    return out;
  }
  out.policy = sched::PlacementPolicy::kClustered;
  const int clusters = cpus >= 4 ? cpus / 2 : cpus;
  for (int c = 0; c < cpus; ++c)
    out.cpu_cluster.push_back(c / (cpus / clusters));
  for (std::size_t t = 0; t < task_count; ++t)
    out.task_affinity.push_back(static_cast<std::int32_t>(t % clusters));
  return out;
}

struct Row {
  int cpus = 1;
  std::string impl;
  Pl placement = Pl::kGlobal;
  std::string substrate;  // "sim" | "exec"
  std::int64_t jobs = 0;
  double aur = 0.0;
  std::int64_t retries = 0;
  std::int64_t blockings = 0;
  std::int64_t cells = 0;
  std::int64_t violations = 0;
  double min_slack = 1.0;
  Time worst_spin_time = 0;   // max over tasks, per job
  Time worst_retry_time = 0;  // max over tasks, per job (finite bounds)
  bool mech_ok = true;        // locks don't retry / LF doesn't block
  analysis::mp::Certificate cert;  // kept for the tightness cross-check
};

Row summarize(const runtime::RunReport& rep, const TaskSet& ts,
              const std::vector<runtime::ObjectSpec>& specs,
              const runtime::CostModel& model, int cpus,
              runtime::ObjectImpl impl, Pl pl,
              const sched::Placement& placement,
              analysis::mp::Substrate substrate) {
  analysis::mp::MpOptions opt;
  opt.cpu_count = cpus;
  opt.substrate = substrate;
  opt.placement = placement;
  Row row;
  row.cert = analysis::certify(rep, ts, specs, model, opt);
  row.cpus = cpus;
  row.impl = runtime::to_string(impl);
  row.placement = pl;
  row.substrate =
      substrate == analysis::mp::Substrate::kSimulator ? "sim" : "exec";
  row.jobs = rep.counted_jobs;
  row.aur = rep.aur();
  row.retries = rep.total_retries;
  row.blockings = rep.total_blockings;
  row.cells = row.cert.cells_checked;
  row.violations = row.cert.violations;
  row.min_slack = row.cert.min_slack;
  for (const analysis::mp::TaskTimeBounds& tb : row.cert.time_bounds) {
    row.worst_spin_time = std::max(row.worst_spin_time, tb.spin_block_time);
    if (tb.retry_time < kTimeNever)
      row.worst_retry_time = std::max(row.worst_retry_time, tb.retry_time);
  }
  // Mechanism fork: the retry/blocking split is exact, not just bounded.
  if (runtime::is_lock_based(impl) && rep.total_retries != 0)
    row.mech_ok = false;
  if (!runtime::is_lock_based(impl) && rep.total_blockings != 0)
    row.mech_ok = false;
  return row;
}

/// Gate: every partitioned per-cell count bound and every per-task
/// spin/retry time bound <= its global twin; reports via *any_strict
/// whether some cell got strictly tighter.  Cells and tasks are
/// compared positionally — both certificates cover the same objects x
/// tasks grid over the same job population (identical traces).  The
/// strict-tightness requirement is checked per (cpus, impl) across the
/// substrate pair, because the executor's lock-based blocking cells are
/// clamped by the one-blocking-per-own-acquisition cap, which dominates
/// both placements' conflict charges and leaves nothing to tighten
/// there — the refinement's teeth show in the simulator blocking cells
/// and in the lock-free retry cells.
bool no_cell_looser(const analysis::mp::Certificate& part,
                    const analysis::mp::Certificate& global,
                    const std::string& what, bool* any_strict) {
  const auto check = [&](const std::vector<analysis::mp::CellCheck>& p,
                         const std::vector<analysis::mp::CellCheck>& g) {
    if (p.size() != g.size()) {
      std::cerr << "error: " << what << ": cell grids differ in size\n";
      return false;
    }
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (p[i].unbounded || g[i].unbounded) continue;
      if (p[i].bound > g[i].bound) {
        std::cerr << "error: " << what << ": partitioned bound "
                  << p[i].bound << " exceeds global " << g[i].bound
                  << " at cell " << i << "\n";
        return false;
      }
      if (p[i].bound < g[i].bound) *any_strict = true;
    }
    return true;
  };
  if (!check(part.retries, global.retries) ||
      !check(part.blockings, global.blockings))
    return false;
  const auto& pt = part.time_bounds;
  const auto& gt = global.time_bounds;
  if (pt.size() != gt.size()) {
    std::cerr << "error: " << what << ": time-bound tasks differ in size\n";
    return false;
  }
  for (std::size_t i = 0; i < pt.size(); ++i) {
    if (pt[i].spin_block_time > gt[i].spin_block_time ||
        pt[i].retry_time > gt[i].retry_time) {
      std::cerr << "error: " << what << ": task " << pt[i].task
                << " partitioned time bounds (spin " << pt[i].spin_block_time
                << ", retry " << pt[i].retry_time << " ns) exceed global (spin "
                << gt[i].spin_block_time << ", retry " << gt[i].retry_time
                << " ns)\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lfrt;
  bench::init(argc, argv);
  std::string out_path = "BENCH_placement.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strncmp(argv[i], "--threads", 9) == 0) {
      if (std::strchr(argv[i], '=') == nullptr && i + 1 < argc) ++i;
    } else {
      std::cerr << "usage: placement_sweep [--out FILE]\n";
      return 2;
    }
  }
  const std::string host = bench::host_json();
  bench::print_header("Placement sweep",
                      "certify heatmaps against analysis::mp on both "
                      "substrates, global vs partitioned vs clustered");

  workload::WorkloadSpec base;
  base.task_count = 6;
  base.object_count = 3;
  base.accesses_per_job = 4;
  base.avg_exec = usec(400);  // us-scale jobs: access windows that overlap
  base.tuf_class = workload::TufClass::kStep;
  base.seed = 7;
  base.load = 0.8;  // contended but schedulable: events without chaos
  const TaskSet ts = workload::make_task_set(base);

  const int windows = 6;
  const std::uint64_t arrival_seed = 1000;
  Time max_window = 0;
  for (const auto& t : ts.tasks)
    max_window = std::max(max_window, t.arrival.window);
  const Time horizon = max_window * windows;

  const runtime::AccessCalibration cal = runtime::calibrate(500);
  bench::print_cost_model(cal);

  std::vector<Row> rows;
  bool ok = true;
  for (const int cpus : {1, 2, 4}) {
    // A one-CPU partition is global: cpus = 1 runs global placement only.
    const std::vector<Pl> placements =
        cpus == 1 ? std::vector<Pl>{Pl::kGlobal}
                  : std::vector<Pl>{Pl::kGlobal, Pl::kPartitioned,
                                    Pl::kClustered};
    for (const runtime::ObjectImpl impl : runtime::all_object_impls()) {
      const auto specs = runtime::uniform_objects(
          ts.object_count, runtime::ObjectKind::kQueue, impl);
      const sched::Scheduler& scheduler = bench::scheduler_for(impl);
      // One trace set per (cpus, impl): the placement axis replays it.
      const auto traces = runtime::make_arrival_traces(ts, horizon,
                                                       arrival_seed,
                                                       /*periodic=*/true);
      const std::size_t global_at = rows.size();
      for (const Pl pl : placements) {
        const sched::Placement placement =
            make_placement(pl, cpus, ts.tasks.size());

        sim::SimConfig cfg;
        // Deliberately inflated access windows (vs the ~100 ns calibrated
        // costs): the sim only records a retry/blocking when two access
        // windows overlap in simulated time, and at calibrated scale the
        // windows are so short the heatmaps stay all-zero — which would
        // certify the bounds vacuously.  The COUNT bounds are
        // duration-independent (each retry is charged to a conflicting
        // write's transition, however long the attempt took), so
        // stretching the windows stresses the certifier without
        // invalidating it.  The calibrated model still prices the
        // analytic TIME bounds.
        cfg.lockfree_access_time = usec(10);
        cfg.lock_access_time = usec(20);
        cfg.objects = specs;
        cfg.sched_ns_per_op = bench::kDefaultNsPerOp;
        cfg.cpu_count = cpus;
        cfg.horizon = horizon;
        cfg.dispatch.placement = placement;
        sim::Simulator sim(ts, scheduler, cfg);
        for (const auto& t : ts.tasks)
          sim.set_arrivals(t.id, traces[static_cast<std::size_t>(t.id)]);
        const sim::SimReport sim_rep = sim.run();

        runtime::ExecConfig ec;
        ec.horizon = horizon;
        ec.objects = specs;
        ec.cpu_count = cpus;
        ec.arrival_seed = arrival_seed;
        ec.periodic_arrivals = true;
        ec.dispatch.placement = placement;
        const rt::ExecutorReport exec_rep =
            runtime::run_on_executor(ts, scheduler, ec);

        rows.push_back(summarize(sim_rep, ts, specs, cal.model, cpus, impl,
                                 pl, placement,
                                 analysis::mp::Substrate::kSimulator));
        rows.push_back(summarize(exec_rep, ts, specs, cal.model, cpus, impl,
                                 pl, placement,
                                 analysis::mp::Substrate::kExecutor));
        if (sim_rep.counted_jobs != exec_rep.counted_jobs) {
          std::cerr << "error: cpus=" << cpus << " "
                    << runtime::to_string(impl) << "/" << pl_name(pl)
                    << ": job populations differ (sim "
                    << sim_rep.counted_jobs << ", exec "
                    << exec_rep.counted_jobs << ")\n";
          ok = false;
        }
      }
      if (cpus == 1) continue;  // no partitioned twin to compare
      // Rows from global_at: global sim, global exec, partitioned sim,
      // partitioned exec, clustered sim, clustered exec.
      const std::string what = "cpus=" + std::to_string(cpus) + " " +
                               runtime::to_string(impl);
      bool any_strict = false;
      for (const std::size_t sub : {0, 1}) {
        ok = no_cell_looser(rows[global_at + 2 + sub].cert,
                            rows[global_at + sub].cert,
                            what + "/" + rows[global_at + sub].substrate,
                            &any_strict) &&
             ok;
      }
      if (!any_strict) {
        std::cerr << "error: " << what
                  << ": no cell strictly tighter under partitioning\n";
        ok = false;
      }
    }
  }

  Table table({"cpus", "impl", "placement", "sub", "jobs", "AUR", "retries",
               "blockings", "cells", "viol", "min slack", "spin ns",
               "retry ns"});
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.cpus), r.impl, pl_name(r.placement),
                   r.substrate, std::to_string(r.jobs), Table::num(r.aur, 4),
                   std::to_string(r.retries), std::to_string(r.blockings),
                   std::to_string(r.cells), std::to_string(r.violations),
                   Table::num(r.min_slack, 3),
                   std::to_string(r.worst_spin_time),
                   std::to_string(r.worst_retry_time)});
  }
  table.print();

  std::int64_t total_violations = 0;
  int sim_empty = 0, exec_empty = 0;
  for (const Row& r : rows) {
    total_violations += r.violations;
    if (r.retries == 0 && r.blockings == 0)
      ++(r.substrate == "sim" ? sim_empty : exec_empty);
    if (r.violations != 0) {
      std::cerr << "error: cpus=" << r.cpus << " " << r.impl << "/"
                << pl_name(r.placement) << "/" << r.substrate << ": "
                << r.violations
                << " heatmap cell(s) exceed the analytical bound\n";
      ok = false;
    }
    if (!r.mech_ok) {
      std::cerr << "error: cpus=" << r.cpus << " " << r.impl << "/"
                << pl_name(r.placement) << "/" << r.substrate
                << ": mechanism fork violated (lock retries or lock-free "
                   "blockings)\n";
      ok = false;
    }
  }
  // Reported, not gated: an all-zero heatmap certifies trivially.
  // Rows alternate sim, exec: each substrate has half of them.
  std::cout << "all-zero heatmaps (certificate checked nothing): sim "
            << sim_empty << " of " << rows.size() / 2 << ", exec "
            << exec_empty << " of " << rows.size() / 2 << "\n";

  std::ofstream os(out_path);
  os << "{\n  \"bench\": \"placement_sweep\",\n  \"host\": "
     << host << ",\n  \"objects\": \"queue\",\n"
     << "  \"load\": " << base.load
     << ",\n  \"cost_model\": " << bench::cost_model_json(cal)
     << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"cpus\": " << r.cpus << ", \"impl\": \"" << r.impl
       << "\", \"placement\": \"" << pl_name(r.placement)
       << "\", \"substrate\": \"" << r.substrate
       << "\", \"jobs\": " << r.jobs << ", \"aur\": " << r.aur
       << ", \"retries\": " << r.retries
       << ", \"blockings\": " << r.blockings
       << ", \"cells_checked\": " << r.cells
       << ", \"violations\": " << r.violations
       << ", \"min_slack\": " << r.min_slack
       << ", \"worst_spin_time_ns\": " << r.worst_spin_time
       << ", \"worst_retry_time_ns\": " << r.worst_retry_time << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  if (!os) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";

  if (ok)
    std::cout << "placement_sweep: all checks ok (" << rows.size()
              << " certificates, " << total_violations << " violations)\n";
  else
    std::cout << "placement_sweep: CHECKS FAILED (" << total_violations
              << " bound violations)\n";
  return ok ? 0 : 1;
}
