// Placement sweep: global vs. partitioned vs. clustered dispatch under
// identical arrival traces.
//
// The placement layer (sched/placement.hpp) claims two things: (1) a
// non-global placement with object scoping *structurally* removes
// cross-cluster conflicts — per-cluster queue/stack instances mean the
// retries/blockings of separated tasks literally cannot happen — and
// (2) the analysis::mp placement-aware bounds price exactly that
// separation, staying sound while getting strictly tighter than the
// global bounds on every shared scoped cell.  This bench gates both on
// BOTH substrates over the whole grid:
//
//   cpus ∈ {2, 4} × impl ∈ {lock-free, mutex, mcs}
//        × placement ∈ {global, partitioned, clustered}
//
// with one generated task set (queue-kind universe) and byte-identical
// arrival traces per (cpus, impl) cell, so the placement axis is the
// only thing that moves.  Static placements: partitioned pins task t to
// CPU t % cpus; clustered pairs CPUs {0,1} / {2,3} at cpus = 4 (task t
// to cluster t % 2) and uses singleton clusters at cpus = 2.
//
// Assertions (exit 1 on violation):
//   * every certificate is violation-free — the placement-aware bounds
//     hold for every measured (object, task) cell, every placement,
//     every substrate,
//   * for each (cpus, impl, substrate), the partitioned per-cell bound
//     is <= the global per-cell bound with at least one cell strictly
//     tighter (the zero-overlap refinement has teeth),
//   * lock impls never record a retry; lock-free never records a
//     blocking episode,
//   * sim and executor score the same job population per configuration.
//
// The AUR / retry / blocking fork across placements is recorded in
// BENCH_placement.json for trend tracking.
//
// Usage: placement_sweep [--tiny] [--cpus=N] [--out FILE] [--recalibrate]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
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
  bool mech_ok = true;
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
  if (runtime::is_lock_based(impl) && rep.total_retries != 0)
    row.mech_ok = false;
  if (!runtime::is_lock_based(impl) && rep.total_blockings != 0)
    row.mech_ok = false;
  return row;
}

/// Gate: every partitioned per-cell bound <= its global twin; reports
/// via *any_strict whether some cell got strictly tighter.  Cells are
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
                    const char* what, bool* any_strict) {
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
  return check(part.retries, global.retries) &&
         check(part.blockings, global.blockings);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lfrt;
  bench::init(argc, argv);
  bool tiny = false;
  bool recalibrate = false;
  int only_cpus = 0;
  std::string out_path = "BENCH_placement.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--recalibrate") == 0) {
      recalibrate = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strncmp(argv[i], "--cpus=", 7) == 0) {
      only_cpus = std::atoi(argv[i] + 7);
      if (only_cpus < 2) {
        std::cerr << "error: --cpus must be >= 2 (placement needs "
                     "clusters)\n";
        return 2;
      }
    } else if (std::strncmp(argv[i], "--threads", 9) == 0) {
      if (std::strchr(argv[i], '=') == nullptr && i + 1 < argc) ++i;
    } else {
      std::cerr << "usage: placement_sweep [--tiny] [--cpus=N] [--out FILE] "
                   "[--recalibrate]\n";
      return 2;
    }
  }
  bench::print_header("Placement sweep",
                      "global vs partitioned vs clustered dispatch, "
                      "certified on both substrates");

  workload::WorkloadSpec base;
  base.task_count = 6;
  base.object_count = 3;
  base.accesses_per_job = 4;
  base.avg_exec = usec(400);
  base.tuf_class = workload::TufClass::kStep;
  base.seed = 7;
  base.load = 0.8;
  const TaskSet ts = workload::make_task_set(base);

  const int windows = tiny ? 2 : 6;
  const std::uint64_t arrival_seed = 1000;
  Time max_window = 0;
  for (const auto& t : ts.tasks)
    max_window = std::max(max_window, t.arrival.window);
  const Time horizon = max_window * windows;

  runtime::CalibrateOptions cal_opts;
  cal_opts.force = recalibrate;
  const runtime::AccessCalibration cal =
      runtime::calibrate(ts, tiny ? 200 : 500, cal_opts);
  std::cout << "calibrated access times: s = " << cal.lockfree_access_time
            << " ns, r = " << cal.lock_access_time << " ns ("
            << cal.samples << " samples"
            << (cal.from_cache ? ", cached" : ", measured") << ")\n";

  std::vector<int> cpu_sweep = {2, 4};
  if (only_cpus > 0) cpu_sweep = {only_cpus};
  const std::vector<runtime::ObjectImpl> impls = {
      runtime::ObjectImpl::kLockFree, runtime::ObjectImpl::kMutex,
      runtime::ObjectImpl::kMcs};
  const std::vector<Pl> placements = {Pl::kGlobal, Pl::kPartitioned,
                                      Pl::kClustered};

  std::vector<Row> rows;
  bool ok = true;
  for (const int cpus : cpu_sweep) {
    for (const runtime::ObjectImpl impl : impls) {
      const auto specs = runtime::uniform_objects(
          ts.object_count, runtime::ObjectKind::kQueue, impl);
      const sim::ShareMode mode = runtime::is_lock_based(impl)
                                      ? sim::ShareMode::kLockBased
                                      : sim::ShareMode::kLockFree;
      // One trace set per (cpus, impl): the placement axis replays it.
      const auto traces = runtime::make_arrival_traces(ts, horizon,
                                                       arrival_seed,
                                                       /*periodic=*/true);
      const Row* sim_global = nullptr;
      const Row* sim_part = nullptr;
      const Row* exec_global = nullptr;
      const Row* exec_part = nullptr;
      for (const Pl pl : placements) {
        const sched::Placement placement =
            make_placement(pl, cpus, ts.tasks.size());

        sim::SimConfig cfg;
        cfg.mode = mode;
        // Inflated access windows for the same reason mp_bounds uses
        // them: at calibrated (~100 ns) scale the sim's heatmaps stay
        // all-zero and the certificates gate nothing.  The count bounds
        // are duration-independent, so this stresses without skewing.
        cfg.lockfree_access_time = usec(10);
        cfg.lock_access_time = usec(20);
        cfg.objects = specs;
        cfg.sched_ns_per_op = bench::kDefaultNsPerOp;
        cfg.cpu_count = cpus;
        cfg.horizon = horizon;
        cfg.dispatch.placement = placement;
        sim::Simulator sim(ts, bench::scheduler_for(mode), cfg);
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
            runtime::run_on_executor(ts, bench::scheduler_for(mode), ec);

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
      // Indexing into `rows` only now — push_back above may reallocate.
      const std::size_t n = rows.size();
      sim_global = &rows[n - 6];
      exec_global = &rows[n - 5];
      sim_part = &rows[n - 4];
      exec_part = &rows[n - 3];
      const std::string what_base = "cpus=" + std::to_string(cpus) + " " +
                                    runtime::to_string(impl);
      bool any_strict = false;
      ok = no_cell_looser(sim_part->cert, sim_global->cert,
                          (what_base + "/sim").c_str(), &any_strict) &&
           ok;
      ok = no_cell_looser(exec_part->cert, exec_global->cert,
                          (what_base + "/exec").c_str(), &any_strict) &&
           ok;
      if (!any_strict) {
        std::cerr << "error: " << what_base
                  << ": no cell strictly tighter under partitioning\n";
        ok = false;
      }
    }
  }

  Table table({"cpus", "impl", "placement", "sub", "jobs", "AUR", "retries",
               "blockings", "cells", "viol", "min slack"});
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.cpus), r.impl, pl_name(r.placement),
                   r.substrate, std::to_string(r.jobs), Table::num(r.aur, 4),
                   std::to_string(r.retries), std::to_string(r.blockings),
                   std::to_string(r.cells), std::to_string(r.violations),
                   Table::num(r.min_slack, 3)});
  }
  table.print();

  std::int64_t total_violations = 0;
  for (const Row& r : rows) {
    total_violations += r.violations;
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

  std::ofstream os(out_path);
  os << "{\n  \"bench\": \"placement_sweep\",\n  \"objects\": \"queue\",\n"
     << "  \"load\": " << base.load << ",\n  \"calibrated_s_ns\": "
     << cal.lockfree_access_time << ",\n  \"calibrated_r_ns\": "
     << cal.lock_access_time << ",\n  \"rows\": [\n";
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
       << ", \"min_slack\": " << r.min_slack << "}"
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
