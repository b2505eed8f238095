// Multiprocessor bound certification sweep (analysis::mp).
//
// The uniprocessor benches gate Theorem 2 on the executor's measured
// retries; this bench gates the NEW multiprocessor bounds on BOTH
// substrates across the whole lock zoo.  One generated task set
// (queue-kind universe — the paper's shape), identical arrival traces,
// swept over cpu_count ∈ {1, 2, 4} × every ObjectImpl
// (lock-free / mutex / ticket / anderson / mcs), each pair run once on
// sim::Simulator and once on rt::Executor; every run's contention
// heatmap is then certified cell by cell by analysis::certify against
// the per-(object, task) retry/blocking bounds for the matching
// substrate, plus the per-job backoff-ladder invariant.
//
// Assertions (exit 1 on violation):
//   * every certificate is violation-free — the analytical bounds hold
//     for every measured (object, task) cell on both substrates,
//   * lock impls never record a retry; lock-free never records a
//     blocking episode (the mechanism fork is exact),
//   * sim and executor score the same job population per configuration
//     (same counting rule over the same traces).
//
// The per-cell slack (fraction of the bound left unused) and the
// per-task spin/retry TIME bounds priced from the calibrated cost model
// are reported in BENCH_mp_bounds.json for trend tracking.
//
// Usage: mp_bounds [--tiny] [--cpus=N] [--out FILE] [--recalibrate]
//   --tiny        smoke mode for check.sh/CI: short horizons, fewer
//                 calibration samples
//   --cpus=N      restrict the sweep to one cpu_count
//   --out         JSON output (default BENCH_mp_bounds.json in the cwd)
//   --recalibrate ignore the persistent calibration cache
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
#include "runtime/report_json.hpp"

namespace {

using namespace lfrt;

struct CertRow {
  int cpus = 1;
  std::string impl;
  std::string substrate;  // "sim" | "exec"
  std::int64_t jobs = 0;
  std::int64_t retries = 0;
  std::int64_t blockings = 0;
  std::int64_t cells = 0;
  std::int64_t violations = 0;
  double min_slack = 1.0;
  Time worst_spin_time = 0;   // max over tasks, per job
  Time worst_retry_time = 0;  // max over tasks, per job (finite cells)
  bool mech_ok = true;        // locks don't retry / LF doesn't block
};

CertRow summarize(const runtime::RunReport& rep, const TaskSet& ts,
                  const std::vector<runtime::ObjectSpec>& specs,
                  const runtime::CostModel& model, int cpus,
                  runtime::ObjectImpl impl,
                  analysis::mp::Substrate substrate) {
  analysis::mp::MpOptions opt;
  opt.cpu_count = cpus;
  opt.substrate = substrate;
  const analysis::mp::Certificate cert =
      analysis::certify(rep, ts, specs, model, opt);

  CertRow row;
  row.cpus = cpus;
  row.impl = runtime::to_string(impl);
  row.substrate =
      substrate == analysis::mp::Substrate::kSimulator ? "sim" : "exec";
  row.jobs = rep.counted_jobs;
  row.retries = rep.total_retries;
  row.blockings = rep.total_blockings;
  row.cells = cert.cells_checked;
  row.violations = cert.violations;
  row.min_slack = cert.min_slack;
  for (const analysis::mp::TaskTimeBounds& tb : cert.time_bounds) {
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

}  // namespace

int main(int argc, char** argv) {
  using namespace lfrt;
  bench::init(argc, argv);
  bool tiny = false;
  bool recalibrate = false;
  int only_cpus = 0;
  std::string out_path = "BENCH_mp_bounds.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--recalibrate") == 0) {
      recalibrate = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strncmp(argv[i], "--cpus=", 7) == 0) {
      only_cpus = std::atoi(argv[i] + 7);
      if (only_cpus < 1) {
        std::cerr << "error: --cpus must be >= 1\n";
        return 2;
      }
    } else if (std::strncmp(argv[i], "--threads", 9) == 0) {
      if (std::strchr(argv[i], '=') == nullptr && i + 1 < argc) ++i;
    } else {
      std::cerr << "usage: mp_bounds [--tiny] [--cpus=N] [--out FILE] "
                   "[--recalibrate]\n";
      return 2;
    }
  }
  bench::print_header("MP bounds",
                      "certify heatmaps against analysis::mp on both "
                      "substrates");

  workload::WorkloadSpec base;
  base.task_count = 6;
  base.object_count = 3;
  base.accesses_per_job = 4;
  base.avg_exec = usec(400);  // us-scale jobs: access windows that overlap
  base.tuf_class = workload::TufClass::kStep;
  base.seed = 7;
  base.load = 0.8;  // contended but schedulable: events without chaos
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

  std::vector<int> cpu_sweep = {1, 2, 4};
  if (only_cpus > 0) cpu_sweep = {only_cpus};

  std::vector<CertRow> rows;
  bool jobs_ok = true;
  for (const int cpus : cpu_sweep) {
    for (const runtime::ObjectImpl impl : runtime::all_object_impls()) {
      const auto specs = runtime::uniform_objects(
          ts.object_count, runtime::ObjectKind::kQueue, impl);
      const sim::ShareMode mode = runtime::is_lock_based(impl)
                                      ? sim::ShareMode::kLockBased
                                      : sim::ShareMode::kLockFree;

      sim::SimConfig cfg;
      cfg.mode = mode;
      // Deliberately inflated access windows (vs the ~100 ns calibrated
      // costs): the sim only records a retry/blocking when two access
      // windows overlap in simulated time, and at calibrated scale the
      // windows are so short the heatmaps stay all-zero — which would
      // certify the bounds vacuously.  The COUNT bounds are
      // duration-independent (each retry is charged to a conflicting
      // write's transition, however long the attempt took), so stretching
      // the windows stresses the certifier without invalidating it.  The
      // calibrated model still prices the analytic TIME bounds below.
      cfg.lockfree_access_time = usec(10);
      cfg.lock_access_time = usec(20);
      cfg.objects = specs;
      cfg.sched_ns_per_op = bench::kDefaultNsPerOp;
      cfg.cpu_count = cpus;
      cfg.horizon = horizon;
      sim::Simulator sim(ts, bench::scheduler_for(mode), cfg);
      const auto traces = runtime::make_arrival_traces(ts, horizon,
                                                       arrival_seed,
                                                       /*periodic=*/true);
      for (const auto& t : ts.tasks)
        sim.set_arrivals(t.id, traces[static_cast<std::size_t>(t.id)]);
      const sim::SimReport sim_rep = sim.run();

      runtime::ExecConfig ec;
      ec.horizon = horizon;
      ec.objects = specs;
      ec.cpu_count = cpus;
      ec.arrival_seed = arrival_seed;
      ec.periodic_arrivals = true;
      const rt::ExecutorReport exec_rep =
          runtime::run_on_executor(ts, bench::scheduler_for(mode), ec);

      rows.push_back(summarize(sim_rep, ts, specs, cal.model, cpus, impl,
                               analysis::mp::Substrate::kSimulator));
      rows.push_back(summarize(exec_rep, ts, specs, cal.model, cpus, impl,
                               analysis::mp::Substrate::kExecutor));
      if (sim_rep.counted_jobs != exec_rep.counted_jobs) {
        std::cerr << "error: cpus=" << cpus << " "
                  << runtime::to_string(impl)
                  << ": job populations differ (sim " << sim_rep.counted_jobs
                  << ", exec " << exec_rep.counted_jobs << ")\n";
        jobs_ok = false;
      }
    }
  }

  Table table({"cpus", "impl", "sub", "jobs", "retries", "blockings",
               "cells", "viol", "min slack", "spin ns", "retry ns"});
  for (const CertRow& r : rows) {
    table.add_row({std::to_string(r.cpus), r.impl, r.substrate,
                   std::to_string(r.jobs), std::to_string(r.retries),
                   std::to_string(r.blockings), std::to_string(r.cells),
                   std::to_string(r.violations), Table::num(r.min_slack, 3),
                   std::to_string(r.worst_spin_time),
                   std::to_string(r.worst_retry_time)});
  }
  table.print();

  bool ok = jobs_ok;
  std::int64_t total_violations = 0;
  for (const CertRow& r : rows) {
    total_violations += r.violations;
    if (r.violations != 0) {
      std::cerr << "error: cpus=" << r.cpus << " " << r.impl << "/"
                << r.substrate << ": " << r.violations
                << " heatmap cell(s) exceed the analytical bound\n";
      ok = false;
    }
    if (!r.mech_ok) {
      std::cerr << "error: cpus=" << r.cpus << " " << r.impl << "/"
                << r.substrate
                << ": mechanism fork violated (lock retries or lock-free "
                   "blockings)\n";
      ok = false;
    }
  }

  std::ofstream os(out_path);
  os << "{\n  \"bench\": \"mp_bounds\",\n  \"objects\": \"queue\",\n"
     << "  \"load\": " << base.load << ",\n  \"calibrated_s_ns\": "
     << cal.lockfree_access_time << ",\n  \"calibrated_r_ns\": "
     << cal.lock_access_time << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CertRow& r = rows[i];
    os << "    {\"cpus\": " << r.cpus << ", \"impl\": \"" << r.impl
       << "\", \"substrate\": \"" << r.substrate
       << "\", \"jobs\": " << r.jobs << ", \"retries\": " << r.retries
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
    std::cout << "mp_bounds: all checks ok (" << rows.size()
              << " certificates, " << total_violations << " violations)\n";
  else
    std::cout << "mp_bounds: CHECKS FAILED (" << total_violations
              << " bound violations)\n";
  return ok ? 0 : 1;
}
