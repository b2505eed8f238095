// Cross-substrate validation: the same WorkloadSpec on the simulator
// and on the real-threads executor.
//
// The paper validates its analysis twice — simulation (Section 6) and a
// POSIX middleware implementation (the meta-scheduler testbed).  This
// bench is that discipline in-repo: one generated task set, identical
// arrival traces (runtime::make_arrival_traces), run once through
// sim::Simulator and once through rt::Executor via the
// runtime::run_on_executor adapter, under every ObjectImpl of the zoo
// (lock-free, mutex, ticket, anderson, mcs) for a chosen object *kind*
// (queue by default; --objects= selects stack, buffer, or snapshot —
// both substrates lower the same per-object ObjectSpec universe), in
// underload and overload.  Each impl runs under its RUA flavour
// (lock-based RUA for every lock), and the simulator prices each access
// from the per-(kind, impl) cost model runtime::calibrate measures on
// this host, not from order-of-magnitude constants.
//
// Assertions (exit 1 on violation):
//   * both substrates score the same job population (same counting rule
//     over the same traces),
//   * underload: |AUR_sim - AUR_exec| and |CMR_sim - CMR_exec| within
//     tolerance — the substrates must agree where the analysis says
//     everything completes,
//   * queue kind, lock-free impl: executor per-task worst-case retries
//     and the total stay under Theorem 2's bound (the bound holds for
//     *real* CAS failures, not just modelled ones).  Other kinds report
//     retries without enforcing the bound: NBW/snapshot readers spin
//     while a writer is mid-flight, a retry class outside the theorem's
//     CAS model,
//   * no executor run ever has more job bodies executing at once than
//     it has CPU slots (max_concurrency_observed <= cpu_count, and so
//     mean_concurrency_observed <= cpu_count),
//   * every executor report's contention heatmap has objects × tasks
//     cells whose retry/blocking sums equal the run's per-job totals
//     (the attribution invariant), and round-trips bit-exactly through
//     runtime::to_json / from_json.
//
// Overload rows are reported (the substrates shed differently — the
// executor pays real scheduling latency) but only sanity-checked.  The
// summary line names the pair count, so a truncated grid is visible to
// the scripts that pin it.
//
// The whole grid is swept at cpu_count ∈ {1, 2, 4}: the simulator's
// multi-CPU dispatch and the executor's M-worker mode share the same
// selection rule (sched::DispatchSelector), so agreement must survive
// true parallelism.  For every cpu_count >= 2 the executor must also
// witness real overlap: max_concurrency_observed >= 2 somewhere in the
// group, or the "parallel" mode silently serialized.
//
// Usage: ext_executor_validation [--tiny] [--cpus=N] [--threads=N]
//                                [--objects=KIND] [--out FILE]
//                                [--report-out FILE] [--recalibrate]
//   --tiny        smoke mode for check.sh/CI: short horizons, loose
//                 tolerance, fewer calibration samples
//   --cpus=N      restrict the sweep to one cpu_count (smoke runs)
//   --objects=K   object kind: queue (default) | stack | buffer |
//                 snapshot
//   --out         JSON row output (default BENCH_xval.json in the cwd)
//   --report-out  full RunReport JSON of one executor run, heatmap
//                 included (default BENCH_xval_report.json)
//   --recalibrate ignore the persistent calibration cache
//                 (runtime::calibrate keeps per-host measurements in
//                 $LFRT_CALIBRATION_CACHE / ~/.cache) and re-measure
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "common.hpp"
#include "runtime/calibrate.hpp"
#include "runtime/exec_adapter.hpp"
#include "runtime/report_json.hpp"

namespace {

using namespace lfrt;

struct XvalRow {
  std::string impl;         // runtime::to_string(ObjectImpl)
  std::string load_label;   // "underload" | "overload"
  double load = 0.0;
  int cpus = 1;
  int max_conc = 0;  // executor's max_concurrency_observed
  double mean_conc = 0.0;  // executor's mean_concurrency_observed
  std::int64_t jobs_sim = 0;
  std::int64_t jobs_exec = 0;
  double aur_sim = 0.0, aur_exec = 0.0;
  double cmr_sim = 0.0, cmr_exec = 0.0;
  std::int64_t retries_sim = 0, retries_exec = 0;
  std::int64_t blockings_exec = 0;
  std::int64_t retry_total_bound = 0;  // sum of Theorem 2 bounds (queue/LF)
  bool bound_ok = true;
  bool heat_ok = true;    // heatmap dims + attribution sums + round-trip
  std::string exec_json;  // serialized executor report (heatmap payload)
};

/// Heatmap witnesses on one executor report: dimensions match the
/// universe, the matrix's retry/blocking sums equal the run totals
/// (every event was attributed to a cell), and the whole report —
/// matrix included — survives a JSON round trip bit-exactly.
bool check_heatmap(const rt::ExecutorReport& rep, std::int32_t objects,
                   std::int32_t tasks, std::string* json_out) {
  bool ok = true;
  const runtime::ContentionMatrix& m = rep.contention;
  if (m.objects != objects || m.tasks != tasks ||
      m.cells.size() != static_cast<std::size_t>(objects) *
                            static_cast<std::size_t>(tasks)) {
    std::cerr << "error: heatmap dims " << m.objects << "x" << m.tasks
              << " != universe " << objects << "x" << tasks << "\n";
    ok = false;
  }
  const runtime::ContentionCell totals = m.totals();
  if (totals.retries != rep.total_retries) {
    std::cerr << "error: heatmap retries " << totals.retries
              << " != report total " << rep.total_retries << "\n";
    ok = false;
  }
  if (totals.blockings != rep.total_blockings) {
    std::cerr << "error: heatmap blockings " << totals.blockings
              << " != report total " << rep.total_blockings << "\n";
    ok = false;
  }
  *json_out = runtime::to_json(rep);
  const runtime::RunReport back = runtime::from_json(*json_out);
  if (back.contention != rep.contention ||
      back.total_retries != rep.total_retries ||
      back.jobs.size() != rep.jobs.size() ||
      back.accrued_utility != rep.accrued_utility) {
    std::cerr << "error: report JSON round-trip mismatch\n";
    ok = false;
  }
  return ok;
}

/// One matched pair of runs: identical task set, identical arrival
/// traces, identical ObjectSpec universe, same scheduler flavour on
/// both substrates.
XvalRow run_pair(const workload::WorkloadSpec& spec,
                 runtime::ObjectKind kind, runtime::ObjectImpl impl,
                 const char* load_label, int cpus, int windows,
                 std::uint64_t arrival_seed,
                 const runtime::CostModel& model) {
  const TaskSet ts = workload::make_task_set(spec);
  const sched::Scheduler& scheduler = bench::scheduler_for(impl);
  const auto specs = runtime::uniform_objects(ts.object_count, kind, impl);

  Time max_window = 0;
  for (const auto& t : ts.tasks)
    max_window = std::max(max_window, t.arrival.window);
  const Time horizon = max_window * windows;

  // --- simulator side, on the exact traces the executor will replay ---
  sim::SimConfig cfg;
  // Calibrated cells (runtime::calibrate): what one access of each
  // (kind, impl) costs on THIS host, so the simulator predicts the
  // executor it is compared against.
  cfg.cost_model = model;
  cfg.objects = specs;
  cfg.sched_ns_per_op = bench::kDefaultNsPerOp;
  cfg.cpu_count = cpus;
  cfg.horizon = horizon;
  sim::Simulator sim(ts, scheduler, cfg);
  const auto traces =
      runtime::make_arrival_traces(ts, horizon, arrival_seed,
                                   /*periodic=*/true);
  for (const auto& t : ts.tasks)
    sim.set_arrivals(t.id, traces[static_cast<std::size_t>(t.id)]);
  const sim::SimReport sim_rep = sim.run();

  // --- executor side --------------------------------------------------
  runtime::ExecConfig ec;
  ec.horizon = horizon;
  ec.objects = specs;
  ec.cpu_count = cpus;
  ec.arrival_seed = arrival_seed;
  ec.periodic_arrivals = true;
  const rt::ExecutorReport exec_rep =
      runtime::run_on_executor(ts, scheduler, ec);

  XvalRow row;
  row.impl = runtime::to_string(impl);
  row.load_label = load_label;
  row.load = spec.load;
  row.cpus = cpus;
  row.max_conc = exec_rep.max_concurrency_observed;
  row.mean_conc = exec_rep.mean_concurrency_observed;
  row.jobs_sim = sim_rep.counted_jobs;
  row.jobs_exec = exec_rep.counted_jobs;
  row.aur_sim = sim_rep.aur();
  row.aur_exec = exec_rep.aur();
  row.cmr_sim = sim_rep.cmr();
  row.cmr_exec = exec_rep.cmr();
  row.retries_sim = sim_rep.total_retries;
  row.retries_exec = exec_rep.total_retries;
  row.blockings_exec = exec_rep.total_blockings;

  if (impl == runtime::ObjectImpl::kLockFree &&
      kind == runtime::ObjectKind::kQueue) {
    for (const auto& t : ts.tasks) {
      const std::int64_t bound = analysis::retry_bound(ts, t.id);
      const auto b = exec_rep.breakdown_of(t.id);
      row.retry_total_bound += bound * b.jobs;
      if (exec_rep.max_retries_of_task(t.id) > bound) row.bound_ok = false;
    }
    if (exec_rep.total_retries > row.retry_total_bound)
      row.bound_ok = false;
  }
  row.heat_ok = check_heatmap(exec_rep, ts.object_count,
                              static_cast<std::int32_t>(ts.tasks.size()),
                              &row.exec_json);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lfrt;
  bench::init(argc, argv);
  bool tiny = false;
  bool recalibrate = false;
  int only_cpus = 0;  // 0 = sweep {1, 2, 4}
  runtime::ObjectKind kind = runtime::ObjectKind::kQueue;
  std::string out_path = "BENCH_xval.json";
  std::string report_path = "BENCH_xval_report.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--recalibrate") == 0) {
      recalibrate = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--report-out") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else if (std::strncmp(argv[i], "--objects=", 10) == 0) {
      if (!runtime::parse_object_kind(argv[i] + 10, &kind)) {
        std::cerr << "error: --objects must be queue|stack|buffer|"
                     "snapshot\n";
        return 2;
      }
    } else if (std::strncmp(argv[i], "--cpus=", 7) == 0) {
      only_cpus = std::atoi(argv[i] + 7);
      if (only_cpus < 1) {
        std::cerr << "error: --cpus must be >= 1\n";
        return 2;
      }
    } else if (std::strncmp(argv[i], "--threads", 9) == 0) {
      if (std::strchr(argv[i], '=') == nullptr && i + 1 < argc) ++i;
    } else {
      std::cerr << "usage: ext_executor_validation [--tiny] [--cpus=N] "
                   "[--objects=KIND] [--threads=N] [--out FILE] "
                   "[--report-out FILE] [--recalibrate]\n";
      return 2;
    }
  }
  bench::print_header("Cross-validation",
                      "same WorkloadSpec on Simulator and Executor");

  // Long critical times relative to executor overheads (ms-scale jobs,
  // tens-of-ms windows) so underload agreement is a property of the
  // substrates, not of scheduling-latency noise.
  workload::WorkloadSpec base;
  base.task_count = 6;
  base.object_count = 3;
  base.accesses_per_job = 2;
  base.avg_exec = msec(2);
  base.tuf_class = workload::TufClass::kStep;
  base.seed = 7;
  // Reader/writer kinds carry a read mix: NBW/snapshot exist to move
  // the retry cost onto readers, so give them readers to move it onto.
  if (kind == runtime::ObjectKind::kBuffer ||
      kind == runtime::ObjectKind::kSnapshot)
    base.read_fraction = 0.5;

  const int windows = tiny ? 2 : 6;
  const double aur_tol = tiny ? 0.25 : 0.15;
  const std::uint64_t arrival_seed = 1000;

  // Calibrate the per-(kind, impl) cost model on this host: the
  // simulator models what one access actually costs here.  Served from
  // the persistent cache when available; --recalibrate forces a fresh
  // measurement and overwrites the cached entry.
  runtime::CalibrateOptions cal_opts;
  cal_opts.force = recalibrate;
  const runtime::AccessCalibration cal =
      runtime::calibrate(tiny ? 200 : 500, cal_opts);
  std::cout << "calibrated cost model (" << cal.samples << " samples"
            << (cal.from_cache ? ", cached" : ", measured") << ")\n";

  std::vector<int> cpu_sweep = {1, 2, 4};
  if (only_cpus > 0) cpu_sweep = {only_cpus};

  std::vector<XvalRow> rows;
  for (const int cpus : cpu_sweep) {
    for (const runtime::ObjectImpl impl : runtime::all_object_impls()) {
      for (const auto& [label, load] :
           std::vector<std::pair<const char*, double>>{{"underload", 0.35},
                                                       {"overload", 1.2}}) {
        workload::WorkloadSpec spec = base;
        spec.load = load;
        rows.push_back(run_pair(spec, kind, impl, label, cpus, windows,
                                arrival_seed, cal.model));
      }
    }
  }

  Table table({"cpus", "impl", "load", "jobs s/x", "AUR sim", "AUR exec",
               "CMR sim", "CMR exec", "retries s/x", "blk exec", "conc max/mean",
               "bound", "heat"});
  for (const XvalRow& r : rows) {
    table.add_row({std::to_string(r.cpus), r.impl, r.load_label,
                   std::to_string(r.jobs_sim) + "/" +
                       std::to_string(r.jobs_exec),
                   Table::num(r.aur_sim, 3), Table::num(r.aur_exec, 3),
                   Table::num(r.cmr_sim, 3), Table::num(r.cmr_exec, 3),
                   std::to_string(r.retries_sim) + "/" +
                       std::to_string(r.retries_exec),
                   std::to_string(r.blockings_exec),
                   std::to_string(r.max_conc) + "/" +
                       Table::num(r.mean_conc, 2),
                   r.bound_ok ? "ok" : "VIOLATED",
                   r.heat_ok ? "ok" : "BROKEN"});
  }
  table.print();

  // ---- assertions ------------------------------------------------------
  bool ok = true;
  for (const XvalRow& r : rows) {
    if (r.jobs_sim != r.jobs_exec) {
      std::cerr << "error: cpus=" << r.cpus << " " << r.impl << "/"
                << r.load_label << ": job populations differ (sim "
                << r.jobs_sim << ", exec " << r.jobs_exec << ")\n";
      ok = false;
    }
    if (!r.bound_ok) {
      std::cerr << "error: cpus=" << r.cpus << " " << r.impl << "/"
                << r.load_label
                << ": executor retries exceed the Theorem 2 bound\n";
      ok = false;
    }
    if (!r.heat_ok) {
      std::cerr << "error: cpus=" << r.cpus << " " << r.impl << "/"
                << r.load_label << ": contention heatmap invariants broken\n";
      ok = false;
    }
    if (r.max_conc > r.cpus || r.mean_conc > r.cpus) {
      std::cerr << "error: cpus=" << r.cpus << " " << r.impl << "/"
                << r.load_label << ": " << r.max_conc << " (mean "
                << r.mean_conc << ") bodies executed at once on " << r.cpus
                << " CPUs\n";
      ok = false;
    }
    if (r.load_label == "underload") {
      if (std::abs(r.aur_sim - r.aur_exec) > aur_tol) {
        std::cerr << "error: cpus=" << r.cpus << " " << r.impl
                  << "/underload: |AUR_sim - AUR_exec| = "
                  << std::abs(r.aur_sim - r.aur_exec) << " > " << aur_tol
                  << "\n";
        ok = false;
      }
      if (std::abs(r.cmr_sim - r.cmr_exec) > aur_tol) {
        std::cerr << "error: cpus=" << r.cpus << " " << r.impl
                  << "/underload: |CMR_sim - CMR_exec| = "
                  << std::abs(r.cmr_sim - r.cmr_exec) << " > " << aur_tol
                  << "\n";
        ok = false;
      }
    }
  }
  // Every multi-CPU group must witness true overlap somewhere (the
  // overload rows guarantee backlog, so this cannot flake on timing).
  for (const int cpus : cpu_sweep) {
    if (cpus < 2) continue;
    int conc = 0;
    for (const XvalRow& r : rows)
      if (r.cpus == cpus) conc = std::max(conc, r.max_conc);
    if (conc < 2) {
      std::cerr << "error: cpus=" << cpus
                << ": max_concurrency_observed never reached 2 — the "
                   "M-worker mode serialized\n";
      ok = false;
    }
  }
  std::cout << "\nobjects=" << runtime::to_string(kind) << ", "
            << rows.size() << " pairs, underload AUR/CMR tolerance "
            << aur_tol << ": "
            << (ok ? "agreement confirmed" : "DISAGREEMENT") << "\n";

  std::ofstream os(out_path);
  os << "{\n  \"bench\": \"ext_executor_validation\",\n  \"objects\": \""
     << runtime::to_string(kind) << "\",\n  \"tolerance\": " << aur_tol
     << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const XvalRow& r = rows[i];
    os << "    {\"cpus\": " << r.cpus << ", \"impl\": \"" << r.impl
       << "\", \"load\": \"" << r.load_label << "\", \"al\": " << r.load
       << ", \"jobs_sim\": " << r.jobs_sim
       << ", \"jobs_exec\": " << r.jobs_exec
       << ", \"aur_sim\": " << r.aur_sim
       << ", \"aur_exec\": " << r.aur_exec
       << ", \"cmr_sim\": " << r.cmr_sim
       << ", \"cmr_exec\": " << r.cmr_exec
       << ", \"retries_sim\": " << r.retries_sim
       << ", \"retries_exec\": " << r.retries_exec
       << ", \"blockings_exec\": " << r.blockings_exec
       << ", \"retry_total_bound\": " << r.retry_total_bound
       << ", \"max_concurrency\": " << r.max_conc
       << ", \"mean_concurrency\": " << r.mean_conc
       << ", \"bound_ok\": " << (r.bound_ok ? "true" : "false")
       << ", \"heatmap_ok\": " << (r.heat_ok ? "true" : "false") << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  if (!os) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";

  // Full executor report (heatmap included) of the last lock-free
  // underload row — the machine-readable artifact scripts diff, already
  // proven round-trippable by check_heatmap above.
  const XvalRow* rep_row = nullptr;
  for (const XvalRow& r : rows)
    if (r.impl == "lock-free" && r.load_label == "underload") rep_row = &r;
  if (rep_row != nullptr && !rep_row->exec_json.empty()) {
    std::ofstream ros(report_path);
    ros << rep_row->exec_json << "\n";
    if (!ros) {
      std::cerr << "error: cannot write " << report_path << "\n";
      return 1;
    }
    std::cout << "wrote " << report_path << "\n";
  }
  return ok ? 0 : 1;
}
