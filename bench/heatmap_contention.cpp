// Per-object contention heatmaps across the shared-object zoo.
//
// The unified runtime::SharedObject layer attributes every lock-free
// retry and lock-based blocking episode to an (object, task) cell while
// it also feeds the per-structure counters and the per-job tallies.
// This bench drives one moderately contended workload through the
// executor for every ObjectKind × ObjectImpl combination — the full
// zoo: lock-free, mutex, ticket, anderson, mcs — prints the resulting
// heatmaps, and emits them as JSON — the artifact the paper's
// engineering story needs when a deadline miss has to be traced to the
// *object* that caused it, not just the task that suffered it.
//
// Each combination is also run through the simulator on the same
// ObjectSpec universe with the calibrated per-(kind, impl) cost model
// enabled, so the table shows modelled vs measured retry/blocking
// totals side by side.
//
// Self-validation (exit 1 on violation):
//   * every matrix is non-empty with objects × tasks cells,
//   * matrix retry/blocking sums equal the run's per-job totals on both
//     substrates (three-way attribution agreement: structure counters,
//     job tallies, heatmap cells all count the same events),
//   * the executor report — heatmap included — round-trips through
//     runtime::to_json / from_json bit-exactly.
//
// Sim-vs-executor AUR/CMR agreement for every impl is gated by
// ext_executor_validation, on the same calibrated cost model.
//
// Usage: heatmap_contention [--tiny] [--threads=N] [--out FILE]
//   --tiny   smoke mode for check.sh/CI: short horizon
//   --out    JSON output path (default BENCH_heatmap.json in the cwd)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "runtime/calibrate.hpp"
#include "runtime/exec_adapter.hpp"
#include "runtime/report_json.hpp"

namespace {

using namespace lfrt;

struct ComboResult {
  runtime::ObjectKind kind;
  runtime::ObjectImpl impl;
  rt::ExecutorReport exec;
  sim::SimReport sim;
  bool ok = true;
};

/// Matrix invariants shared by both substrates: right shape, and every
/// retry/blocking the run counted is attributed to exactly one cell.
bool check_matrix(const runtime::RunReport& rep, std::int32_t objects,
                  std::int32_t tasks, const char* side) {
  bool ok = true;
  const runtime::ContentionMatrix& m = rep.contention;
  if (m.empty() || m.objects != objects || m.tasks != tasks) {
    std::cerr << "error: " << side << " heatmap dims " << m.objects << "x"
              << m.tasks << " != universe " << objects << "x" << tasks
              << "\n";
    ok = false;
  }
  const runtime::ContentionCell t = m.totals();
  if (t.retries != rep.total_retries || t.blockings != rep.total_blockings) {
    std::cerr << "error: " << side << " heatmap sums (" << t.retries << "r, "
              << t.blockings << "b) != report totals (" << rep.total_retries
              << "r, " << rep.total_blockings << "b)\n";
    ok = false;
  }
  return ok;
}

void print_matrix(const runtime::ContentionMatrix& m, const char* what) {
  std::cout << "  " << what << " (object rows x task columns, "
            << "ops/retries/blockings):\n";
  for (std::int32_t o = 0; o < m.objects; ++o) {
    std::printf("    obj %d:", o);
    for (std::int32_t t = 0; t < m.tasks; ++t) {
      const runtime::ContentionCell& c = m.at(o, t);
      std::printf(" %lld/%lld/%lld", static_cast<long long>(c.ops),
                  static_cast<long long>(c.retries),
                  static_cast<long long>(c.blockings));
    }
    const runtime::ContentionCell tot = m.object_totals(o);
    std::printf("  | total %lld/%lld/%lld\n", static_cast<long long>(tot.ops),
                static_cast<long long>(tot.retries),
                static_cast<long long>(tot.blockings));
  }
}

void append_matrix_json(std::ofstream& os, const runtime::ContentionMatrix& m) {
  os << "{\"objects\": " << m.objects << ", \"tasks\": " << m.tasks
     << ", \"cells\": [";
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    const runtime::ContentionCell& c = m.cells[i];
    os << (i ? "," : "") << "[" << c.ops << "," << c.retries << ","
       << c.blockings << "]";
  }
  os << "]}";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lfrt;
  bench::init(argc, argv);
  bool tiny = false;
  std::string out_path = "BENCH_heatmap.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strncmp(argv[i], "--threads", 9) == 0) {
      if (std::strchr(argv[i], '=') == nullptr && i + 1 < argc) ++i;
    } else {
      std::cerr << "usage: heatmap_contention [--tiny] [--threads=N] "
                   "[--out FILE]\n";
      return 2;
    }
  }
  bench::print_header("Contention heatmaps",
                      "object x task retry/blocking attribution, all "
                      "ObjectKind x ObjectImpl combos");

  // Moderate contention: short jobs hitting few objects from many
  // tasks on two CPUs, half the accesses reads — enough pressure that
  // lock-free combos retry and lock-based combos block, so the
  // heatmaps have something to show.
  workload::WorkloadSpec spec;
  spec.task_count = 8;
  spec.object_count = 4;
  spec.accesses_per_job = 4;
  spec.avg_exec = usec(400);
  spec.load = 0.8;
  spec.read_fraction = 0.5;
  spec.tuf_class = workload::TufClass::kStep;
  spec.seed = 11;
  const TaskSet ts = workload::make_task_set(spec);

  Time max_window = 0;
  for (const auto& t : ts.tasks)
    max_window = std::max(max_window, t.arrival.window);
  const Time horizon = max_window * (tiny ? 2 : 8);
  const std::uint64_t arrival_seed = 2000;
  const int cpus = 2;

  // Calibrate the per-(kind, impl) cost model on this host.
  const runtime::AccessCalibration cal =
      runtime::calibrate(tiny ? 200 : 500);
  bench::print_cost_model(cal);

  bool ok = true;
  std::vector<ComboResult> combos;
  for (const runtime::ObjectKind kind : runtime::all_object_kinds()) {
    for (const runtime::ObjectImpl impl : runtime::all_object_impls()) {
      const sched::Scheduler& scheduler = bench::scheduler_for(impl);
      const auto specs =
          runtime::uniform_objects(ts.object_count, kind, impl);

      runtime::ExecConfig ec;
      ec.horizon = horizon;
      ec.objects = specs;
      ec.cpu_count = cpus;
      ec.arrival_seed = arrival_seed;
      ec.periodic_arrivals = true;

      sim::SimConfig cfg;
      cfg.cost_model = cal.model;
      cfg.objects = specs;
      cfg.sched_ns_per_op = bench::kDefaultNsPerOp;
      cfg.cpu_count = cpus;
      cfg.horizon = horizon;
      sim::Simulator sim(ts, scheduler, cfg);
      const auto traces = runtime::make_arrival_traces(
          ts, horizon, arrival_seed, /*periodic=*/true);
      for (const auto& t : ts.tasks)
        sim.set_arrivals(t.id, traces[static_cast<std::size_t>(t.id)]);

      ComboResult res;
      res.kind = kind;
      res.impl = impl;
      res.sim = sim.run();
      res.exec = runtime::run_on_executor(ts, scheduler, ec);

      const auto tasks32 = static_cast<std::int32_t>(ts.tasks.size());
      res.ok = check_matrix(res.exec, ts.object_count, tasks32, "executor") &&
               check_matrix(res.sim, ts.object_count, tasks32, "simulator");

      // Round-trip witness: the serialized executor report carries the
      // whole heatmap.
      const std::string js = runtime::to_json(res.exec);
      const runtime::RunReport back = runtime::from_json(js);
      if (back.contention != res.exec.contention ||
          back.total_retries != res.exec.total_retries ||
          back.total_blockings != res.exec.total_blockings) {
        std::cerr << "error: " << runtime::to_string(kind) << "/"
                  << runtime::to_string(impl)
                  << ": JSON round-trip lost the heatmap\n";
        res.ok = false;
      }
      if (!res.ok) ok = false;
      combos.push_back(std::move(res));
    }
  }

  Table table({"kind", "impl", "AUR exec", "AUR sim", "retries x/s",
               "blockings x/s", "ops exec", "checks"});
  for (const ComboResult& c : combos) {
    table.add_row(
        {runtime::to_string(c.kind), runtime::to_string(c.impl),
         Table::num(c.exec.aur(), 3), Table::num(c.sim.aur(), 3),
         std::to_string(c.exec.total_retries) + "/" +
             std::to_string(c.sim.total_retries),
         std::to_string(c.exec.total_blockings) + "/" +
             std::to_string(c.sim.total_blockings),
         std::to_string(c.exec.contention.totals().ops),
         c.ok ? "ok" : "BROKEN"});
  }
  table.print();

  // Show the executor heatmap of the combo with the most attributed
  // events — the table a deadline post-mortem would start from.
  const ComboResult* hottest = nullptr;
  std::int64_t best = -1;
  for (const ComboResult& c : combos) {
    const runtime::ContentionCell t = c.exec.contention.totals();
    if (t.retries + t.blockings > best) {
      best = t.retries + t.blockings;
      hottest = &c;
    }
  }
  if (hottest != nullptr) {
    std::cout << "\nhottest combo: " << runtime::to_string(hottest->kind)
              << "/" << runtime::to_string(hottest->impl) << "\n";
    print_matrix(hottest->exec.contention, "executor");
  }

  std::ofstream os(out_path);
  os << "{\n  \"bench\": \"heatmap_contention\",\n  \"objects\": "
     << ts.object_count << ",\n  \"tasks\": " << ts.tasks.size()
     << ",\n  \"cpus\": " << cpus
     << ",\n  \"cost_model\": " << bench::cost_model_json(cal)
     << ",\n  \"combos\": [\n";
  for (std::size_t i = 0; i < combos.size(); ++i) {
    const ComboResult& c = combos[i];
    os << "    {\"kind\": \"" << runtime::to_string(c.kind)
       << "\", \"impl\": \"" << runtime::to_string(c.impl)
       << "\", \"aur_exec\": " << c.exec.aur()
       << ", \"aur_sim\": " << c.sim.aur()
       << ", \"retries_exec\": " << c.exec.total_retries
       << ", \"retries_sim\": " << c.sim.total_retries
       << ", \"blockings_exec\": " << c.exec.total_blockings
       << ", \"blockings_sim\": " << c.sim.total_blockings
       << ", \"heatmap_exec\": ";
    append_matrix_json(os, c.exec.contention);
    os << ", \"heatmap_sim\": ";
    append_matrix_json(os, c.sim.contention);
    os << "}" << (i + 1 < combos.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  if (!os) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  std::cout << "heatmaps: " << combos.size() << " combos, "
            << ts.object_count << "x" << ts.tasks.size() << " cells each — "
            << (ok ? "all checks ok" : "CHECKS FAILED") << "\n";
  return ok ? 0 : 1;
}
