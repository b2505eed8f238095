// Contention-adaptive sharding: collapse retry storms by acting on the
// live heatmaps.
//
// Theorem 2 prices every concurrent writer into each task's retry
// bound; when many tasks hammer one lock-free object, the f_i terms —
// and the measured retries — grow with the full contender population.
// Sharding the object into independent stripes removes contenders from
// each CAS window, and the ContentionController does it *online*: it
// diffs the live object × task ContentionMatrix each epoch, promotes
// objects whose retry rate crosses the threshold 1 → 2 → 4 → 8 stripes,
// demotes idle ones back toward their floor, and steers dispatch away
// from co-scheduling the tasks behind the hottest cell.
//
// Two substrates, one claim:
//
//   * simulator, cpus = 4 (the modelled claim, deterministic): the same
//     adversarial universe — 8 tasks, 2 hot lock-free objects — run
//     static (shards = 1) and adaptive (adapt = true).  Retries per
//     access must drop >= 3x while completed jobs do not regress; the
//     shard-decision timeline is the artifact.
//
//   * live structures (the measured claim): the same hammer driven by
//     real threads through SharedObjectSet with a live
//     ContentionController, reporting retries/access, backoff spins,
//     elimination hits, and p99 access latency from the per-object
//     histogram.  Attribution stays exact throughout: heatmap cell sums
//     == per-stripe structure counters, promote/demote included.  On a
//     host with too few CPUs to generate real CAS interference the
//     latency/ratio comparison is reported but not enforced (a 1-CPU
//     container produces ~0 retries on both sides); the invariants
//     always are.
//
// Usage: shard_adaptive [--tiny] [--threads=N] [--out FILE]
//   --tiny   smoke mode for check.sh/CI: short horizon, light hammer,
//            invariants enforced but the 3x ratio not asserted
//   --out    JSON output path (default BENCH_shard.json in the cwd)
#include <atomic>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "runtime/contention_controller.hpp"
#include "runtime/exec_adapter.hpp"
#include "runtime/shared_object.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace lfrt;

struct SimSide {
  sim::SimReport rep;
  std::int64_t ops = 0;
  double retries_per_access = 0.0;
};

SimSide run_sim(const TaskSet& ts, bool adapt, Time horizon,
                const std::vector<std::vector<Time>>& traces) {
  sim::SimConfig cfg;
  cfg.mode = sim::ShareMode::kLockFree;
  cfg.lockfree_access_time = usec(10);
  cfg.objects = runtime::uniform_objects(ts.object_count,
                                         runtime::ObjectKind::kQueue,
                                         runtime::ObjectImpl::kLockFree);
  for (auto& s : cfg.objects) s.adapt = adapt;
  cfg.controller.epoch = usec(500);
  cfg.controller.min_epoch_ops = 16;
  cfg.controller.promote_rate = 0.02;
  cfg.sched_ns_per_op = bench::kDefaultNsPerOp;
  cfg.cpu_count = 4;
  cfg.horizon = horizon;
  sim::Simulator sim(ts, bench::scheduler_for(sim::ShareMode::kLockFree),
                     cfg);
  for (const auto& t : ts.tasks)
    sim.set_arrivals(t.id, traces[static_cast<std::size_t>(t.id)]);
  SimSide side;
  side.rep = sim.run();
  side.ops = side.rep.contention.totals().ops;
  side.retries_per_access =
      side.ops > 0 ? static_cast<double>(side.rep.total_retries) /
                         static_cast<double>(side.ops)
                   : 0.0;
  return side;
}

struct LiveSide {
  runtime::ContentionMatrix matrix;
  std::int64_t accesses = 0;      // accesses the hammer completed
  std::int64_t retries = 0;       // structure-counter sum over objects
  std::int64_t backoff_spins = 0;
  std::int64_t eliminations = 0;
  Time p99_ns = 0;                // hot object's access latency
  std::vector<runtime::ShardDecision> decisions;
  std::int64_t epochs = 0;
  bool attribution_ok = true;
};

/// Hammer the real layer: `threads` worker threads (one per task id),
/// each performing `per_thread` write accesses, ~3/4 of them against
/// the hot queue (object 0) and the rest against a stack (object 1 —
/// the shape whose sharded form carries the elimination front).
LiveSide run_live(bool adapt, int threads, int per_thread) {
  std::vector<runtime::ObjectSpec> specs(2);
  specs[0] = {runtime::ObjectKind::kQueue, runtime::ObjectImpl::kLockFree};
  specs[1] = {runtime::ObjectKind::kStack, runtime::ObjectImpl::kLockFree};
  for (auto& s : specs) s.adapt = adapt;
  runtime::SharedObjectSet set(specs, threads, /*queue_capacity=*/4096);

  runtime::ControllerConfig ccfg;
  ccfg.epoch = usec(500);  // live epochs are wall clock; keep them short
  ccfg.min_epoch_ops = 32;
  ccfg.promote_rate = 0.02;
  runtime::ContentionController ctl(ccfg, &set, /*executor=*/nullptr);
  if (adapt) ctl.start();

  std::atomic<int> barrier{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      barrier.fetch_add(1);
      while (barrier.load() < threads) {
      }
      for (int i = 0; i < per_thread; ++i) {
        const ObjectId o = i % 4 == 3 ? 1 : 0;
        set.access(o, runtime::AccessOp::kWrite, t,
                   /*job=*/static_cast<JobId>(t) * per_thread + i, [] {});
      }
    });
  }
  for (auto& th : pool) th.join();
  if (adapt) ctl.stop();

  LiveSide side;
  side.matrix = set.matrix();
  side.accesses = static_cast<std::int64_t>(threads) * per_thread;
  for (ObjectId o = 0; o < set.object_count(); ++o) {
    const runtime::ObjectCounts c = set.counts_of(o);
    side.retries += c.retries;
    side.backoff_spins += c.backoff_spins;
    side.eliminations += set.eliminations_of(o);
    // Attribution exactness per object: the heatmap row (per-cell
    // sinks) and the per-stripe structure counters saw the same
    // record_retry events — across every promote/demote the controller
    // applied mid-hammer.
    const runtime::ContentionCell row = side.matrix.object_totals(o);
    if (row.retries != c.retries) {
      std::cerr << "error: object " << o << ": heatmap retries "
                << row.retries << " != structure retries " << c.retries
                << "\n";
      side.attribution_ok = false;
    }
  }
  if (side.matrix.totals().ops != side.accesses) {
    std::cerr << "error: heatmap ops " << side.matrix.totals().ops
              << " != accesses performed " << side.accesses << "\n";
    side.attribution_ok = false;
  }
  side.p99_ns = set.latency_of(0).percentile(0.99);
  side.decisions = ctl.decisions();
  side.epochs = ctl.epochs();
  return side;
}

void append_decisions_json(std::ofstream& os,
                           const std::vector<runtime::ShardDecision>& ds) {
  os << "[";
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const runtime::ShardDecision& d = ds[i];
    os << (i ? "," : "") << "{\"t_ns\": " << d.time
       << ", \"object\": " << d.object << ", \"from\": " << d.from_shards
       << ", \"to\": " << d.to_shards << ", \"rate\": " << d.rate << "}";
  }
  os << "]";
}

void append_shards_json(std::ofstream& os,
                        const std::vector<std::int32_t>& sc) {
  os << "[";
  for (std::size_t i = 0; i < sc.size(); ++i)
    os << (i ? "," : "") << sc[i];
  os << "]";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lfrt;
  bench::init(argc, argv);
  bool tiny = false;
  std::string out_path = "BENCH_shard.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strncmp(argv[i], "--threads", 9) == 0) {
      if (std::strchr(argv[i], '=') == nullptr && i + 1 < argc) ++i;
    } else {
      std::cerr << "usage: shard_adaptive [--tiny] [--threads=N] "
                   "[--out FILE]\n";
      return 2;
    }
  }
  const std::string host = bench::host_json();
  bench::print_header("Adaptive sharding",
                      "contention controller vs static single-stripe "
                      "objects, sim (cpus=4) + live structures");

  // Adversarial universe: 8 tasks funneled into 2 lock-free queues,
  // several accesses per job, enough load to keep all 4 simulated CPUs
  // busy — every access attempt overlaps contenders on the other CPUs.
  workload::WorkloadSpec spec;
  spec.task_count = 8;
  spec.object_count = 2;
  spec.accesses_per_job = 10;
  spec.avg_exec = usec(200);
  spec.load = 3.0;
  spec.tuf_class = workload::TufClass::kStep;
  spec.seed = 9;
  const TaskSet ts = workload::make_task_set(spec);

  Time max_window = 0;
  for (const auto& t : ts.tasks)
    max_window = std::max(max_window, t.arrival.window);
  const Time horizon = max_window * (tiny ? 3 : 40);
  const auto traces =
      runtime::make_arrival_traces(ts, horizon, /*seed=*/3000,
                                   /*periodic=*/true);

  const SimSide sim_static = run_sim(ts, /*adapt=*/false, horizon, traces);
  const SimSide sim_adapt = run_sim(ts, /*adapt=*/true, horizon, traces);

  const int threads = 8;
  const int per_thread = tiny ? 4000 : 40000;
  const LiveSide live_static = run_live(/*adapt=*/false, threads, per_thread);
  const LiveSide live_adapt = run_live(/*adapt=*/true, threads, per_thread);

  const double sim_ratio =
      sim_adapt.retries_per_access > 0.0
          ? sim_static.retries_per_access / sim_adapt.retries_per_access
          : (sim_static.retries_per_access > 0.0 ? 1e9 : 1.0);

  Table table({"side", "mode", "accesses", "retries", "retries/access",
               "completed", "shards", "decisions"});
  auto shards_str = [](const std::vector<std::int32_t>& sc) {
    std::string s;
    for (std::size_t i = 0; i < sc.size(); ++i) {
      if (i) s += ',';
      s += std::to_string(sc[i]);
    }
    return s;
  };
  table.add_row({"sim", "static", std::to_string(sim_static.ops),
                 std::to_string(sim_static.rep.total_retries),
                 Table::num(sim_static.retries_per_access, 4),
                 std::to_string(sim_static.rep.completed),
                 shards_str(sim_static.rep.contention.shard_counts), "0"});
  table.add_row({"sim", "adaptive", std::to_string(sim_adapt.ops),
                 std::to_string(sim_adapt.rep.total_retries),
                 Table::num(sim_adapt.retries_per_access, 4),
                 std::to_string(sim_adapt.rep.completed),
                 shards_str(sim_adapt.rep.contention.shard_counts),
                 std::to_string(sim_adapt.rep.shard_decisions.size())});
  table.add_row({"live", "static", std::to_string(live_static.accesses),
                 std::to_string(live_static.retries),
                 Table::num(live_static.accesses > 0
                                ? static_cast<double>(live_static.retries) /
                                      static_cast<double>(
                                          live_static.accesses)
                                : 0.0,
                            6),
                 "-", shards_str(live_static.matrix.shard_counts), "0"});
  table.add_row({"live", "adaptive", std::to_string(live_adapt.accesses),
                 std::to_string(live_adapt.retries),
                 Table::num(live_adapt.accesses > 0
                                ? static_cast<double>(live_adapt.retries) /
                                      static_cast<double>(
                                          live_adapt.accesses)
                                : 0.0,
                            6),
                 "-", shards_str(live_adapt.matrix.shard_counts),
                 std::to_string(live_adapt.decisions.size())});
  table.print();
  std::cout << "sim retry reduction: " << Table::num(sim_ratio, 2)
            << "x (static " << Table::num(sim_static.retries_per_access, 4)
            << " -> adaptive " << Table::num(sim_adapt.retries_per_access, 4)
            << " retries/access), controller epochs "
            << sim_adapt.rep.controller_epochs << "\n";
  std::cout << "live p99 access latency: static " << live_static.p99_ns
            << " ns, adaptive " << live_adapt.p99_ns
            << " ns; backoff spins static " << live_static.backoff_spins
            << ", adaptive " << live_adapt.backoff_spins
            << "; eliminations " << live_adapt.eliminations << "\n";

  // ---- assertions ------------------------------------------------------
  bool ok = true;
  if (!live_static.attribution_ok || !live_adapt.attribution_ok) {
    std::cerr << "error: live attribution invariants broken\n";
    ok = false;
  }
  if (sim_adapt.rep.controller_epochs <= 0 ||
      sim_adapt.rep.shard_decisions.empty()) {
    std::cerr << "error: sim controller never acted (epochs "
              << sim_adapt.rep.controller_epochs << ", decisions "
              << sim_adapt.rep.shard_decisions.size() << ")\n";
    ok = false;
  }
  bool promoted = false;
  for (const std::int32_t s : sim_adapt.rep.contention.shard_counts)
    promoted = promoted || s > 1;
  if (!promoted) {
    std::cerr << "error: sim controller never promoted past 1 stripe\n";
    ok = false;
  }
  if (sim_adapt.rep.completed < sim_static.rep.completed) {
    std::cerr << "error: adaptive sim completed fewer jobs ("
              << sim_adapt.rep.completed << " < "
              << sim_static.rep.completed << ")\n";
    ok = false;
  }
  if (!tiny && sim_ratio < 3.0) {
    std::cerr << "error: sim retry reduction " << sim_ratio
              << "x < required 3x\n";
    ok = false;
  }
  // The live ratio needs real multi-core interference to be meaningful;
  // enforce only when the static run actually produced a retry storm.
  if (live_static.retries >= 200) {
    const double live_ratio =
        live_adapt.retries > 0
            ? static_cast<double>(live_static.retries) /
                  static_cast<double>(live_adapt.retries)
            : 1e9;
    std::cout << "live retry reduction: " << Table::num(live_ratio, 2)
              << "x\n";
    if (live_ratio < 1.5) {
      std::cerr << "error: live adaptive run did not reduce retries ("
                << live_static.retries << " -> " << live_adapt.retries
                << ")\n";
      ok = false;
    }
  } else {
    std::cout << "live side: too little CAS interference on this host ("
              << live_static.retries
              << " static retries) — ratio reported, not enforced\n";
  }

  std::ofstream os(out_path);
  os << "{\n  \"bench\": \"shard_adaptive\",\n  \"host\": "
     << host << ",\n  \"sim\": {\n"
     << "    \"cpus\": 4, \"tasks\": " << ts.tasks.size()
     << ", \"objects\": " << ts.object_count << ",\n"
     << "    \"static\": {\"ops\": " << sim_static.ops
     << ", \"retries\": " << sim_static.rep.total_retries
     << ", \"retries_per_access\": " << sim_static.retries_per_access
     << ", \"completed\": " << sim_static.rep.completed
     << ", \"aur\": " << sim_static.rep.aur() << "},\n"
     << "    \"adaptive\": {\"ops\": " << sim_adapt.ops
     << ", \"retries\": " << sim_adapt.rep.total_retries
     << ", \"retries_per_access\": " << sim_adapt.retries_per_access
     << ", \"completed\": " << sim_adapt.rep.completed
     << ", \"aur\": " << sim_adapt.rep.aur()
     << ", \"controller_epochs\": " << sim_adapt.rep.controller_epochs
     << ", \"shard_counts\": ";
  append_shards_json(os, sim_adapt.rep.contention.shard_counts);
  os << ",\n     \"decisions\": ";
  append_decisions_json(os, sim_adapt.rep.shard_decisions);
  os << "},\n    \"retry_reduction\": " << sim_ratio << "\n  },\n"
     << "  \"live\": {\n    \"threads\": " << threads
     << ", \"accesses_per_thread\": " << per_thread << ",\n"
     << "    \"static\": {\"retries\": " << live_static.retries
     << ", \"backoff_spins\": " << live_static.backoff_spins
     << ", \"p99_ns\": " << live_static.p99_ns << ", \"shard_counts\": ";
  append_shards_json(os, live_static.matrix.shard_counts);
  os << "},\n    \"adaptive\": {\"retries\": " << live_adapt.retries
     << ", \"backoff_spins\": " << live_adapt.backoff_spins
     << ", \"p99_ns\": " << live_adapt.p99_ns
     << ", \"eliminations\": " << live_adapt.eliminations
     << ", \"controller_epochs\": " << live_adapt.epochs
     << ", \"shard_counts\": ";
  append_shards_json(os, live_adapt.matrix.shard_counts);
  os << ",\n     \"decisions\": ";
  append_decisions_json(os, live_adapt.decisions);
  os << "}\n  }\n}\n";
  if (!os) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  std::cout << "shard_adaptive: " << (ok ? "all checks ok" : "CHECKS FAILED")
            << "\n";
  return ok ? 0 : 1;
}
