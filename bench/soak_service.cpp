// Million-job streaming soak: the service mode's acceptance artifact.
//
// Three claims, measured on real threads:
//
//   1. Ingest throughput.  The seed executor's submit path cost one
//      mutex acquisition AND one thread spawn+join per job
//      (thread-per-job).  The service path stages jobs into wait-free
//      per-producer lanes drained in batches by the scheduling thread.
//      This bench measures the seed path's per-job cost (measured
//      single-submit + measured thread spawn/join), the lane path, and
//      submit_batch, and ENFORCES a >= 10x lane-over-seed win.
//
//   2. Sustained soak with latency SLOs.  A capacity probe finds each
//      universe's saturation completion rate; the soak then drives an
//      open-loop arrival schedule (sorted-tape paced, P producers) at
//      ~70% of it until >= 1M jobs (20k in --tiny) have been offered
//      end-to-end through BOTH universes — bodies hammering a shared
//      lock-free MsQueue vs a mutex-locked LockedQueue — and reports
//      p50/p99/p999 sojourn and ingest-wait percentiles, jobs/s, and
//      utility/s from the executor's LatencyHistograms.
//
//   3. Conservation under storm.  In every phase the ingest ledger
//      must balance: offered == submitted + rejected,
//      counted_jobs == submitted + rejected, completed + aborted ==
//      submitted, lane_ingested == offered.
//
// Usage: soak_service [--tiny] [--threads=N] [--out FILE]
//   --tiny   smoke mode for check.sh/CI: 20k jobs, invariants and the
//            10x ingest ratio enforced, the 1M floor not
//   --out    JSON output path (default BENCH_soak.json in the cwd)
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "lockbased/locked.hpp"
#include "lockfree/msqueue.hpp"
#include "runtime/service.hpp"

namespace {

using namespace lfrt;

double elapsed_sec(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Seed-path cost component: one thread spawn + join, sequentially —
/// exactly what the thread-per-job executor paid per submission.
double measure_spawn_join_ns() {
  constexpr int kThreads = 200;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kThreads; ++i) {
    std::thread t([] {});
    t.join();
  }
  return elapsed_sec(t0) * 1e9 / kThreads;
}

/// A job that the executor can retire without dispatching a worker:
/// its critical time is already (nearly) past at admission, so the
/// abort timer reclaims it inline on the next scheduling pass.  This
/// isolates the *submission path* being measured from body execution.
rt::RtJob expiring_job(const std::shared_ptr<const Tuf>& tuf) {
  rt::RtJob job;
  job.tuf = tuf;
  job.expected_exec = usec(1);
  job.body = [](rt::JobContext&) {};
  return job;
}

struct IngestRates {
  double single_ns = 0.0;      // one submit() call
  double batch_ns = 0.0;       // submit_batch amortized per job
  double lane_ns = 0.0;        // lane offer() amortized per job
  double spawn_ns = 0.0;       // thread spawn+join (seed component)
  double seed_ns = 0.0;        // spawn_ns + single_ns
  bool conserved = true;
};

IngestRates measure_ingest(std::int64_t n) {
  IngestRates r;
  r.spawn_ns = measure_spawn_join_ns();
  const std::shared_ptr<const Tuf> tuf = make_step_tuf(1.0, usec(1));
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  rt::ExecutorConfig cfg;
  cfg.cpu_count = 2;
  cfg.retain_job_records = false;

  auto conserved = [&r](const rt::ExecutorReport& rep, std::int64_t accepted) {
    r.conserved = r.conserved && rep.submitted + rep.rejected == accepted &&
                  rep.counted_jobs == rep.submitted + rep.rejected &&
                  rep.completed + rep.aborted == rep.submitted;
  };

  {  // single submit() — the seed call shape (minus the thread spawn)
    rt::Executor ex(rua, cfg);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < n; ++i) ex.submit(expiring_job(tuf));
    r.single_ns = elapsed_sec(t0) * 1e9 / static_cast<double>(n);
    conserved(ex.shutdown(), n);
  }
  {  // submit_batch, 256 jobs per mutex acquisition
    rt::Executor ex(rua, cfg);
    constexpr std::size_t kBatch = 256;
    std::vector<rt::RtJob> batch(kBatch);
    std::int64_t sent = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (sent < n) {
      const std::size_t take =
          static_cast<std::size_t>(std::min<std::int64_t>(
              static_cast<std::int64_t>(kBatch), n - sent));
      for (std::size_t i = 0; i < take; ++i) batch[i] = expiring_job(tuf);
      sent += static_cast<std::int64_t>(ex.submit_batch(batch.data(), take));
    }
    r.batch_ns = elapsed_sec(t0) * 1e9 / static_cast<double>(sent);
    conserved(ex.shutdown(), sent);
  }
  {  // wait-free lane offer(), drained in batches by the sched thread
    rt::Executor ex(rua, cfg);
    rt::IngestLane& lane = ex.open_lane(/*capacity=*/65536);
    std::int64_t accepted = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < n; ++i) {
      while (!lane.offer(expiring_job(tuf))) std::this_thread::yield();
      ++accepted;
    }
    r.lane_ns = elapsed_sec(t0) * 1e9 / static_cast<double>(accepted);
    conserved(ex.shutdown(), accepted);
  }
  r.seed_ns = r.spawn_ns + r.single_ns;
  return r;
}

// ---- soak ------------------------------------------------------------

enum class Universe { kLockFree, kLockBased };

struct SoakResult {
  runtime::ServiceReport rep;
  std::int64_t attempted = 0;   // arrivals the open-loop schedule fired
  std::int64_t accepted = 0;    // drive_open_loop offers that landed
  double target_rate = 0.0;     // arrivals/s the schedule was built for
  double aur = 0.0;
};

/// Body factory: one enqueue + checkpoint + one dequeue against the
/// universe's shared queue, so the structure's retry/blocking counters
/// and the heatmap see real cross-worker interference.
std::function<rt::RtJob()> make_job_factory(
    Universe u, const std::shared_ptr<const Tuf>& tuf,
    const std::shared_ptr<lockfree::MsQueue<int>>& lf_q,
    const std::shared_ptr<lockbased::LockedQueue<int, std::mutex>>& lb_q) {
  return [u, tuf, lf_q, lb_q] {
    rt::RtJob job;
    job.tuf = tuf;
    job.expected_exec = usec(5);
    if (u == Universe::kLockFree) {
      job.body = [lf_q](rt::JobContext& ctx) {
        (void)lf_q->enqueue(1);
        ctx.checkpoint();
        (void)lf_q->dequeue();
      };
    } else {
      job.body = [lb_q](rt::JobContext& ctx) {
        lb_q->enqueue(1);
        ctx.checkpoint();
        (void)lb_q->dequeue();
      };
    }
    return job;
  };
}

SoakResult run_soak(Universe u, std::int64_t jobs, double rate,
                    int producers) {
  const std::shared_ptr<const Tuf> tuf = make_step_tuf(1.0, msec(50));
  auto lf_q = std::make_shared<lockfree::MsQueue<int>>(8192);
  auto lb_q = std::make_shared<lockbased::LockedQueue<int, std::mutex>>();
  const auto factory = make_job_factory(u, tuf, lf_q, lb_q);

  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  runtime::ServiceConfig cfg;
  cfg.executor.cpu_count = 4;
  // Backlog cap: past this the admission layer sheds (accounted
  // rejections) instead of letting the scheduler's O(live) pass
  // collapse under an unbounded queue.
  cfg.executor.max_live_jobs = 128;
  cfg.lanes = producers;
  cfg.lane_capacity = 65536;
  runtime::Service svc(rua, std::move(cfg));

  SoakResult res;
  res.target_rate = rate;
  const std::int64_t per = jobs / producers;
  res.attempted = per * producers;
  const double spacing_ns = 1e9 * producers / rate;

  std::atomic<std::int64_t> accepted{0};
  std::vector<std::thread> pool;
  for (int p = 0; p < producers; ++p) {
    pool.emplace_back([&, p] {
      std::vector<runtime::Service::ArrivalStream> streams(1);
      streams[0].arrivals.reserve(static_cast<std::size_t>(per));
      for (std::int64_t k = 0; k < per; ++k)
        streams[0].arrivals.push_back(static_cast<Time>(
            spacing_ns * static_cast<double>(k) +
            spacing_ns * static_cast<double>(p) / producers));
      streams[0].make_job = factory;
      accepted.fetch_add(svc.drive_open_loop(p, std::move(streams)),
                         std::memory_order_relaxed);
    });
  }
  for (auto& t : pool) t.join();
  res.accepted = accepted.load();
  res.rep = svc.shutdown();
  res.aur = res.rep.exec.aur();
  return res;
}

/// Saturation probe: hammer offers with no pacing; the admission cap
/// sheds the excess, so completed/wall approximates the universe's
/// service capacity at the configured backlog.
double probe_capacity(Universe u, std::int64_t jobs) {
  const std::shared_ptr<const Tuf> tuf = make_step_tuf(1.0, msec(50));
  auto lf_q = std::make_shared<lockfree::MsQueue<int>>(8192);
  auto lb_q = std::make_shared<lockbased::LockedQueue<int, std::mutex>>();
  const auto factory = make_job_factory(u, tuf, lf_q, lb_q);

  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  runtime::ServiceConfig cfg;
  cfg.executor.cpu_count = 4;
  cfg.executor.max_live_jobs = 128;
  cfg.lane_capacity = 65536;
  runtime::Service svc(rua, std::move(cfg));
  for (std::int64_t i = 0; i < jobs; ++i) {
    while (!svc.offer(0, factory())) std::this_thread::yield();
  }
  const runtime::ServiceReport rep = svc.shutdown();
  return rep.completed_jobs_per_sec;
}

bool check_soak(const char* name, const SoakResult& s, bool& ok) {
  const rt::ExecutorReport& e = s.rep.exec;
  bool mode_ok = true;
  auto fail = [&](const std::string& what) {
    std::cerr << "error: [" << name << "] " << what << "\n";
    mode_ok = false;
  };
  if (s.rep.offered != s.accepted)
    fail("offered != drive_open_loop accepted");
  if (s.rep.offered + s.rep.backpressured != s.attempted)
    fail("offered + backpressured != attempted arrivals");
  if (e.submitted + e.rejected != s.rep.offered)
    fail("submitted + rejected != offered");
  if (e.counted_jobs != e.submitted + e.rejected)
    fail("counted_jobs != submitted + rejected");
  if (e.completed + e.aborted != e.submitted)
    fail("completed + aborted != submitted");
  if (e.lane_ingested != s.rep.offered)
    fail("lane_ingested != offered");
  if (e.completed > 0 && e.sojourn_p999_ns <= 0)
    fail("sojourn percentiles missing");
  if (e.sojourn_p50_ns > e.sojourn_p99_ns ||
      e.sojourn_p99_ns > e.sojourn_p999_ns)
    fail("sojourn percentiles not monotone");
  if (e.ingest_p50_ns > e.ingest_p99_ns ||
      e.ingest_p99_ns > e.ingest_p999_ns)
    fail("ingest percentiles not monotone");
  if (!e.jobs.empty()) fail("per-job records retained in service mode");
  ok = ok && mode_ok;
  return mode_ok;
}

void append_soak_json(std::ofstream& os, const char* name,
                      const SoakResult& s) {
  const rt::ExecutorReport& e = s.rep.exec;
  os << "    \"" << name << "\": {\"attempted\": " << s.attempted
     << ", \"offered\": " << s.rep.offered
     << ", \"backpressured\": " << s.rep.backpressured
     << ", \"submitted\": " << e.submitted
     << ", \"rejected\": " << e.rejected
     << ", \"completed\": " << e.completed
     << ", \"aborted\": " << e.aborted << ",\n"
     << "      \"target_rate_per_sec\": " << s.target_rate
     << ", \"wall_seconds\": " << s.rep.wall_seconds
     << ", \"ingest_jobs_per_sec\": " << s.rep.ingest_jobs_per_sec
     << ", \"completed_jobs_per_sec\": " << s.rep.completed_jobs_per_sec
     << ", \"utility_per_sec\": " << s.rep.utility_per_sec
     << ", \"aur\": " << s.aur << ",\n"
     << "      \"sojourn_p50_ns\": " << e.sojourn_p50_ns
     << ", \"sojourn_p99_ns\": " << e.sojourn_p99_ns
     << ", \"sojourn_p999_ns\": " << e.sojourn_p999_ns
     << ", \"ingest_p50_ns\": " << e.ingest_p50_ns
     << ", \"ingest_p99_ns\": " << e.ingest_p99_ns
     << ", \"ingest_p999_ns\": " << e.ingest_p999_ns
     << ",\n      \"total_retries\": " << e.total_retries
     << ", \"total_blockings\": " << e.total_blockings
     << ", \"peak_live_records\": " << e.peak_live_records
     << ", \"worker_pool_peak\": " << e.worker_pool_peak << "}";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lfrt;
  bench::init(argc, argv);
  bool tiny = false;
  std::string out_path = "BENCH_soak.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strncmp(argv[i], "--threads", 9) == 0) {
      if (std::strchr(argv[i], '=') == nullptr && i + 1 < argc) ++i;
    } else {
      std::cerr << "usage: soak_service [--tiny] [--threads=N] "
                   "[--out FILE]\n";
      return 2;
    }
  }
  const std::string host = bench::host_json();
  bench::print_header(
      "Service soak",
      "batched lane ingest vs seed submit path; open-loop soak with "
      "latency SLOs through lock-free and lock-based universes");

  const std::int64_t soak_jobs = tiny ? 20'000 : 1'000'000;
  const std::int64_t ingest_n = tiny ? 20'000 : 200'000;
  const std::int64_t probe_jobs = tiny ? 10'000 : 40'000;
  const int producers = tiny ? 2 : 4;

  // ---- ingest micro-measurement -------------------------------------
  const IngestRates rates = measure_ingest(ingest_n);
  const double seed_rate = 1e9 / rates.seed_ns;
  const double lane_rate = 1e9 / rates.lane_ns;
  const double ratio = lane_rate / seed_rate;
  std::cout << "ingest path costs (ns/job): seed "
            << Table::num(rates.seed_ns, 0) << " (spawn+join "
            << Table::num(rates.spawn_ns, 0) << " + submit "
            << Table::num(rates.single_ns, 0) << "), submit_batch "
            << Table::num(rates.batch_ns, 0) << ", lane offer "
            << Table::num(rates.lane_ns, 0) << "\n";
  std::cout << "submit throughput: seed " << Table::num(seed_rate, 0)
            << " jobs/s -> lane " << Table::num(lane_rate, 0)
            << " jobs/s (" << Table::num(ratio, 1) << "x)\n";

  // ---- capacity probes + soaks --------------------------------------
  const double cap_lf = probe_capacity(Universe::kLockFree, probe_jobs);
  const double cap_lb = probe_capacity(Universe::kLockBased, probe_jobs);
  std::cout << "capacity probe: lock-free " << Table::num(cap_lf, 0)
            << " jobs/s, lock-based " << Table::num(cap_lb, 0)
            << " jobs/s\n";
  // 70% of probed capacity, floored so the full soak stays bounded in
  // wall clock (overload beyond capacity turns into accounted
  // rejections via the admission cap, which is the design).
  const double floor_rate =
      static_cast<double>(soak_jobs) / (tiny ? 5.0 : 40.0);
  const double rate_lf = std::max(0.7 * cap_lf, floor_rate);
  const double rate_lb = std::max(0.7 * cap_lb, floor_rate);

  const SoakResult lf =
      run_soak(Universe::kLockFree, soak_jobs, rate_lf, producers);
  const SoakResult lb =
      run_soak(Universe::kLockBased, soak_jobs, rate_lb, producers);

  Table table({"universe", "offered", "completed", "aborted", "rejected",
               "jobs/s", "p50_us", "p99_us", "p999_us", "AUR", "util/s"});
  auto add = [&table](const char* name, const SoakResult& s) {
    const rt::ExecutorReport& e = s.rep.exec;
    table.add_row({name, std::to_string(s.rep.offered),
                   std::to_string(e.completed), std::to_string(e.aborted),
                   std::to_string(e.rejected),
                   Table::num(s.rep.completed_jobs_per_sec, 0),
                   Table::num(e.sojourn_p50_ns / 1e3, 1),
                   Table::num(e.sojourn_p99_ns / 1e3, 1),
                   Table::num(e.sojourn_p999_ns / 1e3, 1),
                   Table::num(s.aur, 3),
                   Table::num(s.rep.utility_per_sec, 0)});
  };
  add("lock-free", lf);
  add("lock-based", lb);
  table.print();

  // ---- assertions ----------------------------------------------------
  bool ok = rates.conserved;
  if (!rates.conserved)
    std::cerr << "error: ingest micro-runs broke conservation\n";
  check_soak("lock-free", lf, ok);
  check_soak("lock-based", lb, ok);
  if (ratio < 10.0) {
    std::cerr << "error: lane ingest only " << ratio
              << "x over seed path (need >= 10x)\n";
    ok = false;
  }
  if (!tiny && lf.attempted + lb.attempted < 2'000'000) {
    std::cerr << "error: soak attempted < 1M jobs per universe\n";
    ok = false;
  }
  if (lf.rep.offered < lf.attempted * 99 / 100 ||
      lb.rep.offered < lb.attempted * 99 / 100) {
    std::cerr << "error: lane backpressure ate > 1% of the open-loop "
                 "schedule (lanes undersized?)\n";
    ok = false;
  }

  std::ofstream os(out_path);
  os << "{\n  \"bench\": \"soak_service\",\n  \"host\": "
     << host << ",\n  \"tiny\": "
     << (tiny ? "true" : "false") << ",\n  \"ingest\": {\n"
     << "    \"seed_ns_per_job\": " << rates.seed_ns
     << ", \"spawn_join_ns\": " << rates.spawn_ns
     << ", \"single_submit_ns\": " << rates.single_ns
     << ", \"submit_batch_ns\": " << rates.batch_ns
     << ", \"lane_offer_ns\": " << rates.lane_ns << ",\n"
     << "    \"seed_jobs_per_sec\": " << seed_rate
     << ", \"lane_jobs_per_sec\": " << lane_rate
     << ", \"speedup\": " << ratio << "\n  },\n"
     << "  \"capacity\": {\"lockfree\": " << cap_lf
     << ", \"lockbased\": " << cap_lb << "},\n  \"soak\": {\n";
  append_soak_json(os, "lockfree", lf);
  os << ",\n";
  append_soak_json(os, "lockbased", lb);
  os << "\n  }\n}\n";
  if (!os) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  std::cout << "soak_service: " << (ok ? "all checks ok" : "CHECKS FAILED")
            << "\n";
  return ok ? 0 : 1;
}
