// runtime::Service — the streaming front end over rt::Executor.
// Covers the ingest conservation law (offered == submitted + rejected),
// the sliding-window UAM admission gate in both shed and degrade
// modes, lane backpressure, open-loop pacing of unsorted arrival
// streams in time order, and the close_ingest() shutdown sequencing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/service.hpp"
#include "sched/rua.hpp"

namespace lfrt::runtime {
namespace {

rt::RtJob quick_job(double height = 5.0) {
  rt::RtJob job;
  job.tuf = make_step_tuf(height, msec(200));
  job.expected_exec = usec(20);
  job.body = [](rt::JobContext& ctx) { ctx.checkpoint(); };
  return job;
}

TEST(Service, OfferedJobsAllAccountedAcrossLanes) {
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  ServiceConfig cfg;
  cfg.executor.cpu_count = 2;
  cfg.lanes = 2;
  cfg.lane_capacity = 1024;
  Service svc(rua, std::move(cfg));
  ASSERT_EQ(svc.lane_count(), 2);

  constexpr int kPerLane = 2'000;
  std::atomic<std::int64_t> accepted{0};
  std::vector<std::thread> producers;
  for (int lane = 0; lane < 2; ++lane) {
    producers.emplace_back([&, lane] {
      for (int i = 0; i < kPerLane; ++i) {
        while (!svc.offer(lane, quick_job())) std::this_thread::yield();
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();
  const ServiceReport rep = svc.shutdown();
  EXPECT_LE(rep.exec.max_concurrency_observed, rep.exec.cpu_count);

  EXPECT_EQ(rep.offered, accepted.load());
  EXPECT_EQ(rep.offered, 2 * kPerLane);
  // The conservation law the whole ingest path hangs on.
  EXPECT_EQ(rep.offered, rep.exec.submitted + rep.exec.rejected);
  EXPECT_EQ(rep.exec.counted_jobs, rep.exec.submitted + rep.exec.rejected);
  EXPECT_EQ(rep.exec.completed + rep.exec.aborted, rep.exec.submitted);
  EXPECT_EQ(rep.exec.lane_ingested, rep.offered);
  // Service shape: no O(jobs) record retention.
  EXPECT_TRUE(rep.exec.jobs.empty());
  EXPECT_GT(rep.wall_seconds, 0.0);
  EXPECT_GT(rep.ingest_jobs_per_sec, 0.0);
}

TEST(Service, AdmissionBudgetShedsBeyondDeclaredLoad) {
  // Budget 12 utility per 10 s window, each arrival worth U(0) = 5:
  // exactly two fit; with no degraded contract the rest are shed.  The
  // test finishes far inside one window, so the count is deterministic.
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  ServiceConfig cfg;
  cfg.window_utility_budget = 12.0;
  cfg.admission_window = sec(10);
  Service svc(rua, std::move(cfg));

  constexpr int kOffers = 50;
  std::int64_t accepted = 0;
  for (int i = 0; i < kOffers; ++i)
    if (svc.offer(0, quick_job(/*height=*/5.0))) ++accepted;
  const ServiceReport rep = svc.shutdown();
  EXPECT_LE(rep.exec.max_concurrency_observed, rep.exec.cpu_count);

  EXPECT_EQ(rep.offered, accepted);
  EXPECT_EQ(rep.exec.submitted, 2);  // floor(12 / 5)
  EXPECT_EQ(rep.exec.rejected, rep.offered - 2);
  EXPECT_EQ(rep.exec.degraded, 0);
  EXPECT_EQ(rep.offered, rep.exec.submitted + rep.exec.rejected);
  // Shed arrivals count against the denominator (their U(0) joins
  // max_possible_utility) but accrue nothing.
  EXPECT_GE(rep.exec.max_possible_utility, 5.0 * static_cast<double>(kOffers));
}

TEST(Service, AdmissionBudgetDegradesWhenFallbackTufSet) {
  // Same overload, but a degraded contract is on offer: over-budget
  // arrivals run at the cheaper TUF instead of being shed.
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  ServiceConfig cfg;
  cfg.window_utility_budget = 12.0;
  cfg.admission_window = sec(10);
  cfg.degraded_tuf = make_step_tuf(0.5, msec(200));
  Service svc(rua, std::move(cfg));

  constexpr int kOffers = 40;
  for (int i = 0; i < kOffers; ++i)
    ASSERT_TRUE(svc.offer(0, quick_job(/*height=*/5.0)));
  const ServiceReport rep = svc.shutdown();
  EXPECT_LE(rep.exec.max_concurrency_observed, rep.exec.cpu_count);

  EXPECT_EQ(rep.offered, kOffers);
  EXPECT_EQ(rep.exec.submitted, kOffers);  // nobody shed
  EXPECT_EQ(rep.exec.rejected, 0);
  EXPECT_EQ(rep.exec.degraded, kOffers - 2);
  EXPECT_EQ(rep.exec.completed + rep.exec.aborted, rep.exec.submitted);
  // Degraded contracts cap the achievable utility: 2 full jobs at 5.0
  // plus the rest at 0.5 at best.
  EXPECT_LE(rep.exec.accrued_utility,
            2 * 5.0 + (kOffers - 2) * 0.5 + 1e-9);
}

TEST(Service, FullLaneBackpressuresInsteadOfBlocking) {
  // A 2-slot lane (1 usable) against a tight producer loop: offer()
  // must return false — wait-free shedding at the producer — and the
  // report must count every such refusal.
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  ServiceConfig cfg;
  cfg.lane_capacity = 2;
  Service svc(rua, std::move(cfg));

  std::int64_t accepted = 0;
  std::int64_t refused = 0;
  for (std::int64_t attempts = 0; refused == 0 && attempts < 2'000'000;
       ++attempts) {
    if (svc.offer(0, quick_job())) ++accepted;
    else ++refused;
  }
  const ServiceReport rep = svc.shutdown();
  EXPECT_LE(rep.exec.max_concurrency_observed, rep.exec.cpu_count);

  EXPECT_GT(refused, 0);  // the tight loop outran a 1-slot lane
  EXPECT_EQ(rep.offered, accepted);
  EXPECT_EQ(rep.backpressured, refused);
  EXPECT_EQ(rep.offered, rep.exec.submitted + rep.exec.rejected);
}

TEST(Service, DriveOpenLoopPacesArrivalsOnTheWheel) {
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  ServiceConfig cfg;
  cfg.executor.cpu_count = 2;
  Service svc(rua, std::move(cfg));

  // Two interleaved streams, last arrival at 38 ms.  Open-loop pacing
  // must stretch the call to about that long — the schedule, not the
  // system, sets the clock.
  std::vector<Service::ArrivalStream> streams(2);
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 10; ++i)
      streams[s].arrivals.push_back(msec(4 * i) + msec(2) * s);
    streams[s].make_job = [] { return quick_job(); };
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::int64_t accepted = svc.drive_open_loop(0, std::move(streams));
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_EQ(accepted, 20);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            35);  // ~last arrival (38ms), minus scheduler-clock slack
  const ServiceReport rep = svc.shutdown();
  EXPECT_LE(rep.exec.max_concurrency_observed, rep.exec.cpu_count);
  EXPECT_EQ(rep.offered, accepted);
  EXPECT_EQ(rep.exec.submitted, accepted);
  EXPECT_EQ(rep.exec.completed + rep.exec.aborted, rep.exec.submitted);
  // Percentiles populated from the lane path and monotone.
  EXPECT_GT(rep.exec.sojourn_p999_ns, 0);
  EXPECT_LE(rep.exec.sojourn_p50_ns, rep.exec.sojourn_p99_ns);
  EXPECT_LE(rep.exec.sojourn_p99_ns, rep.exec.sojourn_p999_ns);
  EXPECT_LE(rep.exec.ingest_p50_ns, rep.exec.ingest_p99_ns);
  EXPECT_LE(rep.exec.ingest_p99_ns, rep.exec.ingest_p999_ns);
}

TEST(Service, DriveOpenLoopFiresUnsortedStreamsInTimeOrder) {
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  ServiceConfig cfg;
  cfg.executor.cpu_count = 2;
  Service svc(rua, std::move(cfg));

  // Three streams, each listed out of order; streams 0 and 2 share
  // every arrival time.  Ties fire in stream order.
  const std::vector<std::vector<Time>> arrivals = {
      {msec(8), msec(0), msec(4)},
      {msec(6), msec(2), msec(10)},
      {msec(4), msec(8), msec(0)},
  };
  std::vector<std::size_t> fired;  // make_job runs on this thread only
  std::vector<Service::ArrivalStream> streams(arrivals.size());
  std::vector<std::pair<Time, std::size_t>> expected;
  for (std::size_t s = 0; s < arrivals.size(); ++s) {
    streams[s].arrivals = arrivals[s];
    streams[s].make_job = [&fired, s] {
      fired.push_back(s);
      return quick_job();
    };
    for (const Time at : arrivals[s]) expected.emplace_back(at, s);
  }
  std::sort(expected.begin(), expected.end());

  const std::int64_t accepted = svc.drive_open_loop(0, std::move(streams));
  EXPECT_EQ(accepted, static_cast<std::int64_t>(expected.size()));
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(fired[i], expected[i].second) << "firing " << i;

  const ServiceReport rep = svc.shutdown();
  EXPECT_EQ(rep.offered, accepted);
  EXPECT_EQ(rep.offered, rep.exec.submitted + rep.exec.rejected);
}

TEST(Service, CloseIngestStopsOffersAndOpenLoopDrivers) {
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  ServiceConfig cfg;
  Service svc(rua, std::move(cfg));

  ASSERT_TRUE(svc.offer(0, quick_job()));
  EXPECT_FALSE(svc.ingest_closed());
  svc.close_ingest();
  EXPECT_TRUE(svc.ingest_closed());
  EXPECT_FALSE(svc.offer(0, quick_job()));  // closed, not backpressure

  // An open-loop driver started after close returns immediately with
  // nothing accepted, even with arrivals scheduled far out.
  std::vector<Service::ArrivalStream> streams(1);
  streams[0].arrivals = {sec(30)};
  streams[0].make_job = [] { return quick_job(); };
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(svc.drive_open_loop(0, std::move(streams)), 0);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));

  const ServiceReport rep = svc.shutdown();
  EXPECT_LE(rep.exec.max_concurrency_observed, rep.exec.cpu_count);
  EXPECT_EQ(rep.offered, 1);
  EXPECT_EQ(rep.backpressured, 0);  // closed-door refusals are uncounted
  EXPECT_EQ(rep.exec.submitted + rep.exec.rejected, 1);
}

}  // namespace
}  // namespace lfrt::runtime
