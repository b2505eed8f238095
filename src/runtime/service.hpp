// runtime::Service — long-running streaming ingest front end over
// rt::Executor.
//
// Every run used to be a finite pre-generated trace handed to the
// executor up front.  A Service instead keeps the executor up for as
// long as traffic arrives: P producer threads stage jobs into
// per-producer wait-free ingest lanes (rt::IngestLane), the executor's
// scheduling thread drains all lanes in one mutex acquisition per
// burst, and a sliding-window utility budget — the paper's UAM arrival
// model ⟨l, a, W⟩ turned from an *assumption* into an *enforcement* —
// sheds or degrades arrivals beyond the declared load, making
// admission control the backpressure mechanism (overload never grows
// an unbounded backlog; it turns into accounted rejections).
//
// Open-loop arrivals: drive_open_loop() sorts any number of
// pre-generated arrival streams into one tape and paces it in the
// calling thread, firing offer() at each arrival time — the
// open-loop load generator a latency SLO must be measured under
// (closed-loop generators hide queueing delay; see bench/soak_service).
//
// Shutdown contract: stop your producers (close_ingest() makes every
// subsequent offer() return false and ends drive_open_loop() pacing),
// join them, then call shutdown().  Offers racing shutdown may be
// dropped; offers that returned true before the producers stopped are
// always accounted — the report upholds
//   offered == submitted + rejected.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "rt/executor.hpp"
#include "support/time.hpp"
#include "tuf/tuf.hpp"

namespace lfrt::sched {
class Scheduler;
}

namespace lfrt::runtime {

struct ServiceConfig {
  /// Executor shape (cpu_count, dispatch, ...).  Note
  /// retain_job_records defaults to FALSE here, the opposite of the
  /// raw executor: a service pushing millions of jobs must not grow an
  /// O(jobs) record vector.  max_live_jobs defaults to 8192 as the
  /// hard backlog cap (0 stays 0 only if set explicitly — pass the
  /// whole ExecutorConfig to override).
  rt::ExecutorConfig executor{.retain_job_records = false,
                              .max_live_jobs = 8192,
                              .dispatch = {}};

  int lanes = 1;                    ///< one per producer thread
  std::size_t lane_capacity = 4096; ///< offers park here until drained

  /// Sliding-window utility budget (UAM admission): within any
  /// trailing `admission_window`, at most `window_utility_budget`
  /// total U(0) of jobs is admitted at full contract.  Arrivals beyond
  /// it are rejected — or degraded to `degraded_tuf` when that is set
  /// (a renegotiated cheaper contract that bypasses the budget).
  /// budget <= 0 or window <= 0 disables the gate; the executor's
  /// max_live_jobs backlog cap still applies.
  double window_utility_budget = 0.0;
  Time admission_window = 0;
  std::shared_ptr<const Tuf> degraded_tuf;
};

/// Aggregate outcome of a Service run: the executor report plus
/// ingest-side accounting and wall-clock rates.
struct ServiceReport {
  rt::ExecutorReport exec;

  std::int64_t offered = 0;        ///< offer() == true, all lanes
  std::int64_t backpressured = 0;  ///< offer() == false on a full lane

  double wall_seconds = 0.0;       ///< construction -> shutdown
  double ingest_jobs_per_sec = 0.0;     ///< offered / wall
  double completed_jobs_per_sec = 0.0;  ///< exec.completed / wall
  double utility_per_sec = 0.0;         ///< exec.accrued_utility / wall
};

class Service {
 public:
  /// `scheduler` must outlive the service.
  Service(const sched::Scheduler& scheduler, ServiceConfig config);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Stage one job into `lane` (0-based).  Wait-free; returns false
  /// when the lane is full (counted as backpressure) or ingest is
  /// closed (not counted).  One producer thread per lane.
  bool offer(int lane, rt::RtJob job);

  /// One arrival stream for drive_open_loop: fire make_job() at each
  /// arrival time (ns, relative to the call).  Arrival times may come
  /// in any order — they need not be sorted.
  struct ArrivalStream {
    std::vector<Time> arrivals;
    std::function<rt::RtJob()> make_job;
  };

  /// Open-loop load generator: fire all streams' arrivals in time
  /// order (ties in stream order), offering into `lane` at each firing
  /// (arrivals due while behind schedule fire immediately — open-loop
  /// means the schedule never waits for the system).  Blocks until
  /// every arrival has fired or ingest is closed; returns how many
  /// offers were accepted.  Call from the lane's producer thread.
  std::int64_t drive_open_loop(int lane, std::vector<ArrivalStream> streams);

  /// Make every subsequent offer() return false and stop open-loop
  /// drivers at their next firing.  Producers must be joined before
  /// shutdown().
  void close_ingest();

  bool ingest_closed() const;
  int lane_count() const;

  /// Close ingest, drain everything already accepted, stop the
  /// executor, and return the tallies.
  ServiceReport shutdown();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace lfrt::runtime
