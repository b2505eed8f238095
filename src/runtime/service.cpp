#include "runtime/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <utility>

#include "support/check.hpp"

namespace lfrt::runtime {
namespace {

using Clock = std::chrono::steady_clock;

// Sliding-window utility-budget gate (the UAM ⟨l, a, W⟩ window as an
// enforcement).  Touched only by the executor's scheduling thread via
// the admission filter, so plain members suffice; `t` is monotone
// because that thread is the only caller.
struct BudgetGate {
  const double budget;
  const Time window;
  std::deque<std::pair<Time, double>> admitted;  // (admit time, U(0))
  double spent = 0.0;

  BudgetGate(double b, Time w) : budget(b), window(w) {}

  bool try_admit(Time t, double u) {
    while (!admitted.empty() && admitted.front().first + window <= t) {
      spent -= admitted.front().second;
      admitted.pop_front();
    }
    if (spent + u > budget) return false;
    admitted.emplace_back(t, u);
    spent += u;
    return true;
  }
};

}  // namespace

struct Service::Impl {
  const ServiceConfig cfg;
  rt::Executor ex;
  std::vector<rt::IngestLane*> lanes;
  std::atomic<bool> closed{false};
  std::atomic<std::int64_t> offered{0};
  std::atomic<std::int64_t> backpressured{0};
  Clock::time_point start = Clock::now();

  Impl(const sched::Scheduler& scheduler, ServiceConfig config)
      : cfg(std::move(config)), ex(scheduler, cfg.executor) {
    LFRT_CHECK_MSG(cfg.lanes >= 1, "ServiceConfig::lanes must be >= 1");
    LFRT_CHECK_MSG(cfg.lane_capacity >= 1,
                   "ServiceConfig::lane_capacity must be >= 1");
    lanes.reserve(static_cast<std::size_t>(cfg.lanes));
    for (int i = 0; i < cfg.lanes; ++i)
      lanes.push_back(&ex.open_lane(cfg.lane_capacity));
    if (cfg.window_utility_budget > 0 && cfg.admission_window > 0) {
      auto gate = std::make_shared<BudgetGate>(cfg.window_utility_budget,
                                               cfg.admission_window);
      auto degraded = cfg.degraded_tuf;
      const Clock::time_point epoch = start;
      ex.set_admission([gate, degraded, epoch](rt::RtJob& job) {
        const Time t = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - epoch)
                           .count();
        if (gate->try_admit(t, job.tuf->utility(0))) return rt::Admission::kAdmit;
        if (degraded) {
          // Renegotiated contract: run under the cheaper TUF instead
          // of shedding.  Bypasses the budget — degradation IS the
          // overload path.
          job.tuf = degraded;
          return rt::Admission::kDegrade;
        }
        return rt::Admission::kReject;
      });
    }
  }

  Time now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start)
        .count();
  }
};

Service::Service(const sched::Scheduler& scheduler, ServiceConfig config)
    : impl_(std::make_unique<Impl>(scheduler, std::move(config))) {}

Service::~Service() {
  if (impl_) impl_->closed.store(true, std::memory_order_release);
  // Executor's own destructor drains and joins.
}

bool Service::offer(int lane, rt::RtJob job) {
  Impl& im = *impl_;
  LFRT_CHECK_MSG(lane >= 0 && lane < static_cast<int>(im.lanes.size()),
                 "offer: lane out of range");
  if (im.closed.load(std::memory_order_acquire)) return false;
  if (im.lanes[static_cast<std::size_t>(lane)]->offer(std::move(job))) {
    im.offered.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  im.backpressured.fetch_add(1, std::memory_order_relaxed);
  return false;
}

std::int64_t Service::drive_open_loop(int lane,
                                      std::vector<ArrivalStream> streams) {
  Impl& im = *impl_;
  LFRT_CHECK_MSG(lane >= 0 && lane < static_cast<int>(im.lanes.size()),
                 "drive_open_loop: lane out of range");
  for (const auto& s : streams)
    LFRT_CHECK_MSG(s.make_job != nullptr, "ArrivalStream needs make_job");

  // One sorted tape per driver call: the caller thread owns the pacing,
  // so concurrent drivers on different lanes never share timer state.
  std::vector<std::pair<Time, std::size_t>> tape;
  for (std::size_t s = 0; s < streams.size(); ++s)
    for (const Time at : streams[s].arrivals) tape.emplace_back(at, s);
  std::sort(tape.begin(), tape.end());

  const Clock::time_point epoch = Clock::now();
  std::int64_t accepted = 0;
  std::size_t i = 0;
  while (i < tape.size() && !im.closed.load(std::memory_order_acquire)) {
    std::this_thread::sleep_until(epoch +
                                  std::chrono::nanoseconds(tape[i].first));
    // Open loop: everything due fires now even if we're behind
    // schedule — the arrival process never waits for the system.
    const Time now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - epoch)
                         .count();
    for (; i < tape.size() && tape[i].first <= now; ++i) {
      if (im.closed.load(std::memory_order_acquire)) return accepted;
      if (offer(lane, streams[tape[i].second].make_job())) ++accepted;
    }
  }
  return accepted;
}

void Service::close_ingest() {
  impl_->closed.store(true, std::memory_order_release);
}

bool Service::ingest_closed() const {
  return impl_->closed.load(std::memory_order_acquire);
}

int Service::lane_count() const {
  return static_cast<int>(impl_->lanes.size());
}

ServiceReport Service::shutdown() {
  Impl& im = *impl_;
  close_ingest();
  ServiceReport rep;
  rep.exec = im.ex.shutdown();
  rep.offered = im.offered.load(std::memory_order_relaxed);
  rep.backpressured = im.backpressured.load(std::memory_order_relaxed);
  rep.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(Clock::now() -
                                                                im.start)
          .count();
  if (rep.wall_seconds > 0) {
    rep.ingest_jobs_per_sec =
        static_cast<double>(rep.offered) / rep.wall_seconds;
    rep.completed_jobs_per_sec =
        static_cast<double>(rep.exec.completed) / rep.wall_seconds;
    rep.utility_per_sec = rep.exec.accrued_utility / rep.wall_seconds;
  }
  return rep;
}

}  // namespace lfrt::runtime
