#include "rt/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/latency_histogram.hpp"
#include "runtime/object_stats.hpp"
#include "sched/scheduling_pass.hpp"
#include "support/check.hpp"

namespace lfrt::rt {
namespace {

using Clock = std::chrono::steady_clock;

void validate(const RtJob& job) {
  LFRT_CHECK_MSG(job.tuf != nullptr, "job needs a TUF");
  LFRT_CHECK_MSG(job.body != nullptr, "job needs a body");
  LFRT_CHECK_MSG(job.expected_exec > 0, "job needs an execution estimate");
}

// Workers started beyond cpu_count (see the pool notes in
// executor.hpp), and the most entries one lane drain burst moves (the
// lane is re-polled until empty regardless).
constexpr int kWorkerReserve = 2;
constexpr std::size_t kIngestBatch = 256;

}  // namespace

struct Executor::Impl {
  struct JobRec;

  struct Worker {
    std::thread th;
    JobRec* assigned = nullptr;  // under mu; non-null = has work
    std::condition_variable cv;  // idle wait: bind_worker or shutdown
  };

  const ExecutorConfig cfg;
  Clock::time_point epoch = Clock::now();

  std::mutex mu;
  std::condition_variable sched_cv;  // wakes the scheduling thread

  // Job records live in a stable-address slab and recycle through a
  // free list: steady-state admission touches no allocator, and the
  // slab's size is the run's peak backlog, not its job count.  `live`
  // holds the admitted-but-not-terminal jobs in id order: admission
  // appends (ids only grow), finalize erases, and lookups binary-search
  // it, so nothing here grows with the ids a long service hands out.
  std::deque<JobRec> slab;
  std::vector<JobRec*> free_recs;
  std::vector<JobRec*> live;
  JobId next_id = 0;

  // Worker pool.  Workers wait on their own cv between jobs; `idle` is
  // a LIFO so recently-run (cache-warm) threads go first.
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<Worker*> idle;
  bool workers_stop = false;

  // Ingest lanes + admission (lane pointers are stable; the vector is
  // only ever appended to under mu).
  std::vector<std::unique_ptr<IngestLane>> lanes;
  std::vector<IngestLane::Entry> scratch;
  AdmissionFilter admission;  // scheduling thread only, under mu
  // Producer/consumer sleep handshake: the scheduling thread publishes
  // "about to sleep" here, re-checks the lanes, and only then waits;
  // offer() publishes the push, re-checks this flag, and only then
  // notifies (taking mu, so the notify cannot land before the wait).
  // The seq_cst fences on both sides make the two re-checks a Dekker
  // pair: at least one side always sees the other.
  std::atomic<bool> sched_idle{false};

  // Abort timers: one (critical time, id) entry per admission in a
  // min-heap, popped (or skipped as stale, when the job already reached
  // a terminal state or is aborting) by the scheduling thread.
  using AbortTimer = std::pair<Time, JobId>;
  std::priority_queue<AbortTimer, std::vector<AbortTimer>, std::greater<>>
      abort_timers;

  // The scheduling pass, shared with the simulator.  Its per-CPU
  // occupancy is the one record of which job holds which slot.  Its
  // view holds the live jobs that are not aborting, in id order:
  // admit inserts, mark_aborting and finalize erase.  Abort handlers
  // run off-CPU, so the pass has no front.
  sched::SchedulingPass pass;
  // Execution rights: a body runs only while its job holds one, so at
  // most cpu_count bodies execute.  A dispatched job takes a free right
  // or queues in `right_waiters` (FIFO, dispatched jobs only, at most
  // cpu_count long); a body hands its right on when it parks, completes
  // or unwinds from an abort (release_right).
  int free_rights = cfg.cpu_count;
  std::vector<JobRec*> right_waiters;
  // Gauge of workers currently inside job bodies; feeds the report's
  // max_concurrency_observed high-water mark and, integrated over time
  // from the first admission, its mean_concurrency_observed.
  int executing_now = 0;
  Time first_admission = -1;
  Time gauge_mark = 0;           // when executing_now last changed
  std::int64_t body_slot_ns = 0;  // executing_now integrated up to then
  bool stopping = false;
  ExecutorReport report;
  runtime::LatencyHistogram sojourn_hist;  // completed jobs only
  runtime::LatencyHistogram ingest_hist;   // lane offer -> admission
  std::thread sched_thread;

  struct JobRec final : public JobContext {
    Impl* owner = nullptr;
    RtJob spec;
    bool aborting = false;   // the body throws at its next checkpoint
    bool counted = false;    // inside the executing_now gauge
    bool bound = false;      // a pool worker owns this record
    bool has_right = false;  // holds one of the cpu_count execution rights
    Time ran_for = 0;        // accumulated execution time estimate input
    Time last_dispatch = 0;  // when it last got a CPU

    /// The job's terminal record for the RunReport: arrival/critical
    /// from real clocks, retries/blockings credited by the shared
    /// structures through its worker's ScopedAccessSink, preemptions
    /// counted by the scheduling thread.
    Job acct;

    // The bound worker waits here, under mu, for a right or an abort.
    std::condition_variable cv;

    void reset() {
      spec = RtJob{};
      aborting = false;
      counted = false;
      bound = false;
      has_right = false;
      ran_for = 0;
      last_dispatch = 0;
      acct = Job{};
    }

    bool dispatched() const { return owner->pass.cpu_of(acct.id) >= 0; }

    // --- JobContext ---
    void checkpoint() override {
      std::unique_lock<std::mutex> lock(owner->mu);
      if (aborting) throw JobAborted{};
      if (dispatched()) return;  // keep going
      // Preempted: leave the concurrency gauge, hand the right on and
      // park until a re-dispatch grants one again.  The worker never
      // migrates and its thread-local access sink stays installed, so
      // structure events after resumption still credit this job.
      owner->leave_body(*this);
      owner->release_right(*this);
      cv.wait(lock, [&] { return has_right || aborting; });
      if (aborting) throw JobAborted{};
      owner->enter_body(*this);
    }

    bool aborted() const override {
      std::lock_guard<std::mutex> lock(owner->mu);
      return aborting;
    }

    JobId id() const override { return acct.id; }
  };

  Impl(const sched::Scheduler& sch, ExecutorConfig config)
      : cfg(config), pass(sch, config.cpu_count, config.dispatch) {
    report.cpu_count = cfg.cpu_count;
    report.cpu_busy.assign(static_cast<std::size_t>(cfg.cpu_count), 0);
    report.cpu_jobs.assign(static_cast<std::size_t>(cfg.cpu_count), 0);
    scratch.resize(kIngestBatch);
    {
      std::lock_guard<std::mutex> lock(mu);
      for (int i = 0; i < cfg.cpu_count + kWorkerReserve; ++i)
        idle.push_back(start_worker());
    }
    sched_thread = std::thread([this] { scheduler_loop(); });
  }

  Time now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
  }

  // --- helpers; all require mu held ---

  void move_gauge(int delta) {
    const Time t = now();
    body_slot_ns += executing_now * (t - gauge_mark);
    gauge_mark = t;
    executing_now += delta;
  }

  void enter_body(JobRec& r) {
    LFRT_CHECK(r.has_right);
    r.counted = true;
    move_gauge(+1);
    LFRT_CHECK(executing_now <= cfg.cpu_count);
    report.max_concurrency_observed =
        std::max(report.max_concurrency_observed, executing_now);
  }

  // Idempotent: the abort path may leave before the handler runs and
  // the terminal path leaves unconditionally.
  void leave_body(JobRec& r) {
    if (!r.counted) return;
    r.counted = false;
    move_gauge(-1);
  }

  // A dispatched job takes a free right, else queues for one.
  void request_right(JobRec& r) {
    if (r.has_right) return;  // descheduled and re-dispatched, never parked
    if (free_rights == 0) {
      right_waiters.push_back(&r);
      return;
    }
    --free_rights;
    grant(r);
  }

  void grant(JobRec& r) {
    r.has_right = true;
    r.cv.notify_one();
  }

  // The body parked, completed or unwound: its right goes to the
  // longest-waiting dispatched job, else back to the pool.
  void release_right(JobRec& r) {
    if (!r.has_right) return;
    r.has_right = false;
    if (right_waiters.empty()) {
      ++free_rights;
      return;
    }
    JobRec* next = right_waiters.front();
    right_waiters.erase(right_waiters.begin());
    grant(*next);
  }

  // The job lost its CPU slot (descheduled or aborting): it stops
  // waiting for a right, and a right its worker has not yet taken into
  // the body goes on at once.  A right in use stays until the park.
  void drop_claim(JobRec& r) {
    const auto it = std::find(right_waiters.begin(), right_waiters.end(), &r);
    if (it != right_waiters.end())
      right_waiters.erase(it);
    else if (!r.counted)
      release_right(r);
  }

  // Accounts the job's stint on CPU `c` into its execution time and the
  // per-CPU busy tally.
  void end_stint(JobRec& r, int c, Time t) {
    r.ran_for += t - r.last_dispatch;
    report.cpu_busy[static_cast<std::size_t>(c)] += t - r.last_dispatch;
  }

  // The job's remaining execution estimate at `t`, for the pass's view.
  Time remaining(const JobRec& r, Time t) const {
    Time elapsed = r.ran_for;
    if (r.dispatched()) elapsed += t - r.last_dispatch;
    return std::max<Time>(1, r.spec.expected_exec - elapsed);
  }

  // Releases the job's CPU slot (if any) outside a pass: the job is
  // terminal or aborting.
  void vacate_cpu(JobRec& r, Time t) {
    const int c = pass.vacate(r.acct.id);
    if (c >= 0) end_stint(r, c, t);
  }

  // The live record of `id`, or nullptr once it is terminal.
  JobRec* find_live(JobId id) const {
    const auto it = std::lower_bound(
        live.begin(), live.end(), id,
        [](const JobRec* r, JobId key) { return r->acct.id < key; });
    return it != live.end() && (*it)->acct.id == id ? *it : nullptr;
  }

  Worker* start_worker() {
    workers.push_back(std::make_unique<Worker>());
    Worker* w = workers.back().get();
    w->th = std::thread([this, w] { worker_loop(w); });
    report.worker_pool_peak = static_cast<std::int64_t>(workers.size());
    return w;
  }

  // Attach a free pool worker to the record (growing the pool when all
  // workers are pinned by jobs) and wake it.
  void bind_worker(JobRec& r) {
    Worker* w;
    if (!idle.empty()) {
      w = idle.back();
      idle.pop_back();
    } else {
      w = start_worker();
    }
    w->assigned = &r;
    r.bound = true;
    w->cv.notify_one();
  }

  JobRec* alloc_rec() {
    JobRec* r;
    if (!free_recs.empty()) {
      r = free_recs.back();
      free_recs.pop_back();
    } else {
      slab.emplace_back();
      r = &slab.back();
    }
    r->reset();
    return r;
  }

  // Admit one validated job: assign an id, account it, arm its abort
  // timer.  `arrival` is submit-time for the direct paths and
  // offer-time for lane ingest (lane wait is part of the sojourn).
  JobId admit(RtJob&& job, Time arrival) {
    const JobId id = next_id++;
    JobRec* r = alloc_rec();
    r->owner = this;
    r->spec = std::move(job);
    r->acct.id = id;
    r->acct.task = r->spec.task;
    r->acct.arrival = arrival;
    r->acct.critical_abs = arrival + r->spec.tuf->critical_time();
    if (first_admission < 0) first_admission = arrival;
    ++report.submitted;
    report.max_possible_utility += r->spec.tuf->max_utility();
    live.push_back(r);
    report.peak_live_records = std::max(
        report.peak_live_records, static_cast<std::int64_t>(live.size()));
    pass.insert({.id = id, .arrival = arrival,
                 .critical = r->acct.critical_abs,
                 .remaining = remaining(*r, arrival),
                 .tuf = r->spec.tuf.get(), .task = r->spec.task});
    abort_timers.emplace(r->acct.critical_abs, id);
    return id;
  }

  // Terminal bookkeeping: account the outcome, fold the per-job tallies
  // into the running totals, and recycle the record.  After this
  // returns the record may be reused for a new admission — callers must
  // not touch it again.
  void finalize(JobRec& r, bool completed, Time t) {
    leave_body(r);
    release_right(r);
    if (!r.aborting) pass.erase(r.acct.id);
    vacate_cpu(r, t);
    r.acct.exec_actual = r.ran_for;
    if (completed) {
      r.acct.state = JobState::kCompleted;
      r.acct.completion = t;
      ++report.completed;
      report.accrued_utility +=
          r.spec.tuf->utility(r.acct.completion - r.acct.arrival);
      sojourn_hist.record(r.acct.completion - r.acct.arrival);
    } else {
      r.acct.state = JobState::kAborted;
      ++report.aborted;
    }
    report.total_retries += r.acct.retries;
    report.total_blockings += r.acct.blockings;
    report.total_backoff_spins += r.acct.backoff_spins;
    if (cfg.retain_job_records) report.jobs.push_back(r.acct);
    live.erase(std::find(live.begin(), live.end(), &r));
    r.spec = RtJob{};  // drop closures now, not at reuse
    free_recs.push_back(&r);
    sched_cv.notify_all();
  }

  // Request an abort.  A job that never started and has no handler is
  // finalized inline (nothing will ever run for it); one with a handler
  // gets a worker bound just to deliver the handler on its own thread
  // with the access sink installed, same as any interrupted body.
  void mark_aborting(JobRec& r, Time t) {
    if (!r.bound && !r.spec.abort_handler) {
      finalize(r, /*completed=*/false, t);
      return;
    }
    r.aborting = true;
    pass.erase(r.acct.id);
    vacate_cpu(r, t);
    drop_claim(r);
    if (!r.bound) bind_worker(r);
    r.cv.notify_one();  // a parked or waiting worker observes and throws
  }

  std::size_t submit_batch(RtJob* batch, std::size_t count, JobId* ids) {
    for (std::size_t i = 0; i < count; ++i) validate(batch[i]);
    std::unique_lock<std::mutex> lock(mu);
    // Reject instead of racing the drain: once shutdown has begun the
    // scheduling thread may already be gone, so an accepted job could
    // never be dispatched and the counted_jobs invariant would break.
    if (stopping) return 0;
    const Time t = now();
    for (std::size_t i = 0; i < count; ++i) {
      const JobId id = admit(std::move(batch[i]), t);
      if (ids != nullptr) ids[i] = id;
    }
    if (count > 0) sched_cv.notify_all();
    return count;
  }

  IngestLane& open_lane(std::size_t capacity) {
    std::lock_guard<std::mutex> lock(mu);
    LFRT_CHECK_MSG(!stopping, "open_lane on a stopping executor");
    lanes.push_back(
        std::unique_ptr<IngestLane>(new IngestLane(this, capacity)));
    return *lanes.back();
  }

  void set_admission(AdmissionFilter filter) {
    std::lock_guard<std::mutex> lock(mu);
    admission = std::move(filter);
  }

  bool lanes_empty() const {
    for (const auto& lane : lanes)
      if (!lane->ring_.empty()) return false;
    return true;
  }

  // Pull everything currently staged in the ingest lanes and run each
  // entry through backpressure + admission — the whole burst under the
  // single already-held mutex acquisition.  Returns entries processed.
  std::size_t drain_lanes() {
    if (lanes.empty()) return 0;
    std::size_t processed = 0;
    const Time t = now();
    for (auto& lane : lanes) {
      for (;;) {
        const std::size_t n =
            lane->ring_.pop_n(scratch.data(), kIngestBatch);
        if (n == 0) break;
        for (std::size_t i = 0; i < n; ++i) {
          IngestLane::Entry& e = scratch[i];
          ++report.lane_ingested;
          Admission verdict = Admission::kAdmit;
          if (cfg.max_live_jobs > 0 && live.size() >= cfg.max_live_jobs)
            verdict = Admission::kReject;
          else if (admission)
            verdict = admission(e.job);
          if (verdict == Admission::kReject) {
            // Shed: accrues zero but still weighs in the denominator —
            // rejecting is an abort-at-admission, not a free pass.
            ++report.rejected;
            report.max_possible_utility += e.job.tuf->max_utility();
            e.job = RtJob{};
            continue;
          }
          if (verdict == Admission::kDegrade) ++report.degraded;
          ingest_hist.record(t - e.offered_ns);
          admit(std::move(e.job), e.offered_ns);
        }
        processed += n;
        if (n < kIngestBatch) break;
      }
    }
    if (processed > 0) sched_cv.notify_all();  // a blocked drain() re-checks
    return processed;
  }

  void worker_loop(Worker* w) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      w->cv.wait(lock, [&] { return w->assigned != nullptr || workers_stop; });
      if (w->assigned == nullptr) return;  // stop, nothing bound
      JobRec* r = w->assigned;
      w->assigned = nullptr;
      run_job(lock, r);
      // r is recycled by finalize; never touch it past this point.
      idle.push_back(w);
    }
  }

  // Runs one job on the calling pool worker: wait for the first right
  // (or a pre-start abort), execute body/abort-handler with the job's
  // access sink installed, finalize.  mu held on entry and exit,
  // released around the body.
  void run_job(std::unique_lock<std::mutex>& lock, JobRec* r) {
    r->cv.wait(lock, [&] { return r->has_right || r->aborting; });
    if (!r->aborting) enter_body(*r);
    bool completed = false;
    lock.unlock();
    {
      // Structure-level retry/contention events on this thread credit
      // the job's own counters — per-job f_i from real CAS failures.
      // One sink covers body and abort handler: both run here, and this
      // thread runs nothing else until the job is terminal, so credits
      // cannot leak across jobs no matter how many workers are inside a
      // structure at once.
      runtime::ScopedAccessSink sink(&r->acct.retries, &r->acct.blockings,
                                     &r->acct.backoff_spins);
      try {
        {
          std::lock_guard<std::mutex> g(mu);
          if (r->aborting) throw JobAborted{};
        }
        r->spec.body(*r);
        completed = true;
      } catch (const JobAborted&) {
        {
          // The handler runs off-CPU: it is compensation, not body
          // execution, so it leaves the concurrency gauge and hands its
          // right on first.
          std::lock_guard<std::mutex> g(mu);
          leave_body(*r);
          release_right(*r);
        }
        if (r->spec.abort_handler) r->spec.abort_handler();
      }
    }
    lock.lock();
    finalize(*r, completed, now());
  }

  void scheduler_loop() {
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      drain_lanes();
      const Time t = now();

      // Fire due abort timers (the timer going off).  Entries whose job
      // already reached a terminal state are no longer live: stale, skip.
      while (!abort_timers.empty() && abort_timers.top().first <= t) {
        JobRec* r = find_live(abort_timers.top().second);
        abort_timers.pop();
        if (r != nullptr && !r->aborting) mark_aborting(*r, t);
      }

      if (stopping && live.empty() && lanes_empty()) return;

      // The pass refreshes the estimates of the jobs the last dispatch
      // left on a CPU; a job whose stint ended at that dispatch already
      // holds its final estimate (end_stint moved the same elapsed time
      // into ran_for).
      report.sched_ops +=
          pass.build(t, [&](JobId id) { return remaining(*find_live(id), t); })
              .ops;
      ++report.sched_invocations;
      const auto& decisions = pass.dispatch();
      for (const auto& d : decisions) {
        if (d.prev != kNoJob) {
          // Deschedule: account the stint as a preemption.  A body
          // in flight keeps its right until it parks.
          JobRec& p = *find_live(d.prev);
          end_stint(p, d.cpu, t);
          drop_claim(p);
          ++p.acct.preemptions;
          ++report.total_preemptions;
          continue;
        }
        JobRec& n = *find_live(d.next);
        if (!n.bound) bind_worker(n);  // first dispatch: claim a worker
        request_right(n);
        n.last_dispatch = t;
        ++report.dispatches;
        ++report.cpu_jobs[static_cast<std::size_t>(d.cpu)];
      }

      // Sleep until the next abort deadline or any event.  The
      // idle-flag/fence handshake with IngestLane::offer (see
      // sched_idle) closes the lost-wakeup window: after publishing
      // sched_idle we re-check the lanes, and a producer that missed
      // the flag is guaranteed (Dekker, via the paired seq_cst fences)
      // to have its push visible to that re-check.
      const Time next_expiry =
          abort_timers.empty() ? kTimeNever : abort_timers.top().first;
      sched_idle.store(true, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (!lanes_empty()) {
        sched_idle.store(false, std::memory_order_relaxed);
        continue;
      }
      if (next_expiry == kTimeNever) {
        sched_cv.wait(lock);
      } else {
        sched_cv.wait_until(lock,
                            epoch + std::chrono::nanoseconds(next_expiry));
      }
      sched_idle.store(false, std::memory_order_relaxed);
    }
  }

  void set_task_conflict_groups(std::vector<std::int32_t> groups) {
    std::lock_guard<std::mutex> lock(mu);
    pass.set_conflict_groups(std::move(groups));
    sched_cv.notify_all();  // re-dispatch under the new steering
  }

  void set_placement(sched::Placement placement) {
    std::lock_guard<std::mutex> lock(mu);
    pass.set_placement(std::move(placement));
    sched_cv.notify_all();  // re-dispatch under the new affinities
  }

  void drain() {
    std::unique_lock<std::mutex> lock(mu);
    sched_cv.wait(lock, [&] { return live.empty() && lanes_empty(); });
  }

  ExecutorReport shutdown() {
    {
      // Close the door first: submissions from here on are rejected
      // (submit returns kNoJob), so the drain below is over a frozen
      // job population and the counted_jobs invariant holds.
      std::lock_guard<std::mutex> lock(mu);
      stopping = true;
      sched_cv.notify_all();
    }
    drain();
    // Every body has left, so body_slot_ns is final; the thread joins
    // below are teardown, outside the gauge's window.
    const Time drained = now();
    sched_thread.join();
    {
      std::lock_guard<std::mutex> lock(mu);
      workers_stop = true;
      for (auto& w : workers) w->cv.notify_one();
    }
    for (auto& w : workers)
      if (w->th.joinable()) w->th.join();
    std::lock_guard<std::mutex> lock(mu);
    // Assemble the shared RunReport view.  Totals and per-job records
    // were folded in incrementally at each finalize; records only need
    // the historical id-order presentation restored (terminal order is
    // completion order).
    report.counted_jobs = report.submitted + report.rejected;
    if (first_admission >= 0) {
      report.mean_concurrency_observed =
          static_cast<double>(body_slot_ns) /
          static_cast<double>(std::max<Time>(1, drained - first_admission));
    }
    if (cfg.retain_job_records) {
      std::sort(report.jobs.begin(), report.jobs.end(),
                [](const Job& a, const Job& b) { return a.id < b.id; });
    }
    report.sojourn_p50_ns = sojourn_hist.percentile(0.50);
    report.sojourn_p99_ns = sojourn_hist.percentile(0.99);
    report.sojourn_p999_ns = sojourn_hist.percentile(0.999);
    if (report.lane_ingested > 0) {
      report.ingest_p50_ns = ingest_hist.percentile(0.50);
      report.ingest_p99_ns = ingest_hist.percentile(0.99);
      report.ingest_p999_ns = ingest_hist.percentile(0.999);
    }
    return report;
  }
};

bool IngestLane::offer(RtJob job) {
  validate(job);
  Entry e;
  e.offered_ns = owner_->now();
  e.job = std::move(job);
  if (!ring_.push(std::move(e))) return false;
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (owner_->sched_idle.load(std::memory_order_relaxed)) {
    // Rare path (scheduler idle == no load): take the mutex so the
    // notify cannot slip between the scheduler's lane re-check and its
    // wait.  The fast path above stays wait-free.
    std::lock_guard<std::mutex> lock(owner_->mu);
    owner_->sched_cv.notify_all();
  }
  return true;
}

Executor::Executor(const sched::Scheduler& scheduler, ExecutorConfig config)
    : impl_(std::make_unique<Impl>(scheduler, config)) {}

Executor::~Executor() {
  if (impl_ && impl_->sched_thread.joinable()) (void)impl_->shutdown();
}

JobId Executor::submit(RtJob job) {
  JobId id = kNoJob;
  impl_->submit_batch(&job, 1, &id);
  return id;
}

std::size_t Executor::submit_batch(RtJob* jobs, std::size_t count,
                                   JobId* ids) {
  return impl_->submit_batch(jobs, count, ids);
}

IngestLane& Executor::open_lane(std::size_t capacity) {
  return impl_->open_lane(capacity);
}

void Executor::set_admission(AdmissionFilter filter) {
  impl_->set_admission(std::move(filter));
}

void Executor::drain() { impl_->drain(); }

void Executor::set_task_conflict_groups(std::vector<std::int32_t> groups) {
  impl_->set_task_conflict_groups(std::move(groups));
}

void Executor::set_placement(sched::Placement placement) {
  impl_->set_placement(std::move(placement));
}

ExecutorReport Executor::shutdown() { return impl_->shutdown(); }

}  // namespace lfrt::rt
