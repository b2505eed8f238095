// Middleware-level utility-accrual executor on real POSIX threads.
//
// The paper's implementation study ran RUA inside the *meta-scheduler*
// framework of Li et al. [18]: application-level real-time scheduling
// layered on a POSIX RTOS.  This is that substrate: an Executor owns a
// scheduling thread that runs a sched::Scheduler (RUA, EDF, ...) at
// every scheduling event, and job bodies — ordinary C++ callables —
// execute on worker threads that yield control at *checkpoints*
// (cooperative preemption, exactly the application-level discipline a
// middleware scheduler imposes).  Critical-time expiry raises an
// abort-exception: the body's next checkpoint throws JobAborted, the
// job's abort handler runs, and the job accrues zero utility
// (Section 3.5's abort model, for real).
//
// Abort delivery is checkpoint-only: expiry merely *marks* the job,
// and the mark takes effect at the body's next checkpoint.  A body
// that returns before reaching another checkpoint therefore completes
// normally — late, accruing whatever its TUF yields at that sojourn
// (zero past the critical time) — exactly like a checkpoint-free
// body, which can never be aborted at all.  Abort handlers only ever
// run for bodies that were actually interrupted mid-flight.
//
// Bodies may share objects through the lock-free or lock-based
// structures in src/lockfree and src/lockbased; retry/contention
// statistics come from those structures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lockfree/spsc_ring.hpp"
#include "runtime/run_report.hpp"
#include "sched/placement.hpp"
#include "support/time.hpp"
#include "task/task.hpp"

namespace lfrt::sched {
class Scheduler;
}

namespace lfrt::rt {

/// Thrown out of JobContext::checkpoint when the job has been aborted;
/// the executor catches it after the abort handler has run.
class JobAborted {};

/// Handle a running body uses to cooperate with the scheduler.
class JobContext {
 public:
  /// Preemption/abort point.  Blocks while the job is preempted (until
  /// a re-dispatch and a free execution right); throws JobAborted once
  /// the job's critical time has expired.
  /// Bodies should call this between work quanta.
  virtual void checkpoint() = 0;

  /// True once an abort has been requested (checkpoint would throw).
  virtual bool aborted() const = 0;

  virtual JobId id() const = 0;

 protected:
  ~JobContext() = default;
};

/// What to run for one job.
struct RtJob {
  /// Originating task, when the job was lowered from a TaskSet
  /// (runtime::run_on_executor); -1 for free-standing jobs.  Flows into
  /// the report's per-job records and per-task breakdowns.
  TaskId task = -1;

  /// Time constraint; utility accrues at U(sojourn) on completion.
  std::shared_ptr<const Tuf> tuf;

  /// Execution-time estimate handed to the scheduler (the paper's
  /// model: execution times presented to the scheduler are estimates).
  Time expected_exec = 0;

  /// The body.  Must call ctx.checkpoint() between work quanta.
  std::function<void(JobContext&)> body;

  /// Optional compensation run after an abort (Section 3.5's handler).
  std::function<void()> abort_handler;
};

/// Executor construction parameters.
struct ExecutorConfig {
  /// Number of CPU slots the dispatcher fills: up to cpu_count job
  /// bodies execute *concurrently*, chosen by the same top-M
  /// target-selection rule the simulator's cpu_count > 1 path applies
  /// (sched::SchedulingPass over one global schedule).  1 reproduces
  /// the paper's uniprocessor model — lock-free retries then come only
  /// from cooperative preemption; with M > 1 they also come from true
  /// parallelism (the paper's "multiprocessor systems" future-work
  /// direction).
  int cpu_count = 1;

  /// Keep per-job terminal records for ExecutorReport::jobs.  Default
  /// on (the cross-validation benches read them).  A streaming service
  /// pushing millions of jobs turns this off: aggregate tallies,
  /// percentile histograms, and the heatmap still populate, but the
  /// O(jobs) record vector does not.
  bool retain_job_records = true;

  /// Backpressure cap on jobs admitted-but-not-yet-terminal.  When a
  /// lane-ingested job would push the live count past this, it is
  /// rejected (counted in RunReport::rejected) before any admission
  /// filter runs.  0 = unlimited.  Direct submit()/submit_batch() are
  /// exempt: they keep the pre-service contract of accepting every
  /// well-formed job until shutdown.
  std::size_t max_live_jobs = 0;

  /// Dispatch mode flags, shared verbatim with SimConfig::dispatch so
  /// the two substrates configure the selector identically: placement
  /// policy (global / partitioned / clustered CPU-slot affinity) and
  /// strict conflict-group steering.  The default (global, non-strict)
  /// is today's dispatch, bit for bit.
  sched::DispatchOptions dispatch;
};

/// Admission verdict for one lane-ingested job (see
/// Executor::set_admission).
enum class Admission : std::uint8_t {
  kAdmit,    ///< submit as-is
  kDegrade,  ///< submit, but the filter rewrote the job (cheaper TUF)
  kReject,   ///< shed: never runs, accrues zero, counted in `rejected`
};

/// Policy hook deciding each lane-ingested job's fate.  Runs on the
/// scheduling thread under the executor mutex: it must be fast and must
/// not call back into the executor.  It may mutate the job (e.g. swap
/// in a degraded TUF) when returning kDegrade.
using AdmissionFilter = std::function<Admission(RtJob&)>;

class IngestLane;

/// Aggregate outcome of an Executor run.  The shared job-lifecycle
/// accounting (AUR/CMR, per-job terminal records with real-clock
/// sojourns, retry/blocking tallies plumbed from the shared structures
/// via runtime::ScopedAccessSink, per-task breakdowns) lives in
/// runtime::RunReport — the same shape sim::SimReport extends, so the
/// two substrates cross-validate (bench/ext_executor_validation).
/// counted_jobs == submitted + rejected: shutdown() drains every
/// accepted job to a terminal state, and every lane-ingested job that
/// admission shed is accounted as rejected (submissions refused during
/// shutdown are not counted).
struct ExecutorReport : runtime::RunReport {
  std::int64_t submitted = 0;

  /// CPU slots the dispatcher filled (ExecutorConfig::cpu_count).
  int cpu_count = 1;

  /// High-water mark of admitted-but-not-yet-terminal jobs.  With
  /// incremental record reclamation this — not `submitted` — bounds the
  /// executor's live memory; the regression test pins it over a
  /// 100k-job run (tests/executor_reclaim_test.cpp).
  std::int64_t peak_live_records = 0;

  /// Worker threads ever started (pool high-water; the pool never
  /// shrinks during a run).
  std::int64_t worker_pool_peak = 0;

  /// Jobs the scheduling thread pulled out of ingest lanes (admitted +
  /// degraded + rejected).
  std::int64_t lane_ingested = 0;

  // cpu_busy and cpu_jobs — the per-CPU-slot breakdowns — moved to
  // runtime::RunReport so the simulator reports them through the same
  // fields (placement quality is compared across substrates).

  /// High-water mark of worker threads simultaneously executing job
  /// bodies (abort handlers excluded).  The witness that a multi-CPU
  /// run really overlapped: >= 2 means lock-free conflicts could arise
  /// from true parallelism, not just preemption.  Never exceeds
  /// cpu_count: a body runs only while its job holds one of cpu_count
  /// execution rights, and a descheduled body keeps its right until it
  /// parks, so its replacement waits for it (see Executor).
  int max_concurrency_observed = 0;

  /// Time-weighted mean number of job bodies executing, from the first
  /// admission to shutdown: how much of the cpu_count slots bodies
  /// actually held (abort handlers excluded, as above).  Never exceeds
  /// cpu_count; cpu_count minus this is the capacity left idle, by a
  /// slot waiting for its next body or by a lack of work.
  double mean_concurrency_observed = 0;
};

/// Middleware UA scheduler over real threads.
///
/// Thread model: one scheduling thread, a persistent worker POOL, and
/// M = ExecutorConfig::cpu_count CPU slots.  The scheduling thread
/// computes one global schedule at every scheduling event and dispatches
/// its top M eligible jobs (the simulator's multi-CPU rule, shared via
/// sched::SchedulingPass); each dispatched job's worker executes its
/// body while the others park inside checkpoint().  With the default
/// cpu_count = 1 exactly one body executes at a time — the paper's
/// uniprocessor model, where lock-free interference comes only from
/// cooperative preemption.  With cpu_count > 1 up to M bodies overlap
/// for real, so retry counts include true-parallelism conflicts; the
/// paper's uniprocessor-only results (Theorem 2's derivation, Theorem
/// 3's tradeoff, Lemmas 4/5) are validated at cpu_count = 1 and merely
/// *measured* beyond it.
///
/// Execution rights make M a bound, not a hint.  The executor holds M
/// rights; a dispatched job enters or resumes its body only while it
/// holds one.  A pass that deschedules a job frees its CPU slot at once,
/// but the body keeps its right until it parks at a checkpoint,
/// completes, or unwinds from JobAborted; then the right goes straight
/// to the longest-waiting dispatched job (or back to the pool).  So the
/// replacement starts when the previous body parks — preemption latency
/// is one checkpoint quantum — and at most M bodies ever execute.  Lock
/// sections never span a checkpoint (a queue push or pop takes and
/// releases its lock on its own), so a body never parks holding a lock
/// another body spins on.  Wake-ups are targeted: each job record and
/// each pool worker has its own condition variable, and the scheduling
/// thread notifies only the worker a decision concerns (a grant, an
/// abort, a bind), never the whole pool.
///
/// Workers are pooled, not per-job: a job binds to a free worker at its
/// first dispatch and keeps that thread until it reaches a terminal
/// state (a preempted body parks ON its thread — its stack is its
/// state — so workers never migrate mid-job and per-job retry
/// attribution via the thread-local ScopedAccessSink stays exact).
/// The pool starts at cpu_count + 2 idle workers and grows only when
/// every worker is pinned by a job that is parked, waiting for a right,
/// or running (cooperative preemption parks a body on its thread); it
/// never shrinks during a run.  Terminal JobRecs are
/// recycled through a free list immediately, so a long run's memory is
/// bounded by its peak backlog, not its job count.
///
/// Ingest paths, fastest first: (1) per-producer wait-free IngestLanes
/// (open_lane) drained in batches by the scheduling thread — the
/// streaming-service path, subject to admission control; (2)
/// submit_batch(), N jobs under one mutex acquisition; (3) submit(),
/// a one-element batch kept for the original tests and benches.
///
/// Retry/blocking attribution: every job's body and abort handler run
/// on that job's own worker thread, whose thread-local
/// runtime::ScopedAccessSink is installed once around both; a preempted
/// worker parks but never migrates, so structure events always credit
/// the job that performed them even when several workers are inside the
/// same structure simultaneously.
class Executor {
 public:
  /// `scheduler` must outlive the executor.
  explicit Executor(const sched::Scheduler& scheduler,
                    ExecutorConfig config = {});
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Submit a job; its arrival is "now".  Thread-safe.  Returns kNoJob
  /// if the executor is already shutting down: the job is rejected
  /// explicitly (not counted, body never runs) rather than racing the
  /// drain — see tests/executor_shutdown_race_test.cpp.
  JobId submit(RtJob job);

  /// Submit up to `count` jobs under ONE mutex acquisition; arrival is
  /// "now" for all of them.  Jobs are moved from.  Returns how many
  /// were accepted — `count`, or 0 when the executor is shutting down
  /// (all-or-nothing, same rejection contract as submit).  When `ids`
  /// is non-null it receives the assigned JobIds (must have room for
  /// `count`).  Thread-safe.
  std::size_t submit_batch(RtJob* jobs, std::size_t count,
                           JobId* ids = nullptr);

  /// Open a wait-free single-producer submission lane that holds up to
  /// `capacity` offered jobs.  The capacity is a backpressure bound,
  /// not a reservation: the lane's memory follows how many jobs it has
  /// held at once (see IngestLane).  The returned lane lives until
  /// shutdown.  Thread-safe, but open all lanes before producers start
  /// offering.
  IngestLane& open_lane(std::size_t capacity);

  /// Install the admission filter applied to every lane-ingested job
  /// (direct submit()s are exempt).  Runs on the scheduling thread
  /// under the executor mutex.  Install before producers start
  /// offering; pass nullptr to clear.
  void set_admission(AdmissionFilter filter);

  /// Block until every ingest lane is drained and every admitted job
  /// has completed or aborted.
  void drain();

  /// Install the contention controller's per-task conflict vector:
  /// groups[task] is the object task is currently hammering (-1 =
  /// none).  While non-empty, the dispatcher's top-M selection avoids
  /// co-scheduling two tasks of the same group when other eligible jobs
  /// can fill the slots (never leaving a CPU idle for it).  An empty
  /// vector — the initial state — disables steering; pass empty again
  /// to clear it.  Thread-safe; takes effect at the next scheduling
  /// pass.
  void set_task_conflict_groups(std::vector<std::int32_t> groups);

  /// Replace the live placement (ExecutorConfig::dispatch.placement)
  /// — the contention controller's migration hook.  Only task
  /// affinities may change, each to an existing CPU or cluster; else
  /// throws InvariantViolation and keeps the old placement.
  /// Thread-safe; takes effect at the next scheduling pass
  /// (an already-running job migrates at its next dispatch decision).
  void set_placement(sched::Placement placement);

  /// Stop accepting submissions, drain, stop the scheduling thread, and
  /// return the tallies.
  ExecutorReport shutdown();

 private:
  friend class IngestLane;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Wait-free single-producer submission lane (Executor::open_lane).
///
/// One producer thread stages jobs into its own SpscRing; the
/// scheduling thread drains every lane in batches at the top of each
/// scheduling pass, so N offers cost ONE mutex acquisition instead of
/// N.  A job's arrival time is when offer() accepted it — lane wait is
/// part of its sojourn, and is also tracked separately in the report's
/// ingest percentiles.  The ring grows a segment of staged jobs at a
/// time, up to the most the lane has held at once, so a large capacity
/// costs nothing until offers outrun the drain; an offer allocates
/// only when it first reaches such a new high.
class IngestLane {
 public:
  IngestLane(const IngestLane&) = delete;
  IngestLane& operator=(const IngestLane&) = delete;

  /// Stage a job; its arrival is "now".  Wait-free, but for an offer
  /// that reaches a new occupancy high and allocates a segment (see
  /// above).  Returns false when the lane is full (backpressure) — the
  /// job is not accepted and leaves no trace.  Malformed jobs (no
  /// TUF/body/estimate) fail the invariant check here, on the producer.
  /// Exactly one thread may call offer() on a given lane.
  ///
  /// Offers racing Executor::shutdown() may be silently dropped; a
  /// service must stop its producers before shutting the executor
  /// down (runtime::Service::close_ingest sequences this).
  bool offer(RtJob job);

 private:
  friend class Executor;
  struct Entry {
    RtJob job;
    Time offered_ns = 0;
  };
  IngestLane(Executor::Impl* owner, std::size_t capacity)
      : owner_(owner), ring_(capacity) {}

  Executor::Impl* owner_;
  lockfree::SpscRing<Entry> ring_;
};

}  // namespace lfrt::rt
