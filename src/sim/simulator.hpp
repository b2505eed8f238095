// Discrete-event uniprocessor RTOS simulator.
//
// Substitutes for the paper's QNX Neutrino / meta-scheduler testbed
// (DESIGN.md, Section 2).  The simulator executes the *real* scheduler
// implementation (sched::RuaScheduler / sched::EdfScheduler) at every
// scheduling event, models job execution as compute segments with
// embedded shared-object accesses, and reproduces the paper's sharing
// semantics exactly:
//
//   * lock-based — an access is a critical section of length r.  A
//     request on a held object blocks the requester (waits_on is set;
//     RUA's dependency machinery engages).  Lock and unlock requests are
//     scheduling events.  Preemption inside a critical section keeps the
//     lock held (the priority-inversion source).
//
//     Tasks may instead declare *nested* critical sections (LockSpan):
//     the lock is requested at an acquire offset, the access costs r,
//     and the lock is held while computing to a release offset, with
//     stack (LIFO) discipline.  Nesting makes deadlock possible; pair
//     the simulator with RuaScheduler(kLockBased, detect_deadlocks=true)
//     and the scheduler's cycle victims are aborted through the normal
//     abort-exception path (paper, Section 3.3).  Under a non-detecting
//     scheduler (EDF/LLF) a deadlock simply pins the cycle's jobs until
//     their critical times expire — the behaviour a real system without
//     detection would exhibit.
//
//   * lock-free — an access is a segment of length s.  If the job is
//     preempted mid-access (another job ran), the access restarts when
//     the job resumes; restarts are counted as retries (f_i) and are
//     validated against Theorem 2.  Accesses are NOT scheduling events —
//     only arrivals and departures invoke the scheduler (Section 4.1).
//
//   * ideal — accesses take zero time (the "ideal RUA" yardstick of
//     Section 6.1 used to define CML).
//
// Scheduler overhead: each invocation's counted elementary operations
// are charged to the CPU at `sched_ns_per_op`, so the O(n^2 log n) vs
// O(n^2) gap manifests in the CML experiment exactly as in Figure 9.
//
// Abort model (Section 3.5): when a job's critical time expires before
// completion, an abort-exception fires; the job's handler executes
// immediately (at the highest eligibility), rolls back (releases) any
// held lock on completion, and the job accrues zero utility.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/contention_controller.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/object_spec.hpp"
#include "runtime/run_report.hpp"
#include "sched/scheduler.hpp"
#include "support/rng.hpp"
#include "task/task.hpp"

namespace lfrt::sim {

/// Object-sharing regime simulated.
enum class ShareMode {
  kLockBased,
  kLockFree,
  kIdeal,
};

std::string to_string(ShareMode mode);

struct SimConfig {
  ShareMode mode = ShareMode::kLockFree;
  Time lock_access_time = usec(10);    ///< r — lock-based access time
  Time lockfree_access_time = usec(1); ///< s — lock-free access time

  /// Per-(kind, impl) access-cost table (runtime/cost_model.hpp).  Every
  /// access attempt is priced from its object's cell: base +
  /// per-contender scaling by the number of other jobs concurrently in
  /// or blocked on the same object, plus the snapshot scan and retry
  /// terms — so the zoo's mechanisms (ticket's linear slope, MCS's flat
  /// handoff) separate in simulated time.  Unset, the table is
  /// CostModel::flat(lockfree_access_time, lock_access_time): the
  /// paper's s and r, and the two scalars above are read only then.
  /// kIdeal zeroes accesses either way.
  std::optional<runtime::CostModel> cost_model;
  double sched_ns_per_op = 0.0;        ///< overhead per counted op
  Time horizon = msec(1000);           ///< simulation end
  bool record_trace = false;           ///< collect a human-readable trace
  bool record_slices = false;          ///< collect execution slices
                                       ///< (SimReport::slices, Gantt input)

  /// Per-object shared-object specs, indexed by ObjectId — the same
  /// vocabulary runtime::ExecConfig::objects speaks, so a
  /// cross-validation harness lowers one universe into both substrates.
  /// Empty (the default) keeps the global `mode` homogeneous model:
  /// every object is a queue with the mode's implementation.  When
  /// non-empty (size must equal the task set's object_count), each
  /// object's impl selects its access time and blocking-vs-retry
  /// semantics per object; `mode = kIdeal` still zeroes every access.
  /// Kind matters to the conflict rule: buffer/snapshot *writes* are
  /// wait-free (NBW/single-writer-update — they never retry), while
  /// their reads, and every queue/stack access, retry when a write
  /// completed during the attempt window.
  std::vector<runtime::ObjectSpec> objects;

  /// Contention-controller tuning for objects that set
  /// ObjectSpec::adapt.  The simulator steps the same
  /// runtime::ContentionControllerCore the executor's controller thread
  /// runs, from deterministic epoch events: every `controller.epoch` ns
  /// it diffs the live contention matrix, promotes/demotes shard counts
  /// (which changes the conflict rule's granularity from that instant
  /// on), and installs the conflict vector into dispatch steering.
  /// Ignored when no object adapts (and under kIdeal, which has no
  /// retries to act on).
  runtime::ControllerConfig controller;

  /// Dispatch-layer options, shared verbatim with
  /// rt::ExecutorConfig::dispatch so one placement/steering statement
  /// drives both substrates.  The default (global placement, non-strict
  /// groups) reproduces the historical top-M dispatch bit for bit.
  /// Under a partitioned/clustered placement with
  /// `placement.scope_objects` (the default), queue/stack objects are
  /// instantiated once per cluster and a task's accesses land on its
  /// cluster's instance, so cross-cluster conflicts vanish — the
  /// separation analysis::mp charges for.  Scoped instancing excludes
  /// adaptive sharding (ObjectSpec::adapt) and nested lock spans.
  sched::DispatchOptions dispatch;

  /// Seed for per-job actual-execution draws (TaskParams::
  /// exec_variation); runs are reproducible for a fixed seed.
  std::uint64_t exec_seed = 77;

  /// Number of processors.  1 reproduces the paper's model.  With M > 1
  /// the same scheduler runs globally and the first M runnable jobs of
  /// its schedule occupy the CPUs (global RUA/EDF/LLF — the paper's
  /// "multiprocessor systems" future-work direction).  Lock-free
  /// conflicts then arise from true concurrency as well as preemption:
  /// an access attempt fails (and retries) iff another job completed an
  /// access to the same object during the attempt window — the CAS
  /// loses — which on one CPU degenerates to the preemption-induced
  /// retry model of Section 4.
  int cpu_count = 1;
};

/// Aggregate results of one run.  The job-lifecycle accounting —
/// counted/completed/aborted, AUR/CMR, retry/blocking/preemption
/// tallies, per-job terminal records and per-task breakdowns — lives in
/// runtime::RunReport, shared with rt::ExecutorReport so both
/// substrates report through the same shape; only the simulation-
/// specific extras are added here.
struct SimReport : runtime::RunReport {
  Time sched_overhead = 0;  ///< total CPU time charged to the scheduler

  /// Discrete events consumed from the queue (arrivals, expiries,
  /// milestones) — the denominator for per-event cost measurements
  /// (perfbench's sim.ns_per_event layers).
  std::int64_t events_processed = 0;

  std::int64_t deadlocks_resolved = 0;  ///< cycle victims aborted (nested)

  /// Shard promotions/demotions the contention controller applied, in
  /// simulation-time order (empty when no object adapts).  The
  /// bench/shard_adaptive timeline comes straight from this.
  std::vector<runtime::ShardDecision> shard_decisions;

  std::int64_t controller_epochs = 0;  ///< controller steps taken

  /// Placement migrations the contention controller applied
  /// (ControllerConfig::place under a non-global placement), in
  /// simulation-time order.
  std::vector<runtime::PlacementMove> placement_moves;

  /// Optional event trace (record_trace).
  std::vector<std::string> trace;

  /// One contiguous stretch of CPU time given to a job
  /// (record_slices).  Adjacent stretches of the same job on the same
  /// CPU are merged.  Ordered by start time.
  struct ExecSlice {
    JobId job = kNoJob;
    TaskId task = -1;
    int cpu = 0;
    Time begin = 0;
    Time end = 0;
  };
  std::vector<ExecSlice> slices;
};

/// One simulation instance: a task set, a scheduler, arrival traces.
class Simulator {
 public:
  Simulator(TaskSet tasks, const sched::Scheduler& scheduler,
            SimConfig config);

  /// Override the arrival trace of one task (default: random UAM-
  /// conformant arrivals from `seed_arrivals`).
  void set_arrivals(TaskId task, std::vector<Time> arrivals);

  /// Generate random UAM-conformant arrival traces for every task that
  /// has no explicit trace yet.
  void seed_arrivals(std::uint64_t seed);

  /// Run to the horizon and produce the report.  Single-shot: construct
  /// a new Simulator for another run.
  SimReport run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;

 public:
  ~Simulator();
  Simulator(Simulator&&) noexcept;
  Simulator& operator=(Simulator&&) noexcept;
};

}  // namespace lfrt::sim
