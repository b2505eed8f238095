// Scheduler interface shared by RUA (lock-based and lock-free) and the
// EDF baseline.
//
// A scheduler is invoked at *scheduling events* (job arrivals and
// departures; plus lock and unlock requests under lock-based sharing —
// paper, Section 3).  It sees an immutable projection of every pending
// job, constructs a schedule, and nominates the job to dispatch.
//
// Every elementary operation performed during schedule construction is
// counted; the simulator charges `ops * ns_per_op` of CPU time to the
// scheduler, which is how the O(n^2 log n) vs O(n^2) asymptotic gap of
// Sections 3.6/5 manifests in the CML experiment (Figure 9).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "task/task.hpp"

namespace lfrt::sched {

/// Projection of one pending job, as the scheduler sees it at a
/// scheduling event (dependencies and remaining-time estimates change
/// dynamically — paper, Section 3.4; SchedulingPass keeps these current
/// across events).
struct SchedJob {
  JobId id = kNoJob;
  Time arrival = 0;
  Time critical = 0;   ///< absolute critical time
  Time remaining = 0;  ///< remaining execution estimate incl. access time
  const Tuf* tuf = nullptr;

  /// Job currently holding the object this job has requested (kNoJob if
  /// not blocked).  Always kNoJob under lock-free sharing.
  JobId waits_on = kNoJob;

  /// The job's task.  Schedulers ignore it; dispatch reads it for
  /// placement and conflict steering.
  TaskId task = -1;

  bool runnable() const { return waits_on == kNoJob; }
};

/// Outcome of one scheduler invocation.
struct ScheduleResult {
  /// Accepted jobs in execution order (ECF with dependencies respected).
  std::vector<JobId> schedule;

  /// The job to run now: the first runnable job in `schedule`; kNoJob if
  /// every accepted job is blocked or the schedule is empty.
  JobId dispatch = kNoJob;

  /// Jobs examined but excluded because including them (with their
  /// dependents) made the tentative schedule infeasible.
  std::vector<JobId> rejected;

  /// Jobs selected for abortion to break dependency cycles (only when
  /// deadlock detection is enabled and a cycle exists).
  std::vector<JobId> deadlock_victims;

  /// Elementary operations performed (the overhead model's input).
  std::int64_t ops = 0;

  /// Reset to the empty result while keeping vector capacity, so a
  /// caller-owned result can be refilled by repeated `build_into` calls
  /// without reallocating.
  void clear() {
    schedule.clear();
    rejected.clear();
    deadlock_victims.clear();
    dispatch = kNoJob;
    ops = 0;
  }
};

/// Abstract scheduling policy.
///
/// Two entry points exist.  `build` is the convenience form: it returns
/// a fresh ScheduleResult and allocates whatever scratch the policy
/// needs.  `build_into` is the hot-path form: the caller owns both the
/// result and an optional policy-specific Workspace (obtained once from
/// `make_workspace`), and repeated invocations reuse their capacity —
/// in steady state no heap allocation occurs.  The schedule produced and
/// the `ops` charged are identical either way.
class Scheduler {
 public:
  /// Opaque per-caller scratch arena.  Policies that need scratch
  /// return a concrete subtype from `make_workspace`; the same object
  /// must not be used from two threads at once, but may be reused
  /// across any number of `build_into` calls (that reuse is the point).
  class Workspace {
   public:
    virtual ~Workspace() = default;
  };

  virtual ~Scheduler() = default;

  /// A fresh workspace for this policy (nullptr when the policy keeps
  /// no scratch beyond the result buffers).
  virtual std::unique_ptr<Workspace> make_workspace() const {
    return nullptr;
  }

  /// Construct a schedule over `jobs` at time `now` into `out`
  /// (cleared first; capacity kept).  `ws` must be a workspace from
  /// this policy's `make_workspace` or nullptr (the policy then falls
  /// back to transient scratch).
  ///
  /// Thread safety: build_into is const and every piece of mutable
  /// scratch lives in the caller-owned Workspace/ScheduleResult, so ONE
  /// scheduler instance may be shared by any number of concurrent
  /// callers as long as each brings its own `ws` and `out`.  Policies
  /// must not keep `mutable` members, statics, or other hidden state
  /// behind this call.  The parallel experiment harness (src/exp,
  /// bench::scheduler_for) relies on the guarantee — every pool worker
  /// runs Simulators pointing at the same const instance — and
  /// tests/concurrent_build_test.cpp enforces it under TSan
  /// (scripts/check.sh, LFRT_SANITIZE=thread).
  virtual void build_into(const std::vector<SchedJob>& jobs, Time now,
                          Workspace* ws, ScheduleResult& out) const = 0;

  /// Convenience form of `build_into` with transient result/scratch.
  ScheduleResult build(const std::vector<SchedJob>& jobs, Time now) const {
    ScheduleResult out;
    build_into(jobs, now, nullptr, out);
    return out;
  }

  virtual std::string name() const = 0;
};

}  // namespace lfrt::sched
