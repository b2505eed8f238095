// Task and job model (paper, Section 2).
//
// A task T_i is described along three dimensions: its UAM arrival tuple
// ⟨l_i, a_i, W_i⟩, its TUF U_i(·) with critical time C_i <= W_i, and its
// execution demand.  A job J_{i,j} is the j-th invocation of T_i and is
// the basic scheduling entity.
//
// A job's computation time is c_i = u_i + m_i * t_acc, where u_i is the
// compute time not involving shared objects, m_i the number of shared-
// object accesses, and t_acc the per-access time (r for lock-based, s
// for lock-free — paper, Section 5).  Accesses are modelled as segments
// embedded in the compute timeline at fixed progress offsets; nested
// accesses are excluded (Section 2's resource model).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/time.hpp"
#include "tuf/tuf.hpp"
#include "uam/uam.hpp"

namespace lfrt {

using TaskId = std::int32_t;
using JobId = std::int64_t;
using ObjectId = std::int32_t;

inline constexpr JobId kNoJob = -1;
inline constexpr ObjectId kNoObject = -1;

/// One shared-object access embedded in a job's compute timeline: the
/// access begins once `offset` units of pure compute have been done.
/// Offsets must be non-decreasing and <= u_i; equal offsets model
/// back-to-back accesses.  Accesses are never nested.
struct AccessSpec {
  ObjectId object = kNoObject;
  Time offset = 0;

  /// Writes publish a mutation; under lock-free sharing a concurrent
  /// *write* completing inside another job's access attempt fails that
  /// job's CAS, while reads never invalidate anyone (the multi-writer/
  /// multi-reader semantics of the paper's conclusion).  Lock-based
  /// sharing serializes reads and writes alike (mutual exclusion).
  bool write = true;
};

/// A nested critical section (lock-based sharing only): the lock on
/// `object` is requested once `acquire_offset` units of pure compute are
/// done, the access itself takes r time units, and the lock is then
/// held while computing up to `release_offset`, where the unlock request
/// fires.  Spans must follow stack discipline (properly nested, LIFO
/// release order) — the general RUA model of paper Section 3, where
/// deadlocks become possible and are handled by detection/resolution.
/// A task uses either `accesses` (flat) or `spans` (nested), not both.
struct LockSpan {
  ObjectId object = kNoObject;
  Time acquire_offset = 0;
  Time release_offset = 0;
};

/// Static parameters of one task.
struct TaskParams {
  TaskId id = -1;
  UamSpec arrival;                  ///< ⟨l_i, a_i, W_i⟩
  std::shared_ptr<const Tuf> tuf;   ///< U_i(·); C_i = tuf->critical_time()
  Time exec_time = 0;               ///< u_i — compute excl. object access
  std::vector<AccessSpec> accesses; ///< m_i accesses, sorted by offset
  std::vector<LockSpan> spans;      ///< nested critical sections
  Time abort_handler_time = 0;      ///< exception-handler execution time

  /// Context-dependent execution times (the paper's motivating
  /// uncertainty): each job's *actual* compute time is drawn uniformly
  /// from exec_time * (1 +/- exec_variation), while the scheduler is
  /// only ever shown the exec_time estimate — so overruns (and the
  /// resulting critical-time aborts) arise exactly as footnote 4 of
  /// Section 3 allows.  Access/span offsets scale proportionally.
  /// 0 (default) = deterministic execution.
  double exec_variation = 0.0;

  Time critical_time() const { return tuf->critical_time(); }
  std::int64_t access_count() const {
    return static_cast<std::int64_t>(accesses.size() + spans.size());
  }
  bool nested() const { return !spans.empty(); }

  /// Throws InvariantViolation on malformed parameters (C_i > W_i,
  /// unsorted or out-of-range access offsets, non-positive u_i, ...).
  void validate() const;
};

/// A task set plus the shared-object universe it runs against.
struct TaskSet {
  std::vector<TaskParams> tasks;
  std::int32_t object_count = 0;

  /// Units per object (multi-unit resource model of Wu et al. [27],
  /// which the DATE paper specializes to single-unit).  Empty means
  /// every object has exactly one unit; otherwise one entry per object,
  /// each >= 1.  An access/span claims one unit; requesters block only
  /// when all units are held.
  std::vector<std::int32_t> object_units;

  /// Units of object `obj` (1 when object_units is empty).
  std::int32_t units_of(ObjectId obj) const {
    return object_units.empty()
               ? 1
               : object_units[static_cast<std::size_t>(obj)];
  }

  /// The task with id `id`.  Ids are usually the tasks' positions, so
  /// that case is one indexed compare; other layouts (sparse or
  /// reordered ids) fall back to a scan.  Throws InvariantViolation on
  /// an unknown id.
  const TaskParams& by_id(TaskId id) const {
    const auto i = static_cast<std::size_t>(id);
    if (i < tasks.size() && tasks[i].id == id) return tasks[i];
    return find_by_id(id);
  }
  void validate() const;

  /// Approximate load AL = sum_i u_i / C_i (paper, Section 6.1).  Note
  /// AL deliberately excludes object-access time, so that the ideal-
  /// object implementation has CML 1.0 at AL 1.0 absent overheads.
  double approximate_load() const;

 private:
  const TaskParams& find_by_id(TaskId id) const;
};

/// Job lifecycle states.
enum class JobState : std::uint8_t {
  kReady,      ///< arrived, eligible to run
  kRunning,    ///< currently holds the CPU
  kBlocked,    ///< waiting on a lock held by another job (lock-based only)
  kAborting,   ///< critical time expired; abort handler executing
  kCompleted,  ///< finished before (or at) its critical time
  kAborted,    ///< abort handler finished; job yielded zero utility
};

/// Runtime record of one job.  Owned by the simulator's job table; the
/// scheduler sees an immutable projection (sched::SchedJob).
struct Job {
  JobId id = kNoJob;
  TaskId task = -1;
  Time arrival = 0;
  Time critical_abs = 0;  ///< arrival + C_i
  JobState state = JobState::kReady;

  /// This job's actual compute demand (== the task's exec_time unless
  /// exec_variation drew a different value at arrival).
  Time exec_actual = 0;

  // --- execution progress ---
  Time compute_done = 0;        ///< completed pure-compute time (of u_i)
  std::size_t next_access = 0;  ///< index into TaskParams::accesses
  bool in_access = false;       ///< currently inside an access segment
  Time access_progress = 0;     ///< progress within the current access
  Time access_attempt_start = -1;  ///< read point of the current lock-free
                                   ///< attempt (CAS conflict detection)
  ObjectId access_object = kNoObject;
  ObjectId held_object = kNoObject;  ///< lock currently held (flat mode)
  std::vector<ObjectId> held_stack;  ///< locks held, LIFO (nested mode)
  std::size_t next_span = 0;         ///< index into TaskParams::spans
  std::vector<std::size_t> open_spans;  ///< acquired, not yet released
  JobId waits_on = kNoJob;           ///< holder this job is blocked on
  Time handler_done = 0;             ///< abort-handler progress

  // --- accounting (validated against the paper's bounds) ---
  std::int64_t retries = 0;      ///< lock-free access restarts (f_i)
  std::int64_t blockings = 0;    ///< lock-based blocking episodes
  std::int64_t preemptions = 0;  ///< times descheduled while unfinished
  std::int64_t backoff_spins = 0;  ///< relax spins burned after failed CAS
                                   ///< (cost of the retries above; executor
                                   ///< only — the simulator models retries,
                                   ///< not the spins between them)
  Time completion = -1;          ///< completion instant, -1 if not completed

  Time sojourn() const { return completion >= 0 ? completion - arrival : -1; }
  bool finished() const {
    return state == JobState::kCompleted || state == JobState::kAborted;
  }
};

}  // namespace lfrt
