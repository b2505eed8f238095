// Multiprocessor dispatch selection shared by the simulator and the
// real-threads executor.
//
// Both substrates run ONE global scheduler (Scheduler::build_into) and
// then choose which jobs of the resulting schedule occupy the M CPUs.
// The selection rule — the schedule's eligible jobs in order, behind any
// must-run-now jobs (abort handlers) and the scheduler's own dispatch
// nomination — and the sticky CPU assignment that keeps already-running
// jobs on their CPU both live here.  sched::SchedulingPass
// (scheduling_pass.hpp) runs them for sim::Simulator and rt::Executor
// alike, so the cross-substrate validation
// (bench/ext_executor_validation) compares like with like.
//
// A DispatchSelector is reusable scratch, exactly like a
// Scheduler::Workspace: one instance per pass, never shared between
// threads, steady-state allocation-free.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sched/placement.hpp"
#include "sched/scheduler.hpp"
#include "support/check.hpp"
#include "task/task.hpp"

namespace lfrt::sched {

class DispatchSelector {
 public:
  /// Install the contention controller's per-task conflict vector:
  /// groups[task] is the shared object that task is currently hammering
  /// (-1 = none).  While non-empty, select avoids co-scheduling two
  /// tasks of the same group; empty (the default) disables steering
  /// entirely.  Steering is a hint between epochs, not part of the
  /// schedule: the scheduler's job order is untouched, only which of
  /// its eligible jobs occupy the M slots *this pass* changes.
  void set_conflict_groups(std::vector<std::int32_t> groups) {
    groups_ = std::move(groups);
  }
  const std::vector<std::int32_t>& conflict_groups() const { return groups_; }

  /// All mode flags in one struct so sim and executor wire the selector
  /// identically: placement policy + strict groups.  Conflict groups
  /// are deliberately NOT here — they are live per-epoch state the
  /// controller rewrites (set_conflict_groups), not configuration.
  void set_options(DispatchOptions opts) { options_ = std::move(opts); }
  const DispatchOptions& options() const { return options_; }

  /// Top-M selection: fill up to `cpu_count` dispatch targets from
  /// `front` (jobs that must run now regardless of the schedule — the
  /// simulator's abort handlers; empty for the executor, whose handlers
  /// run off-CPU), then the scheduler's own dispatch choice (which may
  /// differ from the first runnable schedule entry — e.g. EDF+PIP
  /// dispatches a lock *holder* on behalf of the blocked head), then
  /// the schedule's entries in order.  Entries are deduplicated against
  /// the targets picked so far (at most `cpu_count` of them, so the
  /// selector's memory does not grow with the ids it has seen) and
  /// filtered by `eligible(id)` (front jobs are the caller's to vet).
  /// Ids outside [0, `id_limit`) are skipped.
  ///
  /// `task_of(id)` maps a job to its task; it is consulted only while
  /// conflict groups are installed or the placement is not global.
  /// Placement: each cluster admits as many placed jobs as it has CPUs
  /// (unplaced jobs, and all jobs under global, count only against
  /// `cpu_count`); a cluster-full entry is skipped, never deferred.
  /// Steering: a schedule entry whose group already holds a slot is
  /// deferred; unless DispatchOptions::strict_groups (the no-same-group
  /// co-dispatch guarantee analysis::mp's refinement assumes), free
  /// slots are then refilled from the deferred list in schedule order.
  template <typename Eligible, typename TaskOf>
  const std::vector<JobId>& select(const std::vector<JobId>& front,
                                   const ScheduleResult& res, int cpu_count,
                                   std::size_t id_limit, Eligible&& eligible,
                                   TaskOf&& task_of) {
    const Placement& pl = options_.placement;
    if (!pl.global()) {
      cluster_room_.assign(
          static_cast<std::size_t>(pl.cluster_count(cpu_count)), 0);
      for (int c = 0; c < cpu_count; ++c) {
        const std::int32_t cl = pl.cluster_of_cpu(c);
        LFRT_CHECK(cl >= 0 &&
                   static_cast<std::size_t>(cl) < cluster_room_.size());
        ++cluster_room_[static_cast<std::size_t>(cl)];
      }
    }
    const bool by_task = !groups_.empty() || !pl.global();
    targets_.clear();
    deferred_.clear();
    ++gen_;
    const auto full = [&] {
      return static_cast<int>(targets_.size()) >= cpu_count;
    };
    const auto task = [&](JobId id) {
      return by_task ? static_cast<TaskId>(task_of(id)) : TaskId{-1};
    };
    const auto group_of = [&](TaskId t) -> std::int32_t {
      if (t < 0 || static_cast<std::size_t>(t) >= groups_.size()) return -1;
      return groups_[static_cast<std::size_t>(t)];
    };
    const auto group_taken = [&](std::int32_t g) {
      return g >= 0 && static_cast<std::size_t>(g) < group_stamp_.size() &&
             group_stamp_[static_cast<std::size_t>(g)] == gen_;
    };
    const auto has_room = [&](TaskId t) {
      const std::int32_t cl = pl.cluster_of_task(t);
      return cl < 0 || cluster_room_[static_cast<std::size_t>(cl)] > 0;
    };
    const auto picked = [&](JobId id) {
      return std::find(targets_.begin(), targets_.end(), id) != targets_.end();
    };
    const auto push = [&](JobId id, TaskId t) {
      const std::int32_t g = group_of(t);
      if (g >= 0) {
        if (static_cast<std::size_t>(g) >= group_stamp_.size())
          group_stamp_.resize(static_cast<std::size_t>(g) + 1, 0);
        group_stamp_[static_cast<std::size_t>(g)] = gen_;
      }
      const std::int32_t cl = pl.cluster_of_task(t);
      if (cl >= 0) --cluster_room_[static_cast<std::size_t>(cl)];
      targets_.push_back(id);
    };
    const auto in_range = [&](JobId id) {
      return id >= 0 && static_cast<std::size_t>(id) < id_limit;
    };
    for (JobId id : front) {
      if (full()) break;
      push(id, task(id));
    }
    if (!full() && in_range(res.dispatch) && !picked(res.dispatch) &&
        eligible(res.dispatch)) {
      const TaskId t = task(res.dispatch);
      if (has_room(t)) push(res.dispatch, t);
    }
    for (JobId id : res.schedule) {
      if (full()) break;
      if (!in_range(id)) continue;
      if (picked(id)) continue;
      if (!eligible(id)) continue;
      const TaskId t = task(id);
      if (!has_room(t)) continue;
      if (group_taken(group_of(t))) {
        deferred_.push_back(id);  // same storm cell as a picked job
        continue;
      }
      push(id, t);
    }
    // Work conservation: a deferred job beats an idle CPU — unless
    // strict mode promised the analysis no same-group co-dispatch.
    if (!options_.strict_groups) {
      for (JobId id : deferred_) {
        if (full()) break;
        const TaskId t = task(id);
        if (has_room(t)) push(id, t);
      }
    }
    return targets_;
  }

  /// Sticky CPU assignment over the last selection: a target keeps the
  /// CPU it occupies (`cpu_of(id)` >= 0) if that CPU is in its cluster.
  /// Placed newcomers (and migrating tasks) fill free CPUs of their
  /// cluster, preferring CPUs no unplaced sticky job holds and evicting
  /// one into the unplaced pool only when there is no other slot; then
  /// unplaced jobs (all jobs under global) fill the remaining slots in
  /// selection order.  A placed job that finds no cluster slot (only
  /// transiently, after a mid-run migration) degrades to the unplaced
  /// pool; object scoping routes by task cluster, so that is sound.
  /// `task_of` is consulted only under a non-global placement.  Returns
  /// the per-CPU next occupancy (kNoJob = idle), valid until next call.
  template <typename TaskOf, typename CpuOf>
  const std::vector<JobId>& assign(const std::vector<JobId>& targets,
                                   int cpu_count, TaskOf&& task_of,
                                   CpuOf&& cpu_of) {
    const Placement& pl = options_.placement;
    const auto cluster_of_job = [&](JobId id) -> std::int32_t {
      return pl.global() ? -1 : pl.cluster_of_task(task_of(id));
    };
    next_.assign(static_cast<std::size_t>(cpu_count), kNoJob);
    newcomers_.clear();
    unplaced_.clear();
    reserved_.assign(static_cast<std::size_t>(cpu_count), kNoJob);
    for (JobId id : targets) {
      const std::int32_t cl = cluster_of_job(id);
      const int c = cpu_of(id);
      if (cl < 0) {
        // Unplaced: soft-claim the current CPU; final unless a placed
        // newcomer needs exactly that slot.
        if (c >= 0)
          reserved_[static_cast<std::size_t>(c)] = id;
        else
          unplaced_.push_back(id);
      } else if (c >= 0 && pl.cluster_of_cpu(c) == cl) {
        next_[static_cast<std::size_t>(c)] = id;  // sticky, allowed CPU
      } else {
        newcomers_.push_back(id);  // fresh dispatch or migrating
      }
    }
    for (JobId id : newcomers_) {
      const std::int32_t cl = cluster_of_job(id);
      int chosen = -1;
      int fallback = -1;
      for (int c = 0; c < cpu_count; ++c) {
        if (next_[static_cast<std::size_t>(c)] != kNoJob) continue;
        if (pl.cluster_of_cpu(c) != cl) continue;
        if (reserved_[static_cast<std::size_t>(c)] == kNoJob) {
          chosen = c;
          break;
        }
        if (fallback < 0) fallback = c;
      }
      if (chosen < 0) chosen = fallback;
      if (chosen < 0) {
        unplaced_.push_back(id);  // transient migration overflow
        continue;
      }
      if (reserved_[static_cast<std::size_t>(chosen)] != kNoJob) {
        unplaced_.push_back(reserved_[static_cast<std::size_t>(chosen)]);
        reserved_[static_cast<std::size_t>(chosen)] = kNoJob;
      }
      next_[static_cast<std::size_t>(chosen)] = id;
    }
    for (int c = 0; c < cpu_count; ++c) {
      if (reserved_[static_cast<std::size_t>(c)] != kNoJob &&
          next_[static_cast<std::size_t>(c)] == kNoJob) {
        next_[static_cast<std::size_t>(c)] =
            reserved_[static_cast<std::size_t>(c)];
      }
    }
    std::size_t fill = 0;
    for (JobId id : unplaced_) {
      while (fill < next_.size() && next_[fill] != kNoJob) ++fill;
      LFRT_CHECK(fill < next_.size());
      next_[fill] = id;
    }
    return next_;
  }

 private:
  std::vector<JobId> targets_;
  std::vector<JobId> next_;
  std::vector<JobId> newcomers_;
  std::vector<JobId> deferred_;
  std::vector<JobId> unplaced_;
  std::vector<JobId> reserved_;  ///< cpu -> unplaced sticky soft claim
  // Conflict-group stamps: group_stamp_[g] == gen_ iff a job of group
  // g is already in targets_ this selection.
  std::vector<std::int64_t> group_stamp_;
  std::int64_t gen_ = 0;
  std::vector<std::int32_t> groups_;  ///< task -> conflict group (-1 none)
  std::vector<std::int32_t> cluster_room_;  ///< per-pass cluster capacity
  DispatchOptions options_;
};

}  // namespace lfrt::sched
