// The scheduling pass both substrates run at every scheduling event
// (paper, Section 3): Scheduler::build_into over the live jobs, then
// DispatchSelector::select / assign, diffed against the current CPU
// occupancy.  sim::Simulator and rt::Executor apply the decisions it
// returns to their own state, so the dispatch rule exists once.
// Decisions come vacate-before-fill, so a job moving to another CPU is
// released by its old CPU before its new one binds it.  Like a
// Scheduler::Workspace, a pass is one caller's scratch: never shared
// between threads, steady-state allocation-free.
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sched/dispatch.hpp"

namespace lfrt::sched {

class SchedulingPass {
 public:
  /// One CPU's change of occupant: a vacate names the job leaving
  /// (`next == kNoJob`), a fill the job arriving (`prev == kNoJob`).
  struct Decision {
    int cpu = 0;
    JobId prev = kNoJob;
    JobId next = kNoJob;
    bool operator==(const Decision&) const = default;
  };

  /// `scheduler` must outlive the pass.  The placement's policy, CPU
  /// map and object scoping are fixed here; only affinities may change.
  SchedulingPass(const Scheduler& scheduler, int cpu_count,
                 DispatchOptions options)
      : scheduler_(&scheduler), ws_(scheduler.make_workspace()) {
    LFRT_CHECK_MSG(cpu_count >= 1, "a scheduling pass needs a CPU");
    running_on_.assign(static_cast<std::size_t>(cpu_count), kNoJob);
    Placement placement = options.placement;
    options.placement.task_affinity.clear();  // the rest stays fixed
    selector_.set_options(std::move(options));
    set_placement(std::move(placement));
  }

  /// Install a placement that keeps the constructor's policy, CPU map
  /// and object scoping and names only existing CPUs or clusters;
  /// otherwise throw InvariantViolation and keep the old one.
  void set_placement(Placement next) {
    const Placement& fixed = placement();
    LFRT_CHECK_MSG(next.policy == fixed.policy &&
                       next.cpu_cluster == fixed.cpu_cluster &&
                       next.scope_objects == fixed.scope_objects,
                   "a placement change may move task affinities only");
    next.validate(cpu_count(), next.task_affinity.size());
    DispatchOptions opts = selector_.options();
    opts.placement = std::move(next);
    selector_.set_options(std::move(opts));
  }
  const Placement& placement() const { return selector_.options().placement; }

  void set_conflict_groups(std::vector<std::int32_t> groups) {
    selector_.set_conflict_groups(std::move(groups));
  }

  /// Start a pass, then add the jobs the scheduler orders in increasing
  /// id order.
  void begin() {
    view_.clear();
    front_.clear();
    front_tasks_.clear();
  }
  /// A job for the scheduler to order; a blocked one
  /// (`!job.runnable()`) never takes a CPU.
  void add(const SchedJob& job) {
    LFRT_CHECK(view_.empty() || view_.back().id < job.id);
    view_.push_back(job);
  }
  /// A job of the abort-priority front: it takes a CPU ahead of every
  /// schedule entry and is not shown to the scheduler.
  void add_front(JobId id, TaskId task) {
    front_.push_back(id);
    front_tasks_.push_back(task);
  }

  /// Run the scheduler over the added jobs (valid until the next build).
  const ScheduleResult& build(Time now) {
    scheduler_->build_into(view_, now, ws_.get(), result_);
    return result_;
  }

  /// Select and place the last build's targets, move the occupancy to
  /// them, and return the per-CPU changes, vacates first.
  const std::vector<Decision>& dispatch() {
    const auto task_of = [&](JobId id) {
      if (const SchedJob* j = find(id)) return j->task;
      const auto f = std::find(front_.begin(), front_.end(), id);
      return f != front_.end() ? front_tasks_[slot(f - front_.begin())]
                               : TaskId{-1};
    };
    const auto may_run = [&](JobId id) {
      const SchedJob* j = find(id);
      return j != nullptr && j->runnable();
    };
    const auto& next = selector_.assign(
        selector_.select(front_, result_, cpu_count(),
                         std::numeric_limits<std::size_t>::max(), may_run,
                         task_of),
        cpu_count(), task_of, [&](JobId id) { return cpu_of(id); });
    decisions_.clear();
    for (int c = 0; c < cpu_count(); ++c)
      if (running_on(c) != kNoJob && running_on(c) != next[slot(c)])
        decisions_.push_back({c, running_on(c), kNoJob});
    for (int c = 0; c < cpu_count(); ++c)
      if (next[slot(c)] != kNoJob && next[slot(c)] != running_on(c))
        decisions_.push_back({c, kNoJob, next[slot(c)]});
    running_on_.assign(next.begin(), next.end());
    return decisions_;
  }

  int cpu_count() const { return static_cast<int>(running_on_.size()); }
  JobId running_on(int cpu) const { return running_on_[slot(cpu)]; }
  /// CPU `id` occupies, or -1.
  int cpu_of(JobId id) const {
    for (int c = 0; c < cpu_count(); ++c)
      if (running_on(c) == id) return c;
    return -1;
  }
  /// Release `id`'s CPU outside a pass (it blocked, finished or began
  /// aborting); returns that CPU, or -1 if it held none.
  int vacate(JobId id) {
    const int c = cpu_of(id);
    if (c >= 0) running_on_[slot(c)] = kNoJob;
    return c;
  }

 private:
  static std::size_t slot(std::ptrdiff_t i) {
    return static_cast<std::size_t>(i);
  }
  const SchedJob* find(JobId id) const {
    const auto it = std::lower_bound(
        view_.begin(), view_.end(), id,
        [](const SchedJob& j, JobId key) { return j.id < key; });
    return it != view_.end() && it->id == id ? &*it : nullptr;
  }

  const Scheduler* scheduler_;
  std::unique_ptr<Scheduler::Workspace> ws_;
  ScheduleResult result_;
  std::vector<SchedJob> view_;
  std::vector<JobId> front_;
  std::vector<TaskId> front_tasks_;
  DispatchSelector selector_;
  std::vector<JobId> running_on_;  ///< per CPU: its job or kNoJob
  std::vector<Decision> decisions_;
};

}  // namespace lfrt::sched
