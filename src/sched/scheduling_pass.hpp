// The scheduling pass both substrates run at every scheduling event
// (paper, Section 3): Scheduler::build_into over the live jobs, then
// DispatchSelector::select / assign, diffed against the current CPU
// occupancy.  sim::Simulator and rt::Executor apply the decisions it
// returns to their own state, so the dispatch rule exists once.
// Decisions come vacate-before-fill, so a job moving to another CPU is
// released by its old CPU before its new one binds it.  Like a
// Scheduler::Workspace, a pass is one caller's scratch: never shared
// between threads, steady-state allocation-free.
//
// The view contract.  The pass keeps the scheduler's view — the jobs it
// orders, in increasing id order — across passes, and the substrate
// edits it in place where a job's state changes, never per pass:
//   - insert() a job when it arrives (simulator) or is admitted
//     (executor); ids only grow, so inserting appends;
//   - erase() it when it retires or starts aborting; a simulator job
//     whose abort handler takes a CPU moves to the abort-priority front
//     with to_front() instead, and erase() drops it from there when the
//     handler ends;
//   - set_waits_on() where it blocks (on the holder) or wakes (kNoJob);
//   - its remaining estimate is the one field build() refreshes, through
//     the substrate's estimator, and only for the jobs the last dispatch
//     left on a CPU: a job can make progress only while it holds a CPU,
//     so these are the jobs that ran or handled an event since the last
//     pass (one vacated since, because it blocked, included).  Every
//     other job's estimate is still the one its last refresh stored.
//
// The one-slot rule.  At cpu_count 1 under global placement, dispatch()
// skips select/assign: the slot goes to the first front job, else to the
// scheduler's dispatch nomination if that job may run, else to the first
// runnable schedule entry.  That is exactly select's first pick, because
// neither conflict steering nor cluster rooms can act before a job holds
// a slot; the decisions are one vacate/fill diff against the occupant.
// It is kept beside select/assign for speed, not behaviour: perfbench's
// sim-sweep runs one CPU, and with the rule off it kept both digests
// but lost 13 % of jobs_per_s (6 alternating 10 s pairs, 4-vCPU host;
// DESIGN.md §12).  svc-overload runs two CPUs on the general path.
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
    ran_ = running_on_;
    one_slot_ = cpu_count == 1 && options.placement.global();
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

  // ---- the view (see the contract above) ------------------------------

  /// The jobs the scheduler orders, in increasing id order.
  const std::vector<SchedJob>& view() const { return view_; }
  /// A new job for the scheduler to order; its id exceeds every id the
  /// pass has seen.  A blocked one (`!job.runnable()`) never takes a CPU.
  void insert(const SchedJob& job) {
    LFRT_CHECK(view_.empty() || view_.back().id < job.id);
    LFRT_CHECK(front_.empty() || front_.back() < job.id);
    view_.push_back(job);
  }
  /// `id` leaves the view, or the front: it retired or began aborting.
  void erase(JobId id) {
    if (SchedJob* j = find(id)) {
      view_.erase(view_.begin() + (j - view_.data()));
      return;
    }
    const auto f = std::find(front_.begin(), front_.end(), id);
    LFRT_CHECK_MSG(f != front_.end(), "erase of a job the pass does not hold");
    front_tasks_.erase(front_tasks_.begin() + (f - front_.begin()));
    front_.erase(f);
  }
  /// `id` leaves the view for the abort-priority front: its handler
  /// takes a CPU ahead of every schedule entry and is not shown to the
  /// scheduler.  The front stays in id order.
  void to_front(JobId id, TaskId task) {
    erase(id);
    const auto at = std::upper_bound(front_.begin(), front_.end(), id);
    front_tasks_.insert(front_tasks_.begin() + (at - front_.begin()), task);
    front_.insert(at, id);
  }
  /// `id` blocks on holder `on`, or wakes (`on == kNoJob`).
  void set_waits_on(JobId id, JobId on) {
    SchedJob* j = find(id);
    LFRT_CHECK(j != nullptr);
    j->waits_on = on;
  }

  /// Refresh the remaining estimate of each job the last dispatch left
  /// on a CPU to `remaining_of(id)`, then run the scheduler over the
  /// view (the result is valid until the next build).
  template <typename RemainingOf>
  const ScheduleResult& build(Time now, RemainingOf&& remaining_of) {
    for (JobId id : ran_)
      if (SchedJob* j = find(id)) j->remaining = remaining_of(id);
    scheduler_->build_into(view_, now, ws_.get(), result_);
    return result_;
  }

  /// Select and place the last build's targets, move the occupancy to
  /// them, and return the per-CPU changes, vacates first.
  const std::vector<Decision>& dispatch() {
    decisions_.clear();
    if (one_slot_) {
      fill_one_slot();
    } else {
      const auto task_of = [&](JobId id) {
        if (const SchedJob* j = find(id)) return j->task;
        const auto f = std::find(front_.begin(), front_.end(), id);
        return f != front_.end() ? front_tasks_[slot(f - front_.begin())]
                                 : TaskId{-1};
      };
      const auto& next = selector_.assign(
          selector_.select(front_, result_, cpu_count(),
                           std::numeric_limits<std::size_t>::max(),
                           [&](JobId id) { return may_run(id); }, task_of),
          cpu_count(), task_of, [&](JobId id) { return cpu_of(id); });
      for (int c = 0; c < cpu_count(); ++c)
        if (running_on(c) != kNoJob && running_on(c) != next[slot(c)])
          decisions_.push_back({c, running_on(c), kNoJob});
      for (int c = 0; c < cpu_count(); ++c)
        if (next[slot(c)] != kNoJob && next[slot(c)] != running_on(c))
          decisions_.push_back({c, kNoJob, next[slot(c)]});
      running_on_.assign(next.begin(), next.end());
    }
    ran_.assign(running_on_.begin(), running_on_.end());
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
  SchedJob* find(JobId id) {
    const auto it = std::lower_bound(
        view_.begin(), view_.end(), id,
        [](const SchedJob& j, JobId key) { return j.id < key; });
    return it != view_.end() && it->id == id ? &*it : nullptr;
  }
  bool may_run(JobId id) {
    const SchedJob* j = find(id);
    return j != nullptr && j->runnable();
  }

  /// The one-slot rule (see the header comment).
  void fill_one_slot() {
    JobId next = kNoJob;
    if (!front_.empty()) {
      next = front_.front();
    } else if (may_run(result_.dispatch)) {
      next = result_.dispatch;
    } else {
      for (JobId id : result_.schedule)
        if (may_run(id)) {
          next = id;
          break;
        }
    }
    const JobId prev = running_on_.front();
    if (prev == next) return;
    if (prev != kNoJob) decisions_.push_back({0, prev, kNoJob});
    if (next != kNoJob) decisions_.push_back({0, kNoJob, next});
    running_on_.front() = next;
  }

  const Scheduler* scheduler_;
  std::unique_ptr<Scheduler::Workspace> ws_;
  ScheduleResult result_;
  std::vector<SchedJob> view_;
  std::vector<JobId> front_;  ///< abort-priority jobs, id order
  std::vector<TaskId> front_tasks_;
  DispatchSelector selector_;
  bool one_slot_ = false;
  std::vector<JobId> running_on_;  ///< per CPU: its job or kNoJob
  std::vector<JobId> ran_;  ///< per CPU: its job as the last dispatch left it
  std::vector<Decision> decisions_;
};

}  // namespace lfrt::sched
