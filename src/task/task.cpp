#include "task/task.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace lfrt {

void TaskParams::validate() const {
  LFRT_CHECK_MSG(id >= 0, "task id must be non-negative");
  arrival.validate();
  LFRT_CHECK_MSG(tuf != nullptr, "task must have a TUF");
  LFRT_CHECK_MSG(tuf->critical_time() <= arrival.window,
                 "model requires C_i <= W_i (paper, Section 2)");
  LFRT_CHECK_MSG(exec_time > 0, "u_i must be positive");
  LFRT_CHECK_MSG(abort_handler_time >= 0, "handler time must be >= 0");
  LFRT_CHECK_MSG(exec_variation >= 0.0 && exec_variation < 1.0,
                 "exec_variation must lie in [0, 1)");
  Time prev = 0;
  for (const auto& acc : accesses) {
    LFRT_CHECK_MSG(acc.object >= 0, "access must name a shared object");
    LFRT_CHECK_MSG(acc.offset >= prev, "access offsets must be sorted");
    LFRT_CHECK_MSG(acc.offset <= exec_time,
                   "access offset beyond the job's compute time");
    prev = acc.offset;
  }

  LFRT_CHECK_MSG(accesses.empty() || spans.empty(),
                 "a task uses flat accesses or nested spans, not both");
  // Spans: sorted by acquire offset, within [0, u_i], stack discipline.
  std::vector<const LockSpan*> open;
  Time prev_acquire = 0;
  for (const auto& sp : spans) {
    LFRT_CHECK_MSG(sp.object >= 0, "span must name a shared object");
    LFRT_CHECK_MSG(sp.acquire_offset >= prev_acquire,
                   "span acquire offsets must be sorted");
    LFRT_CHECK_MSG(sp.acquire_offset < sp.release_offset,
                   "span must hold the lock for a positive interval");
    LFRT_CHECK_MSG(sp.release_offset <= exec_time,
                   "span release beyond the job's compute time");
    prev_acquire = sp.acquire_offset;
    // Pop enclosing spans that end before this one begins.
    while (!open.empty() &&
           open.back()->release_offset <= sp.acquire_offset)
      open.pop_back();
    // Stack discipline: an inner span must release no later than every
    // span still open around it.
    for (const LockSpan* o : open) {
      LFRT_CHECK_MSG(sp.release_offset <= o->release_offset,
                     "spans must be properly nested (LIFO release)");
      LFRT_CHECK_MSG(sp.object != o->object,
                     "a job must not re-acquire a lock it already holds");
    }
    open.push_back(&sp);
  }
}

const TaskParams& TaskSet::find_by_id(TaskId id) const {
  auto it = std::find_if(tasks.begin(), tasks.end(),
                         [&](const TaskParams& t) { return t.id == id; });
  LFRT_CHECK_MSG(it != tasks.end(), "unknown task id");
  return *it;
}

void TaskSet::validate() const {
  LFRT_CHECK_MSG(!tasks.empty(), "task set must not be empty");
  if (!object_units.empty()) {
    LFRT_CHECK_MSG(object_units.size() ==
                       static_cast<std::size_t>(object_count),
                   "object_units must list every object");
    for (const auto u : object_units)
      LFRT_CHECK_MSG(u >= 1, "every object needs at least one unit");
  }
  for (const auto& t : tasks) {
    t.validate();
    for (const auto& acc : t.accesses)
      LFRT_CHECK_MSG(acc.object < object_count,
                     "access names an object outside the universe");
    for (const auto& sp : t.spans)
      LFRT_CHECK_MSG(sp.object < object_count,
                     "span names an object outside the universe");
  }
  // Task ids must be unique.
  std::vector<TaskId> ids;
  for (const auto& t : tasks) ids.push_back(t.id);
  std::sort(ids.begin(), ids.end());
  LFRT_CHECK_MSG(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                 "duplicate task ids");
}

double TaskSet::approximate_load() const {
  double al = 0.0;
  for (const auto& t : tasks)
    al += static_cast<double>(t.exec_time) /
          static_cast<double>(t.critical_time());
  return al;
}

}  // namespace lfrt
