// Tests for the task/job model and its validation rules.
#include "task/task.hpp"

#include <gtest/gtest.h>

#include "support/check.hpp"

namespace lfrt {
namespace {

TaskParams valid_task() {
  TaskParams p;
  p.id = 0;
  p.arrival = UamSpec{1, 2, usec(100)};
  p.tuf = make_step_tuf(10.0, usec(100));
  p.exec_time = usec(10);
  p.accesses = {{0, usec(2)}, {1, usec(5)}};
  return p;
}

TEST(TaskParams, ValidTaskPasses) {
  EXPECT_NO_THROW(valid_task().validate());
}

TEST(TaskParams, CriticalTimeMustNotExceedWindow) {
  auto p = valid_task();
  p.tuf = make_step_tuf(10.0, usec(101));  // C > W
  EXPECT_THROW(p.validate(), InvariantViolation);
}

TEST(TaskParams, ExecTimeMustBePositive) {
  auto p = valid_task();
  p.exec_time = 0;
  EXPECT_THROW(p.validate(), InvariantViolation);
}

TEST(TaskParams, AccessOffsetsMustBeSortedAndInRange) {
  auto p = valid_task();
  p.accesses = {{0, usec(5)}, {1, usec(2)}};  // unsorted
  EXPECT_THROW(p.validate(), InvariantViolation);
  p.accesses = {{0, usec(11)}};  // beyond u_i
  EXPECT_THROW(p.validate(), InvariantViolation);
  p.accesses = {{-1, usec(2)}};  // no object named
  EXPECT_THROW(p.validate(), InvariantViolation);
  p.accesses = {{0, usec(3)}, {1, usec(3)}};  // back-to-back is legal
  EXPECT_NO_THROW(p.validate());
}

TEST(TaskParams, TufRequired) {
  auto p = valid_task();
  p.tuf = nullptr;
  EXPECT_THROW(p.validate(), InvariantViolation);
}

TEST(TaskParams, NegativeHandlerTimeRejected) {
  auto p = valid_task();
  p.abort_handler_time = -1;
  EXPECT_THROW(p.validate(), InvariantViolation);
}

TEST(TaskSet, ObjectUniverseEnforced) {
  TaskSet ts;
  ts.object_count = 1;
  ts.tasks.push_back(valid_task());  // accesses object 1 >= count
  EXPECT_THROW(ts.validate(), InvariantViolation);
  ts.object_count = 2;
  EXPECT_NO_THROW(ts.validate());
}

TEST(TaskSet, DuplicateIdsRejected) {
  TaskSet ts;
  ts.object_count = 2;
  ts.tasks.push_back(valid_task());
  ts.tasks.push_back(valid_task());
  EXPECT_THROW(ts.validate(), InvariantViolation);
}

TEST(TaskSet, EmptySetRejected) {
  TaskSet ts;
  EXPECT_THROW(ts.validate(), InvariantViolation);
}

TEST(TaskSet, ByIdFindsAndThrows) {
  TaskSet ts;
  ts.object_count = 2;
  ts.tasks.push_back(valid_task());
  EXPECT_EQ(ts.by_id(0).id, 0);
  EXPECT_THROW(ts.by_id(42), InvariantViolation);
}

TaskSet with_ids(std::initializer_list<TaskId> ids) {
  TaskSet ts;
  ts.object_count = 2;
  for (TaskId id : ids) {
    auto p = valid_task();
    p.id = id;
    p.exec_time = usec(10 + id);  // tells the tasks apart
    ts.tasks.push_back(std::move(p));
  }
  return ts;
}

// Ids that are not the tasks' positions (reordered or sparse) still
// resolve, through the scan.
TEST(TaskSet, ByIdResolvesReorderedAndSparseIds) {
  for (const TaskSet& ts : {with_ids({2, 0, 1}), with_ids({0, 5, 9, 3})}) {
    for (const TaskParams& t : ts.tasks) {
      EXPECT_EQ(ts.by_id(t.id).id, t.id);
      EXPECT_EQ(ts.by_id(t.id).exec_time, usec(10 + t.id));
    }
  }
}

// An unknown id fails the check whether or not it indexes a task.
TEST(TaskSet, ByIdRejectsUnknownIds) {
  const TaskSet ts = with_ids({0, 5, 9, 3});
  for (TaskId id : {1, 2, 4, 10, -1}) {
    EXPECT_THROW(ts.by_id(id), InvariantViolation) << "id " << id;
  }
}

TEST(TaskSet, ApproximateLoadSums) {
  TaskSet ts;
  ts.object_count = 2;
  auto a = valid_task();  // u=10us, C=100us -> 0.1
  ts.tasks.push_back(std::move(a));
  auto b = valid_task();
  b.id = 1;
  b.exec_time = usec(30);
  b.tuf = make_step_tuf(5.0, usec(100));  // 0.3
  ts.tasks.push_back(std::move(b));
  EXPECT_NEAR(ts.approximate_load(), 0.4, 1e-12);
}

TEST(Job, SojournAndTerminalStates) {
  Job j;
  j.arrival = usec(5);
  EXPECT_EQ(j.sojourn(), -1);
  EXPECT_FALSE(j.finished());
  j.completion = usec(25);
  j.state = JobState::kCompleted;
  EXPECT_EQ(j.sojourn(), usec(20));
  EXPECT_TRUE(j.finished());
  j.state = JobState::kAborted;
  EXPECT_TRUE(j.finished());
  j.state = JobState::kBlocked;
  EXPECT_FALSE(j.finished());
}

TEST(TaskParams, AccessCountIsM) {
  EXPECT_EQ(valid_task().access_count(), 2);
  auto p = valid_task();
  p.accesses.clear();
  EXPECT_EQ(p.access_count(), 0);
}

}  // namespace
}  // namespace lfrt
