// runtime::SharedObject / SharedObjectSet — the unified access layer.
//
// Every ObjectKind × ObjectImpl combination is hammered from several
// threads through the one access(op, task, job, checkpoint) surface,
// then the three accounting views are reconciled: the structure's own
// ObjectStats, the per-job sink tallies, and the per-(object, task)
// registry cells all observe the same record_retry /
// record_acquisition events, so their sums must agree exactly — not
// approximately.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "runtime/shared_object.hpp"
#include "support/check.hpp"

namespace lfrt::runtime {
namespace {

constexpr std::int32_t kObjects = 3;
constexpr std::int32_t kTasks = 4;
constexpr int kAccessesPerThread = 2000;

std::vector<ObjectSpec> specs_of(ObjectKind kind, ObjectImpl impl) {
  return uniform_objects(kObjects, kind, impl);
}

/// Drive one thread per task; thread t alternates writes and reads over
/// all objects.  Returns per-thread access counts (all complete — the
/// checkpoint never throws).
void hammer(SharedObjectSet& set) {
  std::vector<std::thread> threads;
  for (std::int32_t t = 0; t < kTasks; ++t) {
    threads.emplace_back([&set, t] {
      for (int i = 0; i < kAccessesPerThread; ++i) {
        const ObjectId o = i % kObjects;
        const AccessOp op = (i + t) % 2 == 0 ? AccessOp::kWrite
                                             : AccessOp::kRead;
        set.access(o, op, t, /*job=*/t * kAccessesPerThread + i, [] {});
      }
    });
  }
  for (auto& th : threads) th.join();
}

class SharedObjectAllCombos
    : public ::testing::TestWithParam<std::pair<ObjectKind, ObjectImpl>> {};

/// Three-way attribution agreement under real concurrency: for every
/// object, the structure's own retry/blocking counters equal the
/// registry row sums, and the total op count equals the number of
/// completed accesses.
TEST_P(SharedObjectAllCombos, AttributionSumsAgree) {
  const auto [kind, impl] = GetParam();
  SharedObjectSet set(specs_of(kind, impl), kTasks, /*queue_capacity=*/256);
  ASSERT_EQ(set.object_count(), kObjects);
  hammer(set);

  const ContentionMatrix m = set.matrix();
  ASSERT_EQ(m.objects, kObjects);
  ASSERT_EQ(m.tasks, kTasks);
  ASSERT_FALSE(m.empty());

  for (std::int32_t o = 0; o < kObjects; ++o) {
    const ContentionCell row = m.object_totals(o);
    const ObjectCounts st = set.counts_of(o);
    EXPECT_EQ(row.retries, st.retries)
        << "object " << o << ": registry row vs structure retries";
    EXPECT_EQ(row.blockings, st.contended)
        << "object " << o << ": registry row vs structure blockings";
  }
  // Ops are counted once per *completed* access, on the registry side.
  const std::int64_t total_accesses =
      static_cast<std::int64_t>(kTasks) * kAccessesPerThread;
  EXPECT_EQ(m.totals().ops, total_accesses);
  // Lock-free impls never block; lock-based impls never CAS-retry.
  if (impl == ObjectImpl::kLockFree)
    EXPECT_EQ(m.totals().blockings, 0);
  else
    EXPECT_EQ(m.totals().retries, 0);
}

std::vector<std::pair<ObjectKind, ObjectImpl>> all_combos() {
  std::vector<std::pair<ObjectKind, ObjectImpl>> v;
  for (const ObjectKind kind : all_object_kinds())
    for (const ObjectImpl impl : all_object_impls()) v.push_back({kind, impl});
  return v;
}

std::string combo_name(
    const ::testing::TestParamInfo<std::pair<ObjectKind, ObjectImpl>>& info) {
  std::string name = std::string(to_string(info.param.first)) + "_" +
                     to_string(info.param.second);
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(Zoo, SharedObjectAllCombos,
                         ::testing::ValuesIn(all_combos()), combo_name);

/// An aborted access (checkpoint throws) is rolled back: the exception
/// propagates, the op is not counted, and a queue write leaves no
/// element behind — the next read still finds the queue empty.
TEST(SharedObject, AbortedWriteRollsBack) {
  SharedObjectSet set(specs_of(ObjectKind::kQueue, ObjectImpl::kLockFree),
                      kTasks, 256);
  struct Abort {};
  EXPECT_THROW(
      set.access(0, AccessOp::kWrite, 0, 0, [] { throw Abort{}; }), Abort);
  EXPECT_EQ(set.matrix().totals().ops, 0);

  set.access(0, AccessOp::kWrite, 0, 1, [] {});
  EXPECT_EQ(set.matrix().totals().ops, 1);
  EXPECT_EQ(set.matrix().at(0, 0).ops, 1);
}

class SharedObjectRollback
    : public ::testing::TestWithParam<std::pair<ObjectKind, ObjectImpl>> {};

/// An aborted write (checkpoint throws) is rolled back on every
/// queue/stack × impl: the exception propagates, the access is not
/// counted, and the structure saw the insert and its compensating
/// remove, so the write leaves no element behind.
TEST_P(SharedObjectRollback, AbortedWriteRollsBack) {
  const auto [kind, impl] = GetParam();
  SharedObjectSet set(specs_of(kind, impl), kTasks, 256);
  struct Abort {};
  EXPECT_THROW(
      set.access(0, AccessOp::kWrite, 0, 0, [] { throw Abort{}; }), Abort);
  EXPECT_EQ(set.matrix().totals().ops, 0);
  EXPECT_EQ(set.counts_of(0).ops, 2);

  set.access(0, AccessOp::kWrite, 0, 1, [] {});
  EXPECT_EQ(set.matrix().totals().ops, 1);
  EXPECT_EQ(set.matrix().at(0, 0).ops, 1);
  EXPECT_EQ(set.counts_of(0).ops, 4);
}

std::vector<std::pair<ObjectKind, ObjectImpl>> queue_stack_combos() {
  std::vector<std::pair<ObjectKind, ObjectImpl>> v;
  for (const ObjectKind kind : {ObjectKind::kQueue, ObjectKind::kStack})
    for (const ObjectImpl impl : all_object_impls()) v.push_back({kind, impl});
  return v;
}

INSTANTIATE_TEST_SUITE_P(QueueStack, SharedObjectRollback,
                         ::testing::ValuesIn(queue_stack_combos()),
                         combo_name);

/// Accesses attributed to a task outside the registry's range (e.g. a
/// maintenance thread with task id -1) still work — they are simply not
/// attributed to any cell.
TEST(SharedObject, OutOfRangeTaskIsUnattributed) {
  SharedObjectSet set(specs_of(ObjectKind::kStack, ObjectImpl::kLockFree),
                      kTasks, 256);
  set.access(0, AccessOp::kWrite, /*task=*/-1, 0, [] {});
  set.access(0, AccessOp::kWrite, /*task=*/kTasks + 7, 1, [] {});
  EXPECT_EQ(set.matrix().totals().ops, 0);
  // The structure itself still counted the operations.
  EXPECT_GT(set.counts_of(0).ops, 0);
}

/// Out-of-range *object* ids are a caller bug and trip the invariant.
TEST(SharedObject, OutOfRangeObjectThrows) {
  SharedObjectSet set(specs_of(ObjectKind::kQueue, ObjectImpl::kLockFree),
                      kTasks, 256);
  EXPECT_THROW(set.access(kObjects, AccessOp::kRead, 0, 0, [] {}),
               InvariantViolation);
  EXPECT_THROW(set.access(-1, AccessOp::kRead, 0, 0, [] {}),
               InvariantViolation);
}

/// The registry flattens its atomic cells into the exact plain matrix.
TEST(ObjectRegistryTest, ToMatrixFlattensCells) {
  ObjectRegistry reg(2, 3);
  ASSERT_NE(reg.cell(1, 2), nullptr);
  reg.cell(1, 2)->ops.fetch_add(5);
  reg.cell(1, 2)->retries.fetch_add(7);
  reg.cell(0, 1)->blockings.fetch_add(2);
  EXPECT_EQ(reg.cell(2, 0), nullptr);   // object out of range
  EXPECT_EQ(reg.cell(0, 3), nullptr);   // task out of range
  EXPECT_EQ(reg.cell(0, -1), nullptr);  // negative task

  const ContentionMatrix m = reg.to_matrix();
  EXPECT_EQ(m.objects, 2);
  EXPECT_EQ(m.tasks, 3);
  EXPECT_EQ(m.at(1, 2).ops, 5);
  EXPECT_EQ(m.at(1, 2).retries, 7);
  EXPECT_EQ(m.at(0, 1).blockings, 2);
  EXPECT_EQ(m.totals().ops, 5);
  EXPECT_EQ(m.object_totals(1).retries, 7);
  EXPECT_EQ(m.task_totals(1).blockings, 2);
}

}  // namespace
}  // namespace lfrt::runtime
