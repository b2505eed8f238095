// Enforces the zero-allocation contract of the RUA hot path: once a
// RuaWorkspace and a ScheduleResult have been through one warm-up call
// at a given job-count high-water mark, further build_into calls must
// perform no heap allocations at all (RuaWorkspace documents the
// contract; this test is the hook that keeps it honest).  The dispatch
// selector that consumes each schedule, and the scheduling pass that
// runs both, are held to the same contract, and their memory must not
// grow with the job ids they are handed.
//
// The counting operator new/delete overrides are process-global, which
// is safe here because the binary runs single-threaded and gtest's own
// allocations happen outside the counted windows.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "sched/dispatch.hpp"
#include "sched/rua.hpp"
#include "sched/scheduling_pass.hpp"
#include "tuf/tuf.hpp"

namespace {

std::atomic<long long> g_allocs{0};
std::atomic<long long> g_frees{0};
std::atomic<bool> g_counting{false};

}  // namespace

// Neither replacement is inlined: GCC 12 would otherwise see malloc'd
// memory reach operator delete, or operator new's memory reach free,
// at an inlined call site and warn (-Wmismatched-new-delete), though
// the pair matches malloc with free.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  if (g_counting.load(std::memory_order_relaxed))
    g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

void operator delete[](void* p) noexcept { ::operator delete(p); }

void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace lfrt {
namespace {

using sched::RuaScheduler;
using sched::SchedJob;
using sched::ScheduleResult;
using sched::Sharing;

struct View {
  std::vector<std::unique_ptr<Tuf>> tufs;
  std::vector<SchedJob> jobs;
};

View make_view(int n, bool chained) {
  View v;
  for (int i = 0; i < n; ++i) {
    v.tufs.push_back(make_step_tuf(10.0 + i % 7, msec(100) + usec(13 * i)));
    SchedJob j;
    j.id = i;
    j.arrival = 0;
    j.critical = v.tufs.back()->critical_time();
    j.remaining = usec(50);
    j.tuf = v.tufs.back().get();
    j.waits_on = chained && i + 1 < n ? i + 1 : kNoJob;
    v.jobs.push_back(j);
  }
  return v;
}

/// Allocations observed across `calls` steady-state rebuilds.
long long count_steady_state(const RuaScheduler& rua, const View& v,
                             int calls) {
  const auto ws = rua.make_workspace();
  ScheduleResult out;
  rua.build_into(v.jobs, 0, ws.get(), out);  // warm-up: buffers grow here

  g_allocs.store(0);
  g_frees.store(0);
  g_counting.store(true);
  for (int c = 0; c < calls; ++c) rua.build_into(v.jobs, 0, ws.get(), out);
  g_counting.store(false);
  EXPECT_EQ(g_frees.load(), 0) << "steady-state build_into freed memory";
  return g_allocs.load();
}

TEST(RuaAllocTest, LockFreeSteadyStateAllocatesNothing) {
  const RuaScheduler rua(Sharing::kLockFree);
  const View v = make_view(64, /*chained=*/false);
  EXPECT_EQ(count_steady_state(rua, v, 10), 0);
}

TEST(RuaAllocTest, LockBasedChainedSteadyStateAllocatesNothing) {
  const RuaScheduler rua(Sharing::kLockBased);
  const View v = make_view(64, /*chained=*/true);
  EXPECT_EQ(count_steady_state(rua, v, 10), 0);
}

TEST(RuaAllocTest, DeadlockDetectionSteadyStateAllocatesNothing) {
  // Cycles make the detector walk its scratch and record victims; the
  // victim list lives in the (reused) ScheduleResult, so even this path
  // is allocation-free after warm-up.
  const RuaScheduler rua(Sharing::kLockBased, /*detect_deadlocks=*/true);
  View v = make_view(16, /*chained=*/true);
  v.jobs.back().waits_on = 0;  // close the chain into one big cycle
  EXPECT_EQ(count_steady_state(rua, v, 10), 0);
}

TEST(RuaAllocTest, AlternatingUnblockedAndChainedViewsAllocateNothing) {
  // A view with no blocked job skips the dependency chains; a chained
  // one builds them.  One workspace serves both paths, so after one
  // warm-up call on each, alternating between them must reuse every
  // buffer, the sort keys included.
  const RuaScheduler rua(Sharing::kLockBased, /*detect_deadlocks=*/true);
  const View unblocked = make_view(64, /*chained=*/false);
  const View chained = make_view(64, /*chained=*/true);
  const auto ws = rua.make_workspace();
  ScheduleResult out;
  rua.build_into(unblocked.jobs, 0, ws.get(), out);
  rua.build_into(chained.jobs, 0, ws.get(), out);

  g_allocs.store(0);
  g_frees.store(0);
  g_counting.store(true);
  for (int c = 0; c < 10; ++c) {
    rua.build_into(unblocked.jobs, 0, ws.get(), out);
    rua.build_into(chained.jobs, 0, ws.get(), out);
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocs.load(), 0);
  EXPECT_EQ(g_frees.load(), 0);
}

TEST(RuaAllocTest, ShrinkingJobCountStaysAllocationFree) {
  // After warming at n=64, smaller views must reuse the same capacity.
  const RuaScheduler rua(Sharing::kLockFree);
  const View big = make_view(64, false);
  const View small = make_view(9, false);
  const auto ws = rua.make_workspace();
  ScheduleResult out;
  rua.build_into(big.jobs, 0, ws.get(), out);

  g_allocs.store(0);
  g_counting.store(true);
  for (int c = 0; c < 10; ++c) rua.build_into(small.jobs, 0, ws.get(), out);
  g_counting.store(false);
  EXPECT_EQ(g_allocs.load(), 0);
}

TEST(DispatchSelectorAllocTest, SelectOverGrowingIdsAllocatesNothing) {
  // A long-running service admits jobs with ever-larger ids.  After one
  // warm-up selection, select must not allocate however large the ids
  // (and id_limit) grow: its scratch is bounded by cpu_count.  The same
  // holds for a whole scheduling pass (view, RUA build, select, assign
  // and the per-CPU decisions) once it has seen a pass that replaces
  // every running job.
  constexpr int kCpus = 4;
  sched::DispatchSelector selector;
  ScheduleResult res;
  res.schedule.assign(8, kNoJob);
  const std::vector<JobId> front;
  const auto eligible = [](JobId) { return true; };
  const auto task_of = [](JobId id) { return static_cast<TaskId>(id % 4); };
  const auto fill = [&](JobId base) {
    for (std::size_t i = 0; i < res.schedule.size(); ++i)
      res.schedule[i] = base + static_cast<JobId>(i);
    res.dispatch = base + 1;
  };
  fill(0);
  selector.select(front, res, kCpus, res.schedule.size(), eligible, task_of);
  const RuaScheduler rua(Sharing::kLockFree);
  sched::SchedulingPass pass(rua, kCpus, {});
  const View view = make_view(8, /*chained=*/false);
  const auto run_pass = [&](JobId base) {
    while (!pass.view().empty()) pass.erase(pass.view().back().id);
    for (SchedJob j : view.jobs) {
      j.id += base;
      j.task = task_of(j.id);
      pass.insert(j);
    }
    pass.build(0, [&](JobId id) {
      return view.jobs[static_cast<std::size_t>(id - base)].remaining;
    });
    return pass.dispatch().size();
  };
  run_pass(0);
  run_pass(1 << 9);

  std::vector<JobId> last;
  last.reserve(kCpus);
  JobId last_base = 0;
  g_allocs.store(0);
  g_counting.store(true);
  for (JobId base = 1 << 10; base <= (1 << 20); base *= 2) {
    fill(base);
    const auto& targets =
        selector.select(front, res, kCpus,
                        static_cast<std::size_t>(base) + res.schedule.size(),
                        eligible, task_of);
    last.assign(targets.begin(), targets.end());
    last_base = base;
    EXPECT_EQ(run_pass(base), 2u * kCpus);  // all four CPUs change hands
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocs.load(), 0);
  // The last pass picked the dispatch nomination, then the schedule in
  // order without repeating it.
  const JobId b = last_base;
  EXPECT_EQ(last, (std::vector<JobId>{b + 1, b, b + 2, b + 3}));
}

}  // namespace
}  // namespace lfrt
