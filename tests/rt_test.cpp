// Tests for the rt layer: access-time microbenchmarks (structure, not
// absolute timing) and the priority helpers' graceful degradation.
#include <gtest/gtest.h>

#include <thread>

#include "rt/access_time.hpp"
#include "rt/priority.hpp"

namespace lfrt::rt {
namespace {

TEST(Priority, PinToCpuZeroUsuallySucceeds) {
  // CPU 0 exists on every host; pinning may still be refused in exotic
  // sandboxes, so only require a clean boolean, then restore no state
  // (affinity is per-thread and the test thread ends with the test).
  const bool ok = pin_to_cpu(0);
  EXPECT_TRUE(ok || !ok);  // must not crash; result is host-dependent
}

TEST(Priority, RealtimePriorityDegradesGracefully) {
  // Unprivileged hosts refuse SCHED_FIFO; the helper must return false
  // rather than aborting, and the thread keeps running.
  std::thread t([] {
    const bool got_rt = set_realtime_priority(10);
    (void)got_rt;  // either outcome is legal; thread must survive
  });
  t.join();
  SUCCEED();
}

TEST(AccessTime, LockFreeMeasurementProducesSamples) {
  AccessTimeConfig cfg;
  cfg.object_count = 2;
  cfg.samples = 200;
  cfg.with_interferer = false;
  const auto res = measure_lockfree_access(cfg);
  EXPECT_EQ(res.per_access_ns.count(), 200u);
  EXPECT_GT(res.per_access_ns.mean(), 0.0);
  EXPECT_GE(res.retries, 0);
}

TEST(AccessTime, LockBasedMeasurementIncludesSchedulerCost) {
  AccessTimeConfig cfg;
  cfg.object_count = 2;
  cfg.samples = 200;
  cfg.with_interferer = false;
  const auto lb = measure_lockbased_access(cfg);
  const auto lf = measure_lockfree_access(cfg);
  EXPECT_EQ(lb.per_access_ns.count(), 200u);
  // r embeds a full lock-based-RUA invocation per request: it must
  // exceed the bare CAS-queue op by a comfortable margin on any host.
  EXPECT_GT(lb.per_access_ns.mean(), 3.0 * lf.per_access_ns.mean());
}

TEST(AccessTime, LockBasedCostGrowsWithObjects) {
  AccessTimeConfig small, large;
  small.object_count = 1;
  small.samples = 300;
  small.with_interferer = false;
  large = small;
  large.object_count = 9;
  const auto a = measure_lockbased_access(small);
  const auto b = measure_lockbased_access(large);
  // Longer dependency chains per invocation: the Figure-8 growth.
  // Minima, not means: a sample preempted by the host can inflate a
  // mean past the other run's, but it cannot raise a minimum.  The
  // 9-object chains cost well over twice the 1-object ones; the margin
  // keeps two equal views from passing by a coin toss.
  EXPECT_GT(b.per_access_ns.min(), 1.5 * a.per_access_ns.min());
}

TEST(AccessTime, InterfererDoesNotBreakMeasurement) {
  AccessTimeConfig cfg;
  cfg.object_count = 3;
  cfg.samples = 300;
  cfg.with_interferer = true;
  const auto res = measure_lockfree_access(cfg);
  EXPECT_EQ(res.per_access_ns.count(), 300u);
  EXPECT_GT(res.per_access_ns.mean(), 0.0);
}

}  // namespace
}  // namespace lfrt::rt
