// Unit tests for the parallel experiment-runner (src/exp): the fixed-
// size thread pool, the index-slotted parallel_map/sweep fan-out, and
// the --threads / LFRT_THREADS resolution helpers.
#include "exp/sweep.hpp"
#include "exp/thread_pool.hpp"

#include <sched.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace lfrt::exp {
namespace {

TEST(ExpThreadPool, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(257, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ExpThreadPool, EmptyBatchIsANoOp) {
  ThreadPool pool(4);
  bool touched = false;
  pool.parallel_for(0, [&](std::int64_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ExpThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  for (int batch = 0; batch < 20; ++batch) {
    pool.parallel_for(10, [&](std::int64_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 20 * 45);
}

TEST(ExpThreadPool, PropagatesTheFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::int64_t i) {
                                   if (i == 37)
                                     throw std::runtime_error("cell 37");
                                 }),
               std::runtime_error);
  // The pool survives a failed batch.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ExpParallelMap, SlotsResultsByIndex) {
  ThreadPool pool(4);
  const std::vector<int> out =
      parallel_map(pool, 100, [](std::int64_t i) {
        return static_cast<int>(i * i);
      });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(ExpParallelMap, IdenticalAcrossPoolSizes) {
  const auto body = [](std::int64_t i) {
    return std::to_string(i * 31 % 17);
  };
  ThreadPool p1(1), p8(8);
  EXPECT_EQ(parallel_map(p1, 64, body), parallel_map(p8, 64, body));
}

TEST(ExpSweep, MapsItemsInOrder) {
  ThreadPool pool(2);
  const std::vector<int> items = {5, 3, 9, 1};
  const auto out = sweep(pool, items, [](int v) { return v * 2; });
  EXPECT_EQ(out, (std::vector<int>{10, 6, 18, 2}));
}

TEST(ExpThreads, FromArgsParsesFlagForms) {
  const char* a1[] = {"bench", "--threads=3"};
  EXPECT_EQ(threads_from_args(2, a1), 3);
  const char* a2[] = {"bench", "--threads", "5"};
  EXPECT_EQ(threads_from_args(3, a2), 5);
  const char* a3[] = {"bench", "--threads=2", "--threads=7"};
  EXPECT_EQ(threads_from_args(3, a3), 7);  // last flag wins
}

TEST(ExpThreads, EnvFallback) {
  ::setenv("LFRT_THREADS", "6", 1);
  const char* a[] = {"bench"};
  EXPECT_EQ(threads_from_args(1, a), 6);
  EXPECT_EQ(default_threads(), 6);
  ::unsetenv("LFRT_THREADS");
  EXPECT_GE(default_threads(), 1);
}

TEST(ExpThreads, DefaultFollowsTheAffinityMask) {
  // Without LFRT_THREADS the pool is sized to the CPUs this process may
  // run on, not to the host's CPU count.
  const char* env = std::getenv("LFRT_THREADS");
  const std::string saved = env != nullptr ? env : "";
  ::unsetenv("LFRT_THREADS");
  cpu_set_t mask;
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  EXPECT_EQ(default_threads(), CPU_COUNT(&mask));
  int first = 0;
  while (!CPU_ISSET(first, &mask)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned = default_threads();
  ASSERT_EQ(sched_setaffinity(0, sizeof(mask), &mask), 0);
  EXPECT_EQ(pinned, 1);
  if (env != nullptr) ::setenv("LFRT_THREADS", saved.c_str(), 1);
}

TEST(ExpThreads, RejectsNonsenseValues) {
  ::setenv("LFRT_THREADS", "0", 1);
  EXPECT_GE(default_threads(), 1);  // falls back to the affinity mask
  ::setenv("LFRT_THREADS", "banana", 1);
  EXPECT_GE(default_threads(), 1);
  ::unsetenv("LFRT_THREADS");
}

}  // namespace
}  // namespace lfrt::exp
