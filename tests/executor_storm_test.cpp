// Abort storms: jobs whose critical times expire while they are
// mid-access to shared objects.  The executor must raise JobAborted at
// a checkpoint, run the abort handler (which undoes the half-done
// access), and account everything — with zero nodes leaked from the
// lock-free pool and a RunReport whose tallies are internally
// consistent.  Runs under ASan and TSan in scripts/check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "lockbased/locked.hpp"
#include "lockfree/msqueue.hpp"
#include "rt/executor.hpp"
#include "sched/rua.hpp"

namespace lfrt {
namespace {

void spin_past(rt::JobContext& ctx, Time total) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(total);
  while (std::chrono::steady_clock::now() < deadline) {
    ctx.checkpoint();
    std::this_thread::yield();
  }
}

rt::ExecutorConfig on_cpus(int cpu_count) {
  rt::ExecutorConfig cfg;
  cfg.cpu_count = cpu_count;
  return cfg;
}

void check_report_consistency(const rt::ExecutorReport& rep) {
  EXPECT_EQ(rep.completed + rep.aborted, rep.submitted);
  EXPECT_EQ(rep.counted_jobs, rep.submitted);
  EXPECT_LE(rep.max_concurrency_observed, rep.cpu_count);
  EXPECT_EQ(static_cast<std::int64_t>(rep.jobs.size()), rep.submitted);
  std::int64_t retries = 0, blockings = 0, completed = 0, aborted = 0;
  double utility = 0.0;
  for (const Job& j : rep.jobs) {
    retries += j.retries;
    blockings += j.blockings;
    if (j.state == JobState::kCompleted) {
      ++completed;
      EXPECT_GE(j.completion, j.arrival);
    } else {
      ASSERT_EQ(j.state, JobState::kAborted);
      ++aborted;
      EXPECT_EQ(j.completion, -1);  // an aborted job never completes
    }
  }
  EXPECT_EQ(retries, rep.total_retries);
  EXPECT_EQ(blockings, rep.total_blockings);
  EXPECT_EQ(completed, rep.completed);
  EXPECT_EQ(aborted, rep.aborted);
  EXPECT_GE(rep.max_possible_utility, rep.accrued_utility);
  utility = rep.accrued_utility;
  EXPECT_GE(utility, 0.0);
}

/// After the storm the pool must hold exactly `capacity` free nodes:
/// drain what survived, then a full refill must succeed and the
/// (capacity+1)-th enqueue must hit pool exhaustion.
void check_no_leaked_nodes(lockfree::MsQueue<int>& q, std::size_t capacity) {
  while (q.dequeue()) {
  }
  for (std::size_t i = 0; i < capacity; ++i)
    ASSERT_TRUE(q.enqueue(static_cast<int>(i))) << "node leaked: refill "
                                                   "stalled at "
                                                << i << "/" << capacity;
  EXPECT_FALSE(q.enqueue(-1)) << "pool grew? capacity check broken";
  while (q.dequeue()) {
  }
}

void run_lockfree_abort_storm(int cpu_count) {
  constexpr std::size_t kCapacity = 64;
  auto q = std::make_shared<lockfree::MsQueue<int>>(kCapacity);
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  rt::ExecutorReport rep;
  {
    rt::Executor ex(rua, on_cpus(cpu_count));
    for (int i = 0; i < 24; ++i) {
      rt::RtJob job;
      const bool doomed = (i % 2 == 0);
      // Doomed jobs get a critical time far shorter than their spin;
      // the abort lands between their enqueue and their dequeue.
      job.tuf = make_step_tuf(10.0 + i, doomed ? usec(300) : msec(200));
      job.expected_exec = usec(doomed ? 50 : 100);
      auto pending = std::make_shared<std::atomic<int>>(0);
      job.body = [q, pending, i, doomed](rt::JobContext& ctx) {
        if (q->enqueue(i)) pending->fetch_add(1);
        spin_past(ctx, doomed ? msec(5) : usec(100));
        if (q->dequeue()) pending->fetch_sub(1);
        ctx.checkpoint();
      };
      job.abort_handler = [q, pending] {
        // Compensation: remove what the half-done body left behind.
        while (pending->load() > 0) {
          if (q->dequeue())
            pending->fetch_sub(1);
          else
            break;
        }
      };
      ex.submit(std::move(job));
    }
    rep = ex.shutdown();
  }

  EXPECT_EQ(rep.submitted, 24);
  EXPECT_GT(rep.aborted, 0) << "storm failed to abort anything";
  EXPECT_GT(rep.completed, 0) << "storm aborted everything";
  EXPECT_EQ(rep.cpu_count, cpu_count);
  ASSERT_EQ(static_cast<int>(rep.cpu_busy.size()), cpu_count);
  check_report_consistency(rep);
  check_no_leaked_nodes(*q, kCapacity);
}

TEST(ExecutorStorm, LockFreeAbortMidAccessLeaksNothing) {
  run_lockfree_abort_storm(1);
}

// The same storm with four workers genuinely overlapping: aborts,
// compensation, and pool recycling must stay leak-free when lock-free
// conflicts come from true parallelism, not just preemption.
TEST(ExecutorStorm, LockFreeAbortStormWithParallelWorkers) {
  run_lockfree_abort_storm(4);
}

TEST(ExecutorStorm, LockBasedAbortMidAccessStaysConsistent) {
  auto q = std::make_shared<lockbased::LockedQueue<int, std::mutex>>();
  const sched::RuaScheduler rua(sched::Sharing::kLockBased);
  rt::ExecutorReport rep;
  {
    rt::Executor ex(rua);
    for (int i = 0; i < 16; ++i) {
      rt::RtJob job;
      const bool doomed = (i % 2 == 0);
      job.tuf = make_linear_tuf(20.0 + i, doomed ? usec(300) : msec(200));
      job.expected_exec = usec(doomed ? 50 : 100);
      auto pending = std::make_shared<std::atomic<int>>(0);
      job.body = [q, pending, i, doomed](rt::JobContext& ctx) {
        q->enqueue(i);
        pending->fetch_add(1);
        spin_past(ctx, doomed ? msec(5) : usec(100));
        if (q->dequeue()) pending->fetch_sub(1);
        ctx.checkpoint();
      };
      job.abort_handler = [q, pending] {
        while (pending->load() > 0 && q->dequeue()) pending->fetch_sub(1);
      };
      ex.submit(std::move(job));
    }
    rep = ex.shutdown();
  }

  EXPECT_EQ(rep.submitted, 16);
  EXPECT_GT(rep.aborted, 0);
  check_report_consistency(rep);
  // Every abort handler drained its own leftovers.
  EXPECT_FALSE(q->dequeue().has_value());
  // The mutex queue reported its acquisitions through ObjectStats.
  EXPECT_GT(q->stats().acquisition_count(), 0);
  EXPECT_GT(q->stats().op_count(), 0);
}

/// Aborts raised while a worker is inside the structure itself (not at
/// a checkpoint) cannot happen — checkpoints are the only abort points —
/// so a body that never checkpoints inside its access region completes
/// the access atomically with respect to aborts.  This pins that
/// contract: the storm's integrity argument depends on it.
TEST(ExecutorStorm, AccessRegionsWithoutCheckpointsFinishBeforeAbort) {
  auto q = std::make_shared<lockfree::MsQueue<int>>(8);
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  rt::ExecutorReport rep;
  std::atomic<int> started{0}, balanced{0};
  {
    rt::Executor ex(rua);
    for (int i = 0; i < 6; ++i) {
      rt::RtJob job;
      // Generous critical time so at least the first body starts even
      // under TSan's slowdown; the spin below still overruns it.
      job.tuf = make_step_tuf(5.0, msec(10 * (i + 1)));
      job.expected_exec = usec(50);
      job.body = [q, &started, &balanced, i](rt::JobContext& ctx) {
        // enqueue+dequeue pair with no checkpoint between them: for
        // every body that starts, the pair fully happens.  (A job
        // aborted before first dispatch never starts its body at all.)
        started.fetch_add(1);
        if (q->enqueue(i)) {
          q->dequeue();
          balanced.fetch_add(1);
        }
        spin_past(ctx, msec(80));  // aborts land here
      };
      ex.submit(std::move(job));
    }
    rep = ex.shutdown();
  }
  check_report_consistency(rep);
  EXPECT_TRUE(q->empty());
  EXPECT_GT(started.load(), 0);
  EXPECT_EQ(balanced.load(), started.load());
}

/// With several workers inside the same lock-free queue simultaneously
/// (plus cooperative preemptions parking workers mid-access), every
/// structure-level retry must be credited to exactly the job that
/// performed it: the per-job sums must equal the structure's own
/// counter to the event.  A mis-placed ScopedAccessSink re-install —
/// e.g. dropping the sink across a park/resume — would break the
/// equality, since the queue is touched by no thread without a sink.
TEST(ExecutorStorm, ParallelWorkersCreditRetriesToOwnJobs) {
  constexpr int kJobs = 6;
  constexpr int kCpus = 2;
  auto q = std::make_shared<lockfree::MsQueue<int>>(256);
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  std::atomic<int> in_body{0};
  std::atomic<int> peak{0};
  rt::ExecutorReport rep;
  {
    rt::Executor ex(rua, on_cpus(kCpus));
    for (int i = 0; i < kJobs; ++i) {
      rt::RtJob job;
      job.tuf = make_step_tuf(10.0 + i, sec(20));  // generous: no aborts
      job.expected_exec = msec(1);
      job.body = [q, &in_body, &peak, i](rt::JobContext& ctx) {
        const int level = in_body.fetch_add(1) + 1;
        int p = peak.load();
        while (p < level && !peak.compare_exchange_weak(p, level)) {
        }
        // Rendezvous: hold until two bodies have overlapped, so the
        // hammer below is guaranteed to contend across real threads.
        // With kCpus >= 2 and every job ready, the dispatcher fills
        // both slots, so this terminates deterministically.
        while (peak.load() < 2) {
          ctx.checkpoint();
          std::this_thread::yield();
        }
        for (int k = 0; k < 2000; ++k) {
          while (!q->enqueue(i)) std::this_thread::yield();
          // A preemption/abort point in the middle of the access pair:
          // a parked worker must keep its credits on resume.
          if (k % 64 == 0) ctx.checkpoint();
          while (!q->dequeue()) std::this_thread::yield();
        }
        in_body.fetch_sub(1);
      };
      ex.submit(std::move(job));
    }
    rep = ex.shutdown();
  }
  EXPECT_EQ(rep.completed, kJobs);
  EXPECT_EQ(rep.cpu_count, kCpus);
  EXPECT_GE(rep.max_concurrency_observed, 2);
  EXPECT_GE(peak.load(), 2);
  check_report_consistency(rep);
  // The attribution invariant: per-job credited retries add up to
  // exactly what the structure itself recorded.
  EXPECT_EQ(rep.total_retries, q->stats().retry_count());
  EXPECT_TRUE(q->empty());
}

}  // namespace
}  // namespace lfrt
