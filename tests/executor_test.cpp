// Tests for the middleware-level UA executor (real threads, cooperative
// preemption, abort exceptions) — the paper's meta-scheduler substrate.
//
// Assertions are structural (states, counts, ordering), not wall-clock
// tight, so they hold on a loaded single-CPU host.
#include "rt/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "lockfree/msqueue.hpp"
#include "sched/edf.hpp"
#include "sched/rua.hpp"
#include "support/check.hpp"

namespace lfrt::rt {
namespace {

/// Busy work split into checkpointed quanta.
void spin_quanta(JobContext& ctx, int quanta,
                 std::chrono::microseconds per_quantum) {
  for (int q = 0; q < quanta; ++q) {
    const auto until = std::chrono::steady_clock::now() + per_quantum;
    while (std::chrono::steady_clock::now() < until) {
    }
    ctx.checkpoint();
  }
}

RtJob quick_job(double height, Time critical, std::atomic<int>* done,
                int quanta = 3) {
  RtJob job;
  job.tuf = make_step_tuf(height, critical);
  job.expected_exec = usec(300);
  job.body = [done, quanta](JobContext& ctx) {
    spin_quanta(ctx, quanta, std::chrono::microseconds(100));
    if (done) done->fetch_add(1);
  };
  return job;
}

TEST(Executor, SingleJobCompletes) {
  const sched::EdfScheduler edf;
  Executor ex(edf);
  std::atomic<int> done{0};
  ex.submit(quick_job(10.0, msec(500), &done));
  const auto rep = ex.shutdown();
  EXPECT_EQ(done.load(), 1);
  EXPECT_EQ(rep.submitted, 1);
  EXPECT_EQ(rep.completed, 1);
  EXPECT_EQ(rep.aborted, 0);
  EXPECT_DOUBLE_EQ(rep.aur(), 1.0);
}

TEST(Executor, ManyJobsAllComplete) {
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  Executor ex(rua);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i)
    ex.submit(quick_job(10.0 + i, msec(2000), &done));
  const auto rep = ex.shutdown();
  EXPECT_EQ(done.load(), 10);
  EXPECT_EQ(rep.completed, 10);
  EXPECT_DOUBLE_EQ(rep.aur(), 1.0);
}

TEST(Executor, HopelessJobIsAbortedAndHandlerRuns) {
  const sched::EdfScheduler edf;
  Executor ex(edf);
  std::atomic<int> handler_ran{0};
  std::atomic<int> body_finished{0};
  RtJob job;
  job.tuf = make_step_tuf(10.0, msec(5));  // 5ms critical time
  job.expected_exec = msec(100);
  job.body = [&](JobContext& ctx) {
    // Loops far beyond the critical time; must be aborted at a
    // checkpoint.
    spin_quanta(ctx, 10000, std::chrono::microseconds(100));
    body_finished.fetch_add(1);
  };
  job.abort_handler = [&] { handler_ran.fetch_add(1); };
  ex.submit(std::move(job));
  const auto rep = ex.shutdown();
  EXPECT_EQ(rep.aborted, 1);
  EXPECT_EQ(rep.completed, 0);
  EXPECT_EQ(handler_ran.load(), 1);
  EXPECT_EQ(body_finished.load(), 0);
  EXPECT_DOUBLE_EQ(rep.aur(), 0.0);
}

TEST(Executor, AbortedFlagVisibleInsideBody) {
  const sched::EdfScheduler edf;
  Executor ex(edf);
  std::atomic<bool> observed{false};
  RtJob job;
  job.tuf = make_step_tuf(10.0, msec(5));
  job.expected_exec = msec(50);
  job.body = [&](JobContext& ctx) {
    // Poll the abort flag without checkpointing until it trips, then
    // checkpoint to take the exception.
    while (!ctx.aborted()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    observed.store(true);
    ctx.checkpoint();  // throws JobAborted
  };
  ex.submit(std::move(job));
  const auto rep = ex.shutdown();
  EXPECT_TRUE(observed.load());
  EXPECT_EQ(rep.aborted, 1);
}

TEST(Executor, EdfOrdersCompletions) {
  // Three jobs submitted back-to-back with staggered critical times;
  // under EDF the earliest-critical job must finish first.
  const sched::EdfScheduler edf;
  Executor ex(edf);
  std::vector<int> order;
  std::mutex order_mu;
  // Bodies hold at checkpoints until the third submit has landed, so
  // EDF sees all three jobs before any of them can complete, however
  // late a descheduled submitting thread gets back.
  std::atomic<bool> all_submitted{false};
  auto make = [&](int tag, Time critical) {
    RtJob job;
    job.tuf = make_step_tuf(10.0, critical);
    job.expected_exec = msec(2);
    job.body = [&, tag](JobContext& ctx) {
      while (!all_submitted.load()) ctx.checkpoint();
      spin_quanta(ctx, 20, std::chrono::microseconds(100));
      std::lock_guard<std::mutex> g(order_mu);
      order.push_back(tag);
    };
    return job;
  };
  // Longest-deadline first into the queue, so EDF must reorder.
  ex.submit(make(2, msec(900)));
  ex.submit(make(1, msec(600)));
  ex.submit(make(0, msec(300)));
  all_submitted.store(true);
  const auto rep = ex.shutdown();
  ASSERT_EQ(rep.completed, 3);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
  // Reordering requires at least one preemption-driven redispatch.
  EXPECT_GE(rep.dispatches, 3);
}

TEST(Executor, UtilityAccruesByTuf) {
  // A linear TUF accrues partial utility depending on sojourn; with a
  // generous critical time the job completes early and the utility is
  // close to (but below) the maximum.
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  Executor ex(rua);
  RtJob job;
  job.tuf = make_linear_tuf(100.0, sec(10));
  job.expected_exec = msec(1);
  job.body = [](JobContext& ctx) {
    spin_quanta(ctx, 5, std::chrono::microseconds(100));
  };
  ex.submit(std::move(job));
  const auto rep = ex.shutdown();
  EXPECT_EQ(rep.completed, 1);
  EXPECT_GT(rep.accrued_utility, 90.0);
  EXPECT_LT(rep.accrued_utility, 100.0);
}

TEST(Executor, RejectsMalformedJobs) {
  const sched::EdfScheduler edf;
  Executor ex(edf);
  RtJob no_body;
  no_body.tuf = make_step_tuf(1.0, msec(10));
  no_body.expected_exec = usec(10);
  EXPECT_THROW(ex.submit(std::move(no_body)), InvariantViolation);
  RtJob no_tuf;
  no_tuf.expected_exec = usec(10);
  no_tuf.body = [](JobContext&) {};
  EXPECT_THROW(ex.submit(std::move(no_tuf)), InvariantViolation);
  (void)ex.shutdown();
}

TEST(Executor, SharedLockFreeQueueAcrossJobs) {
  // Two jobs stream items through a lock-free queue; conservation must
  // hold and no retries may be lost (counters merely non-negative).
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  Executor ex(rua);
  // Execution is serialized (one dispatched job at a time) and this
  // cooperative substrate re-dispatches only at scheduling events, so
  // the queue must hold the full stream: the producer (earlier critical
  // time) runs to completion, then the consumer drains.
  auto queue = std::make_shared<lockfree::MsQueue<int>>(1024);
  std::atomic<int> received{0};

  RtJob producer;
  producer.tuf = make_step_tuf(10.0, sec(2));
  producer.expected_exec = msec(1);
  producer.body = [queue](JobContext& ctx) {
    for (int i = 0; i < 1000; ++i) {
      while (!queue->enqueue(i)) ctx.checkpoint();
      if (i % 64 == 0) ctx.checkpoint();
    }
  };
  RtJob consumer;
  consumer.tuf = make_step_tuf(10.0, sec(5));
  consumer.expected_exec = msec(1);
  consumer.body = [queue, &received](JobContext&) {
    while (auto v = queue->dequeue()) received.fetch_add(1);
  };
  ex.submit(std::move(producer));
  ex.submit(std::move(consumer));
  const auto rep = ex.shutdown();
  EXPECT_EQ(rep.completed, 2);
  EXPECT_EQ(received.load(), 1000);
  EXPECT_GE(queue->stats().retry_count(), 0);
}

}  // namespace
}  // namespace lfrt::rt
