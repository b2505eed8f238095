// The executor's execution-right handoff: a dispatched job enters or
// resumes its body only while it holds one of cpu_count rights, and a
// descheduled body hands its right on only when it parks at a
// checkpoint, completes, or unwinds from an abort.  These cases pin the
// bound itself (at most cpu_count bodies ever execute), aborts landing
// in each waiting state (parked, waiting for a right, never
// dispatched), and a preemption/abort stress at cpu_count 1, 2 and 4
// whose drain() must return under a watchdog — a lost wake-up fails
// fast here instead of hanging the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "rt/executor.hpp"
#include "sched/rua.hpp"

namespace lfrt::rt {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr int kSlowdown = 10;
#elif defined(__SANITIZE_ADDRESS__)
constexpr int kSlowdown = 4;
#else
constexpr int kSlowdown = 1;
#endif

void spin_for(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Bodies executing right now, counted by the bodies themselves: a body
/// is outside from just before each checkpoint until it returns.  An
/// independent witness of the executor's own gauge.
struct InsideGauge {
  std::atomic<int> now{0};
  std::atomic<int> peak{0};

  void enter() {
    const int n = now.fetch_add(1) + 1;
    int p = peak.load();
    while (n > p && !peak.compare_exchange_weak(p, n)) {
    }
  }
  void leave() { now.fetch_sub(1); }
  void checkpoint(JobContext& ctx) {
    leave();
    ctx.checkpoint();  // an abort unwinds the body from outside
    enter();
  }
};

/// Runs ex.drain() and aborts the process if it has not returned within
/// `limit` (scaled under sanitizers): a lost wake-up then fails in
/// seconds with a message rather than at the ctest timeout.
void drain_or_die(Executor& ex, std::chrono::seconds limit) {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(m);
    if (!cv.wait_for(lock, limit * kSlowdown, [&] { return done; })) {
      std::fprintf(stderr, "drain() did not return within %llds: "
                           "a worker wait was never woken\n",
                   static_cast<long long>(limit.count() * kSlowdown));
      std::abort();
    }
  });
  ex.drain();
  {
    std::lock_guard<std::mutex> lock(m);
    done = true;
  }
  cv.notify_one();
  watchdog.join();
}

const Job& record_of(const ExecutorReport& rep, JobId id) {
  const auto it =
      std::find_if(rep.jobs.begin(), rep.jobs.end(),
                   [id](const Job& j) { return j.id == id; });
  EXPECT_NE(it, rep.jobs.end()) << "no record for job " << id;
  return *it;
}

/// The bound's reproducer.  Two bodies spin 30 ms with no checkpoint on
/// two CPUs; the second to start submits a job with a higher PUD and an
/// earlier critical time, and the pass deschedules one spinner for it.
/// The spinner cannot park before it finishes, so it keeps its right,
/// and the newcomer waits for that right: three bodies never run at
/// once.  (Follow-up jobs in these cases are submitted from inside a
/// running body, so no test-thread wake-up latency shifts the timing.)
TEST(ExecutorHandoff, DescheduledSpinnerKeepsItsRightUntilItFinishes) {
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  ExecutorConfig cfg;
  cfg.cpu_count = 2;
  InsideGauge inside;
  std::atomic<int> started{0};
  std::atomic<bool> urgent_ran{false};
  ExecutorReport rep;
  {
    Executor ex(rua, cfg);
    const auto urgent = [&] {
      RtJob job;
      job.tuf = make_step_tuf(100.0, msec(500));
      job.expected_exec = usec(200);
      job.body = [&](JobContext& ctx) {
        inside.enter();
        urgent_ran.store(true);
        spin_for(std::chrono::microseconds(200));
        inside.checkpoint(ctx);
        inside.leave();
      };
      return job;
    };
    for (int i = 0; i < 2; ++i) {
      RtJob job;
      job.tuf = make_step_tuf(1.0, sec(2));
      job.expected_exec = msec(30);
      job.body = [&](JobContext&) {
        inside.enter();
        if (started.fetch_add(1) == 1) ex.submit(urgent());
        spin_for(std::chrono::milliseconds(30));  // no checkpoint
        inside.leave();
      };
      ex.submit(std::move(job));
    }
    drain_or_die(ex, std::chrono::seconds(5));
    rep = ex.shutdown();
  }
  EXPECT_EQ(rep.completed, 3);
  EXPECT_TRUE(urgent_ran.load());
  EXPECT_GE(rep.total_preemptions, 1) << "the urgent job displaced nobody";
  EXPECT_LE(rep.max_concurrency_observed, cfg.cpu_count);
  EXPECT_LE(rep.mean_concurrency_observed, cfg.cpu_count);
  EXPECT_LE(inside.peak.load(), cfg.cpu_count);
}

/// One CPU: a spinner without checkpoints holds the right while an
/// urgent job is dispatched in its place.  The urgent job's critical
/// time passes while it waits for the right, so it leaves the waiting
/// list aborted: its handler runs once and its body never starts.
TEST(ExecutorHandoff, AbortWhileWaitingForARight) {
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  std::atomic<int> urgent_body{0};
  std::atomic<int> urgent_handler{0};
  std::atomic<JobId> urgent_id{kNoJob};
  ExecutorReport rep;
  {
    Executor ex(rua);
    RtJob spinner;
    spinner.tuf = make_step_tuf(1.0, sec(2));
    spinner.expected_exec = msec(20);
    spinner.body = [&](JobContext&) {
      RtJob urgent;
      urgent.tuf = make_step_tuf(100.0, msec(5));
      urgent.expected_exec = usec(100);
      urgent.body = [&](JobContext& ctx) {
        urgent_body.fetch_add(1);
        ctx.checkpoint();
      };
      urgent.abort_handler = [&] { urgent_handler.fetch_add(1); };
      urgent_id.store(ex.submit(std::move(urgent)));
      spin_for(std::chrono::milliseconds(20));  // no checkpoint
    };
    ex.submit(std::move(spinner));
    drain_or_die(ex, std::chrono::seconds(5));
    rep = ex.shutdown();
  }
  EXPECT_EQ(rep.completed, 1);
  EXPECT_EQ(rep.aborted, 1);
  EXPECT_EQ(record_of(rep, urgent_id.load()).state, JobState::kAborted);
  EXPECT_EQ(urgent_body.load(), 0);
  EXPECT_EQ(urgent_handler.load(), 1);
  EXPECT_EQ(rep.max_concurrency_observed, 1);
  EXPECT_LE(rep.mean_concurrency_observed, 1.0);
}

/// One CPU: a running job is displaced by one whose schedule it cannot
/// share, parks at its next checkpoint, and stays infeasible after the
/// newcomer completes, so its critical time passes while it is parked.
/// It unwinds from that checkpoint: handler once, body never finished.
TEST(ExecutorHandoff, AbortWhileParked) {
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  std::atomic<int> victim_finished{0};
  std::atomic<int> victim_handler{0};
  ExecutorReport rep;
  JobId victim_id = kNoJob;
  {
    Executor ex(rua);
    RtJob victim;
    victim.tuf = make_step_tuf(1.0, msec(40));
    victim.expected_exec = msec(25);
    victim.body = [&](JobContext& ctx) {
      // The hog's PUD is higher and its critical time earlier.  Behind
      // it the victim would finish at +45 ms, past its 40 ms, so RUA
      // drops the victim; once the hog is done (16 ms of work) the
      // victim is still 1 ms short and stays parked.
      RtJob hog;
      hog.tuf = make_step_tuf(100.0, msec(30));
      hog.expected_exec = msec(20);
      hog.body = [](JobContext& hctx) {
        for (int q = 0; q < 160; ++q) {
          spin_for(std::chrono::microseconds(100));
          hctx.checkpoint();
        }
      };
      ex.submit(std::move(hog));
      for (int q = 0; q < 800; ++q) {  // 80 ms, far past its 40 ms
        spin_for(std::chrono::microseconds(100));
        ctx.checkpoint();
      }
      victim_finished.fetch_add(1);
    };
    victim.abort_handler = [&] { victim_handler.fetch_add(1); };
    victim_id = ex.submit(std::move(victim));
    drain_or_die(ex, std::chrono::seconds(5));
    rep = ex.shutdown();
  }
  const Job& v = record_of(rep, victim_id);
  EXPECT_EQ(v.state, JobState::kAborted);
  EXPECT_EQ(v.preemptions, 1) << "the victim was not descheduled once";
  EXPECT_EQ(victim_finished.load(), 0);
  EXPECT_EQ(victim_handler.load(), 1);
  // The hog normally completes, but a host stall of ~10 ms can cost it
  // its critical time too; that is not what this case is about.
  EXPECT_EQ(rep.completed + rep.aborted, 2);
  EXPECT_EQ(rep.max_concurrency_observed, 1);
  EXPECT_LE(rep.mean_concurrency_observed, 1.0);
}

/// One CPU: jobs that cannot meet their critical time even alone are
/// never dispatched.  The one with a handler gets a worker just to run
/// it; the one without is finalized by the scheduling thread.  Neither
/// body runs.
TEST(ExecutorHandoff, AbortBeforeFirstDispatch) {
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  std::atomic<int> doomed_bodies{0};
  std::atomic<int> doomed_handler{0};
  std::atomic<JobId> with_handler{kNoJob}, without_handler{kNoJob};
  ExecutorReport rep;
  {
    Executor ex(rua);
    RtJob runner;
    runner.tuf = make_step_tuf(100.0, sec(2));
    runner.expected_exec = msec(20);
    runner.body = [&](JobContext& ctx) {
      for (const bool handler : {true, false}) {
        RtJob doomed;
        doomed.tuf = make_step_tuf(1.0, msec(2));
        doomed.expected_exec = msec(3);  // infeasible even alone
        doomed.body = [&](JobContext& dctx) {
          doomed_bodies.fetch_add(1);
          dctx.checkpoint();
        };
        if (handler)
          doomed.abort_handler = [&] { doomed_handler.fetch_add(1); };
        (handler ? with_handler : without_handler)
            .store(ex.submit(std::move(doomed)));
      }
      for (int q = 0; q < 100; ++q) {  // 10 ms
        spin_for(std::chrono::microseconds(100));
        ctx.checkpoint();
      }
    };
    ex.submit(std::move(runner));
    drain_or_die(ex, std::chrono::seconds(5));
    rep = ex.shutdown();
  }
  EXPECT_EQ(rep.completed, 1);
  EXPECT_EQ(rep.aborted, 2);
  EXPECT_EQ(record_of(rep, with_handler.load()).state, JobState::kAborted);
  EXPECT_EQ(record_of(rep, without_handler.load()).state,
            JobState::kAborted);
  EXPECT_EQ(doomed_bodies.load(), 0);
  EXPECT_EQ(doomed_handler.load(), 1);
  EXPECT_EQ(rep.max_concurrency_observed, 1);
  EXPECT_LE(rep.mean_concurrency_observed, 1.0);
}

/// What one job's body and handler did.
struct Probe {
  std::atomic<int> finished{0};
  std::atomic<int> handler_runs{0};
};

/// Bursts of short checkpointed jobs beyond the CPUs' capacity, with
/// random utilities and critical times, so overload aborts land in
/// every state.  Each burst opens with cpu_count urgent jobs (the
/// highest PUD, the earliest critical time) that displace running
/// bodies.  A quarter of the jobs run 300 us between checkpoints, so
/// descheduled bodies hold their rights while their replacements wait.
void run_stress(int cpu_count) {
  constexpr int kBursts = 60;
  const int per_burst = 6 * cpu_count;
  const int n = kBursts * per_burst;
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  ExecutorConfig cfg;
  cfg.cpu_count = cpu_count;
  auto probes = std::make_unique<Probe[]>(static_cast<std::size_t>(n));
  std::vector<JobId> ids(static_cast<std::size_t>(n), kNoJob);
  InsideGauge inside;
  std::mt19937 rng(static_cast<std::mt19937::result_type>(7 + cpu_count));
  std::uniform_int_distribution<int> quanta(2, 8);
  std::uniform_real_distribution<double> height(1.0, 10.0);
  std::uniform_int_distribution<int> critical_us(2000, 8000);

  ExecutorReport rep;
  {
    Executor ex(rua, cfg);
    int next = 0;
    for (int b = 0; b < kBursts; ++b) {
      std::vector<RtJob> burst;
      for (int i = 0; i < per_burst; ++i, ++next) {
        Probe* p = &probes[static_cast<std::size_t>(next)];
        const bool urgent = i < cpu_count;
        const int q = urgent ? 2 : quanta(rng);
        const auto quantum =
            std::chrono::microseconds(next % 4 == 1 ? 300 : 50);
        RtJob job;
        job.tuf = urgent ? make_step_tuf(1000.0, usec(1200))
                         : make_step_tuf(height(rng), usec(critical_us(rng)));
        job.expected_exec = q * usec(quantum.count());
        job.body = [&inside, p, q, quantum](JobContext& ctx) {
          inside.enter();
          for (int k = 0; k < q; ++k) {
            spin_for(quantum);
            inside.checkpoint(ctx);
          }
          inside.leave();
          p->finished.fetch_add(1);
        };
        job.abort_handler = [p] { p->handler_runs.fetch_add(1); };
        burst.push_back(std::move(job));
      }
      JobId* burst_ids = &ids[static_cast<std::size_t>(next - per_burst)];
      ASSERT_EQ(ex.submit_batch(burst.data(), burst.size(), burst_ids),
                burst.size());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    drain_or_die(ex, std::chrono::seconds(5));
    rep = ex.shutdown();
  }

  EXPECT_EQ(rep.submitted, n);
  EXPECT_EQ(rep.completed + rep.aborted, rep.submitted);
  EXPECT_GT(rep.aborted, 0) << "cpus " << cpu_count << ": no overload";
  EXPECT_GT(rep.total_preemptions, 0) << "cpus " << cpu_count;
  EXPECT_LE(rep.max_concurrency_observed, cpu_count);
  EXPECT_LE(rep.mean_concurrency_observed, cpu_count);
  EXPECT_LE(inside.peak.load(), cpu_count);
  EXPECT_EQ(inside.now.load(), 0);
  ASSERT_EQ(static_cast<int>(rep.jobs.size()), n);
  for (int i = 0; i < n; ++i) {
    const Probe& p = probes[static_cast<std::size_t>(i)];
    const Job& j = record_of(rep, ids[static_cast<std::size_t>(i)]);
    if (j.state == JobState::kCompleted) {
      EXPECT_EQ(p.finished.load(), 1) << "job " << j.id;
      EXPECT_EQ(p.handler_runs.load(), 0) << "job " << j.id;
    } else {
      // Every job carries a handler, so every abort runs it once,
      // whether the body was interrupted or never started.
      EXPECT_EQ(p.finished.load(), 0) << "job " << j.id;
      EXPECT_EQ(p.handler_runs.load(), 1) << "job " << j.id;
    }
  }
}

TEST(ExecutorHandoff, StressOneCpu) { run_stress(1); }
TEST(ExecutorHandoff, StressTwoCpus) { run_stress(2); }
TEST(ExecutorHandoff, StressFourCpus) { run_stress(4); }

}  // namespace
}  // namespace lfrt::rt
