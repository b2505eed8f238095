// Oracle test: the optimized RUA scheduler (workspace + undo log +
// prefix-sum feasibility, rua.cpp) must be bit-for-bit equivalent to
// the frozen naive reference (rua_reference.cpp) — identical schedules,
// rejections, deadlock victims, dispatch choices, and modelled ops —
// on randomized job sets covering mixed TUF shapes, dependency
// forests, and deadlock cycles.  Lock-based views with no blocked job
// and with exactly one are generated on purpose: they sit on either
// side of the optimized scheduler's switch between the chain-free path
// and the dependency-chain path.  Two fixed views at n = 64 and 256 —
// independent jobs and one long chain — cover the job counts the
// random sweep does not reach.  A third case feeds every scheduler
// the same views shuffled and reversed: results must not depend on
// view order, deadlock cycles included.  A fixed two-job cycle whose
// members have no remaining time checks the victim pick's tie-break.
//
// One workspace and one ScheduleResult are reused across every
// iteration, so the sweep also stresses the capacity-retention
// contract (stale state leaking across calls would show up as a
// mismatch on the next job set).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "sched/rua.hpp"
#include "sched/rua_reference.hpp"
#include "support/rng.hpp"
#include "tuf/tuf.hpp"

namespace lfrt {
namespace {

using sched::RuaReferenceScheduler;
using sched::RuaScheduler;
using sched::SchedJob;
using sched::ScheduleResult;
using sched::Sharing;

std::unique_ptr<Tuf> random_tuf(Rng& rng, double height, Time critical) {
  switch (rng.uniform(0, 3)) {
    case 0:
      return make_step_tuf(height, critical);
    case 1:
      return make_linear_tuf(height, critical);
    case 2:
      return make_parabolic_tuf(height, critical);
    default:
      return make_exponential_tuf(height, critical,
                                  /*decay=*/rng.uniform_real(0.5, 6.0));
  }
}

/// How dependencies are wired for one generated job set.
enum class DepShape {
  kNone,        // no job blocked (lock-free, or lock-based by chance)
  kOneBlocked,  // exactly one job blocked, on a live or departed holder
  kForest,      // waits_on only higher ids: acyclic
  kCyclic,      // arbitrary waits_on: cycles possible (detector on)
};

struct Generated {
  std::vector<std::unique_ptr<Tuf>> tufs;
  std::vector<SchedJob> jobs;
};

Generated generate(Rng& rng, int n, DepShape shape) {
  Generated g;
  const JobId blocked =
      shape == DepShape::kOneBlocked ? rng.uniform(0, n - 1) : kNoJob;
  for (int i = 0; i < n; ++i) {
    const double height = 1.0 + static_cast<double>(rng.uniform(0, 99));
    const Time critical = usec(rng.uniform(20, 2000));
    g.tufs.push_back(random_tuf(rng, height, critical));
    SchedJob j;
    j.id = i;
    j.arrival = usec(rng.uniform(0, 10));
    j.critical = j.arrival + g.tufs.back()->critical_time();
    j.remaining = usec(rng.uniform(1, 200));
    j.tuf = g.tufs.back().get();
    switch (shape) {
      case DepShape::kNone:
        j.waits_on = kNoJob;
        break;
      case DepShape::kOneBlocked:
        // A holder id >= n has already departed the view.
        j.waits_on = i == blocked ? rng.uniform(0, n) : kNoJob;
        if (j.waits_on == i) j.waits_on = n;
        break;
      case DepShape::kForest:
        j.waits_on = (i + 1 < n && rng.chance(0.5))
                         ? rng.uniform(i + 1, n - 1)
                         : kNoJob;
        break;
      case DepShape::kCyclic: {
        // Arbitrary edges (excluding self-loops): long chains, shared
        // holders, and cycles all arise; the detector resolves cycles.
        JobId w = kNoJob;
        if (n > 1 && rng.chance(0.6)) {
          w = rng.uniform(0, n - 2);
          if (w >= i) ++w;
        }
        j.waits_on = w;
        break;
      }
    }
    g.jobs.push_back(j);
  }
  return g;
}

void expect_identical(const ScheduleResult& ref, const ScheduleResult& opt,
                      std::uint64_t seed, int iter) {
  ASSERT_EQ(ref.schedule, opt.schedule) << "seed " << seed << " iter "
                                        << iter;
  ASSERT_EQ(ref.rejected, opt.rejected) << "seed " << seed << " iter "
                                        << iter;
  ASSERT_EQ(ref.deadlock_victims, opt.deadlock_victims)
      << "seed " << seed << " iter " << iter;
  ASSERT_EQ(ref.dispatch, opt.dispatch) << "seed " << seed << " iter "
                                        << iter;
  ASSERT_EQ(ref.ops, opt.ops) << "seed " << seed << " iter " << iter;
}

class RuaEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuaEquivalenceTest, OptimizedMatchesReferenceOnRandomJobSets) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  const RuaScheduler opt_lf(Sharing::kLockFree);
  const RuaScheduler opt_lb(Sharing::kLockBased);
  const RuaScheduler opt_lb_detect(Sharing::kLockBased,
                                   /*detect_deadlocks=*/true);
  const RuaReferenceScheduler ref_lf(Sharing::kLockFree);
  const RuaReferenceScheduler ref_lb(Sharing::kLockBased);
  const RuaReferenceScheduler ref_lb_detect(Sharing::kLockBased,
                                            /*detect_deadlocks=*/true);

  // One workspace/result reused across all iterations and all three
  // optimized schedulers (the workspace carries no semantic state).
  const auto ws = opt_lf.make_workspace();
  ScheduleResult opt_out;

  const int iters = 600;  // x4 seeds = 2400 job sets
  for (int iter = 0; iter < iters; ++iter) {
    const int n = rng.uniform(1, 24);
    const Time now = usec(rng.uniform(0, 50));

    const RuaScheduler* opt = nullptr;
    const RuaReferenceScheduler* ref = nullptr;
    DepShape shape = DepShape::kNone;
    switch (iter % 5) {
      case 0:
        opt = &opt_lf;
        ref = &ref_lf;
        shape = DepShape::kNone;
        break;
      case 1:
        // Forests are legal with the detector either way; alternate.
        opt = iter % 2 ? &opt_lb : &opt_lb_detect;
        ref = iter % 2 ? &ref_lb : &ref_lb_detect;
        shape = DepShape::kForest;
        break;
      case 2:
        opt = &opt_lb_detect;
        ref = &ref_lb_detect;
        shape = DepShape::kCyclic;
        break;
      default:
        // Lock-based views with no blocked job, or exactly one; both
        // legal with the detector either way, so alternate it too.
        opt = iter % 2 ? &opt_lb : &opt_lb_detect;
        ref = iter % 2 ? &ref_lb : &ref_lb_detect;
        shape = iter % 5 == 3 ? DepShape::kNone : DepShape::kOneBlocked;
        break;
    }

    const Generated g = generate(rng, n, shape);
    const ScheduleResult ref_out = ref->build(g.jobs, now);
    opt->build_into(g.jobs, now, ws.get(), opt_out);
    expect_identical(ref_out, opt_out, seed, iter);
  }
}

/// Schedule, dispatch, rejections (in order), deadlock victims (as a
/// set: the walk meets cycles in view order) and ops of `got` equal
/// `want`'s: everything a caller reads that cannot depend on view order.
void expect_same_outcome(const ScheduleResult& want, const ScheduleResult& got,
                         std::uint64_t seed, int iter, const char* what) {
  std::vector<JobId> want_victims = want.deadlock_victims;
  std::vector<JobId> got_victims = got.deadlock_victims;
  std::sort(want_victims.begin(), want_victims.end());
  std::sort(got_victims.begin(), got_victims.end());
  ASSERT_EQ(want_victims, got_victims) << what << " seed " << seed
                                       << " iter " << iter;
  ASSERT_EQ(want.schedule, got.schedule) << what << " seed " << seed
                                         << " iter " << iter;
  ASSERT_EQ(want.dispatch, got.dispatch) << what << " seed " << seed
                                         << " iter " << iter;
  ASSERT_EQ(want.rejected, got.rejected) << what << " seed " << seed
                                         << " iter " << iter;
  ASSERT_EQ(want.ops, got.ops) << what << " seed " << seed << " iter "
                               << iter;
}

TEST_P(RuaEquivalenceTest, ResultsDoNotDependOnViewOrder) {
  // The PUD order is strict and total, ECF ties follow it, chains
  // follow ids and a cycle's victim is its least (density, id) member,
  // so permuting the view must change nothing a caller reads — on the
  // chain-free path and on the chain path, cycles included, for the
  // optimized scheduler and the reference alike.
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0x0DDBA11ULL);
  const RuaScheduler opt_lf(Sharing::kLockFree);
  const RuaScheduler opt_lb(Sharing::kLockBased, /*detect_deadlocks=*/true);
  const RuaReferenceScheduler ref_lf(Sharing::kLockFree);
  const RuaReferenceScheduler ref_lb(Sharing::kLockBased,
                                     /*detect_deadlocks=*/true);
  const auto ws = opt_lf.make_workspace();
  ScheduleResult opt_out;

  for (int iter = 0; iter < 300; ++iter) {
    const int n = static_cast<int>(rng.uniform(1, 24));
    const Time now = usec(rng.uniform(0, 50));
    const DepShape shapes[] = {DepShape::kNone, DepShape::kNone,
                               DepShape::kOneBlocked, DepShape::kForest,
                               DepShape::kCyclic};
    const DepShape shape = shapes[iter % 5];
    const bool lock_free = iter % 5 == 0;
    const RuaScheduler& opt = lock_free ? opt_lf : opt_lb;
    const RuaReferenceScheduler& ref = lock_free ? ref_lf : ref_lb;

    const Generated g = generate(rng, n, shape);
    std::vector<SchedJob> shuffled = g.jobs;
    for (std::size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1],
                shuffled[static_cast<std::size_t>(
                    rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
    const std::vector<SchedJob> reversed(g.jobs.rbegin(), g.jobs.rend());

    const ScheduleResult want = ref.build(g.jobs, now);
    const std::vector<SchedJob>* views[] = {&g.jobs, &shuffled, &reversed};
    for (const auto* view : views) {
      expect_same_outcome(want, ref.build(*view, now), seed, iter,
                          "reference");
      opt.build_into(*view, now, ws.get(), opt_out);
      expect_same_outcome(want, opt_out, seed, iter, "optimized");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RuaEquivalenceTest,
                         ::testing::Values(1u, 42u, 1234u, 987654321u));

TEST(RuaDeadlockVictim, CycleWithNoRemainingTimeAbortsTheLowerId) {
  // Every member of this cycle has remaining = 0, so every density is
  // +inf: the victim is the lower id, in either view order.
  const std::unique_ptr<Tuf> tuf = make_step_tuf(10.0, usec(100));
  std::vector<SchedJob> cycle(2);
  for (JobId i = 0; i < 2; ++i) {
    cycle[static_cast<std::size_t>(i)].id = i;
    cycle[static_cast<std::size_t>(i)].critical = tuf->critical_time();
    cycle[static_cast<std::size_t>(i)].remaining = 0;
    cycle[static_cast<std::size_t>(i)].tuf = tuf.get();
    cycle[static_cast<std::size_t>(i)].waits_on = 1 - i;
  }
  const RuaScheduler opt(Sharing::kLockBased, /*detect_deadlocks=*/true);
  const RuaReferenceScheduler ref(Sharing::kLockBased,
                                  /*detect_deadlocks=*/true);
  const std::vector<SchedJob> reversed(cycle.rbegin(), cycle.rend());
  const std::vector<SchedJob>* views[] = {&cycle, &reversed};
  for (const auto* view : views) {
    const ScheduleResult want = ref.build(*view, 0);
    EXPECT_EQ(want.deadlock_victims, (std::vector<JobId>{0}));
    expect_identical(want, opt.build(*view, 0), 0, 0);
  }
}

/// n pending jobs with staggered step TUFs; `chained` links each job to
/// the next in one long dependency chain (the lock-based worst case of
/// Section 3.6).
std::vector<SchedJob> make_bench_view(int n, bool chained,
                                      std::vector<std::unique_ptr<Tuf>>& tufs) {
  std::vector<SchedJob> jobs;
  for (int i = 0; i < n; ++i) {
    tufs.push_back(make_step_tuf(10.0 + i % 7, msec(100) + usec(13 * i)));
    SchedJob j;
    j.id = i;
    j.arrival = 0;
    j.critical = tufs.back()->critical_time();
    j.remaining = usec(50);
    j.tuf = tufs.back().get();
    j.waits_on = chained && i + 1 < n ? i + 1 : kNoJob;
    jobs.push_back(j);
  }
  return jobs;
}

TEST(RuaEquivalenceAtScale, FlatAndChainedViewsMatchReference) {
  // The random sweep above stops at n = 24; these views reach the job
  // counts the scheduler is timed at, in both regimes the paper
  // compares: lock-free RUA over independent jobs and lock-based RUA
  // over one long chain.
  const RuaScheduler opt_lf(Sharing::kLockFree);
  const RuaScheduler opt_lb(Sharing::kLockBased);
  const RuaReferenceScheduler ref_lf(Sharing::kLockFree);
  const RuaReferenceScheduler ref_lb(Sharing::kLockBased);
  const auto ws = opt_lf.make_workspace();
  ScheduleResult opt_out;
  for (const int n : {64, 256}) {
    std::vector<std::unique_ptr<Tuf>> tufs;
    const std::vector<SchedJob> flat = make_bench_view(n, false, tufs);
    const std::vector<SchedJob> chain = make_bench_view(n, true, tufs);
    opt_lf.build_into(flat, 0, ws.get(), opt_out);
    expect_identical(ref_lf.build(flat, 0), opt_out, 0, n);
    opt_lb.build_into(chain, 0, ws.get(), opt_out);
    expect_identical(ref_lb.build(chain, 0), opt_out, 0, n);
  }
}

}  // namespace
}  // namespace lfrt
