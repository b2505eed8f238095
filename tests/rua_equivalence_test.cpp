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
// random sweep does not reach.
//
// One workspace and one ScheduleResult are reused across every
// iteration, so the sweep also stresses the capacity-retention
// contract (stale state leaking across calls would show up as a
// mismatch on the next job set).
#include <gtest/gtest.h>

#include <memory>
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

INSTANTIATE_TEST_SUITE_P(Sweep, RuaEquivalenceTest,
                         ::testing::Values(1u, 42u, 1234u, 987654321u));

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
