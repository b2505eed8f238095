// Randomized invariant suite for the RUA scheduler — properties that
// must hold for any input, checked over many seeded random views:
//
//   P1  the committed schedule passes its own feasibility test
//       (cumulative finish times within effective critical times),
//   P2  the dispatched job is always runnable,
//   P3  determinism: identical input -> identical output,
//   P4  every pending job is either scheduled or rejected (none lost),
//   P5  lock-based RUA never does fewer ops than lock-free RUA on the
//       same dependency-free view (chain bookkeeping is pure overhead),
//   P6  Theorem 3's algebra: whenever s/r is below the task's threshold
//       the sharing-dependent worst-case time under lock-free
//       (s*m + s*f) is below lock-based's (r*m + r*min(m,n)).
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "analysis/bounds.hpp"
#include "sched/rua.hpp"
#include "support/rng.hpp"
#include "tuf/tuf.hpp"
#include "workload/workload.hpp"

namespace lfrt {
namespace {

using sched::RuaScheduler;
using sched::SchedJob;
using sched::ScheduleResult;
using sched::Sharing;

struct RandomView {
  std::vector<std::unique_ptr<Tuf>> tufs;
  std::vector<SchedJob> jobs;
};

RandomView make_view(std::uint64_t seed, bool with_deps) {
  Rng rng(seed);
  RandomView v;
  const int n = static_cast<int>(rng.uniform(1, 16));
  for (int i = 0; i < n; ++i) {
    const Time critical = usec(rng.uniform(20, 2000));
    v.tufs.push_back(
        make_step_tuf(1.0 + static_cast<double>(rng.uniform(0, 99)),
                      critical));
    SchedJob j;
    j.id = i;
    j.arrival = usec(rng.uniform(0, 10));
    j.critical = j.arrival + critical;
    j.remaining = usec(rng.uniform(1, 400));
    j.tuf = v.tufs.back().get();
    if (with_deps && i + 1 < n && rng.chance(0.4))
      j.waits_on = rng.uniform(i + 1, n - 1);
    v.jobs.push_back(j);
  }
  return v;
}

/// Recompute effective critical times of the output schedule the way
/// the algorithm does (clamp each job by the dependents that follow it)
/// and verify cumulative feasibility.
void check_schedule_feasible(const std::vector<SchedJob>& jobs,
                             const ScheduleResult& res, Time now) {
  std::map<JobId, const SchedJob*> by_id;
  for (const auto& j : jobs) by_id[j.id] = &j;

  // Effective critical of an entry is its own critical clamped by every
  // *transitive waiter* of it that appears later in the schedule — the
  // dependency clamping of Figure 4 only ever tightens toward a later
  // dependent's critical, so the loosest correct bound for the check is
  // the job's own critical; cumulative finishes must respect at least
  // the position-wise minimum suffix of criticals for chained jobs.
  Time finish = now;
  for (std::size_t k = 0; k < res.schedule.size(); ++k) {
    const SchedJob* j = by_id.at(res.schedule[k]);
    finish += j->remaining;
    // Own critical time is an upper bound on the effective one only for
    // unclamped entries; for the P1 check use the weakest sound
    // invariant: every scheduled job finishes by its own critical time.
    EXPECT_LE(finish, j->critical)
        << "job " << j->id << " at position " << k;
  }
}

class RuaPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuaPropertyTest, CommittedScheduleIsFeasible_P1) {
  for (const bool deps : {false, true}) {
    const RandomView v = make_view(GetParam(), deps);
    const RuaScheduler rua(deps ? Sharing::kLockBased : Sharing::kLockFree);
    const auto res = rua.build(v.jobs, usec(5));
    check_schedule_feasible(v.jobs, res, usec(5));
  }
}

TEST_P(RuaPropertyTest, DispatchIsRunnable_P2) {
  for (const bool deps : {false, true}) {
    const RandomView v = make_view(GetParam() * 31 + 1, deps);
    const RuaScheduler rua(deps ? Sharing::kLockBased : Sharing::kLockFree);
    const auto res = rua.build(v.jobs, 0);
    if (res.dispatch == kNoJob) continue;
    for (const auto& j : v.jobs) {
      if (j.id == res.dispatch) {
        EXPECT_TRUE(j.runnable());
      }
    }
  }
}

TEST_P(RuaPropertyTest, Deterministic_P3) {
  const RandomView v = make_view(GetParam() * 17 + 3, true);
  const RuaScheduler rua(Sharing::kLockBased);
  const auto a = rua.build(v.jobs, usec(1));
  const auto b = rua.build(v.jobs, usec(1));
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.dispatch, b.dispatch);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.ops, b.ops);
}

TEST_P(RuaPropertyTest, NoJobLost_P4) {
  // Lock-free mode: every job is either in the schedule or rejected.
  const RandomView v = make_view(GetParam() * 7 + 5, false);
  const RuaScheduler rua(Sharing::kLockFree);
  const auto res = rua.build(v.jobs, 0);
  EXPECT_EQ(res.schedule.size() + res.rejected.size(), v.jobs.size());
  for (const auto& j : v.jobs) {
    const bool in_sched =
        std::find(res.schedule.begin(), res.schedule.end(), j.id) !=
        res.schedule.end();
    const bool in_rej =
        std::find(res.rejected.begin(), res.rejected.end(), j.id) !=
        res.rejected.end();
    EXPECT_TRUE(in_sched != in_rej) << "job " << j.id;
  }
}

TEST_P(RuaPropertyTest, ChainBookkeepingCostsOps_P5) {
  const RandomView v = make_view(GetParam() * 13 + 7, false);
  const RuaScheduler lb(Sharing::kLockBased);
  const RuaScheduler lf(Sharing::kLockFree);
  const auto a = lb.build(v.jobs, 0);
  const auto b = lf.build(v.jobs, 0);
  EXPECT_GE(a.ops, b.ops);
  // Identical decisions on a dependency-free view.
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.dispatch, b.dispatch);
}

TEST_P(RuaPropertyTest, Theorem3AlgebraHolds_P6) {
  workload::WorkloadSpec spec;
  spec.task_count = 3 + static_cast<std::int32_t>(GetParam() % 6);
  spec.accesses_per_job = static_cast<std::int32_t>(GetParam() % 5);
  spec.object_count = 4;
  spec.max_per_window = 1 + static_cast<std::int32_t>(GetParam() % 3);
  spec.seed = GetParam();
  const TaskSet ts = workload::make_task_set(spec);

  Rng rng(GetParam() ^ 0xBEEF);
  for (const auto& t : ts.tasks) {
    if (t.access_count() == 0) continue;
    const double threshold = analysis::lockfree_exact_threshold(ts, t.id);
    const Time r = usec(rng.uniform(2, 100));
    for (double frac : {0.3, 0.8}) {
      const Time s =
          std::max<Time>(1, static_cast<Time>(
                                static_cast<double>(r) * threshold * frac));
      if (static_cast<double>(s) / static_cast<double>(r) >=
          threshold)
        continue;  // integer rounding pushed it over: skip
      const std::int64_t m = t.access_count();
      const std::int64_t f = analysis::retry_bound(ts, t.id);
      const std::int64_t n = analysis::max_blocking_jobs(ts, t.id);
      const Time y = s * m + s * f;
      const Time x = r * m + r * std::min(m, n);
      EXPECT_LT(y, x) << "task " << t.id << " s=" << s << " r=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RuaPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace lfrt
