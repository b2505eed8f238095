#include "analysis/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/check.hpp"
#include "support/saturate.hpp"

namespace lfrt::analysis {

namespace {

using support::sat_add;
using support::sat_ceil_div;
using support::sat_mul;

const TaskParams& task(const TaskSet& ts, TaskId i) { return ts.by_id(i); }

}  // namespace

std::int64_t interference_arrivals(const TaskSet& ts, TaskId i) {
  // Saturating throughout: a near-INT64_MAX critical time against a
  // 1-tick window must clamp, not wrap into a negative "bound".
  const Time ci = task(ts, i).critical_time();
  std::int64_t x = 0;
  for (const auto& tj : ts.tasks) {
    if (tj.id == i) continue;
    x = sat_add(x, sat_mul(tj.arrival.max_per_window,
                           sat_add(sat_ceil_div(ci, tj.arrival.window), 1)));
  }
  return x;
}

std::int64_t retry_bound(const TaskSet& ts, TaskId i) {
  // f_i <= 3 a_i + sum_{j != i} 2 a_j (ceil(C_i / W_j) + 1).
  //
  // Case 2 of the proof: the job's own task contributes at most 3 a_i
  // events (a_i arrivals + a_i completions inside [t0, t0+C_i], plus
  // completions of up to a_i jobs released during [t0-C_i, t0]).
  // Case 1: every other task T_j contributes at most
  // a_j (ceil(C_i/W_j)+1) releases, each worth two events
  // (arrival + completion-or-abort).
  const auto& ti = task(ts, i);
  return sat_add(sat_mul(3, ti.arrival.max_per_window),
                 sat_mul(2, interference_arrivals(ts, i)));
}

std::int64_t max_scheduling_events(const TaskSet& ts, TaskId i) {
  return retry_bound(ts, i);
}

std::int64_t max_blocking_jobs(const TaskSet& ts, TaskId i) {
  // n_i <= 2 a_i + x_i (proof of Theorem 3): the job's own task can have
  // at most 2 a_i peer jobs alive in the window, other tasks x_i.
  const auto& ti = task(ts, i);
  return sat_add(sat_mul(2, ti.arrival.max_per_window),
                 interference_arrivals(ts, i));
}

Time worst_blocking_time(const TaskSet& ts, TaskId i, Time r) {
  const auto& ti = task(ts, i);
  return sat_mul(r, std::min<std::int64_t>(ti.access_count(),
                                           max_blocking_jobs(ts, i)));
}

Time worst_retry_time(const TaskSet& ts, TaskId i, Time s) {
  return sat_mul(s, retry_bound(ts, i));
}

Time worst_interference(const TaskSet& ts, TaskId i, Time t_acc) {
  const Time ci = task(ts, i).critical_time();
  Time interference = 0;
  for (const auto& tj : ts.tasks) {
    if (tj.id == i) continue;
    const Time cj = sat_add(tj.exec_time, sat_mul(tj.access_count(), t_acc));
    interference = sat_add(
        interference,
        sat_mul(sat_mul(tj.arrival.max_per_window,
                        sat_add(sat_ceil_div(ci, tj.arrival.window), 1)),
                cj));
  }
  return interference;
}

Time worst_sojourn_lockbased(const TaskSet& ts, TaskId i, Time r) {
  const auto& ti = task(ts, i);
  return sat_add(sat_add(ti.exec_time, worst_interference(ts, i, r)),
                 sat_add(sat_mul(r, ti.access_count()),
                         worst_blocking_time(ts, i, r)));
}

Time worst_sojourn_lockfree(const TaskSet& ts, TaskId i, Time s) {
  const auto& ti = task(ts, i);
  return sat_add(sat_add(ti.exec_time, worst_interference(ts, i, s)),
                 sat_add(sat_mul(s, ti.access_count()),
                         worst_retry_time(ts, i, s)));
}

double lockfree_ratio_threshold(const TaskSet& ts, TaskId i) {
  const auto& ti = task(ts, i);
  const std::int64_t m = ti.access_count();
  const std::int64_t n = max_blocking_jobs(ts, i);
  if (m <= n) return 2.0 / 3.0;
  const std::int64_t a = ti.arrival.max_per_window;
  const std::int64_t x = interference_arrivals(ts, i);
  return static_cast<double>(m + n) / static_cast<double>(m + 3 * a + 2 * x);
}

double lockfree_exact_threshold(const TaskSet& ts, TaskId i) {
  const auto& ti = task(ts, i);
  const std::int64_t m = ti.access_count();
  const std::int64_t n = max_blocking_jobs(ts, i);
  const std::int64_t f = retry_bound(ts, i);
  return static_cast<double>(m + std::min(m, n)) /
         static_cast<double>(m + f);
}

bool lockfree_wins(const TaskSet& ts, TaskId i, Time s, Time r) {
  LFRT_CHECK_MSG(r > 0 && s > 0, "access times must be positive");
  return static_cast<double>(s) / static_cast<double>(r) <
         lockfree_ratio_threshold(ts, i);
}

Time effective_access_cost(const TaskSet& ts, TaskId i,
                           runtime::ObjectKind kind,
                           runtime::ObjectImpl impl,
                           const runtime::CostModel& model) {
  const auto& ti = task(ts, i);
  const std::int64_t contenders = std::min<std::int64_t>(
      ti.access_count(), max_blocking_jobs(ts, i));
  // Snapshot reads carry the scan term; folding it in unconditionally
  // keeps t_eff the worst case over the job's access directions.
  return runtime::access_cost(model.at(kind, impl), kind,
                              /*write=*/kind != runtime::ObjectKind::kSnapshot,
                              contenders);
}

bool lockfree_wins_cost(const TaskSet& ts, TaskId i,
                        runtime::ObjectKind kind,
                        runtime::ObjectImpl lock_impl,
                        const runtime::CostModel& model) {
  LFRT_CHECK_MSG(runtime::is_lock_based(lock_impl),
                 "lockfree_wins_cost compares against a lock impl");
  const Time s_eff = effective_access_cost(
      ts, i, kind, runtime::ObjectImpl::kLockFree, model);
  const Time r_eff = effective_access_cost(ts, i, kind, lock_impl, model);
  return lockfree_wins(ts, i, s_eff, r_eff);
}

namespace {

/// Shared body of Lemmas 4 and 5: the band is
///   sum (k_i/W_i) U_i(slow_i) / sum (k_i/W_i) U_i(0)
/// with k = l, slow = worst sojourn for the lower bound and
/// k = a, slow = best sojourn (u_i + t_acc * m_i) for the upper bound.
AurBounds aur_band(const TaskSet& ts, Time t_acc,
                   Time (*worst_extra)(const TaskSet&, TaskId, Time)) {
  double lo_num = 0.0, lo_den = 0.0, hi_num = 0.0, hi_den = 0.0;
  for (const auto& t : ts.tasks) {
    LFRT_CHECK_MSG(t.tuf->non_increasing(),
                   "Lemmas 4/5 require non-increasing TUFs");
    const double w = static_cast<double>(t.arrival.window);
    const double u0 = t.tuf->utility(0);
    const Time best = t.exec_time + t_acc * t.access_count();
    const Time worst = best + worst_interference(ts, t.id, t_acc) +
                       worst_extra(ts, t.id, t_acc);
    const double l = static_cast<double>(t.arrival.min_per_window);
    const double a = static_cast<double>(t.arrival.max_per_window);
    lo_num += l / w * t.tuf->utility(worst);
    lo_den += l / w * u0;
    hi_num += a / w * t.tuf->utility(best);
    hi_den += a / w * u0;
  }
  AurBounds b;
  b.lower = lo_den > 0.0 ? lo_num / lo_den : 0.0;
  b.upper = hi_den > 0.0 ? hi_num / hi_den : 1.0;
  return b;
}

}  // namespace

AurBounds lockfree_aur_bounds(const TaskSet& ts, Time s) {
  return aur_band(ts, s, &worst_retry_time);
}

AurBounds lockbased_aur_bounds(const TaskSet& ts, Time r) {
  return aur_band(ts, r, &worst_blocking_time);
}

Time uam_demand(const TaskSet& ts, TaskId i, Time delta, Time t_acc) {
  const auto& ti = ts.by_id(i);
  const Time ci = ti.critical_time();
  if (delta < ci) return 0;
  const Time c = ti.exec_time + ti.access_count() * t_acc;
  // Arrivals whose critical time also lands inside the interval fall in
  // a sub-interval of length delta - C_i; with burst clusters spaced
  // exactly W_i apart, at most a_i * (floor((delta - C_i)/W_i) + 1) fit
  // (the sliding-window cap forbids two clusters closer than W_i —
  // tighter than the straddle count used for *releases* in Theorem 2).
  return ti.arrival.max_per_window *
         ((delta - ci) / ti.arrival.window + 1) * c;
}

bool uam_edf_feasible(const TaskSet& ts, Time t_acc, Time* worst_slack) {
  double util = 0.0;
  Time burst = 0;   // sum of a_i * c_i
  Time max_c = 0;
  for (const auto& t : ts.tasks) {
    const Time c = t.exec_time + t.access_count() * t_acc;
    util += static_cast<double>(t.arrival.max_per_window * c) /
            static_cast<double>(t.arrival.window);
    burst += t.arrival.max_per_window * c;
    max_c = std::max(max_c, t.critical_time());
  }
  if (worst_slack) *worst_slack = kTimeNever;
  if (util > 1.0 + 1e-12) return false;

  Time limit;
  if (util < 1.0 - 1e-9) {
    // demand(delta) <= util*(delta - C) + burst, so demand can exceed
    // delta only below burst / (1 - util); keep a 2x margin.
    limit = static_cast<Time>(
        std::ceil(2.0 * static_cast<double>(burst) / (1.0 - util)));
  } else {
    // Exactly full utilization: the slack function is periodic with the
    // windows' lcm beyond max C — check one full period, or give up
    // (conservatively infeasible) if the lcm is astronomic.
    constexpr Time kLcmCap = sec(3600);
    Time lcm = 1;
    for (const auto& t : ts.tasks) {
      const Time w = t.arrival.window;
      const Time g = std::gcd(lcm, w);
      if (lcm / g > kLcmCap / w) return false;  // cap would overflow
      lcm = lcm / g * w;
    }
    limit = max_c + lcm;
  }

  // The demand-bound function changes only at delta = C_i + k * W_i.
  // Each task's own C_i is always checked (even beyond `limit`) so the
  // reported slack is meaningful for lightly loaded sets.
  std::vector<Time> points;
  for (const auto& t : ts.tasks) {
    points.push_back(t.critical_time());
    for (Time d = t.critical_time() + t.arrival.window; d <= limit;
         d += t.arrival.window)
      points.push_back(d);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  bool ok = true;
  for (Time d : points) {
    Time demand = 0;
    for (const auto& t : ts.tasks) demand += uam_demand(ts, t.id, d, t_acc);
    const Time slack = d - demand;
    if (worst_slack) *worst_slack = std::min(*worst_slack, slack);
    if (slack < 0) ok = false;
  }
  return ok;
}

double rua_lockbased_asymptotic(std::int64_t n) {
  if (n < 2) return 1.0;
  const double d = static_cast<double>(n);
  return d * d * std::log2(d);
}

double rua_lockfree_asymptotic(std::int64_t n) {
  if (n < 1) return 1.0;
  const double d = static_cast<double>(n);
  return d * d;
}

}  // namespace lfrt::analysis
