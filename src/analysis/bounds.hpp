// Executable forms of the paper's analytical results.
//
//   * Lemma 1   — preemption bound under UA scheduling (event counting)
//   * Theorem 2 — lock-free retry bound under the UAM
//   * Theorem 3 — sojourn-time tradeoff conditions (lock-free vs lock-based)
//   * Lemma 4   — AUR band for lock-free sharing
//   * Lemma 5   — AUR band for lock-based sharing
//
// Each function cites the formula it implements; tests validate them
// against hand-computed values, and the simulator validates them against
// measured behaviour (bench/thm2_retry_bound, bench/thm3_sojourn,
// bench/lemma45_aur_bounds).
#pragma once

#include <cstdint>

#include "runtime/cost_model.hpp"
#include "task/task.hpp"

namespace lfrt::analysis {

/// x_i = sum_{j != i} a_j * (ceil(C_i / W_j) + 1): the maximum number of
/// job releases by *other* tasks inside J_i's critical-time interval
/// (Theorem 2's Case 1 count and Theorem 3's x_i).
std::int64_t interference_arrivals(const TaskSet& ts, TaskId i);

/// Theorem 2 — upper bound on the total number of lock-free retries of a
/// job of task i scheduled by RUA under the UAM:
///
///     f_i <= 3 a_i + sum_{j != i} 2 a_j (ceil(C_i / W_j) + 1)
///
/// The bound is independent of how many lock-free objects the job
/// accesses: a retry can occur only at a scheduling event, and only job
/// arrivals/completions are events under lock-free RUA.
std::int64_t retry_bound(const TaskSet& ts, TaskId i);

/// Lemma 1 corollary used in Theorem 2's proof: the maximum number of
/// scheduling events (and hence preemptions) a job of task i can
/// experience within its critical-time interval.  Identical to
/// retry_bound — exposed separately for clarity at call sites that
/// reason about preemptions.
std::int64_t max_scheduling_events(const TaskSet& ts, TaskId i);

/// n_i — the maximum number of jobs that could block a job of task i:
/// all jobs alive in its critical window, n_i <= 2 a_i + x_i
/// (Theorem 3's proof).
std::int64_t max_blocking_jobs(const TaskSet& ts, TaskId i);

/// Worst-case blocking time under lock-based RUA:
/// B_i = r * min(m_i, n_i)   [Wu et al. result, quoted in Section 5].
Time worst_blocking_time(const TaskSet& ts, TaskId i, Time r);

/// Worst-case total retry time under lock-free RUA: R_i = s * f_i.
Time worst_retry_time(const TaskSet& ts, TaskId i, Time s);

/// Worst-case interference: time spent executing other tasks while a job
/// of task i is runnable, bounded by the demand other tasks can place in
/// [t0, t0 + C_i]:  I_i <= sum_{j != i} a_j (ceil(C_i/W_j)+1) * c_j,
/// with c_j = u_j + m_j * t_acc.
Time worst_interference(const TaskSet& ts, TaskId i, Time t_acc);

/// Worst-case sojourn with lock-based sharing:
/// u_i + I_i + r * m_i + B_i  (Section 5).
Time worst_sojourn_lockbased(const TaskSet& ts, TaskId i, Time r);

/// Worst-case sojourn with lock-free sharing:
/// u_i + I_i + s * m_i + R_i  (Section 5).
Time worst_sojourn_lockfree(const TaskSet& ts, TaskId i, Time s);

/// Theorem 3 — the s/r threshold below which a job of task i has a
/// shorter maximum sojourn under lock-free than under lock-based:
///
///     s/r < 2/3                                   if m_i <= n_i
///     s/r < (m_i + n_i) / (m_i + 3 a_i + 2 x_i)   if m_i >  n_i
///
/// Returns the right-hand side for task i's parameters.
///
/// Note: the paper derives the 2/3 figure by substituting the *upper
/// bound* of X = 2 r m (namely m = n_i), so it is exact only when m_i
/// sits at that cap; for the pointwise-sharp condition use
/// lockfree_exact_threshold.
double lockfree_ratio_threshold(const TaskSet& ts, TaskId i);

/// The pointwise-exact sharing-cost comparison behind Theorem 3:
/// lock-free's worst-case sharing time s*(m_i + f_i) is smaller than
/// lock-based's r*(m_i + min(m_i, n_i)) iff
///
///     s/r < (m_i + min(m_i, n_i)) / (m_i + f_i).
///
/// (X > Y in the proof's notation, before the paper coarsens X to its
/// upper bound.)
double lockfree_exact_threshold(const TaskSet& ts, TaskId i);

/// True iff Theorem 3's sufficient condition holds for the given access
/// times, i.e. lock-free is guaranteed the shorter worst-case sojourn.
bool lockfree_wins(const TaskSet& ts, TaskId i, Time s, Time r);

// --- Per-impl variants over the calibrated cost model ----------------
//
// The flat bounds above take one scalar per regime; these take a
// runtime::CostModel cell and fold its contention terms into an
// *effective* scalar for task i first, then reuse the identical
// formulas — so Theorem 3's structure is unchanged and only the access
// cost became mechanism-aware.  The effective per-access cost is
//
//     t_eff = base + per_contender * min(m_i, n_i)
//             (+ per_segment * segments for snapshot kinds)
//
// min(m_i, n_i) caps the concurrent contenders a job of task i can
// meet at an object: at most one per of its own m_i accesses, at most
// n_i jobs alive in its window (Theorem 3's blocking count).

/// t_eff of task i for one (kind, impl) cell of `model` (>= 1 tick).
Time effective_access_cost(const TaskSet& ts, TaskId i,
                           runtime::ObjectKind kind,
                           runtime::ObjectImpl impl,
                           const runtime::CostModel& model);

/// Theorem 3 against the calibrated cells: true iff s_eff/r_eff — the
/// lock-free cell's effective cost over the lock impl's — is below
/// task i's ratio threshold, i.e. lock-free is guaranteed the shorter
/// worst-case sojourn versus this particular lock mechanism.
bool lockfree_wins_cost(const TaskSet& ts, TaskId i,
                        runtime::ObjectKind kind,
                        runtime::ObjectImpl lock_impl,
                        const runtime::CostModel& model);

/// Lower/upper bounds on the accrued utility ratio.
struct AurBounds {
  double lower = 0.0;
  double upper = 0.0;
};

/// Lemma 4 — AUR band for lock-free sharing (all jobs feasible,
/// non-increasing TUFs):
///
///  sum (l_i/W_i) U_i(u_i + s m_i + I_i + R_i)        sum (a_i/W_i) U_i(u_i + s m_i)
///  ---------------------------------------- < AUR < ------------------------------
///        sum (l_i/W_i) U_i(0)                              sum (a_i/W_i) U_i(0)
AurBounds lockfree_aur_bounds(const TaskSet& ts, Time s);

/// Lemma 5 — AUR band for lock-based sharing (same structure with r,
/// B_i in place of s, R_i).
AurBounds lockbased_aur_bounds(const TaskSet& ts, Time r);

/// Maximum execution demand task i can place in *any* interval of
/// length `delta` counting only jobs that both arrive and reach their
/// critical time inside the interval (the demand-bound function under
/// the UAM):  a_i * (ceil((delta - C_i)/W_i) + 1) * c_i  for
/// delta >= C_i, else 0, with c_i = u_i + m_i * t_acc.
Time uam_demand(const TaskSet& ts, TaskId i, Time delta, Time t_acc);

/// Sufficient uniprocessor feasibility test under the UAM: every
/// critical time is met by ECF/EDF (and hence by RUA, which defaults to
/// ECF when feasible) if the total demand in every interval is at most
/// the interval length.  Conservative: uses the straddle-worst-case
/// arrival counts.  If `worst_slack` is non-null it receives the
/// minimum of (delta - demand(delta)) over the checked intervals.
bool uam_edf_feasible(const TaskSet& ts, Time t_acc,
                      Time* worst_slack = nullptr);

/// Reference asymptotic scheduling costs (Sections 3.6 and 5): the
/// dominant-term op counts n^2 log2 n (lock-based RUA) and n^2
/// (lock-free RUA), used by the ablation bench to check the measured
/// operation counters scale as predicted.
double rua_lockbased_asymptotic(std::int64_t n);
double rua_lockfree_asymptotic(std::int64_t n);

}  // namespace lfrt::analysis
