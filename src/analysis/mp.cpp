#include "analysis/mp.hpp"

#include <algorithm>

#include "lockfree/backoff.hpp"
#include "runtime/shared_object.hpp"
#include "sched/dispatch.hpp"
#include "support/check.hpp"
#include "support/saturate.hpp"

namespace lfrt::analysis::mp {

namespace {

using runtime::ObjectImpl;
using runtime::ObjectKind;
using runtime::ObjectSpec;
using support::kSaturated;
using support::sat_add;
using support::sat_ceil_div;
using support::sat_mul;

/// Shared-state transitions per completed logical WRITE access, the
/// currency retries are charged in.  Executor constants (they dominate
/// the simulator's one-transition-per-write model):
///   queue: enqueue = link CAS + exactly-one tail swing, dequeue = head
///          swing + at most one tail fix -> 4 per push+pop write.
///   stack: one top swing per push and per pop -> 2 (elimination only
///          removes transitions).
///   buffer/snapshot: writers are wait-free (NBW / single-writer
///          snapshot) — their transitions only matter to READERS, and
///          at one bounded retry per completed attempt only in the
///          simulator's model.
std::int64_t transitions_per_write(ObjectKind kind) {
  switch (kind) {
    case ObjectKind::kQueue: return 4;
    case ObjectKind::kStack: return 2;
    case ObjectKind::kBuffer:
    case ObjectKind::kSnapshot: return 1;  // simulator read-retry charge
  }
  return 4;
}

/// Structure ops per logical write on the executor: queue/stack writes
/// are push + pop, everything else one op.  Each op can sight one stale
/// lag at its start and, under a lock-based impl, takes the lock once.
std::int64_t structure_ops_per_write(ObjectKind kind) {
  return runtime::is_scoped_kind(kind) ? 2 : 1;
}

/// Per-job hold count of task j on object o (write and read accesses;
/// nested spans hold once per span).
std::int64_t holds_per_job(const TaskSet& ts, TaskId j, ObjectId o,
                           ObjectKind kind) {
  const TaskParams& t = ts.by_id(j);
  std::int64_t holds = 0;
  for (const AccessSpec& a : t.accesses) {
    if (a.object != o) continue;
    holds = sat_add(holds, a.write ? structure_ops_per_write(kind) : 1);
  }
  for (const LockSpan& s : t.spans)
    if (s.object == o) holds = sat_add(holds, 1);
  return holds;
}

bool task_reads(const TaskSet& ts, TaskId i, ObjectId o) {
  for (const AccessSpec& a : ts.by_id(i).accesses)
    if (a.object == o && !a.write) return true;
  return false;
}

double cell_slack(const CellCheck& c) {
  if (c.unbounded) return 1.0;
  if (c.bound == 0) return c.measured == 0 ? 1.0 : -1.0;
  return static_cast<double>(c.bound - c.measured) /
         static_cast<double>(c.bound);
}

}  // namespace

double CellCheck::slack() const { return cell_slack(*this); }

MpOptions options_from_selector(const sched::DispatchSelector& sel,
                                int cpu_count, Substrate substrate) {
  MpOptions opt;
  opt.cpu_count = cpu_count;
  opt.substrate = substrate;
  opt.conflict_groups = sel.conflict_groups();
  opt.strict_groups = sel.options().strict_groups;
  opt.placement = sel.options().placement;
  return opt;
}

std::int64_t overlapping_jobs(const TaskSet& ts, TaskId j, Time window) {
  const TaskParams& t = ts.by_id(j);
  const Time span = sat_add(window, t.critical_time());
  return sat_mul(t.arrival.max_per_window,
                 sat_add(sat_ceil_div(span, t.arrival.window), 1));
}

std::int64_t writes_to(const TaskSet& ts, TaskId i, ObjectId o) {
  std::int64_t n = 0;
  for (const AccessSpec& a : ts.by_id(i).accesses)
    if (a.object == o && a.write) ++n;
  for (const LockSpan& s : ts.by_id(i).spans)
    if (s.object == o) ++n;
  return n;
}

std::int64_t accesses_to(const TaskSet& ts, TaskId i, ObjectId o) {
  std::int64_t n = 0;
  for (const AccessSpec& a : ts.by_id(i).accesses)
    if (a.object == o) ++n;
  for (const LockSpan& s : ts.by_id(i).spans)
    if (s.object == o) ++n;
  return n;
}

bool co_dispatch_prevented(const MpOptions& opt, TaskId i, TaskId j) {
  if (!opt.strict_groups || opt.conflict_groups.empty()) return false;
  const auto group = [&](TaskId t) -> std::int32_t {
    if (t < 0 || static_cast<std::size_t>(t) >= opt.conflict_groups.size())
      return -1;
    return opt.conflict_groups[static_cast<std::size_t>(t)];
  };
  const std::int32_t gi = group(i);
  return gi >= 0 && gi == group(j);
}

bool placement_separated(const MpOptions& opt, const ObjectSpec& spec,
                         TaskId i, TaskId j) {
  const sched::Placement& p = opt.placement;
  if (!runtime::is_scoped(spec, p)) return false;
  const std::int32_t ci = p.cluster_of_task(i);
  const std::int32_t cj = p.cluster_of_task(j);
  return ci >= 0 && cj >= 0 && ci != cj;
}

std::int64_t retry_job_bound(const TaskSet& ts, TaskId i, ObjectId o,
                             const ObjectSpec& spec, const MpOptions& opt) {
  if (runtime::is_lock_based(spec.impl)) return 0;  // locks never retry
  if (accesses_to(ts, i, o) == 0) return 0;
  const bool rw_kind = spec.kind == ObjectKind::kBuffer ||
                       spec.kind == ObjectKind::kSnapshot;
  if (rw_kind) {
    // Wait-free writers never retry; only readers pay, and on the
    // executor they pay per spin ITERATION while a writer is mid-flight
    // — a duration-coupled count no arrival curve bounds.
    if (!task_reads(ts, i, o)) return 0;
    if (opt.substrate == Substrate::kExecutor) return kSaturated;
  }
  // Transition charge: each retry of one job consumes a distinct
  // conflicting transition that overlaps it (the job's attempts are
  // sequential, so one transition fails at most one of them), plus one
  // stale-lag sighting per own structure op.
  const Time ci = ts.by_id(i).critical_time();
  std::int64_t conflict = 0;
  for (const TaskParams& tj : ts.tasks) {
    if (co_dispatch_prevented(opt, i, tj.id) && tj.id != i) continue;
    // Disjoint per-cluster instances: tj's writes land on a structure
    // task i never reads — zero transitions chargeable to i's retries.
    if (tj.id != i && placement_separated(opt, spec, i, tj.id)) continue;
    const std::int64_t w = writes_to(ts, tj.id, o);
    if (w == 0) continue;
    std::int64_t ovl = overlapping_jobs(ts, tj.id, ci);
    if (tj.id == i) {
      // The job's own writes cannot fail its own attempts; same-task
      // peers can, unless strict grouping bars even them.
      if (co_dispatch_prevented(opt, i, i)) continue;
      ovl = std::max<std::int64_t>(0, ovl - 1);
    }
    conflict = sat_add(
        conflict, sat_mul(sat_mul(w, transitions_per_write(spec.kind)), ovl));
  }
  const std::int64_t stale = rw_kind
                                 ? 0
                                 : sat_mul(structure_ops_per_write(spec.kind),
                                           writes_to(ts, i, o));
  return sat_add(conflict, stale);
}

std::int64_t blocking_job_bound(const TaskSet& ts, TaskId i, ObjectId o,
                                const ObjectSpec& spec, const MpOptions& opt) {
  if (!runtime::is_lock_based(spec.impl)) return 0;  // no locks to block on
  const std::int64_t own = holds_per_job(ts, i, o, spec.kind);
  if (own == 0) return 0;
  // Conflicting-hold charge: one hold blocks this job at most once.
  const Time ci = ts.by_id(i).critical_time();
  std::int64_t conflict = 0;
  for (const TaskParams& tj : ts.tasks) {
    if (co_dispatch_prevented(opt, i, tj.id) && tj.id != i) continue;
    // Disjoint per-cluster instances: tj holds a different lock.
    if (tj.id != i && placement_separated(opt, spec, i, tj.id)) continue;
    const std::int64_t holds = holds_per_job(ts, tj.id, o, spec.kind);
    if (holds == 0) continue;
    std::int64_t ovl = overlapping_jobs(ts, tj.id, ci);
    if (tj.id == i) {
      if (co_dispatch_prevented(opt, i, i)) continue;
      ovl = std::max<std::int64_t>(0, ovl - 1);
    }
    conflict = sat_add(conflict, sat_mul(holds, ovl));
  }
  // The executor additionally records at most one blocking per own
  // acquisition; the simulator can re-block one access once per
  // intervening conflicting hold, so only the conflict charge holds
  // there.
  if (opt.substrate == Substrate::kExecutor)
    return std::min(conflict, own);
  return conflict;
}

namespace {

/// Shared body of the two worker_cap forms: `exclude(t)` drops
/// accessors that cannot touch the viewpoint instance.
template <typename Exclude>
std::int64_t worker_cap_impl(const TaskSet& ts, ObjectId o,
                             const MpOptions& opt, Exclude exclude) {
  // Accessor tasks, with strict conflict groups collapsed to one slot
  // each (two same-group tasks never co-dispatch).
  std::int64_t ungrouped = 0;
  std::vector<std::int32_t> groups_seen;
  for (const TaskParams& t : ts.tasks) {
    if (accesses_to(ts, t.id, o) == 0) continue;
    if (exclude(t.id)) continue;
    std::int32_t g = -1;
    if (opt.strict_groups &&
        static_cast<std::size_t>(t.id) < opt.conflict_groups.size())
      g = opt.conflict_groups[static_cast<std::size_t>(t.id)];
    if (g < 0) {
      ++ungrouped;
    } else if (std::find(groups_seen.begin(), groups_seen.end(), g) ==
               groups_seen.end()) {
      groups_seen.push_back(g);
    }
  }
  const std::int64_t accessors =
      ungrouped + static_cast<std::int64_t>(groups_seen.size());
  return std::max<std::int64_t>(
      1, std::min<std::int64_t>(opt.cpu_count, accessors));
}

}  // namespace

std::int64_t worker_cap(const TaskSet& ts, ObjectId o, const MpOptions& opt) {
  return worker_cap_impl(ts, o, opt, [](TaskId) { return false; });
}

std::int64_t worker_cap(const TaskSet& ts, ObjectId o, const MpOptions& opt,
                        const ObjectSpec& spec, TaskId i) {
  return worker_cap_impl(ts, o, opt, [&](TaskId t) {
    return t != i && placement_separated(opt, spec, i, t);
  });
}

namespace {

/// Shared body of the two conflicting_jobs forms.
template <typename Exclude>
std::int64_t conflicting_jobs_impl(const TaskSet& ts, TaskId i, ObjectId o,
                                   const MpOptions& opt, Exclude exclude) {
  const Time ci = ts.by_id(i).critical_time();
  std::int64_t n = 0;
  for (const TaskParams& tj : ts.tasks) {
    if (accesses_to(ts, tj.id, o) == 0) continue;
    if (co_dispatch_prevented(opt, i, tj.id) && tj.id != i) continue;
    if (tj.id != i && exclude(tj.id)) continue;
    std::int64_t ovl = overlapping_jobs(ts, tj.id, ci);
    if (tj.id == i) {
      if (co_dispatch_prevented(opt, i, i)) continue;
      ovl = std::max<std::int64_t>(0, ovl - 1);
    }
    n = sat_add(n, ovl);
  }
  return n;
}

}  // namespace

std::int64_t conflicting_jobs(const TaskSet& ts, TaskId i, ObjectId o,
                              const MpOptions& opt) {
  return conflicting_jobs_impl(ts, i, o, opt, [](TaskId) { return false; });
}

std::int64_t conflicting_jobs(const TaskSet& ts, TaskId i, ObjectId o,
                              const MpOptions& opt, const ObjectSpec& spec) {
  return conflicting_jobs_impl(ts, i, o, opt, [&](TaskId t) {
    return placement_separated(opt, spec, i, t);
  });
}

Time spin_block_time_bound(const TaskSet& ts, TaskId i, ObjectId o,
                           const ObjectSpec& spec,
                           const runtime::CostModel& model,
                           const MpOptions& opt) {
  if (!runtime::is_lock_based(spec.impl)) return 0;
  const std::int64_t own = holds_per_job(ts, i, o, spec.kind);
  if (own == 0) return 0;
  const std::int64_t n = conflicting_jobs(ts, i, o, opt, spec);
  const std::int64_t w = worker_cap(ts, o, opt, spec, i);
  // Contenders per critical section: the paper's min(m_i, n_i) cap,
  // object-resolved and further capped by the workers that can spin at
  // once.
  const std::int64_t contenders = std::min<std::int64_t>(
      {accesses_to(ts, i, o), n, std::max<std::int64_t>(0, w - 1)});
  const Time r_eff = runtime::access_cost(
      model.at(spec.kind, spec.impl), spec.kind,
      /*write=*/spec.kind != ObjectKind::kSnapshot, contenders);
  // FIFO locks (ticket/anderson/mcs): each acquisition waits out at
  // most min(W - 1, n) predecessor critical sections.  Unordered mutex:
  // every conflicting hold can barge ahead somewhere, but each delays
  // this job at most once overall — the total conflicting-hold charge
  // caps both disciplines.
  const bool fifo = spec.impl != ObjectImpl::kMutex;
  const std::int64_t per_acq =
      fifo ? std::min<std::int64_t>(std::max<std::int64_t>(0, w - 1), n) : n;
  std::int64_t waits = sat_mul(own, per_acq);
  std::int64_t conflict_holds = 0;
  const Time ci = ts.by_id(i).critical_time();
  for (const TaskParams& tj : ts.tasks) {
    if (tj.id == i) continue;
    if (co_dispatch_prevented(opt, i, tj.id)) continue;
    if (placement_separated(opt, spec, i, tj.id)) continue;
    conflict_holds = sat_add(
        conflict_holds, sat_mul(holds_per_job(ts, tj.id, o, spec.kind),
                                overlapping_jobs(ts, tj.id, ci)));
  }
  waits = std::min(waits, conflict_holds);
  return sat_mul(waits, r_eff);
}

Time retry_time_bound(const TaskSet& ts, TaskId i, ObjectId o,
                      const ObjectSpec& spec, const runtime::CostModel& model,
                      const MpOptions& opt) {
  const std::int64_t count = retry_job_bound(ts, i, o, spec, opt);
  if (count == 0) return 0;
  if (count == kSaturated) return kTimeNever;
  const std::int64_t contenders = std::min<std::int64_t>(
      accesses_to(ts, i, o), conflicting_jobs(ts, i, o, opt, spec));
  const Time s_retry = runtime::access_cost(
      model.at(spec.kind, spec.impl), spec.kind,
      /*write=*/spec.kind != ObjectKind::kSnapshot, contenders,
      /*retries=*/1);
  return sat_mul(count, s_retry);
}

Certificate certify(const runtime::RunReport& rep, const TaskSet& ts,
                    const std::vector<ObjectSpec>& specs,
                    const runtime::CostModel& model, const MpOptions& opt) {
  Certificate cert;
  const runtime::ContentionMatrix& m = rep.contention;
  if (m.empty()) return cert;  // nothing attributed, nothing to certify
  LFRT_CHECK_MSG(static_cast<std::size_t>(m.objects) == specs.size(),
                 "certify: heatmap rows != object specs");
  LFRT_CHECK_MSG(static_cast<std::size_t>(m.tasks) == ts.tasks.size(),
                 "certify: heatmap columns != task set");

  const auto check_cell = [&](std::vector<CellCheck>& out, ObjectId o,
                              TaskId t, std::int64_t measured,
                              std::int64_t per_job, std::int64_t jobs) {
    CellCheck c;
    c.object = o;
    c.task = t;
    c.measured = measured;
    c.unbounded = per_job == kSaturated;
    c.bound = c.unbounded ? kSaturated : sat_mul(per_job, jobs);
    c.ok = c.unbounded || measured <= c.bound;
    ++cert.cells_checked;
    if (!c.ok) {
      ++cert.violations;
      cert.ok = false;
    }
    if (!c.unbounded && c.bound > 0)
      cert.min_slack = std::min(cert.min_slack, c.slack());
    out.push_back(c);
  };

  for (const TaskParams& t : ts.tasks) {
    const std::int64_t jobs = rep.breakdown_of(t.id).jobs;
    for (ObjectId o = 0; o < m.objects; ++o) {
      const ObjectSpec& spec = specs[static_cast<std::size_t>(o)];
      const runtime::ContentionCell& cell = m.at(o, t.id);
      check_cell(cert.retries, o, t.id, cell.retries,
                 retry_job_bound(ts, t.id, o, spec, opt), jobs);
      check_cell(cert.blockings, o, t.id, cell.blockings,
                 blocking_job_bound(ts, t.id, o, spec, opt), jobs);
    }

    // Backoff-ladder invariant, worst job of the task: every recorded
    // retry pauses at most Backoff::kMaxSpins relax hints.
    BackoffCheck bc;
    bc.task = t.id;
    for (const Job& j : rep.jobs) {
      if (j.task != t.id) continue;
      const std::int64_t bound =
          sat_mul(lockfree::Backoff::kMaxSpins, j.retries);
      if (j.backoff_spins > bound) {
        bc.ok = false;
        bc.measured = j.backoff_spins;
        bc.bound = bound;
      } else if (bc.ok && j.backoff_spins >= bc.measured) {
        bc.measured = j.backoff_spins;
        bc.bound = bound;
      }
    }
    ++cert.cells_checked;
    if (!bc.ok) {
      ++cert.violations;
      cert.ok = false;
    }
    cert.backoff.push_back(bc);

    TaskTimeBounds tb;
    tb.task = t.id;
    for (ObjectId o = 0; o < m.objects; ++o) {
      const ObjectSpec& spec = specs[static_cast<std::size_t>(o)];
      tb.spin_block_time = sat_add(
          tb.spin_block_time,
          spin_block_time_bound(ts, t.id, o, spec, model, opt));
      tb.retry_time = sat_add(tb.retry_time,
                              retry_time_bound(ts, t.id, o, spec, model, opt));
    }
    cert.time_bounds.push_back(tb);
  }
  return cert;
}

}  // namespace lfrt::analysis::mp
