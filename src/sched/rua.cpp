// Allocation-free RUA hot path.  Semantics and modelled `ops` are
// bit-for-bit identical to the naive reference (rua_reference.cpp);
// tests/rua_equivalence_test.cpp holds the two implementations equal on
// randomized workloads.
//
// A view with no blocked job has no dependency chains to build, so run
// takes the paper's lock-free steps directly: PUD keys built
// newest-first, one insertion sort, and per job a feasibility test at
// its ECF index from the committed prefix sums, inserting the job only
// if it passes.  It charges the modelled cost of the chain steps, and
// of the reference's insert and erase, without performing them.
//
// Only a lock-based view with a blocked job reaches run_chains, which
// differs from the reference purely mechanically:
//
//   * the JobId -> index map is open-addressed instead of node-based,
//   * dependency chains are stored in one flat CSR buffer,
//   * the tentative schedule is the committed schedule edited in place,
//     with an undo log replayed backwards on infeasibility (replacing
//     the full per-aggregate copy),
//   * entry lookups read a maintained position index (replacing the
//     linear find_entry scan), and
//   * the feasibility pass resumes from the same watermark at the first
//     position the aggregate touched (entries before it belong to a
//     previously committed — hence feasible — prefix).
//
// All scratch lives in a RuaWorkspace and retains capacity.
#include "sched/rua.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace lfrt::sched {
namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Modelled cost of one lookup/insert/remove on an ordered list of
/// length `len` (paper, Section 3.6, step 5: "each of which costs
/// O(log n)").
std::int64_t ordered_op_cost(std::size_t len) {
  return std::max<std::int64_t>(1, std::bit_width(len));  // 1 + floor(log2)
}

/// First position whose effective critical time exceeds `eff` — the ECF
/// insertion point (stable: equal keys keep earlier entries first).
std::size_t ecf_index(const std::vector<RuaEntry>& sched, Time eff) {
  std::size_t lo = 0, hi = sched.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (sched[mid].eff_critical <= eff)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

std::uint64_t hash_id(JobId id) {
  auto z = static_cast<std::uint64_t>(id) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Step 4: sort by non-increasing PUD, ties by earlier critical time,
/// then lower id.  The order is strict and total, so any input order
/// gives one result; insertion sort suits the short lists the callers
/// build (n is about 7 in sim-sweep).
void sort_by_pud(std::vector<RuaSortKey>& keys, ScheduleResult& out) {
  const auto before = [](const RuaSortKey& a, const RuaSortKey& b) {
    if (a.pud != b.pud) return a.pud > b.pud;
    if (a.critical != b.critical) return a.critical < b.critical;
    return a.id < b.id;
  };
  for (std::size_t k = 1; k < keys.size(); ++k) {
    const RuaSortKey key = keys[k];
    std::size_t p = k;
    for (; p > 0 && before(key, keys[p - 1]); --p) keys[p] = keys[p - 1];
    keys[p] = key;
  }
  out.ops += static_cast<std::int64_t>(keys.size()) *
             ordered_op_cost(keys.size());
}

/// Feasibility: every entry must finish by its effective critical time
/// when the schedule runs in order from `now`.  Positions below `start`
/// belong to a previously committed prefix — unchanged, feasible, and
/// with valid prefix sums — so the scan resumes there, refreshing
/// prefix[p] as it goes.  Returns the first violating position, or
/// kNpos.
std::size_t first_violation(const std::vector<SchedJob>& jobs,
                            const std::vector<RuaEntry>& schedule,
                            std::size_t start, Time now,
                            std::vector<Time>& prefix) {
  Time finish = start > 0 ? prefix[start - 1] : now;
  for (std::size_t p = start; p < schedule.size(); ++p) {
    finish += jobs[schedule[p].job].remaining;
    prefix[p] = finish;
    if (finish > schedule[p].eff_critical) return p;
  }
  return kNpos;
}

/// Modelled cost of the reference's feasibility walk: head to the
/// violation inclusive, or the whole schedule.
std::int64_t feasibility_ops(std::size_t violation, std::size_t len) {
  return static_cast<std::int64_t>(violation == kNpos ? len : violation + 1);
}

void emit(const std::vector<SchedJob>& jobs,
          const std::vector<RuaEntry>& schedule, ScheduleResult& out) {
  out.schedule.reserve(schedule.size());
  for (const RuaEntry& e : schedule) out.schedule.push_back(jobs[e.job].id);

  for (const RuaEntry& e : schedule) {
    if (jobs[e.job].runnable()) {
      out.dispatch = jobs[e.job].id;
      break;
    }
  }
}

}  // namespace

RuaScheduler::RuaScheduler(Sharing sharing, bool detect_deadlocks)
    : sharing_(sharing), detect_deadlocks_(detect_deadlocks) {}

std::string RuaScheduler::name() const {
  return sharing_ == Sharing::kLockFree ? "RUA/lock-free" : "RUA/lock-based";
}

std::unique_ptr<Scheduler::Workspace> RuaScheduler::make_workspace() const {
  return std::make_unique<RuaWorkspace>();
}

void RuaScheduler::build_into(const std::vector<SchedJob>& jobs, Time now,
                              Workspace* ws, ScheduleResult& out) const {
  if (ws == nullptr) {
    RuaWorkspace transient;
    run(jobs, now, transient, out);
    return;
  }
  auto* rws = dynamic_cast<RuaWorkspace*>(ws);
  LFRT_CHECK_MSG(rws != nullptr,
                 "RuaScheduler::build_into given a foreign workspace");
  run(jobs, now, *rws, out);
}

void RuaScheduler::run(const std::vector<SchedJob>& jobs, Time now,
                       RuaWorkspace& ws, ScheduleResult& out) const {
  out.clear();
  const std::size_t n = jobs.size();
  if (n == 0) return;

  const bool any_blocked =
      std::any_of(jobs.begin(), jobs.end(),
                  [](const SchedJob& j) { return !j.runnable(); });
  if (any_blocked) {
    LFRT_CHECK_MSG(sharing_ == Sharing::kLockBased,
                   "lock-free RUA saw a blocked job");
    run_chains(jobs, now, ws, out);
    return;
  }

  // Every chain is the job itself and nothing can deadlock.  The
  // modelled cost still charges what the chain path spends finding
  // that out: the id map (n), and under lock-based sharing one terminal
  // follow per job (n) plus the detector's one-step walk per job (n).
  std::int64_t chain_ops_per_job = 1;
  if (sharing_ == Sharing::kLockBased)
    chain_ops_per_job += detect_deadlocks_ ? 2 : 1;
  out.ops += chain_ops_per_job * static_cast<std::int64_t>(n);

  // ---- Step 2: each job's PUD alone ----------------------------------
  //
  // Newest first: newer jobs more often carry the higher PUD, so fewer
  // key pairs reach the sort out of order (in sim-sweep about 9.5 of
  // 26 per build, against about 16 in id order).
  ws.keys.clear();
  for (std::size_t i = n; i-- > 0;) {
    const SchedJob& j = jobs[i];
    const double pud =
        j.remaining > 0
            ? j.tuf->utility(now + j.remaining - j.arrival) /
                  static_cast<double>(j.remaining)
            : std::numeric_limits<double>::infinity();
    ws.keys.push_back({pud, j.critical, j.id, i});
  }
  out.ops += static_cast<std::int64_t>(n);

  sort_by_pud(ws.keys, out);

  // ---- Step 5: ECF insertion with feasibility tests ------------------
  //
  // With no dependent to precede, a job's effective critical time is
  // its own and its place is its ECF index.  The committed entries
  // ahead of it stay put and feasible, so the test scans from there,
  // writing prefix[] as if the job were in place, and the job is
  // inserted only if it passes: a rejected job is never erased.
  auto& schedule = ws.schedule;
  schedule.clear();
  ws.prefix.resize(n);
  std::size_t watermark = 0;  // prefix[p] valid for p < watermark
  for (const RuaSortKey& key : ws.keys) {
    const std::size_t len = schedule.size();
    // The reference's schedule copy, its lookup, and the insertion.
    out.ops += static_cast<std::int64_t>(len) + ordered_op_cost(len) +
               ordered_op_cost(len + 1);
    const std::size_t idx = ecf_index(schedule, key.critical);
    for (; watermark < idx; ++watermark)
      ws.prefix[watermark] = jobs[schedule[watermark].job].remaining +
                             (watermark > 0 ? ws.prefix[watermark - 1] : now);
    Time finish =
        jobs[key.job].remaining + (idx > 0 ? ws.prefix[idx - 1] : now);
    ws.prefix[idx] = finish;
    std::size_t violation = finish > key.critical ? idx : kNpos;
    for (std::size_t p = idx; p < len && violation == kNpos; ++p) {
      finish += jobs[schedule[p].job].remaining;
      ws.prefix[p + 1] = finish;
      if (finish > schedule[p].eff_critical) violation = p + 1;
    }
    out.ops += feasibility_ops(violation, len + 1);
    if (violation == kNpos) {
      schedule.insert(schedule.begin() + static_cast<std::ptrdiff_t>(idx),
                      RuaEntry{key.job, key.critical});
      watermark = len + 1;
    } else {
      watermark = idx;  // prefix beyond: the rejected candidate's
      out.rejected.push_back(key.id);
    }
  }

  emit(jobs, schedule, out);
}

void RuaScheduler::run_chains(const std::vector<SchedJob>& jobs, Time now,
                              RuaWorkspace& ws, ScheduleResult& out) const {
  const std::size_t n = jobs.size();

  // ---- id -> index map (open-addressed; first insertion wins, like
  // unordered_map::emplace) ---------------------------------------------
  std::size_t cap = 8;
  while (cap < 2 * n) cap <<= 1;
  const std::size_t mask = cap - 1;
  ws.map_keys.assign(cap, kNoJob);
  ws.map_vals.resize(cap);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t slot = static_cast<std::size_t>(hash_id(jobs[i].id)) & mask;
    while (ws.map_keys[slot] != kNoJob && ws.map_keys[slot] != jobs[i].id)
      slot = (slot + 1) & mask;
    if (ws.map_keys[slot] == kNoJob) {
      ws.map_keys[slot] = jobs[i].id;
      ws.map_vals[slot] = i;
    }
  }
  out.ops += static_cast<std::int64_t>(n);

  auto lookup = [&](JobId id) -> std::size_t {
    std::size_t slot = static_cast<std::size_t>(hash_id(id)) & mask;
    while (ws.map_keys[slot] != kNoJob) {
      if (ws.map_keys[slot] == id) return ws.map_vals[slot];
      slot = (slot + 1) & mask;
    }
    return kNpos;
  };

  /// Index of the job `from` waits on (kNpos if unblocked or the holder
  /// already departed).
  auto follow = [&](std::size_t from) -> std::size_t {
    const JobId w = jobs[from].waits_on;
    if (w == kNoJob) return kNpos;
    return lookup(w);
  };

  // ---- Step 1: dependency chains --------------------------------------
  //
  // Chain i runs from the job itself (tail) toward the deepest
  // dependency (head); under the single-unit resource model each job
  // waits on at most one holder, so the chain is a simple path unless a
  // cycle (deadlock) exists.
  ws.dead.assign(n, 0);

  // ---- Step 3 pre-pass: cycle detection & resolution -----------------
  if (detect_deadlocks_) {
    ws.visited.assign(n, 0);
    ws.on_path.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (ws.visited[i]) continue;
      ws.path.clear();
      std::size_t cur = i;
      while (cur != kNpos && !ws.visited[cur] && !ws.on_path[cur]) {
        ws.on_path[cur] = 1;
        ws.path.push_back(cur);
        cur = follow(cur);
        out.ops += 1;
      }
      if (cur != kNpos && ws.on_path[cur]) {
        // Found a cycle starting at `cur`: abort the member that
        // would contribute the least utility per remaining time, the
        // lower id on a tie (so the pick does not follow view order,
        // and a cycle of members with no remaining time still has one).
        std::size_t victim = kNpos;
        double worst = std::numeric_limits<double>::infinity();
        for (auto it = std::find(ws.path.begin(), ws.path.end(), cur);
             it != ws.path.end(); ++it) {
          const auto& j = jobs[*it];
          const double density =
              j.remaining > 0
                  ? j.tuf->utility(now + j.remaining - j.arrival) /
                        static_cast<double>(j.remaining)
                  : std::numeric_limits<double>::infinity();
          if (victim == kNpos || density < worst ||
              (density == worst && j.id < jobs[victim].id)) {
            worst = density;
            victim = *it;
          }
          out.ops += 1;
        }
        ws.dead[victim] = 1;
        out.deadlock_victims.push_back(jobs[victim].id);
      }
      for (std::size_t p : ws.path) {
        ws.visited[p] = 1;
        ws.on_path[p] = 0;  // the reference's fresh per-walk vector
      }
    }
  }

  ws.chain_off.assign(n, 0);
  ws.chain_len.assign(n, 0);
  ws.chain_data.clear();
  // Stamp array replacing the reference's std::find over the growing
  // chain (O(len) per follow step): chain_mark[k] == i + 1 iff k is
  // already a member of chain i.  No modelled ops are charged for the
  // membership check, so the counts stay identical.
  ws.chain_mark.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (ws.dead[i]) continue;
    const std::size_t off = ws.chain_data.size();
    ws.chain_off[i] = off;
    ws.chain_data.push_back(i);
    ws.chain_mark[i] = i + 1;
    std::size_t cur = i;
    for (;;) {
      const std::size_t next = follow(cur);
      out.ops += 1;
      if (next == kNpos) break;
      // A victim releases its objects on abort: sever the chain there.
      if (ws.dead[next]) break;
      if (ws.chain_mark[next] == i + 1) {
        LFRT_CHECK_MSG(detect_deadlocks_,
                       "dependency cycle with deadlock detection off — "
                       "nested critical sections are excluded from this "
                       "configuration");
        break;  // unreachable: victims sever every cycle
      }
      ws.chain_data.push_back(next);
      ws.chain_mark[next] = i + 1;
      cur = next;
    }
    ws.chain_len[i] = ws.chain_data.size() - off;
  }

  /// Chain of job i as a [first, last) range.
  auto chain_of = [&](std::size_t i)
      -> std::pair<const std::size_t*, const std::size_t*> {
    const std::size_t* first = ws.chain_data.data() + ws.chain_off[i];
    return {first, first + ws.chain_len[i]};
  };

  // ---- Step 2: potential utility densities ---------------------------
  //
  // PUD_i = (U_i(t_f) + sum_dep U_j(t_j)) / (t_f - now): the aggregate's
  // "return on investment", with completion estimates accumulated
  // deepest-dependency-first.
  ws.keys.clear();
  for (std::size_t i = n; i-- > 0;) {  // newest first, as in run
    if (ws.dead[i]) continue;
    Time cum = 0;
    double util = 0.0;
    const auto [first, last] = chain_of(i);
    for (const std::size_t* it = last; it != first;) {
      const auto& j = jobs[*--it];
      cum += j.remaining;
      util += j.tuf->utility(now + cum - j.arrival);
      out.ops += 1;
    }
    const double pud = cum > 0 ? util / static_cast<double>(cum)
                               : std::numeric_limits<double>::infinity();
    ws.keys.push_back({pud, jobs[i].critical, jobs[i].id, i});
  }

  sort_by_pud(ws.keys, out);

  // ---- Step 5: greedy aggregate insertion with feasibility tests -----
  //
  // The committed schedule is edited in place; each aggregate's edits
  // are logged and rolled back (LIFO) if the result is infeasible.
  // pos_of[k] != kNpos doubles as the reference's in_schedule flag: the
  // log restores it exactly on rollback.
  auto& schedule = ws.schedule;
  schedule.clear();
  ws.pos_of.assign(n, kNpos);
  ws.prefix.resize(n);
  std::size_t watermark = 0;  // prefix[p] valid for p < watermark

  /// Insert `e` at `idx`, shifting the tail and keeping pos_of current.
  auto insert_at = [&](std::size_t idx, const RuaEntry& e) {
    schedule.insert(schedule.begin() + static_cast<std::ptrdiff_t>(idx),
                    e);
    for (std::size_t p = idx; p < schedule.size(); ++p)
      ws.pos_of[schedule[p].job] = p;
  };

  /// Remove the entry at `pos`, shifting the tail and keeping pos_of
  /// current (the removed job's position becomes kNpos).
  auto erase_at = [&](std::size_t pos) {
    ws.pos_of[schedule[pos].job] = kNpos;
    schedule.erase(schedule.begin() + static_cast<std::ptrdiff_t>(pos));
    for (std::size_t p = pos; p < schedule.size(); ++p)
      ws.pos_of[schedule[p].job] = p;
  };

  /// Move the entry at `pos` down to `idx` (idx <= pos), replacing it
  /// with `e` (its clamped form).  Only positions in [idx, pos] shift,
  /// so the memmove and the pos_of fixup both stay local to that range
  /// — a move must NOT be expressed as erase_at + insert_at, whose
  /// fixups each run to the end of the schedule.
  auto move_down = [&](std::size_t pos, std::size_t idx,
                       const RuaEntry& e) {
    // copy_backward lowers to one memmove (std::rotate would walk the
    // range element by element).
    std::copy_backward(schedule.begin() + static_cast<std::ptrdiff_t>(idx),
                       schedule.begin() + static_cast<std::ptrdiff_t>(pos),
                       schedule.begin() + static_cast<std::ptrdiff_t>(pos) +
                           1);
    schedule[idx] = e;
    for (std::size_t p = idx; p <= pos; ++p)
      ws.pos_of[schedule[p].job] = p;
  };

  /// ecf_index over the schedule as it would look with position `pos`
  /// erased: the same binary search the reference runs after its
  /// tentative.erase(), probe for probe, without performing the erase.
  auto ecf_index_skipping = [&](Time eff, std::size_t pos) {
    std::size_t lo = 0, hi = schedule.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      const RuaEntry& m = schedule[mid < pos ? mid : mid + 1];
      if (m.eff_critical <= eff)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  };

  for (const RuaSortKey& key : ws.keys) {
    const std::size_t i = key.job;
    if (ws.pos_of[i] != kNpos) continue;  // inserted as a dependent

    // The reference copies the whole tentative schedule here; the copy
    // is part of the modelled cost even though no copy happens anymore.
    out.ops += static_cast<std::int64_t>(schedule.size());

    ws.undo.clear();
    std::size_t first_changed = schedule.size();

    // Insert the chain from tail (the job) toward head (deepest
    // dependency).  `dep_pos`/`dep_eff` track the previously inserted
    // chain member, which the current one must precede.
    std::size_t dep_pos = kNpos;
    Time dep_eff = kTimeNever;

    const auto [first, last] = chain_of(i);
    for (const std::size_t* it = first; it != last; ++it) {
      const std::size_t k = *it;
      const std::size_t pos = ws.pos_of[k];
      out.ops += ordered_op_cost(schedule.size());  // modelled lookup

      if (pos != kNpos) {
        if (dep_pos != kNpos && pos > dep_pos) {
          // Figure 5, Case 2: the already-present dependent sits after
          // the job that must follow it — remove, clamp, reinsert.
          const RuaEntry saved = schedule[pos];
          RuaEntry e = saved;
          e.eff_critical = std::min(e.eff_critical, dep_eff);
          const std::size_t idx = std::min(
              ecf_index_skipping(e.eff_critical, pos), dep_pos);
          move_down(pos, idx, e);
          out.ops += 2 * ordered_op_cost(schedule.size());
          ws.undo.push_back({RuaWorkspace::Undo::Kind::kMove, pos, idx,
                             saved});
          first_changed = std::min(first_changed, idx);  // idx <= pos
          dep_pos = idx;
          dep_eff = e.eff_critical;
        } else {
          dep_pos = pos;
          dep_eff = schedule[pos].eff_critical;
        }
      } else {
        // Figure 4: clamp the dependent's critical time so the ECF order
        // stays consistent with the dependency order.
        const RuaEntry e{k, std::min(jobs[k].critical, dep_eff)};
        std::size_t idx = ecf_index(schedule, e.eff_critical);
        if (dep_pos != kNpos) idx = std::min(idx, dep_pos);
        insert_at(idx, e);
        out.ops += ordered_op_cost(schedule.size());
        ws.undo.push_back({RuaWorkspace::Undo::Kind::kInsert, idx, 0,
                           RuaEntry{}});
        first_changed = std::min(first_changed, idx);
        dep_pos = idx;
        dep_eff = e.eff_critical;
      }
    }

    // Positions below min(first_changed, watermark) are an unchanged
    // committed prefix.
    const std::size_t start = std::min(first_changed, watermark);
    const std::size_t violation =
        first_violation(jobs, schedule, start, now, ws.prefix);
    out.ops += feasibility_ops(violation, schedule.size());

    if (violation == kNpos) {
      watermark = schedule.size();  // commit: prefix now valid end-to-end
    } else {
      // Roll the aggregate's edits back in LIFO order; each undo step
      // sees the schedule exactly as it was right after its edit.
      for (auto u = ws.undo.rbegin(); u != ws.undo.rend(); ++u) {
        if (u->kind == RuaWorkspace::Undo::Kind::kInsert) {
          erase_at(u->a);
        } else {
          // The entry moved down from a to b; shift it back up and
          // restore its pre-clamp form.  Fixup is again local to
          // [b, a].
          std::copy(schedule.begin() + static_cast<std::ptrdiff_t>(u->b) + 1,
                    schedule.begin() + static_cast<std::ptrdiff_t>(u->a) + 1,
                    schedule.begin() + static_cast<std::ptrdiff_t>(u->b));
          schedule[u->a] = u->saved;
          for (std::size_t p = u->b; p <= u->a; ++p)
            ws.pos_of[schedule[p].job] = p;
        }
      }
      watermark = std::min(watermark, start);  // prefix beyond: stale
      out.rejected.push_back(key.id);
    }
  }

  emit(jobs, schedule, out);
}

}  // namespace lfrt::sched
