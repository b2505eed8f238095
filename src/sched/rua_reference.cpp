// Frozen copy of the seed's RuaScheduler::build.  See rua_reference.hpp
// for why this must stay untouched.  The only changes from the seed are
// mechanical: results are written into a caller-provided ScheduleResult
// (cleared first) to fit the build_into interface.
#include "sched/rua_reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include "support/check.hpp"

namespace lfrt::sched {
namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Modelled cost of one lookup/insert/remove on an ordered list of
/// length `len` (paper, Section 3.6, step 5: "each of which costs
/// O(log n)").
std::int64_t ordered_op_cost(std::size_t len) {
  std::int64_t c = 1;
  while (len > 1) {
    ++c;
    len >>= 1;
  }
  return c;
}

/// One entry of the (tentative) schedule: a job plus its *effective*
/// critical time, which dependency clamping (Figure 4) may have lowered
/// below the job's own critical time.
struct Entry {
  std::size_t job = kNpos;  // index into the jobs vector
  Time eff_critical = 0;
};

/// First position whose effective critical time exceeds `eff` — the ECF
/// insertion point (stable: equal keys keep earlier entries first).
std::size_t ecf_index(const std::vector<Entry>& sched, Time eff) {
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

std::size_t find_entry(const std::vector<Entry>& sched, std::size_t job) {
  for (std::size_t i = 0; i < sched.size(); ++i)
    if (sched[i].job == job) return i;
  return kNpos;
}

}  // namespace

RuaReferenceScheduler::RuaReferenceScheduler(Sharing sharing,
                                             bool detect_deadlocks)
    : sharing_(sharing), detect_deadlocks_(detect_deadlocks) {}

std::string RuaReferenceScheduler::name() const {
  return sharing_ == Sharing::kLockFree ? "RUA-ref/lock-free"
                                        : "RUA-ref/lock-based";
}

void RuaReferenceScheduler::build_into(const std::vector<SchedJob>& jobs,
                                       Time now, Workspace* /*ws*/,
                                       ScheduleResult& out) const {
  out.clear();
  const std::size_t n = jobs.size();
  if (n == 0) return;

  std::unordered_map<JobId, std::size_t> index;
  index.reserve(n);
  for (std::size_t i = 0; i < n; ++i) index.emplace(jobs[i].id, i);
  out.ops += static_cast<std::int64_t>(n);

  // ---- Step 1: dependency chains (lock-based only) -------------------
  //
  // chains[i] runs from the job itself (tail) toward the deepest
  // dependency (head); under the single-unit resource model each job
  // waits on at most one holder, so the chain is a simple path unless a
  // cycle (deadlock) exists.
  std::vector<char> dead(n, 0);  // deadlock victims, excluded below
  std::vector<std::vector<std::size_t>> chains(n);

  auto follow = [&](std::size_t from) -> std::size_t {
    const JobId w = jobs[from].waits_on;
    if (w == kNoJob) return kNpos;
    const auto it = index.find(w);
    // A holder that already departed leaves no dependency to respect.
    return it == index.end() ? kNpos : it->second;
  };

  if (sharing_ == Sharing::kLockFree) {
    for (std::size_t i = 0; i < n; ++i) {
      LFRT_CHECK_MSG(jobs[i].waits_on == kNoJob,
                     "lock-free RUA saw a blocked job");
      chains[i] = {i};
    }
  } else {
    // ---- Step 3 pre-pass: cycle detection & resolution ---------------
    if (detect_deadlocks_) {
      std::vector<char> visited(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        if (visited[i]) continue;
        std::vector<std::size_t> path;
        std::vector<char> on_path(n, 0);
        std::size_t cur = i;
        while (cur != kNpos && !visited[cur] && !on_path[cur]) {
          on_path[cur] = 1;
          path.push_back(cur);
          cur = follow(cur);
          out.ops += 1;
        }
        if (cur != kNpos && on_path[cur]) {
          // Found a cycle starting at `cur`: abort the member that
          // would contribute the least utility per remaining time, the
          // lower id on a tie (so the pick does not follow view order,
          // and a cycle of members with no remaining time still has one).
          std::size_t victim = kNpos;
          double worst = std::numeric_limits<double>::infinity();
          for (auto it = std::find(path.begin(), path.end(), cur);
               it != path.end(); ++it) {
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
          dead[victim] = 1;
          out.deadlock_victims.push_back(jobs[victim].id);
        }
        for (std::size_t p : path) visited[p] = 1;
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      if (dead[i]) continue;
      auto& chain = chains[i];
      chain.push_back(i);
      std::size_t cur = i;
      for (;;) {
        const std::size_t next = follow(cur);
        out.ops += 1;
        if (next == kNpos) break;
        // A victim releases its objects on abort: sever the chain there.
        if (dead[next]) break;
        if (std::find(chain.begin(), chain.end(), next) != chain.end()) {
          LFRT_CHECK_MSG(detect_deadlocks_,
                         "dependency cycle with deadlock detection off — "
                         "nested critical sections are excluded from this "
                         "configuration");
          break;  // unreachable: victims sever every cycle
        }
        chain.push_back(next);
        cur = next;
      }
    }
  }

  // ---- Step 2: potential utility densities ---------------------------
  //
  // PUD_i = (U_i(t_f) + sum_dep U_j(t_j)) / (t_f - now): the aggregate's
  // "return on investment", with completion estimates accumulated
  // deepest-dependency-first.
  std::vector<double> pud(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (dead[i]) continue;
    Time cum = 0;
    double util = 0.0;
    for (auto it = chains[i].rbegin(); it != chains[i].rend(); ++it) {
      const auto& j = jobs[*it];
      cum += j.remaining;
      util += j.tuf->utility(now + cum - j.arrival);
      out.ops += 1;
    }
    pud[i] = cum > 0 ? util / static_cast<double>(cum)
                     : std::numeric_limits<double>::infinity();
  }

  // ---- Step 4: sort by non-increasing PUD ----------------------------
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (!dead[i]) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (pud[a] != pud[b]) return pud[a] > pud[b];
    if (jobs[a].critical != jobs[b].critical)
      return jobs[a].critical < jobs[b].critical;
    return jobs[a].id < jobs[b].id;
  });
  out.ops += static_cast<std::int64_t>(order.size()) *
             ordered_op_cost(order.size());

  // ---- Step 5: greedy aggregate insertion with feasibility tests -----
  std::vector<Entry> schedule;
  std::vector<char> in_schedule(n, 0);

  for (std::size_t i : order) {
    if (in_schedule[i]) continue;  // inserted earlier as a dependent

    std::vector<Entry> tentative = schedule;
    out.ops += static_cast<std::int64_t>(schedule.size());  // the copy

    // Insert the chain from tail (the job) toward head (deepest
    // dependency).  `dep_pos`/`dep_eff` track the previously inserted
    // chain member, which the current one must precede.
    std::size_t dep_pos = kNpos;
    Time dep_eff = kTimeNever;
    std::vector<std::size_t> newly;

    for (std::size_t k : chains[i]) {
      const std::size_t pos = find_entry(tentative, k);
      out.ops += ordered_op_cost(tentative.size());  // modelled lookup

      if (pos != kNpos) {
        if (dep_pos != kNpos && pos > dep_pos) {
          // Figure 5, Case 2: the already-present dependent sits after
          // the job that must follow it — remove, clamp, reinsert.
          Entry e = tentative[pos];
          tentative.erase(tentative.begin() +
                          static_cast<std::ptrdiff_t>(pos));
          e.eff_critical = std::min(e.eff_critical, dep_eff);
          std::size_t idx = std::min(ecf_index(tentative, e.eff_critical),
                                     dep_pos);
          tentative.insert(tentative.begin() +
                               static_cast<std::ptrdiff_t>(idx),
                           e);
          out.ops += 2 * ordered_op_cost(tentative.size());
          dep_pos = idx;
          dep_eff = e.eff_critical;
        } else {
          dep_pos = pos;
          dep_eff = tentative[pos].eff_critical;
        }
      } else {
        // Figure 4: clamp the dependent's critical time so the ECF order
        // stays consistent with the dependency order.
        Entry e{k, std::min(jobs[k].critical, dep_eff)};
        std::size_t idx = ecf_index(tentative, e.eff_critical);
        if (dep_pos != kNpos) idx = std::min(idx, dep_pos);
        tentative.insert(tentative.begin() +
                             static_cast<std::ptrdiff_t>(idx),
                         e);
        out.ops += ordered_op_cost(tentative.size());
        dep_pos = idx;
        dep_eff = e.eff_critical;
        newly.push_back(k);
      }
    }

    // Feasibility: every entry must finish by its effective critical
    // time when the tentative schedule is executed in order from `now`.
    bool feasible = true;
    Time finish = now;
    for (const Entry& e : tentative) {
      finish += jobs[e.job].remaining;
      out.ops += 1;
      if (finish > e.eff_critical) {
        feasible = false;
        break;
      }
    }

    if (feasible) {
      schedule = std::move(tentative);
      for (std::size_t k : newly) in_schedule[k] = 1;
    } else {
      out.rejected.push_back(jobs[i].id);
    }
  }

  out.schedule.reserve(schedule.size());
  for (const Entry& e : schedule) out.schedule.push_back(jobs[e.job].id);

  for (const Entry& e : schedule) {
    if (jobs[e.job].runnable()) {
      out.dispatch = jobs[e.job].id;
      break;
    }
  }
}

}  // namespace lfrt::sched
