// RUA — the Resource-constrained Utility Accrual scheduling algorithm
// (Wu, Ravindran, Jensen, Balli [27]), in both the lock-based form the
// paper starts from (Section 3) and the lock-free form it derives
// (Sections 3.6/5).
//
// Lock-based RUA, per scheduling event:
//   1. build every job's dependency chain by following the chain of
//      resource request and ownership                      — O(n^2)
//   2. compute each job's potential utility density (PUD) over the
//      aggregate (job + dependents)                        — O(n^2)
//   3. detect dependency cycles (deadlock) and resolve by aborting the
//      least-utility job in the cycle                      — O(n^2)
//   4. sort jobs by non-increasing PUD                     — O(n log n)
//   5. greedily insert each aggregate into a tentative ECF schedule,
//      respecting dependencies (with critical-time clamping and
//      removal/reinsertion, Figures 4 and 5) and testing feasibility
//                                                          — O(n^2 log n)
//
// Lock-free RUA is the same algorithm with dependency chains reduced to
// the job itself: steps 1 and 3 vanish, 2 becomes O(n), 5 becomes
// O(n^2); the whole algorithm costs O(n^2).
//
// Chains reduce to the job itself in *any* view where no job is
// blocked, whatever the sharing regime, so build_into checks that first
// and only then pays for chains.  A view with no blocked job — every
// lock-free view, and most lock-based ones (a job is blocked only while
// it waits on a lock) — takes the lock-free steps directly: one PUD per
// job, one sort, and per job a feasibility test at its ECF index that
// inserts the job only if it passes (nothing is ever erased).  The
// id map, the CSR chains, the position index and the undo log exist
// only for a lock-based view with at least one blocked job.  Both paths
// charge the modelled `ops` of the naive algorithm (rua_reference.hpp)
// bit for bit — including, on an unblocked lock-based view, the chain
// steps that found nothing — so every paper figure is unchanged; only
// the wall-clock cost per invocation drops.
//
// The hot path is *allocation-free in steady state*: all scratch lives
// in a caller-owned RuaWorkspace whose buffers retain capacity across
// build_into calls, and the feasibility test restarts from a maintained
// prefix-sum watermark instead of the head of the schedule.
#pragma once

#include <cstdint>
#include <memory>

#include "sched/scheduler.hpp"

namespace lfrt::sched {

/// Object-sharing regime the scheduler is paired with.
enum class Sharing {
  kLockBased,  ///< mutual exclusion; dependency chains and blocking exist
  kLockFree,   ///< retry-based; dependencies never arise
};

/// One entry of the (tentative) schedule: a job plus its *effective*
/// critical time, which dependency clamping (Figure 4) may have lowered
/// below the job's own critical time.
struct RuaEntry {
  std::size_t job = static_cast<std::size_t>(-1);  // index into jobs
  Time eff_critical = 0;
};

/// Step 4's sort key for one job: its PUD and the tie-breakers the sort
/// compares (critical time, then id), plus the job's index.
struct RuaSortKey {
  double pud = 0.0;
  Time critical = 0;
  JobId id = kNoJob;
  std::size_t job = static_cast<std::size_t>(-1);  // index into jobs
};

/// Scratch arena for RuaScheduler::build_into.
///
/// Contract: a workspace belongs to one caller and must not be used by
/// two threads at once.  Between calls every buffer keeps its capacity,
/// so after the first call at a given job-count high-water mark,
/// build_into performs **zero heap allocations** (the caller's
/// ScheduleResult buffers likewise retain capacity when reused; see
/// tests/rua_alloc_test.cpp for the enforcing hook).  No state carries
/// *semantic* meaning across calls — only capacity — so a workspace may
/// be shared sequentially between schedulers and job sets of any size.
class RuaWorkspace final : public Scheduler::Workspace {
 public:
  RuaWorkspace() = default;

 private:
  friend class RuaScheduler;

  // Step 4's sort keys, one per live job: the PUD and the tie-breakers,
  // packed so the sort touches no other buffer.
  std::vector<RuaSortKey> keys;

  // The chain path's scratch (a lock-based view with a blocked job):
  // open-addressed JobId -> job-index map (linear probing, power-of-two
  // capacity, kNoJob = empty slot).
  std::vector<JobId> map_keys;
  std::vector<std::size_t> map_vals;

  // Cycle detection scratch (lock-based step 3).
  std::vector<char> dead;
  std::vector<char> visited;
  std::vector<char> on_path;
  std::vector<std::size_t> path;

  // Dependency chains in CSR layout: chain i occupies
  // chain_data[chain_off[i] .. chain_off[i] + chain_len[i]).
  std::vector<std::size_t> chain_off;
  std::vector<std::size_t> chain_len;
  std::vector<std::size_t> chain_data;
  // chain_mark[k] == i + 1 iff k already belongs to the chain being
  // built for job i (O(1) membership, replacing a scan of the chain).
  std::vector<std::size_t> chain_mark;

  // The committed schedule, edited in place.  The chain path also keeps
  // pos_of, mapping job index -> current schedule position (replacing
  // the reference's linear find_entry scan).
  std::vector<RuaEntry> schedule;
  std::vector<std::size_t> pos_of;

  // Feasibility prefix sums: prefix[p] = finish time of entry p when
  // the schedule runs back-to-back from `now`; valid for p < watermark
  // (the watermark is maintained across aggregate insertions so each
  // feasibility pass restarts at the first modified position).
  std::vector<Time> prefix;

  // Undo log of one chain aggregate's in-place edits, rolled back in LIFO
  // order when the tentative schedule turns out infeasible.
  struct Undo {
    enum class Kind : std::uint8_t { kInsert, kMove };
    Kind kind = Kind::kInsert;
    std::size_t a = 0;  // insert position / move source position
    std::size_t b = 0;  // move destination position
    RuaEntry saved;     // move: original entry (pre-clamp)
  };
  std::vector<Undo> undo;
};

/// RUA scheduler.  Construct with Sharing::kLockFree for lock-free RUA.
///
/// `detect_deadlocks` enables step 3.  The paper's apples-to-apples
/// comparison (Section 5) excludes nested critical sections, where
/// cycles cannot arise, and turns the detector off; it remains available
/// for the general algorithm and is exercised by tests with synthetic
/// cycles.
class RuaScheduler final : public Scheduler {
 public:
  explicit RuaScheduler(Sharing sharing, bool detect_deadlocks = false);

  std::unique_ptr<Workspace> make_workspace() const override;

  /// `ws` must come from make_workspace (or be nullptr, in which case a
  /// transient workspace is used and the call allocates).
  void build_into(const std::vector<SchedJob>& jobs, Time now,
                  Workspace* ws, ScheduleResult& out) const override;

  std::string name() const override;

  Sharing sharing() const { return sharing_; }

 private:
  void run(const std::vector<SchedJob>& jobs, Time now, RuaWorkspace& ws,
           ScheduleResult& out) const;
  /// The full lock-based algorithm, for a view with a blocked job.
  void run_chains(const std::vector<SchedJob>& jobs, Time now,
                  RuaWorkspace& ws, ScheduleResult& out) const;

  Sharing sharing_;
  bool detect_deadlocks_;
};

}  // namespace lfrt::sched
