// Frozen naive RUA implementation — the seed repository's scheduler,
// kept verbatim as a correctness oracle and performance baseline.
//
// The optimized RuaScheduler (rua.cpp) must be bit-for-bit equivalent
// to this one: identical schedules, rejections, deadlock victims,
// dispatch choices, and modelled `ops` counts on every input
// (tests/rua_equivalence_test.cpp checks this over randomized
// workloads and at n = 64 and 256; perfbench's sim-sweep replays its
// cells under it).  Do NOT optimize or otherwise modify this implementation — its
// value is that it stays simple enough to audit against the paper's
// pseudo-code (Figures 3-5) and slow enough to show what the workspace
// rework buys.
#pragma once

#include "sched/rua.hpp"
#include "sched/scheduler.hpp"

namespace lfrt::sched {

/// The seed's RuaScheduler: per-call allocation of the index map,
/// chains, PUD array, and a full copy of the tentative schedule on
/// every aggregate insertion, with a linear `find_entry` scan.
class RuaReferenceScheduler final : public Scheduler {
 public:
  explicit RuaReferenceScheduler(Sharing sharing,
                                 bool detect_deadlocks = false);

  void build_into(const std::vector<SchedJob>& jobs, Time now,
                  Workspace* ws, ScheduleResult& out) const override;

  std::string name() const override;

  Sharing sharing() const { return sharing_; }

 private:
  Sharing sharing_;
  bool detect_deadlocks_;
};

}  // namespace lfrt::sched
