// Per-(kind, impl) access cost model for the simulator.
//
// The paper's timing analysis reduces every shared-object access to two
// scalars: s (one lock-free attempt) and r (one lock-based critical
// section).  The lock zoo (lockbased/locks.hpp) differs precisely in
// how cost *scales* with contention — the thing a flat scalar can't
// say:
//
//   * ticket   — every waiter spins on one word, every release
//                invalidates all of them: cost ≈ base + c·contenders
//                with a visible per-contender slope.
//   * anderson — same linear hand-down-the-line FIFO, but each release
//                touches one padded slot: smaller slope than ticket.
//   * mcs      — handoff is one remote store into the successor's own
//                node: near-flat (slope ≈ 0).
//   * mutex    — whatever the platform lock does; measured, not assumed.
//   * lock-free snapshot — double-collect reads are O(segments) with a
//                retry term; queue/stack CAS attempts are near-flat per
//                attempt (interference shows up as retries, which the
//                simulator models separately as f_i events).
//
// A CostModel is a dense (kind, impl) table of AccessCost cells, filled
// in by runtime::calibrate from measurements of the real structures.
// sim::Simulator prices every access attempt from one cell per object.
// The paper's two scalars are the special case CostModel::flat(s, r):
// every lock-free cell costs s, every lock cell costs r, and nothing
// scales — which is what the simulator uses when no table is given.
#pragma once

#include <array>
#include <cstdint>

#include "runtime/object_spec.hpp"
#include "support/time.hpp"

namespace lfrt::runtime {

/// Cost shape of one (kind, impl) cell, all in Time (ns).
struct AccessCost {
  /// Cost of one uncontended access (one lock-free attempt, or acquire
  /// + critical section + release with no one waiting).
  Time base = 0;

  /// Added cost per *other* contender concurrently in or waiting for an
  /// access of the same object (linear model; ticket >> anderson > mcs).
  Time per_contender = 0;

  /// Snapshot only: added cost per collected segment of a scan (a
  /// double-collect reads every segment at least twice; locked scans
  /// copy each once).  Zero for the other kinds.
  Time per_segment = 0;

  /// Added cost of one failed-and-restarted attempt beyond re-running
  /// the attempt itself (validation/backoff overhead).  Applied by the
  /// simulator on each retry of lock-free accesses.
  Time retry_penalty = 0;

  friend bool operator==(const AccessCost&, const AccessCost&) = default;
};

/// Duration of one access attempt under `cost` with `contenders` other
/// jobs contending, plus `retries` restarts so far.  Reads of
/// snapshot-kind objects add the per-segment scan term (writes touch
/// one segment, already in base).  Never returns less than 1 tick — a
/// zero-length access would stall the simulator's progress accounting.
inline Time access_cost(const AccessCost& cost, ObjectKind kind, bool write,
                        std::int64_t contenders, std::int64_t retries = 0) {
  Time t = cost.base + cost.per_contender * contenders +
           cost.retry_penalty * retries;
  if (kind == ObjectKind::kSnapshot && !write)
    t += cost.per_segment * static_cast<Time>(kSnapshotSegments);
  return t < 1 ? 1 : t;
}

/// Dense (kind, impl) table of AccessCost cells.
class CostModel {
 public:
  AccessCost& at(ObjectKind kind, ObjectImpl impl) {
    return cells_[index(kind, impl)];
  }
  const AccessCost& at(ObjectKind kind, ObjectImpl impl) const {
    return cells_[index(kind, impl)];
  }

  /// The paper's two-scalar model as a table: every lock-free cell
  /// costs `lockfree`, every lock cell costs `lock`, no scaling terms.
  /// The simulator prices accesses with this table when it is given
  /// none, so passing it explicitly changes nothing (pinned in tests).
  static CostModel flat(Time lockfree, Time lock) {
    CostModel m;
    for (ObjectKind kind : all_object_kinds())
      for (ObjectImpl impl : all_object_impls())
        m.at(kind, impl).base =
            impl == ObjectImpl::kLockFree ? lockfree : lock;
    return m;
  }

  friend bool operator==(const CostModel&, const CostModel&) = default;

 private:
  static std::size_t index(ObjectKind kind, ObjectImpl impl) {
    return static_cast<std::size_t>(kind) * kObjectImplCount +
           static_cast<std::size_t>(impl);
  }

  std::array<AccessCost, kObjectKindCount * kObjectImplCount> cells_{};
};

}  // namespace lfrt::runtime
