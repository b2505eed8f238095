// Per-object shared-object specification — the vocabulary both
// execution substrates speak.
//
// Brandenburg's locking-protocol survey organizes results by *access
// pattern* (queue/stack vs reader-writer vs snapshot) and by
// *mechanism* (how an acquire waits); this header is both axes for our
// object universe.  An ObjectSpec names, for one ObjectId, (a) the
// access pattern the object serves (kind) and (b) the synchronization
// mechanism implementing it (impl) — lock-free CAS retries or one of
// the lock zoo's mechanisms (std::mutex, ticket, Anderson array, MCS
// queue; lockbased/locks.hpp).  The simulator uses the impl to pick its
// per-object cost/blocking model (runtime/cost_model.hpp); the executor
// adapter (runtime::SharedObject) instantiates the matching real
// structure.  The two object-layer rules both substrates apply —
// which objects stripe, and which get one instance per cluster — are
// stated here once.  Deliberately header-light: sim::SimConfig
// includes this without dragging in src/lockfree / src/lockbased.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/placement.hpp"
#include "support/check.hpp"

namespace lfrt::runtime {

/// Access pattern of one shared object.
enum class ObjectKind : std::uint8_t {
  kQueue,     ///< MPMC FIFO (MS queue / locked queue) — the paper's shape
  kStack,     ///< MPMC LIFO (Treiber stack / locked stack)
  kBuffer,    ///< single-writer state message (NBW buffer / locked buffer)
  kSnapshot,  ///< N-segment atomic snapshot (double-collect / locked)
};

/// Synchronization mechanism implementing the object.
enum class ObjectImpl : std::uint8_t {
  kLockFree,  ///< CAS/version retries under interference (f_i events)
  kMutex,     ///< std::mutex mutual exclusion; blocking episodes (n_i)
  kTicket,    ///< FIFO ticket spin lock — all waiters share one word
  kAnderson,  ///< FIFO array spin lock — padded per-waiter slots
  kMcs,       ///< FIFO queue spin lock — local spin, one-line handoff
};

/// The occupancy-balanced kinds: a write is an insert + remove pair and
/// accesses carry no cross-task data dependency, so a per-cluster
/// instance is semantically equivalent to the shared one.
/// Buffer/snapshot are single-writer broadcast state.
inline constexpr bool is_scoped_kind(ObjectKind kind) {
  return kind == ObjectKind::kQueue || kind == ObjectKind::kStack;
}

/// Number of distinct ObjectImpl mechanisms.
inline constexpr std::size_t kObjectImplCount = 5;
/// Number of ObjectKind access patterns.
inline constexpr std::size_t kObjectKindCount = 4;

/// Every kind / every distinct impl, in enum order — the sweep axes the
/// heatmap and crossover benches iterate.
inline constexpr std::array<ObjectKind, kObjectKindCount> all_object_kinds() {
  return {ObjectKind::kQueue, ObjectKind::kStack, ObjectKind::kBuffer,
          ObjectKind::kSnapshot};
}
inline constexpr std::array<ObjectImpl, kObjectImplCount> all_object_impls() {
  return {ObjectImpl::kLockFree, ObjectImpl::kMutex, ObjectImpl::kTicket,
          ObjectImpl::kAnderson, ObjectImpl::kMcs};
}
/// The lock mechanisms only (everything that blocks rather than
/// retries), in enum order.
inline constexpr std::array<ObjectImpl, kObjectImplCount - 1> lock_impls() {
  return {ObjectImpl::kMutex, ObjectImpl::kTicket, ObjectImpl::kAnderson,
          ObjectImpl::kMcs};
}

/// Whether `impl` serializes by blocking (any lock mechanism) as
/// opposed to retrying (lock-free).  The simulator's blocking-vs-retry
/// fork and the controller's shardability test key off this, never off
/// equality with one particular lock.
inline constexpr bool is_lock_based(ObjectImpl impl) {
  return impl != ObjectImpl::kLockFree;
}

/// Hard cap on the shard fan-out of one object (compile-time: shard
/// headers and the simulator's per-shard conflict state are sized by
/// it).  8 stripes already spread 8 hammering tasks one-per-stripe.
inline constexpr std::int32_t kMaxObjectShards = 8;

/// Segment fan-out of snapshot-kind objects (fixed at compile time; the
/// writer's segment is chosen by task id modulo this).  Lives here —
/// not in shared_object.hpp — because the cost model's per-segment scan
/// term needs it without depending on the access layer.
inline constexpr std::size_t kSnapshotSegments = 4;

/// One shared object of a run's universe, indexed by ObjectId.
struct ObjectSpec {
  ObjectKind kind = ObjectKind::kQueue;
  ObjectImpl impl = ObjectImpl::kLockFree;

  /// Initial stripe count of a shardable object (clamped to
  /// [1, kMaxObjectShards]; see is_shardable): accesses spread
  /// over `shards` independent structures by task affinity, so tasks
  /// landing on different stripes stop invalidating each other's CAS
  /// windows.  1 — the default — is the unsharded structure.
  std::int32_t shards = 1;

  /// Opt a shardable object into the online ContentionController: its
  /// stripe count is then promoted/demoted at run time from the live
  /// ContentionMatrix (shards above is the starting point and the
  /// demotion floor).  Ignored on every other object.
  bool adapt = false;

  friend bool operator==(const ObjectSpec&, const ObjectSpec&) = default;
};

/// ObjectSpec::shards clamped to the representable range.
inline std::int32_t clamp_shards(std::int32_t shards) {
  if (shards < 1) return 1;
  if (shards > kMaxObjectShards) return kMaxObjectShards;
  return shards;
}

// --- Rule 1, shardable: only a lock-free queue/stack stripes.  Its
// `shards` is the initial stripe count and `adapt` hands that count to
// the ContentionController; every other object has one stripe and
// ignores both fields. ---

inline constexpr bool is_shardable(const ObjectSpec& s) {
  return !is_lock_based(s.impl) && is_scoped_kind(s.kind);
}
inline std::int32_t initial_shards(const ObjectSpec& s) {
  return is_shardable(s) ? clamp_shards(s.shards) : 1;
}
inline constexpr bool is_adaptive(const ObjectSpec& s) {
  return is_shardable(s) && s.adapt;
}

// --- Rule 2, scoped instancing: under a non-global placement with
// scope_objects, every scoped-kind object is instantiated once per
// cluster and a task's accesses go to its own cluster's instance
// (instance 0 when unplaced), so tasks in disjoint clusters touch
// disjoint structures. ---

inline bool is_scoped(const ObjectSpec& s, const sched::Placement& p) {
  return !p.global() && p.scope_objects && is_scoped_kind(s.kind);
}

/// Rule 2 resolved for one run (see object_scope).
struct ObjectScope {
  std::int32_t clusters = 1;
  std::vector<std::int32_t> instances;  ///< per object: clusters or 1
  bool any = false;                     ///< some object is scoped

  /// Instance a task's accesses to a scoped object land on under the
  /// live placement `p`.
  std::int32_t task_instance(const sched::Placement& p, TaskId t) const {
    const std::int32_t c = p.cluster_of_task(t);
    return c >= 0 && c < clusters ? c : 0;
  }
};

/// Resolve rule 2 for (specs, placement, cpu_count), rejecting what
/// neither substrate models: the simulator reuses an object's stripe
/// index space for its cluster instances, so a run that scopes any
/// object allows at most kMaxObjectShards clusters, no adaptive object,
/// and no static stripes on a scoped object.
inline ObjectScope object_scope(const std::vector<ObjectSpec>& specs,
                                 const sched::Placement& p, int cpu_count) {
  ObjectScope scope;
  scope.clusters = p.cluster_count(cpu_count);
  for (const ObjectSpec& s : specs) {
    scope.any = scope.any || is_scoped(s, p);
    scope.instances.push_back(is_scoped(s, p) ? scope.clusters : 1);
  }
  if (!scope.any) return scope;
  LFRT_CHECK_MSG(scope.clusters <= kMaxObjectShards,
                 "scoped placement supports at most kMaxObjectShards "
                 "clusters");
  for (const ObjectSpec& s : specs) {
    LFRT_CHECK_MSG(!is_adaptive(s),
                   "scoped placement excludes adaptive sharding");
    LFRT_CHECK_MSG(!is_scoped(s, p) || initial_shards(s) == 1,
                   "scoped placement excludes static sharding on "
                   "queue/stack objects");
  }
  return scope;
}

// to_string for both enums is exhaustive by construction: no default
// case, so -Wswitch flags a new enumerator at compile time, and the
// trailing unreachable keeps a corrupted value from leaking a "?" into
// JSON output.

inline std::string to_string(ObjectKind kind) {
  switch (kind) {
    case ObjectKind::kQueue:
      return "queue";
    case ObjectKind::kStack:
      return "stack";
    case ObjectKind::kBuffer:
      return "buffer";
    case ObjectKind::kSnapshot:
      return "snapshot";
  }
  __builtin_unreachable();
}

inline std::string to_string(ObjectImpl impl) {
  switch (impl) {
    case ObjectImpl::kLockFree:
      return "lock-free";
    case ObjectImpl::kMutex:
      return "mutex";
    case ObjectImpl::kTicket:
      return "ticket";
    case ObjectImpl::kAnderson:
      return "anderson";
    case ObjectImpl::kMcs:
      return "mcs";
  }
  __builtin_unreachable();
}

/// Parse "queue" | "stack" | "buffer" | "snapshot" (bench --objects=
/// flags).  Returns false on anything else.
inline bool parse_object_kind(const std::string& s, ObjectKind* out) {
  if (s == "queue") *out = ObjectKind::kQueue;
  else if (s == "stack") *out = ObjectKind::kStack;
  else if (s == "buffer") *out = ObjectKind::kBuffer;
  else if (s == "snapshot") *out = ObjectKind::kSnapshot;
  else return false;
  return true;
}

/// A homogeneous universe: `count` objects of the same kind and impl.
inline std::vector<ObjectSpec> uniform_objects(std::int32_t count,
                                               ObjectKind kind,
                                               ObjectImpl impl) {
  return std::vector<ObjectSpec>(static_cast<std::size_t>(count),
                                 ObjectSpec{kind, impl});
}

}  // namespace lfrt::runtime
