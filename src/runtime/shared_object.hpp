// The unified shared-object access layer.
//
// One SharedObject wraps any of the repo's shared structures —
// lockfree::MsQueue / TreiberStack / NbwBuffer / AtomicSnapshot and
// their lock-based counterparts — behind a single
// `access(op, task, job, checkpoint)` surface, selected by ObjectSpec
// {kind, impl}.  Job bodies become object-shape agnostic: the executor
// adapter lowers an AccessSpec to exactly one call here, and which
// structure absorbs the interference is a per-object configuration
// knob, not a fork in the lowering code.  One factory builds the
// structure behind one per-kind adapter whatever the impl, so the
// lock-free and lock-based paths differ only in the structure.
//
// Sharding: shardable objects (object_spec.hpp) are instantiated as
// lockfree::ShardedQueue/ShardedStack — up to kMaxObjectShards full
// stripes behind the same access() surface, with the live stripe count
// (`set_shards`) flipped at run time by the ContentionController.
// Access semantics, rollback, and attribution are unchanged: every
// stripe's ObjectStats feeds the same sinks, and the heatmap cell is
// per *object*, so the three-way sums stay exact across promote/demote.
//
// Attribution: every structure already reports through
// runtime::ObjectStats, whose record_retry/record_acquisition also
// credit the calling thread's sinks.  access() installs a
// ScopedCellSink for the (object, task) cell on top of the job sink the
// executor worker installed, so one underlying CAS failure lands in the
// structure counter, the job's f_i tally, AND the heatmap cell — three
// views of the same event, which is what makes the cross-sum
// invariants in tests/exec_objects_test.cpp checkable.
//
// Abort safety: the mid-access checkpoint may throw rt::JobAborted.
// Queue/stack accesses push before the checkpoint and roll the push
// back in a catch block before rethrowing (Section 3.5's compensation,
// inlined), so no separate abort handler is needed to keep occupancy
// balanced.  Buffer/snapshot operations are indivisible; their
// checkpoint runs after the operation with nothing to roll back.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/contention.hpp"
#include "runtime/latency_histogram.hpp"
#include "runtime/object_spec.hpp"
#include "runtime/object_stats.hpp"
#include "sched/placement.hpp"
#include "task/task.hpp"

namespace lfrt::runtime {

namespace detail {
// One object's structure behind a uniform access step (shared_object.cpp).
class Shape;
}  // namespace detail

/// Direction of one logical access.  Queue/stack: write = insert +
/// remove pair (occupancy-balanced), read = emptiness probe.  Buffer:
/// write/read of the state message.  Snapshot: write = one segment
/// update, read = full double-collect scan.
enum class AccessOp : std::uint8_t { kWrite, kRead };

// kSnapshotSegments moved to object_spec.hpp (the cost model needs it);
// re-exported here via that include for existing users.

/// Dense objects × tasks grid of concurrently-bumpable accounting
/// cells, flattened into the plain ContentionMatrix a report carries.
class ObjectRegistry {
 public:
  ObjectRegistry(std::int32_t object_count, std::int32_t task_count);

  /// The (object, task) cell, or nullptr when either index is out of
  /// range (e.g. free-standing jobs with task == -1): events then keep
  /// flowing to the structure and job counters but skip the heatmap.
  AtomicAccessCell* cell(ObjectId object, TaskId task);

  std::int32_t object_count() const { return objects_; }
  std::int32_t task_count() const { return tasks_; }

  /// Relaxed snapshot of every cell (exact after quiesce).
  ContentionMatrix to_matrix() const;

 private:
  std::int32_t objects_;
  std::int32_t tasks_;
  std::unique_ptr<AtomicAccessCell[]> cells_;
};

/// One shared object of the run's universe: the structure selected by
/// its ObjectSpec plus the uniform access surface over it.
class SharedObject {
 public:
  /// `queue_capacity` bounds the node pool of lock-free queue/stack
  /// shapes (accesses are insert/remove balanced, so steady-state
  /// occupancy stays near the in-flight job count).
  SharedObject(ObjectSpec spec, std::size_t queue_capacity);
  ~SharedObject();

  SharedObject(const SharedObject&) = delete;
  SharedObject& operator=(const SharedObject&) = delete;

  ObjectSpec spec() const { return spec_; }

  /// Perform one logical access on behalf of (task, job).  `checkpoint`
  /// is invoked once mid-access (it may throw to abort the job — see
  /// the rollback notes in the header comment); `cell` — usually from
  /// an ObjectRegistry — receives the access's retry/blocking events
  /// and its completed-op count, and may be null.
  void access(AccessOp op, TaskId task, JobId job,
              const std::function<void()>& checkpoint,
              AtomicAccessCell* cell);

  /// Live stripe count: 1 except on a shardable object (is_shardable),
  /// where the ContentionController may promote it up to
  /// kMaxObjectShards.  set_shards on an unshardable object is a no-op
  /// — the controller never has to special-case shapes.
  std::int32_t shards() const;
  void set_shards(std::int32_t k);

  /// Aggregate counters of the wrapped structure(s) — all stripes, all
  /// tasks, whole run (exact after quiesce).
  ObjectCounts counts() const;

  /// Push–pop pairs the stack's elimination front absorbed (0 for every
  /// other shape).
  std::int64_t eliminations() const;

  /// Structure-operation latency (checkpoint time excluded), always on.
  const LatencyHistogram& latency() const { return latency_; }

 private:
  ObjectSpec spec_;
  /// The structure the factory picked for spec_: a lock-free one or a
  /// Locked*<int, Lock>, behind the same per-kind adapter, so every impl
  /// pays the same one indirect call per access.
  std::unique_ptr<detail::Shape> shape_;
  LatencyHistogram latency_;
};

/// The whole universe of one run: objects built from a per-ObjectId
/// spec list plus the registry that attributes their events.
///
/// Placement instancing: the set resolves `placement` with
/// object_scope (object_spec.hpp), so under a scoping placement every
/// scoped-kind object is instantiated once per cluster and a task's
/// accesses route to the instance named by the live task -> instance
/// map (seeded with each task's cluster; unmapped = instance 0).  The
/// map is atomic so the ContentionController can migrate a task's
/// instance mid-run; an access reads it exactly once, so its paired
/// insert+remove always lands on one instance and per-instance
/// occupancy stays balanced across migrations.  Attribution is
/// unchanged: the heatmap cell is per *logical* object, counts_of /
/// eliminations_of aggregate across instances, so every cross-sum
/// invariant holds as before.
class SharedObjectSet {
 public:
  SharedObjectSet(std::vector<ObjectSpec> specs, std::int32_t task_count,
                  std::size_t queue_capacity,
                  const sched::Placement& placement = {}, int cpu_count = 1);

  std::int32_t object_count() const {
    return static_cast<std::int32_t>(specs_.size());
  }
  const ObjectSpec& spec_of(ObjectId o) const {
    return specs_[static_cast<std::size_t>(o)];
  }

  /// One logical access by (task, job) to object `o`; `checkpoint` runs
  /// mid-access and may throw (rolled back first, then rethrown).
  void access(ObjectId o, AccessOp op, TaskId task, JobId job,
              const std::function<void()>& checkpoint);

  /// Live instance routing for `task` (placement migration).  Values
  /// are clamped into [0, instances) per object at access time.
  void set_task_instance(TaskId task, std::int32_t inst);
  std::int32_t task_instance(TaskId task) const;

  ObjectCounts counts_of(ObjectId o) const;
  std::int32_t shards_of(ObjectId o) const {
    return instances(o)[0]->shards();
  }
  void set_shards(ObjectId o, std::int32_t k);
  std::int64_t eliminations_of(ObjectId o) const;
  const LatencyHistogram& latency_of(ObjectId o) const {
    return instances(o)[0]->latency();
  }

  /// Heatmap snapshot; shard_counts carries each object's live stripe
  /// count at snapshot time.
  ContentionMatrix matrix() const;

 private:
  const std::vector<std::unique_ptr<SharedObject>>& instances(
      ObjectId o) const {
    return objects_[static_cast<std::size_t>(o)];
  }

  std::vector<ObjectSpec> specs_;
  /// o -> its physical instances (one per cluster when scoped).
  std::vector<std::vector<std::unique_ptr<SharedObject>>> objects_;
  std::int32_t task_count_;
  std::unique_ptr<std::atomic<std::int32_t>[]> task_instance_;
  ObjectRegistry registry_;
};

}  // namespace lfrt::runtime
