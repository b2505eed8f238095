#include "runtime/shared_object.hpp"

#include <chrono>
#include <mutex>

#include "lockbased/locked.hpp"
#include "lockbased/locks.hpp"
#include "lockfree/sharded.hpp"
#include "lockfree/snapshot.hpp"
#include "lockfree/nbw_buffer.hpp"
#include "support/check.hpp"

namespace lfrt::runtime {

namespace detail {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Accumulates structure-op time across the access, excluding whatever
/// runs between segments (the checkpoint).
class LatencyProbe {
 public:
  void begin() { start_ = now_ns(); }
  void end() { elapsed_ += now_ns() - start_; }
  std::int64_t elapsed() const { return elapsed_; }

 private:
  std::int64_t start_ = 0;
  std::int64_t elapsed_ = 0;
};

using Checkpoint = std::function<void()>;

/// One object's structure and the structure operations of one access.
/// `hint` is the accessing task (>= 0): the stripe affinity of a
/// sharded queue/stack and the snapshot writer's segment.
class Shape {
 public:
  virtual ~Shape() = default;
  virtual void access(AccessOp op, std::int32_t hint, int v,
                      const Checkpoint& checkpoint, LatencyProbe& probe) = 0;
  virtual ObjectCounts counts() const = 0;
  virtual std::int32_t shards() const { return 1; }
  virtual void set_shards(std::int32_t) {}
  virtual std::int64_t eliminations() const { return 0; }
};

}  // namespace detail

namespace {

using detail::Checkpoint;
using detail::LatencyProbe;
using detail::Shape;

/// Sharded queue/stack: the lock-free structures; they take the stripe
/// hint and aggregate their stripes' counters themselves.
template <typename S>
concept Sharded = requires(S& s) { s.set_active(1); };

/// Queue/stack adapter over ShardedQueue/ShardedStack or
/// LockedQueue/LockedStack.  A write inserts, exposes the mid-access
/// checkpoint, then removes; a throw from the checkpoint removes first,
/// so occupancy stays balanced without an abort handler.  A read probes
/// emptiness: a constant-time observation that still exercises the
/// structure's shared state under interference.
template <typename S>
class PairShape final : public Shape {
 public:
  template <typename... Args>
  explicit PairShape(Args... args) : s_(args...) {}

  void access(AccessOp op, std::int32_t hint, int v,
              const Checkpoint& checkpoint, LatencyProbe& probe) override {
    probe.begin();
    if (op == AccessOp::kRead) {
      (void)s_.empty();
      probe.end();
      checkpoint();
      return;
    }
    insert(v, hint);
    probe.end();
    try {
      checkpoint();
    } catch (...) {
      remove(hint);
      throw;
    }
    probe.begin();
    remove(hint);
    probe.end();
  }

  ObjectCounts counts() const override {
    if constexpr (Sharded<S>) return s_.counts();
    else return s_.stats().counts();
  }
  std::int32_t shards() const override {
    if constexpr (Sharded<S>) return s_.active();
    else return 1;
  }
  void set_shards(std::int32_t k) override {
    if constexpr (Sharded<S>) s_.set_active(k);
  }
  std::int64_t eliminations() const override {
    if constexpr (requires { s_.eliminations(); }) return s_.eliminations();
    else return 0;
  }

 private:
  // Full-pool inserts are dropped; capacity is sized so balanced
  // accesses never fill it.
  void insert(int v, std::int32_t hint) {
    if constexpr (Sharded<S>) (void)s_.push(v, hint);
    else if constexpr (requires { s_.enqueue(v); }) s_.enqueue(v);
    else s_.push(v);
  }
  void remove(std::int32_t hint) {
    if constexpr (Sharded<S>) (void)s_.pop(hint);
    else if constexpr (requires { s_.dequeue(); }) (void)s_.dequeue();
    else (void)s_.pop();
  }

  S s_;
};

/// Buffer/snapshot adapter over NbwBuffer/AtomicSnapshot or
/// LockedBuffer/LockedSnapshot.  The operation is indivisible; the
/// checkpoint runs after it with nothing to roll back.  Writers hold
/// `WriterLock` across the write only, never across the checkpoint.
template <typename S, typename WriterLock>
class StateShape final : public Shape {
 public:
  void access(AccessOp op, std::int32_t hint, int v,
              const Checkpoint& checkpoint, LatencyProbe& probe) override {
    probe.begin();
    if (op == AccessOp::kWrite) {
      std::lock_guard<WriterLock> g(writer_mu_);
      if constexpr (requires { s_.scan(); })
        s_.update(static_cast<std::size_t>(hint) % kSnapshotSegments, v);
      else
        s_.write(v);
    } else {
      if constexpr (requires { s_.scan(); }) (void)s_.scan();
      else (void)s_.read();
    }
    probe.end();
    checkpoint();
  }

  ObjectCounts counts() const override { return s_.stats().counts(); }

 private:
  S s_;
  WriterLock writer_mu_;
};

/// The lock-based shapes' writer lock: their own lock already
/// serializes writers.
struct NoWriterLock {
  void lock() {}
  void unlock() {}
};

/// The four kinds of one mechanism; `pair_args` build the queue/stack.
template <typename Queue, typename Stack, typename Buffer, typename Snapshot,
          typename WriterLock, typename... PairArgs>
std::unique_ptr<Shape> make_kind(ObjectKind kind, PairArgs... pair_args) {
  switch (kind) {
    case ObjectKind::kQueue:
      return std::make_unique<PairShape<Queue>>(pair_args...);
    case ObjectKind::kStack:
      return std::make_unique<PairShape<Stack>>(pair_args...);
    case ObjectKind::kBuffer:
      return std::make_unique<StateShape<Buffer, WriterLock>>();
    case ObjectKind::kSnapshot:
      return std::make_unique<StateShape<Snapshot, WriterLock>>();
  }
  __builtin_unreachable();
}

template <typename Lock>
std::unique_ptr<Shape> make_locked(ObjectKind kind) {
  return make_kind<lockbased::LockedQueue<int, Lock>,
                   lockbased::LockedStack<int, Lock>,
                   lockbased::LockedBuffer<int, Lock>,
                   lockbased::LockedSnapshot<int, kSnapshotSegments, Lock>,
                   NoWriterLock>(kind);
}

/// The one factory over (kind, impl).  NBW's and the snapshot's
/// single-writer preconditions are upheld by a writer mutex when
/// arbitrary tasks write (even to different segments, so concurrent
/// jobs of one task can't co-write a segment).  It is deliberately
/// uncounted: scaffolding for the precondition the paper says is hard
/// to meet in dynamic systems, not part of the measured protocol.
std::unique_ptr<Shape> make_shape(const ObjectSpec& spec,
                                  std::size_t queue_capacity) {
  switch (spec.impl) {
    case ObjectImpl::kLockFree:
      return make_kind<lockfree::ShardedQueue<int>,
                       lockfree::ShardedStack<int>, lockfree::NbwBuffer<int>,
                       lockfree::AtomicSnapshot<int, kSnapshotSegments>,
                       std::mutex>(spec.kind, queue_capacity,
                                   initial_shards(spec));
    case ObjectImpl::kMutex:
      return make_locked<std::mutex>(spec.kind);
    case ObjectImpl::kTicket:
      return make_locked<lockbased::TicketLock>(spec.kind);
    case ObjectImpl::kAnderson:
      return make_locked<lockbased::AndersonArrayLock>(spec.kind);
    case ObjectImpl::kMcs:
      return make_locked<lockbased::McsLock>(spec.kind);
  }
  __builtin_unreachable();
}

}  // namespace

// --- ObjectRegistry ---

ObjectRegistry::ObjectRegistry(std::int32_t object_count,
                               std::int32_t task_count)
    : objects_(object_count),
      tasks_(task_count),
      cells_(std::make_unique<AtomicAccessCell[]>(
          static_cast<std::size_t>(object_count) *
          static_cast<std::size_t>(task_count))) {}

AtomicAccessCell* ObjectRegistry::cell(ObjectId object, TaskId task) {
  if (object < 0 || object >= objects_ || task < 0 || task >= tasks_)
    return nullptr;
  return &cells_[static_cast<std::size_t>(object) *
                     static_cast<std::size_t>(tasks_) +
                 static_cast<std::size_t>(task)];
}

ContentionMatrix ObjectRegistry::to_matrix() const {
  ContentionMatrix m(objects_, tasks_);
  for (std::int32_t o = 0; o < objects_; ++o) {
    for (std::int32_t t = 0; t < tasks_; ++t) {
      const AtomicAccessCell& c =
          cells_[static_cast<std::size_t>(o) * static_cast<std::size_t>(tasks_) +
                 static_cast<std::size_t>(t)];
      ContentionCell& out = m.at(o, t);
      out.ops = c.ops.load(std::memory_order_relaxed);
      out.retries = c.retries.load(std::memory_order_relaxed);
      out.blockings = c.blockings.load(std::memory_order_relaxed);
    }
  }
  return m;
}

// --- SharedObject ---

SharedObject::SharedObject(ObjectSpec spec, std::size_t queue_capacity)
    : spec_(spec), shape_(make_shape(spec, queue_capacity)) {}

SharedObject::~SharedObject() = default;

std::int32_t SharedObject::shards() const { return shape_->shards(); }
void SharedObject::set_shards(std::int32_t k) { shape_->set_shards(k); }
ObjectCounts SharedObject::counts() const { return shape_->counts(); }
std::int64_t SharedObject::eliminations() const {
  return shape_->eliminations();
}

void SharedObject::access(AccessOp op, TaskId task, JobId job,
                          const std::function<void()>& checkpoint,
                          AtomicAccessCell* cell) {
  ScopedCellSink sink(cell);
  // Stripe affinity: a stable task id maps to a stable stripe while the
  // active count is unchanged, and a write's pop starts on the stripe
  // its push used.
  const std::int32_t hint = task < 0 ? 0 : static_cast<std::int32_t>(task);
  detail::LatencyProbe probe;
  shape_->access(op, hint, static_cast<int>(job), checkpoint, probe);
  latency_.record(probe.elapsed());
  if (cell != nullptr) cell->ops.fetch_add(1, std::memory_order_relaxed);
}

// --- SharedObjectSet ---

SharedObjectSet::SharedObjectSet(std::vector<ObjectSpec> specs,
                                 std::int32_t task_count,
                                 std::size_t queue_capacity,
                                 const sched::Placement& placement,
                                 int cpu_count)
    : specs_(std::move(specs)),
      task_count_(task_count),
      registry_(static_cast<std::int32_t>(specs_.size()), task_count) {
  const ObjectScope scope = object_scope(specs_, placement, cpu_count);
  objects_.resize(specs_.size());
  for (std::size_t o = 0; o < specs_.size(); ++o)
    for (std::int32_t i = 0; i < scope.instances[o]; ++i)
      objects_[o].push_back(
          std::make_unique<SharedObject>(specs_[o], queue_capacity));
  if (task_count_ > 0) {
    task_instance_ = std::make_unique<std::atomic<std::int32_t>[]>(
        static_cast<std::size_t>(task_count_));
    for (TaskId t = 0; t < task_count_; ++t)
      task_instance_[static_cast<std::size_t>(t)].store(
          scope.task_instance(placement, t), std::memory_order_relaxed);
  }
}

void SharedObjectSet::set_task_instance(TaskId task, std::int32_t inst) {
  if (task < 0 || task >= task_count_) return;
  task_instance_[static_cast<std::size_t>(task)].store(
      inst, std::memory_order_relaxed);
}

std::int32_t SharedObjectSet::task_instance(TaskId task) const {
  if (task < 0 || task >= task_count_) return 0;
  return task_instance_[static_cast<std::size_t>(task)].load(
      std::memory_order_relaxed);
}

void SharedObjectSet::access(ObjectId o, AccessOp op, TaskId task, JobId job,
                             const std::function<void()>& checkpoint) {
  LFRT_CHECK_MSG(o >= 0 && o < object_count(), "object id out of range");
  const auto& inst = instances(o);
  const std::int32_t n = static_cast<std::int32_t>(inst.size());
  // One relaxed read per access: the paired insert+remove of a write
  // can never straddle a migration, so per-instance occupancy stays
  // balanced.
  std::int32_t i = n > 1 ? task_instance(task) : 0;
  if (i < 0 || i >= n) i = 0;
  inst[static_cast<std::size_t>(i)]->access(op, task, job, checkpoint,
                                            registry_.cell(o, task));
}

ObjectCounts SharedObjectSet::counts_of(ObjectId o) const {
  ObjectCounts total;
  for (const auto& obj : instances(o)) total += obj->counts();
  return total;
}

void SharedObjectSet::set_shards(ObjectId o, std::int32_t k) {
  for (const auto& obj : instances(o)) obj->set_shards(k);
}

std::int64_t SharedObjectSet::eliminations_of(ObjectId o) const {
  std::int64_t total = 0;
  for (const auto& obj : instances(o)) total += obj->eliminations();
  return total;
}

ContentionMatrix SharedObjectSet::matrix() const {
  ContentionMatrix m = registry_.to_matrix();
  m.shard_counts.reserve(specs_.size());
  for (ObjectId o = 0; o < object_count(); ++o)
    m.shard_counts.push_back(shards_of(o));
  return m;
}

}  // namespace lfrt::runtime
