// Sharded (striped) lock-free containers — the mechanism behind
// contention-adaptive promotion.
//
// A retry storm on one MS queue / Treiber stack is a fight over a
// single cache line (head/tail/top).  Striping the object over k
// independent full structures multiplies the CAS windows: accesses
// spread by task affinity, so tasks landing on different stripes stop
// invalidating each other.  k is *dynamic* — `set_active` is a plain
// release store the ContentionController flips at epoch boundaries
// while workers are mid-operation, which forces two design rules:
//
//   1. All runtime::kMaxObjectShards stripes exist for the object's
//      whole lifetime (each at full capacity).  Demotion only stops
//      *new* pushes from choosing a stripe; elements already in a
//      deactivated stripe stay poppable.
//   2. Pop never trusts the active count for emptiness: after its
//      preferred stripe misses it sweeps every constructed stripe, so
//      no element is stranded across a demote.
//
// Ordering contract: FIFO (queue) / LIFO (stack) holds *per stripe*.
// Pushes carry an affinity hint (the accessing task id) and a stable
// hint maps to a stable stripe while the active count is unchanged, so
// the per-task order the unified access layer tests rely on survives
// sharding; cross-stripe order is unspecified, exactly like any choice
// among k distinct objects.
//
// Counting contract (what keeps attribution exact): every stripe owns
// its ObjectStats, so record_retry/record_backoff flow to the per-job
// and per-cell sinks identically to the unsharded structures; `counts`
// aggregates the stripes.  Conservation is defined on the public
// ledger — (#push calls returning true) − (#pops returning a value) ==
// elements left at quiesce — which promote/demote cannot disturb.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <type_traits>

#include "lockfree/elimination.hpp"
#include "lockfree/msqueue.hpp"
#include "lockfree/treiber_stack.hpp"
#include "runtime/object_spec.hpp"
#include "runtime/object_stats.hpp"
#include "support/cacheline.hpp"

namespace lfrt::lockfree {

namespace detail {

/// Stripe bookkeeping shared by queue and stack: the active count and
/// the hint → stripe map.  Padded so the hot `active_` word does not
/// false-share with the first stripe's head pointer.
class alignas(support::kCacheLineSize) ShardDirectory {
 public:
  explicit ShardDirectory(std::int32_t initial)
      : active_(runtime::clamp_shards(initial)) {}

  std::int32_t active() const {
    return active_.load(std::memory_order_acquire);
  }

  void set_active(std::int32_t k) {
    active_.store(runtime::clamp_shards(k), std::memory_order_release);
  }

  /// Stripe a push/pop with affinity `hint` starts on.
  std::int32_t home(std::int32_t hint) const {
    const std::int32_t k = active();
    if (k <= 1) return 0;
    const std::uint32_t h = static_cast<std::uint32_t>(hint);
    return static_cast<std::int32_t>(h % static_cast<std::uint32_t>(k));
  }

 private:
  std::atomic<std::int32_t> active_;
};

}  // namespace detail

/// MS queue striped over up to kMaxObjectShards independent queues.
template <typename T>
class ShardedQueue {
 public:
  static constexpr std::int32_t kMaxShards = runtime::kMaxObjectShards;

  /// Every stripe gets the full `capacity`: promotion must never turn a
  /// push that would have succeeded unsharded into a spurious failure.
  ShardedQueue(std::size_t capacity, std::int32_t initial_shards = 1)
      : dir_(initial_shards) {
    for (std::int32_t s = 0; s < kMaxShards; ++s)
      stripes_[s].q.emplace(capacity);
  }

  bool push(const T& value, std::int32_t hint = 0) {
    return stripes_[dir_.home(hint)].q->enqueue(value);
  }

  /// Preferred-stripe dequeue with a full sweep on miss (rule 2 above).
  std::optional<T> pop(std::int32_t hint = 0) {
    const std::int32_t home = dir_.home(hint);
    if (auto v = stripes_[home].q->dequeue()) return v;
    for (std::int32_t off = 1; off < kMaxShards; ++off) {
      const std::int32_t s = (home + off) % kMaxShards;
      if (auto v = stripes_[s].q->dequeue()) return v;
    }
    return std::nullopt;
  }

  bool empty() const {
    for (std::int32_t s = 0; s < kMaxShards; ++s)
      if (!stripes_[s].q->empty()) return false;
    return true;
  }

  std::int32_t active() const { return dir_.active(); }
  void set_active(std::int32_t k) { dir_.set_active(k); }

  /// Aggregate counters over every stripe (exact after quiesce).
  runtime::ObjectCounts counts() const {
    runtime::ObjectCounts sum;
    for (std::int32_t s = 0; s < kMaxShards; ++s)
      sum += stripes_[s].q->stats().counts();
    return sum;
  }

 private:
  struct alignas(support::kCacheLineSize) Stripe {
    std::optional<MsQueue<T>> q;
  };
  detail::ShardDirectory dir_;
  Stripe stripes_[kMaxShards];
};

/// Treiber stack striped the same way, with an elimination front for
/// push–pop pairs.  The front only engages while the object is promoted
/// (active > 1): that is exactly when the structure is known to be in a
/// retry storm, and when it is not, the unsharded fast path should not
/// pay the advertisement window.
template <typename T>
class ShardedStack {
 public:
  static constexpr std::int32_t kMaxShards = runtime::kMaxObjectShards;

  ShardedStack(std::size_t capacity, std::int32_t initial_shards = 1)
      : dir_(initial_shards) {
    for (std::int32_t s = 0; s < kMaxShards; ++s)
      stripes_[s].st.emplace(capacity);
  }

  bool push(const T& value, std::int32_t hint = 0) {
    if (dir_.active() > 1 && try_eliminate_push(value)) return true;
    return stripes_[dir_.home(hint)].st->push(value);
  }

  std::optional<T> pop(std::int32_t hint = 0) {
    if (dir_.active() > 1) {
      if (auto v = front_.exchange_pop()) {
        eliminations_.fetch_add(1, std::memory_order_relaxed);
        return v;
      }
    }
    const std::int32_t home = dir_.home(hint);
    if (auto v = stripes_[home].st->pop()) return v;
    for (std::int32_t off = 1; off < kMaxShards; ++off) {
      const std::int32_t s = (home + off) % kMaxShards;
      if (auto v = stripes_[s].st->pop()) return v;
    }
    return std::nullopt;
  }

  bool empty() const {
    for (std::int32_t s = 0; s < kMaxShards; ++s)
      if (!stripes_[s].st->empty()) return false;
    return true;
  }

  std::int32_t active() const { return dir_.active(); }
  void set_active(std::int32_t k) { dir_.set_active(k); }

  /// Push–pop pairs that exchanged through the front (never touched a
  /// stripe).  Ledger-neutral: +1 push, +1 pop, 0 elements.
  std::int64_t eliminations() const {
    return eliminations_.load(std::memory_order_relaxed);
  }

  runtime::ObjectCounts counts() const {
    runtime::ObjectCounts sum;
    for (std::int32_t s = 0; s < kMaxShards; ++s)
      sum += stripes_[s].st->stats().counts();
    return sum;
  }

 private:
  bool try_eliminate_push(const T& value) {
    if constexpr (std::is_same_v<T, int>) {
      return front_.exchange_push(value);
    } else {
      (void)value;
      return false;
    }
  }

  struct alignas(support::kCacheLineSize) Stripe {
    std::optional<TreiberStack<T>> st;
  };
  detail::ShardDirectory dir_;
  Stripe stripes_[kMaxShards];
  EliminationArray front_;
  std::atomic<std::int64_t> eliminations_{0};
};

}  // namespace lfrt::lockfree
