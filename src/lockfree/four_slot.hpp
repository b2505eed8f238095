// Simpson's four-slot fully wait-free single-writer/single-reader
// register, and a replicated multi-reader construction on top of it.
//
// The paper's related work (Section 1.1) contrasts lock-free sharing
// with wait-free protocols [3, 6, 7, 14, 16]: wait-free operations
// complete in a bounded number of steps with NO retries, but pay space
// and need a-priori knowledge of the communicating parties.  These two
// classes are made concrete here:
//
//   * FourSlot<T>   — 1 writer, 1 reader, 4 buffers, zero retries ever.
//   * WaitFreeSwmr<T> — 1 writer, R readers, by replicating a FourSlot
//     per reader: reads stay O(1) and retry-free, but the writer pays
//     O(R) per write and the structure 4R buffers — and R must be known
//     up front, exactly the a-priori knowledge the paper says is hard
//     to obtain in dynamic systems (its reason to prefer lock-free).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "lockfree/annotate.hpp"
#include "runtime/object_stats.hpp"
#include "support/check.hpp"

namespace lfrt::lockfree {

/// Simpson's four-slot algorithm: asynchronous, wait-free on both
/// sides, never tears, reader always sees the latest completed write or
/// a newer one.
///
/// The algorithm rests on a store→load handshake on each side.  The
/// reader announces its pair (`reading_` store) and only then picks the
/// slot (`last_slot_` load); the writer publishes its pair (`last_pair_`
/// store) and on its next write reads the announcement (`reading_`
/// load) to steer clear of the reader's pair.  Acquire/release lets each
/// side's load pass its own earlier store (a store buffer does exactly
/// that on x86), after which the writer can overwrite the very slot the
/// reader is copying — a torn read — or the reader can pick a slot
/// older than one it has already seen.  Those four operations are
/// therefore seq_cst, the only ordering that forbids store→load
/// reordering; the rest stay acquire/release.  The slot copies go
/// through the relaxed value-slot helpers (lockfree/annotate.hpp), as in
/// the NBW buffer and the MS queue, so a copy that overlaps a write is a
/// torn value a test can see rather than undefined behaviour.
template <typename T>
class FourSlot {
  static_assert(std::is_trivially_copyable_v<T>,
                "slots are copied field-blind");

 public:
  explicit FourSlot(const T& initial = T{}) {
    data_[0][0] = initial;
    data_[1][0] = initial;
  }

  /// Wait-free write (single writer).
  void write(const T& value) {
    // Write into the pair the reader is NOT using, alternating slots
    // within the pair so a concurrent read of the other slot is safe.
    const int pair = 1 - reading_.load(std::memory_order_seq_cst);
    const int slot = 1 - last_slot_[pair].load(std::memory_order_relaxed);
    detail::store_value_slot(data_[pair][slot], value);
    last_slot_[pair].store(slot, std::memory_order_release);
    last_pair_.store(pair, std::memory_order_seq_cst);
    stats_.record_op();
  }

  /// Wait-free read (single reader).
  T read() const {
    const int pair = last_pair_.load(std::memory_order_acquire);
    reading_.store(pair, std::memory_order_seq_cst);
    const int slot = last_slot_[pair].load(std::memory_order_seq_cst);
    stats_.record_op();
    return detail::load_value_slot(const_cast<T&>(data_[pair][slot]));
  }

  /// Retries stay zero by construction — the wait-free contrast point.
  const runtime::ObjectStats& stats() const { return stats_; }

 private:
  T data_[2][2]{};
  std::atomic<int> last_pair_{0};          // pair holding the latest write
  mutable std::atomic<int> reading_{0};    // pair the reader announced
  std::atomic<int> last_slot_[2]{{0}, {0}};
  mutable runtime::ObjectStats stats_;
};

/// Wait-free single-writer/multi-reader register built from one
/// FourSlot per reader.  Reader identities are fixed at construction.
template <typename T>
class WaitFreeSwmr {
 public:
  WaitFreeSwmr(std::size_t readers, const T& initial = T{}) {
    LFRT_CHECK_MSG(readers >= 1, "need at least one reader");
    replicas_.reserve(readers);
    for (std::size_t r = 0; r < readers; ++r)
      replicas_.push_back(std::make_unique<FourSlot<T>>(initial));
  }

  /// Wait-free write: O(R) slot writes, no retries.
  void write(const T& value) {
    for (auto& rep : replicas_) rep->write(value);
    stats_.record_op();
  }

  /// Wait-free read for reader `r` (each reader id must be used by at
  /// most one thread): O(1), no retries.
  T read(std::size_t r) const {
    stats_.record_op();
    return replicas_[r]->read();
  }

  std::size_t readers() const { return replicas_.size(); }

  /// Buffers consumed — the space cost of wait-freedom the paper notes.
  std::size_t buffer_count() const { return 4 * replicas_.size(); }

  /// Aggregate over the whole register (replica slots count their own).
  const runtime::ObjectStats& stats() const { return stats_; }

 private:
  std::vector<std::unique_ptr<FourSlot<T>>> replicas_;
  mutable runtime::ObjectStats stats_;
};

}  // namespace lfrt::lockfree
