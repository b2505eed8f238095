// Wait-free single-producer/single-consumer FIFO.
//
// Included as a contrast structure: the paper's related work (Kopetz's
// NBW protocol [16] and successors [6, 7, 14]) covers wait-free sharing,
// which completes in a *bounded* number of steps but needs a-priori
// knowledge of the communicating parties.  For the SPSC special case a
// ring buffer is wait-free with no retries at all; examples use it to
// illustrate the retry-free end of the design space, and rt::IngestLane
// stages every offered job in one.
//
// Capacity is a bound, not a reservation.  Storage is a ring of
// fixed-size segments (the layout of Cameron Desrochers'
// ReaderWriterQueue): the producer fills a segment, then moves into the
// next one once the consumer has left it, and allocates a new segment
// only when the consumer still occupies the next.  So memory follows the
// occupancy high-water, at most ceil(capacity / kSegmentSlots) + 1
// segments, whatever the capacity; a push allocates only when it is the
// first to reach a segment the ring has not held before.  Once the ring
// has grown to its high-water, both sides are wait-free and allocate
// nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "support/cacheline.hpp"
#include "support/check.hpp"

namespace lfrt::lockfree {

/// Bounded SPSC FIFO.  One thread may call push, one thread may call
/// pop; neither side ever retries or waits for the other, and both are
/// wait-free once the ring has grown to its occupancy high-water.
template <typename T>
class SpscRing {
 public:
  /// Slots per segment: the unit in which storage grows.
  static constexpr std::size_t kSegmentSlots = 64;

  /// Allocates one segment; further ones come on demand (see above).
  explicit SpscRing(std::size_t capacity) : capacity_(capacity) {
    LFRT_CHECK_MSG(capacity >= 1, "ring needs capacity >= 1");
    write_seg_ = read_seg_ = new Segment;
    write_seg_->limit = kSegmentSlots + 1;  // stepped off at kSegmentSlots
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  ~SpscRing() {
    const std::size_t end = pushed_.load(std::memory_order_relaxed);
    std::size_t pos = popped_.load(std::memory_order_relaxed);
    Segment* seg = read_seg_;
    for (; pos != end; ++pos) slot_of(seg, pos).~T();
    Segment* s = write_seg_->next;
    while (s != write_seg_) {
      Segment* next = s->next;
      delete s;
      s = next;
    }
    delete write_seg_;
  }

  /// Returns false when full (never blocks, never retries).
  bool push(const T& value) { return push_some<const T>(&value, 1) == 1; }

  /// Move-in overload of push; same contract.  `value` is left
  /// untouched when the ring is full.
  bool push(T&& value) { return push_some<T>(&value, 1) == 1; }

  /// Batch push: copies up to `n` elements from `src` and publishes
  /// them with ONE release store (a consumer sees either none or a
  /// prefix of the batch, never a gap).  Returns how many fit — 0..n,
  /// bounded by the free space observed at entry.
  std::size_t push_n(const T* src, std::size_t n) {
    return push_some<const T>(src, n);
  }

  /// Batch push, moving from `src`.  Elements NOT accepted (beyond the
  /// returned count) are left untouched in `src`, so a producer can
  /// retry the remainder later.
  std::size_t push_n(T* src, std::size_t n) { return push_some<T>(src, n); }

  /// Batch pop: moves up to `max_n` elements into `dst` and retires
  /// them with ONE release store.  Returns how many were popped —
  /// 0..max_n, bounded by the occupancy observed at entry.  Wait-free.
  std::size_t pop_n(T* dst, std::size_t max_n) {
    return pop_some(max_n, [dst](std::size_t i, T& v) {
      dst[i] = std::move(v);
    });
  }

  /// Empty optional when empty (never blocks, never retries).
  std::optional<T> pop() {
    std::optional<T> out;
    pop_some(1, [&out](std::size_t, T& v) { out.emplace(std::move(v)); });
    return out;
  }

  bool empty() const {
    return popped_.load(std::memory_order_acquire) ==
           pushed_.load(std::memory_order_acquire);
  }

 private:
  static_assert((kSegmentSlots & (kSegmentSlots - 1)) == 0,
                "slot index is a mask of the position");
  static_assert(std::is_nothrow_move_constructible_v<T> &&
                    std::is_nothrow_move_assignable_v<T>,
                "a pop cannot be undone halfway");

  struct Segment {
    // A slot holds a T only between the push and the pop of its
    // position; a new segment leaves every slot unconstructed.
    union Slot {
      Slot() {}
      ~Slot() {}
      T value;
    };
    Segment* next = this;
    // Producer only: one more than the position at which the consumer
    // steps off this segment in its latest use (0: never used).
    std::size_t limit = 0;
    Slot slots[kSegmentSlots];
  };

  // Both sides keep their own segment pointer: the one holding their
  // last position, stepped onto `next` at the first slot of the
  // following segment.  A side only ever steps onto a link the producer
  // made before publishing that position.
  static T& slot_of(Segment*& seg, std::size_t pos) {
    const std::size_t i = pos & (kSegmentSlots - 1);
    if (i == 0 && pos != 0) seg = seg->next;
    return seg->slots[i].value;
  }

  // The segment the producer moves into at a seam: the next one in the
  // ring once the consumer has left it, else a new one linked in after
  // the current.  The consumer reads a segment's `next` as it steps off
  // it and publishes a popped count of at least `limit` only afterwards,
  // so `limit <= popped` means it no longer touches the segment.
  Segment* next_segment(std::size_t popped) {
    Segment* next = write_seg_->next;
    if (next->limit <= popped) return next;
    Segment* fresh = new Segment;
    fresh->next = next;
    write_seg_->next = fresh;
    return fresh;
  }

  /// Shared body of the push overloads: U is `const T` (copy) or `T`
  /// (move).  One acquire load of popped, one release store of pushed.
  /// If copying an element throws, the elements before it are
  /// published and the exception propagates.
  template <typename U>
  std::size_t push_some(U* src, std::size_t n) {
    const std::size_t start = pushed_.load(std::memory_order_relaxed);
    const std::size_t popped = popped_.load(std::memory_order_acquire);
    const std::size_t free_slots = capacity_ - (start - popped);
    const std::size_t take = n < free_slots ? n : free_slots;
    std::size_t pos = start;
    try {
      for (; pos != start + take; ++pos) {
        const std::size_t i = pos & (kSegmentSlots - 1);
        Segment* seg = write_seg_;
        if (i == 0 && pos != 0) seg = next_segment(popped);
        T* slot = &seg->slots[i].value;
        if constexpr (std::is_const_v<U>)
          ::new (static_cast<void*>(slot)) T(src[pos - start]);
        else
          ::new (static_cast<void*>(slot)) T(std::move(src[pos - start]));
        if (seg != write_seg_) {
          // Entered only once its first element is in, so a copy that
          // throws leaves the segment free for the retry.
          seg->limit = pos + kSegmentSlots + 1;
          write_seg_ = seg;
        }
      }
    } catch (...) {
      pushed_.store(pos, std::memory_order_release);
      throw;
    }
    if (take > 0) pushed_.store(pos, std::memory_order_release);
    return take;
  }

  /// Shared body of the pops: hands each element to `sink(i, value)`,
  /// then destroys it.  One acquire load of pushed, one release store
  /// of popped.
  template <typename Sink>
  std::size_t pop_some(std::size_t max_n, Sink sink) {
    const std::size_t start = popped_.load(std::memory_order_relaxed);
    const std::size_t avail = pushed_.load(std::memory_order_acquire) - start;
    const std::size_t take = max_n < avail ? max_n : avail;
    for (std::size_t i = 0; i < take; ++i) {
      T& v = slot_of(read_seg_, start + i);
      sink(i, v);
      v.~T();
    }
    if (take > 0) popped_.store(start + take, std::memory_order_release);
    return take;
  }

  // Producer-written count and segment on one line, consumer-written
  // ones on another: unpadded they share one, and every push
  // invalidates the consumer's cached state (and vice versa) even when
  // neither count changed hands.  Both counts are monotonic; their
  // difference is the occupancy.
  alignas(support::kCacheLineSize) std::atomic<std::size_t> pushed_{0};
  Segment* write_seg_;
  const std::size_t capacity_;
  alignas(support::kCacheLineSize) std::atomic<std::size_t> popped_{0};
  Segment* read_seg_;
};

}  // namespace lfrt::lockfree
