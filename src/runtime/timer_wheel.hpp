// Hashed timer wheel for deadline management at streaming scale.
//
// The executor's scheduling loop used to find the next abort deadline
// by scanning every live job per wakeup — O(live) per pass, which is
// exactly the kind of hidden linear walk that caps a service at
// thousands of jobs.  A hashed wheel makes schedule/advance/next all
// O(1) amortized in the common case: a deadline hashes to the slot
// `(deadline / granularity) % slots`, advance() walks only the slots
// the clock actually crossed, and deadlines beyond one wheel horizon
// (granularity * slots) park in an overflow list that is cascaded back
// in only when the tracked overflow minimum comes within reach.
//
// Firing is per-entry-checked (an entry fires iff deadline <= now), so
// the wheel's bucketing can never fire early; granularity only bounds
// how much work one advance() does, not accuracy.  Within one slot the
// firing order is unspecified.
//
// TimerWheel is single-threaded (the executor drives one under its
// scheduler mutex, and runtime::Service's open-loop driver one per
// call).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/time.hpp"

namespace lfrt::runtime {

/// Single-threaded hashed timer wheel holding payloads of type T.
template <typename T>
class TimerWheel {
 public:
  /// `granularity` is the slot width in ns, `slots` the wheel size;
  /// the horizon (granularity * slots) is the furthest deadline that
  /// lives in a slot — anything later overflows until it comes near.
  TimerWheel(Time granularity, std::size_t slots)
      : granularity_(granularity),
        horizon_(granularity * static_cast<Time>(slots)),
        buckets_(slots) {
    LFRT_CHECK_MSG(granularity >= 1, "timer wheel granularity must be >= 1ns");
    LFRT_CHECK_MSG(slots >= 2, "timer wheel needs at least 2 slots");
  }

  /// Register `payload` to fire once `advance(now)` reaches `deadline`.
  /// Overdue deadlines (already <= the wheel's cursor) are accepted and
  /// fire on the next advance.
  void schedule(Time deadline, T payload) {
    if (deadline < cursor_) deadline = cursor_;
    ++count_;
    if (fits_in_slot(deadline)) {
      bucket_at(deadline).push_back(Entry{deadline, std::move(payload)});
    } else {
      if (deadline < overflow_min_) overflow_min_ = deadline;
      overflow_.push_back(Entry{deadline, std::move(payload)});
    }
  }

  /// Move the clock to `now`, invoking `fire(deadline, payload)` for
  /// every entry with deadline <= now.  Entries are detached from the
  /// wheel *before* any callback runs, so fire() may re-enter
  /// schedule() (chained timers); entries scheduled during the
  /// callbacks fire on the NEXT advance even if already due.  Returns
  /// the number fired.
  template <typename Fn>
  std::size_t advance(Time now, Fn&& fire) {
    if (now < cursor_) return 0;
    due_.clear();
    // Walk slots from the cursor to now.  If the jump spans a full
    // revolution every slot would be visited anyway — sweep them all
    // once and stop stepping.
    for (;;) {
      collect_due(bucket_at(cursor_), now);
      const Time boundary = (cursor_ / granularity_ + 1) * granularity_;
      if (boundary > now) {
        cursor_ = now;
        break;
      }
      cursor_ = boundary;
      if (now - cursor_ >= horizon_) {
        for (auto& b : buckets_) collect_due(b, now);
        cursor_ = now;
        break;
      }
    }
    // Cascade: overflow entries now within the horizon move to slots
    // (or straight to due_ if the clock already passed them).
    if (!overflow_.empty() && overflow_min_ - cursor_ < horizon_) {
      std::size_t kept = 0;
      Time new_min = kTimeNever;
      for (auto& e : overflow_) {
        if (e.deadline <= now) {
          due_.push_back(std::move(e));
        } else if (fits_in_slot(e.deadline)) {
          bucket_at(e.deadline).push_back(std::move(e));
        } else {
          if (e.deadline < new_min) new_min = e.deadline;
          overflow_[kept++] = std::move(e);
        }
      }
      overflow_.resize(kept);
      overflow_min_ = new_min;
    }
    const std::size_t fired = due_.size();
    count_ -= static_cast<std::int64_t>(fired);
    for (auto& e : due_) fire(e.deadline, std::move(e.payload));
    due_.clear();
    return fired;
  }

  /// Earliest pending deadline, kTimeNever when empty.  Exact: slot
  /// placement is gated on TICK distance (< slots) from the cursor, so
  /// every slot holds entries of exactly one tick, scan distance from
  /// the cursor's slot is monotone in deadline, and the first
  /// non-empty slot holds the minimum (modulo the overflow list's
  /// tracked minimum).
  Time next_deadline() const {
    Time best = overflow_.empty() ? kTimeNever : overflow_min_;
    const std::size_t start =
        static_cast<std::size_t>(cursor_ / granularity_) % buckets_.size();
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const auto& b = buckets_[(start + i) % buckets_.size()];
      if (b.empty()) continue;
      Time slot_min = kTimeNever;
      for (const auto& e : b)
        if (e.deadline < slot_min) slot_min = e.deadline;
      return slot_min < best ? slot_min : best;
    }
    return best;
  }

  std::int64_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  Time horizon() const { return horizon_; }

 private:
  struct Entry {
    Time deadline;
    T payload;
  };

  std::vector<Entry>& bucket_at(Time t) {
    return buckets_[static_cast<std::size_t>(t / granularity_) %
                    buckets_.size()];
  }

  /// Slot placement predicate.  Tick distance — not ns distance — must
  /// be under one revolution: with a mid-slot cursor, a deadline can be
  /// < horizon ns away yet a full `slots` ticks ahead, which would hash
  /// it into the cursor's own slot and break next_deadline()'s
  /// first-non-empty-slot minimum scan (caught by the randomized oracle
  /// test).  Requires deadline >= cursor_.
  bool fits_in_slot(Time deadline) const {
    return deadline / granularity_ - cursor_ / granularity_ <
           static_cast<Time>(buckets_.size());
  }

  void collect_due(std::vector<Entry>& bucket, Time now) {
    std::size_t kept = 0;
    for (auto& e : bucket) {
      if (e.deadline <= now)
        due_.push_back(std::move(e));
      else
        bucket[kept++] = std::move(e);
    }
    bucket.resize(kept);
  }

  const Time granularity_;
  const Time horizon_;
  std::vector<std::vector<Entry>> buckets_;
  std::vector<Entry> overflow_;
  Time overflow_min_ = kTimeNever;
  std::vector<Entry> due_;  ///< advance() scratch, capacity reused
  Time cursor_ = 0;
  std::int64_t count_ = 0;
};

}  // namespace lfrt::runtime
