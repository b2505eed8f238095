// runtime::TimerWheel — the deadline structure behind the executor's
// abort timers and the service's open-loop arrival pacing.  The
// properties that matter: nothing ever fires early, everything due
// fires exactly once, next_deadline() is exact (not rounded to a slot
// boundary), overflow entries beyond one horizon cascade back in, and
// fire callbacks may re-enter schedule() (chained timers) without
// corrupting the walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "runtime/timer_wheel.hpp"
#include "support/time.hpp"

namespace lfrt::runtime {
namespace {

TEST(TimerWheel, FiresInDeadlineWindowsNeverEarly) {
  TimerWheel<int> w(/*granularity=*/10, /*slots=*/8);
  w.schedule(25, 1);
  w.schedule(5, 2);
  w.schedule(60, 3);
  EXPECT_EQ(w.size(), 3);
  EXPECT_EQ(w.next_deadline(), 5);

  std::vector<int> fired;
  EXPECT_EQ(w.advance(4, [&](Time, int v) { fired.push_back(v); }), 0u);
  EXPECT_TRUE(fired.empty());  // 5 is not due at t=4: never early

  EXPECT_EQ(w.advance(5, [&](Time, int v) { fired.push_back(v); }), 1u);
  EXPECT_EQ(fired, std::vector<int>{2});
  EXPECT_EQ(w.next_deadline(), 25);

  // Jump straight past two deadlines: both fire in one advance.
  EXPECT_EQ(w.advance(100, [&](Time, int v) { fired.push_back(v); }), 2u);
  std::sort(fired.begin() + 1, fired.end());  // within-call order unspecified
  EXPECT_EQ(fired, (std::vector<int>{2, 1, 3}));
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.next_deadline(), kTimeNever);
}

TEST(TimerWheel, OverdueScheduleFiresOnNextAdvance) {
  TimerWheel<int> w(100, 16);
  w.advance(1'000, [](Time, int) {});
  w.schedule(50, 7);  // already in the past: clamped, not lost
  int fired = 0;
  w.advance(1'000, [&](Time, int v) { fired = v; });
  EXPECT_EQ(fired, 7);
}

TEST(TimerWheel, OverflowCascadesBackIn) {
  // horizon = 10 * 8 = 80; deadlines far beyond it park in overflow.
  TimerWheel<int> w(10, 8);
  w.schedule(1'000, 1);
  w.schedule(2'000, 2);
  w.schedule(15, 3);
  EXPECT_EQ(w.next_deadline(), 15);  // overflow minimum is tracked exactly

  std::vector<int> fired;
  w.advance(999, [&](Time, int v) { fired.push_back(v); });
  EXPECT_EQ(fired, std::vector<int>{3});
  EXPECT_EQ(w.next_deadline(), 1'000);
  w.advance(1'500, [&](Time, int v) { fired.push_back(v); });
  EXPECT_EQ(fired, (std::vector<int>{3, 1}));
  EXPECT_EQ(w.next_deadline(), 2'000);
  w.advance(2'000, [&](Time, int v) { fired.push_back(v); });
  EXPECT_EQ(fired, (std::vector<int>{3, 1, 2}));
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, ReentrantScheduleFromFireCallback) {
  // Chained timers: each firing schedules the next.  Entries scheduled
  // during a callback — even if already due — fire on the NEXT
  // advance, never mid-walk.
  TimerWheel<int> w(10, 8);
  w.schedule(10, 0);
  std::vector<int> fired;
  w.advance(10'000, [&](Time, int v) {
    fired.push_back(v);
    if (v < 3) w.schedule(10 * (v + 2), v + 1);
  });
  EXPECT_EQ(fired, std::vector<int>{0});  // chain link 1 is due but parked
  for (int i = 0; i < 3; ++i)
    w.advance(10'000, [&](Time, int v) {
      fired.push_back(v);
      if (v < 3) w.schedule(10 * (v + 2), v + 1);
    });
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(w.empty());
}

// Property sweep: random deadlines, random advance steps; every entry
// fires exactly once, never before its deadline, and no later than the
// first advance at-or-past it.  next_deadline always equals the true
// minimum of the pending set.
TEST(TimerWheel, RandomizedFiringMatchesOracle) {
  std::mt19937 rng(20'260'809);
  for (int round = 0; round < 20; ++round) {
    TimerWheel<std::size_t> w(7, 16);  // deliberately awkward granularity
    constexpr std::size_t kN = 400;
    std::vector<Time> deadline(kN);
    std::vector<bool> fired(kN, false);
    std::uniform_int_distribution<Time> d(0, 3'000);
    for (std::size_t i = 0; i < kN; ++i) {
      deadline[i] = d(rng);
      w.schedule(deadline[i], i);
    }
    Time now = 0;
    std::uniform_int_distribution<Time> step(1, 200);
    while (!w.empty()) {
      // Oracle: exact minimum over the unfired set.
      Time expect_min = kTimeNever;
      for (std::size_t i = 0; i < kN; ++i)
        if (!fired[i]) expect_min = std::min(expect_min, deadline[i]);
      ASSERT_EQ(w.next_deadline(), expect_min);

      now += step(rng);
      w.advance(now, [&](Time, std::size_t i) {
        ASSERT_FALSE(fired[i]);          // exactly once
        ASSERT_LE(deadline[i], now);     // never early
        fired[i] = true;
      });
      // Everything due is fired: nothing pending has deadline <= now.
      for (std::size_t i = 0; i < kN; ++i)
        ASSERT_TRUE(fired[i] || deadline[i] > now);
    }
    EXPECT_TRUE(std::all_of(fired.begin(), fired.end(),
                            [](bool b) { return b; }));
  }
}

// Multi-revolution variant: random wheel geometry, deadlines spread
// over MANY horizons (so every entry rides the overflow cascade at
// least once), and a mid-stream batch scheduled after the cursor has
// already advanced deep into the timeline — the wraparound paths the
// single-horizon sweep above never exercises.
TEST(TimerWheel, RandomizedMultiRevolutionMatchesOracle) {
  std::mt19937 rng(20'260'810);
  for (int round = 0; round < 10; ++round) {
    const Time granularity = 1 + static_cast<Time>(rng() % 13);
    const std::size_t slots = 4 + rng() % 29;
    const Time horizon = granularity * static_cast<Time>(slots);
    TimerWheel<std::size_t> w(granularity, slots);
    constexpr std::size_t kN = 300;
    std::vector<Time> deadline(kN);
    std::vector<bool> fired(kN, false);
    std::vector<bool> scheduled(kN, false);
    // First batch: 0 .. 40 horizons out.
    std::uniform_int_distribution<Time> d(0, 40 * horizon);
    for (std::size_t i = 0; i < kN / 2; ++i) {
      deadline[i] = d(rng);
      scheduled[i] = true;
      w.schedule(deadline[i], i);
    }
    Time now = 0;
    std::size_t next_unscheduled = kN / 2;
    // Steps up to ~1.5 horizons skip whole revolutions at once.
    std::uniform_int_distribution<Time> step(1, 3 * horizon / 2 + 1);
    while (!w.empty() || next_unscheduled < kN) {
      Time expect_min = kTimeNever;
      for (std::size_t i = 0; i < kN; ++i)
        if (scheduled[i] && !fired[i])
          expect_min = std::min(expect_min, deadline[i]);
      ASSERT_EQ(w.next_deadline(), expect_min);

      now += step(rng);
      w.advance(now, [&](Time, std::size_t i) {
        ASSERT_FALSE(fired[i]);
        ASSERT_LE(deadline[i], now);
        fired[i] = true;
      });
      for (std::size_t i = 0; i < kN; ++i)
        ASSERT_TRUE(!scheduled[i] || fired[i] || deadline[i] > now);

      // Second batch trickles in mid-stream, from the advanced cursor:
      // deadlines relative to `now`, up to several horizons ahead (and
      // occasionally already overdue).
      if (next_unscheduled < kN) {
        const std::size_t i = next_unscheduled++;
        deadline[i] = std::max<Time>(0, now - horizon / 2) +
                      static_cast<Time>(rng() % (5 * horizon + 1));
        // Overdue schedules clamp to "next advance", never lost.
        if (deadline[i] < now) deadline[i] = now;
        scheduled[i] = true;
        w.schedule(deadline[i], i);
      }
    }
    for (std::size_t i = 0; i < kN; ++i)
      EXPECT_TRUE(fired[i]) << "entry " << i << " never fired";
  }
}

}  // namespace
}  // namespace lfrt::runtime
