// Holds lockfree::SpscRing to its storage contract: capacity is a bound,
// not a reservation.  Construction allocates at most one segment, the
// ring grows only while its occupancy reaches new highs (never past
// ceil(capacity / kSegmentSlots) + 1 segments), and once grown it
// allocates nothing, however many elements pass through it.  Capacity
// stays the exact backpressure bound.
//
// The element is 104 bytes, the size of an ingest lane's entry
// (rt::IngestLane), whose capacity-sized reservation this contract
// replaces.
//
// The counting operator new/delete overrides are process-global, which
// is safe here because the binary runs single-threaded and gtest's own
// allocations happen outside the counted windows.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>

#include "lockfree/spsc_ring.hpp"

namespace {

std::atomic<long long> g_allocs{0};
std::atomic<long long> g_bytes{0};
std::atomic<bool> g_counting{false};

}  // namespace

// Neither replacement is inlined: GCC 12 would otherwise see malloc'd
// memory reach operator delete, or operator new's memory reach free,
// at an inlined call site and warn (-Wmismatched-new-delete), though
// the pair matches malloc with free.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(static_cast<long long>(size), std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

void operator delete[](void* p) noexcept { ::operator delete(p); }

void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace lfrt {
namespace {

using lockfree::SpscRing;

struct Payload {
  std::array<std::uint64_t, 13> words{};
};
static_assert(sizeof(Payload) == 104, "an ingest lane entry's size");

using Ring = SpscRing<Payload>;
constexpr std::size_t kSeg = Ring::kSegmentSlots;

Payload tagged(std::uint64_t v) {
  Payload p;
  p.words.fill(v);
  return p;
}

// Allocations made by `fn`, counted.
template <typename Fn>
long long allocations_in(Fn&& fn) {
  g_allocs.store(0);
  g_bytes.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocs.load();
}

std::size_t segment_bound(std::size_t capacity) {
  return (capacity + kSeg - 1) / kSeg + 1;
}

// A ring plus the FIFO bookkeeping that checks every popped value.
struct Fifo {
  explicit Fifo(std::size_t capacity) : ring(capacity) {}
  bool push() {
    if (!ring.push(tagged(next_in))) return false;
    ++next_in;
    return true;
  }
  bool pop() {
    const auto v = ring.pop();
    if (!v) return false;
    ok = ok && v->words.front() == next_out && v->words.back() == next_out;
    ++next_out;
    return true;
  }
  std::size_t occupancy() const { return next_in - next_out; }

  Ring ring;
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  bool ok = true;  // strict FIFO so far
};

TEST(SpscRingAlloc, ConstructionAllocatesAtMostOneSegment) {
  std::unique_ptr<Ring> ring;
  const long long allocs =
      allocations_in([&] { ring = std::make_unique<Ring>(1 << 16); });
  const long long bytes = g_bytes.load();
  // The ring object itself, and at most one segment of slots.
  EXPECT_LE(allocs, 2);
  EXPECT_LT(bytes, static_cast<long long>(sizeof(Ring) +
                                          2 * kSeg * sizeof(Payload)));
  EXPECT_TRUE(ring->empty());
}

TEST(SpscRingAlloc, SteadyStateAllocatesNothing) {
  // Occupancy walks between 0 and 300 in uneven bursts: a lane that
  // is drained in batches while its producer keeps offering.
  constexpr std::size_t kMaxOccupancy = 300;
  Fifo f(1 << 16);
  std::uint32_t lcg = 12345;
  auto burst = [&lcg] {
    lcg = lcg * 1664525u + 1013904223u;
    return 1 + (lcg >> 24) % 97;
  };
  std::size_t pairs = 0;
  auto run = [&](std::size_t target_pairs) {
    while (pairs < target_pairs) {
      for (std::size_t n = burst(); n > 0; --n) {
        if (f.occupancy() == kMaxOccupancy) break;
        if (!f.push()) f.ok = false;
      }
      for (std::size_t n = burst(); n > 0 && f.pop(); --n) ++pairs;
    }
  };
  const long long warm = allocations_in([&] { run(100'000); });
  const long long steady = allocations_in([&] { run(1'100'000); });
  EXPECT_LE(static_cast<std::size_t>(warm), segment_bound(kMaxOccupancy));
  EXPECT_EQ(steady, 0);
  EXPECT_TRUE(f.ok);
}

TEST(SpscRingAlloc, CapacityIsTheExactBackpressureBound) {
  for (const std::size_t cap : {std::size_t{1}, kSeg - 1, kSeg, kSeg + 1,
                                std::size_t{1} << 16}) {
    SCOPED_TRACE(cap);
    // From a fresh ring, and again from a position inside a segment.
    for (const std::size_t shift : {std::size_t{0}, std::size_t{37}}) {
      Fifo f(cap);
      for (std::size_t i = 0; i < shift; ++i) ASSERT_TRUE(f.push() && f.pop());
      for (std::size_t i = 0; i < cap; ++i) ASSERT_TRUE(f.push());
      EXPECT_FALSE(f.push());
      Payload batch[2] = {tagged(0), tagged(0)};
      EXPECT_EQ(f.ring.push_n(batch, 2), 0u);
      ASSERT_TRUE(f.pop());
      EXPECT_TRUE(f.push());
      EXPECT_FALSE(f.push());
      while (f.pop()) {
      }
      EXPECT_EQ(f.next_out, f.next_in);
      EXPECT_TRUE(f.ring.empty());
      EXPECT_TRUE(f.ok);
    }
  }
}

TEST(SpscRingAlloc, DrainAndRefillAllocatesNothingNew) {
  // Whether a fill reaches a new segment depends on where in a segment
  // it starts.  Fill-to-capacity-then-drain cycles visit the same
  // starting slots every kSegmentSlots / gcd(capacity, kSegmentSlots)
  // cycles.  After the first fill (on a fresh ring) and one such lap,
  // a drain and refill allocates nothing.
  for (const std::size_t cap : {std::size_t{1}, kSeg - 1, kSeg, kSeg + 1,
                                std::size_t{1} << 16}) {
    SCOPED_TRACE(cap);
    std::unique_ptr<Fifo> f;
    const std::size_t lap = kSeg / std::gcd(cap, kSeg);
    auto cycles = [&](std::size_t n) {
      for (std::size_t c = 0; c < n; ++c) {
        while (f->push()) {
        }
        while (f->pop()) {
        }
      }
    };
    const long long grown = allocations_in([&] {
      f = std::make_unique<Fifo>(cap);
      cycles(1 + lap);
    });
    const long long refills = allocations_in([&] { cycles(2 * lap); });
    // The Fifo object, then the segments.
    EXPECT_LE(static_cast<std::size_t>(grown), 1 + segment_bound(cap));
    EXPECT_EQ(refills, 0);
    EXPECT_EQ(f->next_in, (1 + 3 * lap) * cap);
    EXPECT_TRUE(f->ok);
  }
}

}  // namespace
}  // namespace lfrt
