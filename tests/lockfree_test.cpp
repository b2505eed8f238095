// Tests for the lock-free substrate: tagged refs, node pool, Michael &
// Scott queue, Treiber stack, SPSC ring, NBW buffer — sequential
// semantics plus concurrent stress with FIFO/LIFO and conservation
// checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "lockfree/annotate.hpp"
#include "lockfree/msqueue.hpp"
#include "lockfree/nbw_buffer.hpp"
#include "lockfree/node_pool.hpp"
#include "lockfree/spsc_ring.hpp"
#include "lockfree/tagged.hpp"
#include "lockfree/treiber_stack.hpp"

namespace lfrt::lockfree {

struct MsQueueTestAccess {
  /// The tail node and its `next` word: exactly the {node, expected}
  /// pair an enqueuer that stalls right before its link CAS holds.
  template <typename T>
  static std::pair<std::uint32_t, std::uint64_t> tail_link(
      const MsQueue<T>& q) {
    const TaggedRef tail{q.tail_.load()};
    return {tail.index(), q.pool_.at(tail.index()).next.load()};
  }
};

namespace {

// TSan serializes the tight CAS loops; at full iteration counts the
// 4-thread hammer over a 4-node pool can take minutes on a small box.
// Scale down under TSan — recycling pressure per cycle is unchanged.
#ifdef LFRT_TSAN_ACTIVE
constexpr int kHammerCycles = 2000;
#else
constexpr int kHammerCycles = 30000;
#endif

// Node conservation at quiescence, checked black-box: an empty
// structure whose pool is whole accepts `capacity` pushes, refuses one
// more, and gives every element back.  A node leaked by a lost insert
// makes one of the pushes fail.
template <typename Push, typename Pop>
void expect_pool_whole(std::size_t capacity, Push&& push, Pop&& pop) {
  for (std::size_t i = 0; i < capacity; ++i)
    ASSERT_TRUE(push()) << "push " << i << " of " << capacity;
  EXPECT_FALSE(push());
  std::size_t popped = 0;
  while (pop()) ++popped;
  EXPECT_EQ(popped, capacity);
}

template <typename T>
void expect_pool_whole(MsQueue<T>& q, std::size_t capacity) {
  expect_pool_whole(
      capacity, [&] { return q.enqueue(T{}); },
      [&] { return q.dequeue().has_value(); });
}

template <typename T>
void expect_pool_whole(TreiberStack<T>& s, std::size_t capacity) {
  expect_pool_whole(
      capacity, [&] { return s.push(T{}); },
      [&] { return s.pop().has_value(); });
}

TEST(TaggedRef, PackingRoundTrips) {
  const auto r = TaggedRef::make(0x12345678u, 0x9ABCDEF0u);
  EXPECT_EQ(r.index(), 0x12345678u);
  EXPECT_EQ(r.tag(), 0x9ABCDEF0u);
  EXPECT_FALSE(r.is_null());
}

TEST(TaggedRef, NullAndBump) {
  const auto n = TaggedRef::null(5);
  EXPECT_TRUE(n.is_null());
  EXPECT_EQ(n.tag(), 5u);
  const auto b = n.bump(3);
  EXPECT_EQ(b.index(), 3u);
  EXPECT_EQ(b.tag(), 6u);
}

TEST(TaggedRef, TagWrapsWithoutUb) {
  const auto r = TaggedRef::make(1, 0xFFFFFFFFu);
  EXPECT_EQ(r.bump(1).tag(), 0u);
}

struct PoolNode {
  int value = 0;
  std::atomic<std::uint64_t> next{0};
};

TEST(NodePool, AllocateAllThenExhaust) {
  NodePool<PoolNode> pool(4);
  std::vector<std::uint32_t> got;
  for (int i = 0; i < 4; ++i) {
    const auto idx = pool.allocate();
    ASSERT_NE(idx, TaggedRef::kNullIndex);
    got.push_back(idx);
  }
  EXPECT_EQ(pool.allocate(), TaggedRef::kNullIndex);
  // Indices must be distinct.
  std::sort(got.begin(), got.end());
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
  pool.release(got[2]);
  EXPECT_EQ(pool.allocate(), got[2]);
}

TEST(MsQueue, FifoOrderSequential) {
  MsQueue<int> q(16);
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.enqueue(i));
  EXPECT_FALSE(q.empty());
  for (int i = 0; i < 10; ++i) {
    const auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
  EXPECT_TRUE(q.empty());
}

TEST(MsQueue, CapacityBoundRespected) {
  MsQueue<int> q(3);
  EXPECT_TRUE(q.enqueue(1));
  EXPECT_TRUE(q.enqueue(2));
  EXPECT_TRUE(q.enqueue(3));
  EXPECT_FALSE(q.enqueue(4));  // pool exhausted
  EXPECT_EQ(q.dequeue().value(), 1);
  EXPECT_TRUE(q.enqueue(4));  // node recycled
}

TEST(MsQueue, InterleavedOperations) {
  MsQueue<int> q(8);
  for (int round = 0; round < 100; ++round) {
    EXPECT_TRUE(q.enqueue(2 * round));
    EXPECT_TRUE(q.enqueue(2 * round + 1));
    EXPECT_EQ(q.dequeue().value(), 2 * round);
    EXPECT_EQ(q.dequeue().value(), 2 * round + 1);
  }
  EXPECT_TRUE(q.empty());
}

TEST(MsQueue, ConcurrentConservationAndFifoPerProducer) {
  // 2 producers x 2 consumers; every element is delivered exactly once
  // and per-producer order is preserved (MS queue linearizability
  // corollary).
  constexpr int kPerProducer = 5000;
  MsQueue<int> q(1024);
  std::atomic<bool> done{false};
  std::vector<std::vector<int>> sunk(2);
  std::vector<std::thread> threads;

  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int v = p * kPerProducer + i;
        while (!q.enqueue(v)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&q, &done, &sunk, c] {
      for (;;) {
        const auto v = q.dequeue();
        if (v) {
          sunk[static_cast<std::size_t>(c)].push_back(*v);
        } else if (done.load()) {
          // All enqueues have completed; empty now means truly drained.
          break;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  threads[0].join();
  threads[1].join();
  done.store(true);
  threads[2].join();
  threads[3].join();

  std::vector<int> all;
  for (const auto& s : sunk) all.insert(all.end(), s.begin(), s.end());
  ASSERT_EQ(all.size(), 2u * kPerProducer);
  std::sort(all.begin(), all.end());
  for (int i = 0; i < 2 * kPerProducer; ++i) EXPECT_EQ(all[i], i);
  // Per-producer FIFO within each consumer's stream.
  for (const auto& s : sunk) {
    int last0 = -1, last1 = -1;
    for (int v : s) {
      if (v < kPerProducer) {
        EXPECT_GT(v, last0);
        last0 = v;
      } else {
        EXPECT_GT(v, last1);
        last1 = v;
      }
    }
  }
  expect_pool_whole(q, 1024);
}

TEST(MsQueue, RecycledTailNeverRepeatsAStalledLinkCas) {
  // Deterministic reproducer of the link ABA.  An enqueuer that stalls
  // right before its link CAS holds {tail node, that node's null next
  // word}.  Should the node be dequeued, recycled, and become the tail
  // again with the same null word, the stale CAS succeeds and links its
  // element after an orphan: element and node are lost.  Cycle the two
  // nodes of a one-element queue; no tail link value may ever recur.
  MsQueue<int> q(1);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> seen{
      MsQueueTestAccess::tail_link(q)};
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(q.enqueue(i));
    const auto link = MsQueueTestAccess::tail_link(q);
    EXPECT_TRUE(TaggedRef{link.second}.is_null());
    EXPECT_EQ(std::count(seen.begin(), seen.end(), link), 0)
        << "cycle " << i << ": node " << link.first << " link tag "
        << TaggedRef{link.second}.tag() << " recurred";
    seen.push_back(link);
    ASSERT_EQ(q.dequeue(), i);
  }
}

TEST(MsQueue, RetryCountersAccumulateUnderContention) {
  MsQueue<int> q(256);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&q] {
      for (int i = 0; i < 20000; ++i) {
        q.enqueue(i);
        q.dequeue();
      }
    });
  }
  for (auto& th : threads) th.join();
  // Retries are workload-dependent; the counter API must at least be
  // consistent (non-negative, readable after quiesce).
  EXPECT_GE(q.stats().retry_count(), 0);
  EXPECT_TRUE(q.empty());
  expect_pool_whole(q, 256);
}

TEST(TreiberStack, LifoOrderSequential) {
  TreiberStack<int> s(8);
  EXPECT_TRUE(s.empty());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(s.push(i));
  for (int i = 4; i >= 0; --i) EXPECT_EQ(s.pop().value(), i);
  EXPECT_FALSE(s.pop().has_value());
}

TEST(TreiberStack, CapacityAndRecycling) {
  TreiberStack<int> s(2);
  EXPECT_TRUE(s.push(1));
  EXPECT_TRUE(s.push(2));
  EXPECT_FALSE(s.push(3));
  EXPECT_EQ(s.pop().value(), 2);
  EXPECT_TRUE(s.push(3));
  EXPECT_EQ(s.pop().value(), 3);
  EXPECT_EQ(s.pop().value(), 1);
}

TEST(TreiberStack, ConcurrentConservation) {
  constexpr int kPerThread = 10000;
  TreiberStack<int> s(512);
  std::vector<std::thread> threads;
  std::atomic<std::int64_t> popped_sum{0};
  std::atomic<std::int64_t> popped_count{0};
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int v = t * kPerThread + i;
        while (!s.push(v)) std::this_thread::yield();
        const auto got = s.pop();
        if (got) {
          popped_sum.fetch_add(*got);
          popped_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Drain what's left.
  while (auto v = s.pop()) {
    popped_sum.fetch_add(*v);
    popped_count.fetch_add(1);
  }
  const std::int64_t n = 3LL * kPerThread;
  EXPECT_EQ(popped_count.load(), n);
  // Sum of 0..(n-1) with three disjoint ranges == sum of all pushed.
  std::int64_t expect = 0;
  for (int t = 0; t < 3; ++t)
    for (int i = 0; i < kPerThread; ++i) expect += t * kPerThread + i;
  EXPECT_EQ(popped_sum.load(), expect);
  expect_pool_whole(s, 512);
}

TEST(SpscRing, FifoAndBounds) {
  SpscRing<int> r(3);
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.push(1));
  EXPECT_TRUE(r.push(2));
  EXPECT_TRUE(r.push(3));
  EXPECT_FALSE(r.push(4));  // full
  EXPECT_EQ(r.pop().value(), 1);
  EXPECT_TRUE(r.push(4));
  EXPECT_EQ(r.pop().value(), 2);
  EXPECT_EQ(r.pop().value(), 3);
  EXPECT_EQ(r.pop().value(), 4);
  EXPECT_FALSE(r.pop().has_value());
}

TEST(SpscRing, WaitFreeProducerConsumer) {
  constexpr int kCount = 200000;
  SpscRing<int> r(64);
  std::thread producer([&r] {
    for (int i = 0; i < kCount; ++i)
      while (!r.push(i)) std::this_thread::yield();
  });
  int expect = 0;
  while (expect < kCount) {
    if (const auto v = r.pop()) {
      ASSERT_EQ(*v, expect);  // strict FIFO, no loss, no duplication
      ++expect;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(r.empty());
}

TEST(SpscRing, BatchPushPopWithWrapAround) {
  // Capacity 5 and batches of 4: after the first round the batch spans
  // the physical end of the buffer every time, so the index arithmetic
  // of push_n/pop_n is exercised across the wrap seam repeatedly.
  SpscRing<int> r(5);
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 23; ++round) {
    int in[4];
    for (int i = 0; i < 4; ++i) in[i] = next_in + i;
    const std::size_t pushed =
        r.push_n(static_cast<const int*>(in), 4);  // copy overload
    EXPECT_GT(pushed, 0u);
    EXPECT_LE(pushed, 4u);
    next_in += static_cast<int>(pushed);
    int out[4];
    const std::size_t popped = r.pop_n(out, 4);
    for (std::size_t i = 0; i < popped; ++i)
      EXPECT_EQ(out[i], next_out + static_cast<int>(i));  // strict FIFO
    next_out += static_cast<int>(popped);
  }
  // Drain the remainder: conservation — everything pushed comes out.
  int out[8];
  while (next_out < next_in) {
    const std::size_t popped = r.pop_n(out, 8);
    ASSERT_GT(popped, 0u);
    for (std::size_t i = 0; i < popped; ++i)
      EXPECT_EQ(out[i], next_out + static_cast<int>(i));
    next_out += static_cast<int>(popped);
  }
  EXPECT_TRUE(r.empty());
}

TEST(SpscRing, BatchPushBoundedByFreeSpaceAndMoveKeepsRemainder) {
  SpscRing<std::vector<int>> r(3);
  std::vector<int> in[5];
  for (int i = 0; i < 5; ++i) in[i] = {i, i, i};
  // Move overload: only 3 fit; the unaccepted tail must stay intact so
  // the producer can retry it.
  EXPECT_EQ(r.push_n(in, 5), 3u);
  EXPECT_EQ(in[3], (std::vector<int>{3, 3, 3}));
  EXPECT_EQ(in[4], (std::vector<int>{4, 4, 4}));
  EXPECT_EQ(r.push_n(in + 3, 2), 0u);  // full: nothing moved
  EXPECT_EQ(in[3], (std::vector<int>{3, 3, 3}));
  std::vector<int> out[4];
  EXPECT_EQ(r.pop_n(out, 4), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i], (std::vector<int>{i, i, i}));
  EXPECT_EQ(r.pop_n(out, 4), 0u);
}

TEST(SpscRing, BatchProducerConsumerHammer) {
  // Wait-free batch producer vs batch consumer (the ingest-lane
  // shape): strict FIFO, no loss, no duplication across ~200k values
  // moved in uneven batch sizes.  Runs under TSan via scripts/check.sh
  // — the single release store per batch must publish every element.
  constexpr int kCount = 200'000;
  SpscRing<int> r(64);
  std::thread producer([&r] {
    int next = 0;
    int batch[17];
    while (next < kCount) {
      const int want = std::min(17, kCount - next);
      for (int i = 0; i < want; ++i) batch[i] = next + i;
      std::size_t sent = 0;
      while (sent < static_cast<std::size_t>(want)) {
        const std::size_t n = r.push_n(
            static_cast<const int*>(batch) + sent,
            static_cast<std::size_t>(want) - sent);
        if (n == 0)
          std::this_thread::yield();
        else
          sent += n;
      }
      next += want;
    }
  });
  int expect = 0;
  int out[23];
  while (expect < kCount) {
    const std::size_t n = r.pop_n(out, 23);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], expect++);
  }
  producer.join();
  EXPECT_TRUE(r.empty());
}

TEST(SpscRing, SegmentEmptiedButNotLeftIsNotReused) {
  // The consumer steps off a segment only when it pops the first
  // position of the next one, reading the segment's link then.  Here it
  // stops exactly at the end of the ring's first segment (A), or of its
  // second (B), without stepping off.  The producer then fills the
  // ring; on reaching that segment again it must link in a new one
  // rather than refill it — else the next seam, which links a new
  // segment in after it, would redirect the consumer.
  constexpr std::size_t kSeg = SpscRing<int>::kSegmentSlots;
  constexpr std::size_t kCap = 3 * kSeg;
  for (const std::size_t stop : {kSeg, 2 * kSeg}) {
    SCOPED_TRACE(stop);
    SpscRing<int> r(kCap);
    std::vector<int> buf(kCap);
    int next = 0;
    auto push = [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i)
        buf[i] = next + static_cast<int>(i);
      ASSERT_EQ(r.push_n(buf.data(), n), n);
      next += static_cast<int>(n);
    };
    push(2 * kSeg);
    ASSERT_EQ(r.pop_n(buf.data(), stop), stop);
    push(kCap - (2 * kSeg - stop));  // full
    ASSERT_EQ(r.pop_n(buf.data(), kCap), kCap);
    for (std::size_t i = 0; i < kCap; ++i)
      ASSERT_EQ(buf[i], static_cast<int>(stop + i));
    EXPECT_TRUE(r.empty());
  }
}

TEST(SpscRing, ElementsLiveOnlyWhileQueued) {
  // A slot holds its element from the push to the pop; the ring's
  // destructor destroys what is still queued, across segments.
  const auto token = std::make_shared<int>(0);
  {
    SpscRing<std::shared_ptr<int>> r(100);
    for (int i = 0; i < 70; ++i) ASSERT_TRUE(r.push(token));
    EXPECT_EQ(token.use_count(), 71);
    std::shared_ptr<int> out[3];
    ASSERT_EQ(r.pop_n(out, 3), 3u);
    ASSERT_TRUE(r.pop().has_value());
    EXPECT_EQ(token.use_count(), 70);  // 66 queued, 3 in `out`
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SpscRing, SegmentSeamHammer) {
  // Storage grows and is reused a segment at a time; here both sides
  // move batches whose sizes straddle the segment seams (one below, at
  // and above a segment, and several segments), and the producer runs
  // far enough ahead that the ring grows past its first segments and
  // then cycles through them.  Strict FIFO, no loss, no duplication
  // across ~1M values; runs under TSan via scripts/check.sh.
  constexpr int kCount = 1'000'000;
  constexpr std::size_t kSeg = SpscRing<int>::kSegmentSlots;
  constexpr std::size_t kPushSizes[] = {kSeg - 1, 1, kSeg + 1, 3 * kSeg + 5,
                                        kSeg, 7};
  constexpr std::size_t kPopSizes[] = {kSeg + 1, 2 * kSeg - 3, kSeg - 1, 5,
                                       kSeg};
  SpscRing<int> r(5 * kSeg + 3);
  std::thread producer([&r, &kPushSizes] {
    std::vector<int> batch(4 * kSeg);
    int next = 0;
    for (std::size_t k = 0; next < kCount; ++k) {
      const std::size_t want = std::min<std::size_t>(
          kPushSizes[k % std::size(kPushSizes)],
          static_cast<std::size_t>(kCount - next));
      for (std::size_t i = 0; i < want; ++i)
        batch[i] = next + static_cast<int>(i);
      std::size_t sent = 0;
      while (sent < want) {
        const std::size_t n = r.push_n(batch.data() + sent, want - sent);
        if (n == 0) std::this_thread::yield();
        sent += n;
      }
      next += static_cast<int>(want);
    }
  });
  std::vector<int> out(2 * kSeg);
  int expect = 0;
  for (std::size_t k = 0; expect < kCount; ++k) {
    const std::size_t n =
        r.pop_n(out.data(), kPopSizes[k % std::size(kPopSizes)]);
    if (n == 0) std::this_thread::yield();
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], expect++);
  }
  producer.join();
  EXPECT_TRUE(r.empty());
}

// 32-byte payload: wider than the single-atomic value-slot path, so it
// exercises the byte-wise relaxed copy in annotate.hpp.  The checksum
// lets every reader verify the copy it *used* (i.e. whose claiming CAS
// succeeded) was not torn — the contract the header documents.
struct WidePayload {
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
  std::int64_t sum = 0;

  static WidePayload make(std::int64_t seed) {
    WidePayload p;
    p.a = seed;
    p.b = seed * 3 + 1;
    p.c = ~seed;
    p.sum = p.a + p.b + p.c;
    return p;
  }
  bool coherent() const { return a + b + c == sum; }
};
static_assert(sizeof(WidePayload) == 32);
static_assert(!lockfree::detail::kAtomicValueSlot<WidePayload>);

TEST(MsQueue, WidePayloadRoundTripsSequentially) {
  MsQueue<WidePayload> q(8);
  for (std::int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(q.enqueue(WidePayload::make(i * 7919 + 1)));
    const auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->a, i * 7919 + 1);
    EXPECT_TRUE(v->coherent());
  }
  EXPECT_TRUE(q.empty());
}

TEST(MsQueue, WidePayloadSurvivesRecyclingPressure) {
  // The wide-payload analogue of the ABA hammer: a minimal pool forces
  // the optimistic pre-CAS copy to race recycling enqueuers, so under
  // TSan this is the witness that the >8-byte slot path is well-defined;
  // the coherence check proves no *used* copy was torn.
  constexpr int kThreads = 4;
  MsQueue<WidePayload> q(kThreads);
  std::vector<std::thread> threads;
  std::atomic<std::int64_t> delivered{0};
  std::atomic<bool> torn{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kHammerCycles; ++i) {
        const auto p = WidePayload::make(t * kHammerCycles + i);
        while (!q.enqueue(p)) std::this_thread::yield();
        for (;;) {
          if (const auto v = q.dequeue()) {
            if (!v->coherent()) torn.store(true);
            delivered.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(delivered.load(),
            kThreads * static_cast<std::int64_t>(kHammerCycles));
  EXPECT_TRUE(q.empty());
  expect_pool_whole(q, kThreads);
}

TEST(TreiberStack, WidePayloadSurvivesRecyclingPressure) {
  constexpr int kThreads = 4;
  TreiberStack<WidePayload> s(kThreads);
  std::vector<std::thread> threads;
  std::atomic<std::int64_t> delivered{0};
  std::atomic<bool> torn{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kHammerCycles; ++i) {
        const auto p = WidePayload::make(t * kHammerCycles + i);
        while (!s.push(p)) std::this_thread::yield();
        for (;;) {
          if (const auto v = s.pop()) {
            if (!v->coherent()) torn.store(true);
            delivered.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(delivered.load(),
            kThreads * static_cast<std::int64_t>(kHammerCycles));
  EXPECT_TRUE(s.empty());
  expect_pool_whole(s, kThreads);
}

/// Parameterized ABA hammer: tight push/pop cycles over a tiny pool from
/// multiple threads maximize node recycling; the tag scheme must keep
/// the structures consistent.
class AbaHammerTest : public ::testing::TestWithParam<int> {};

TEST_P(AbaHammerTest, QueueSurvivesRecyclingPressure) {
  const int threads_n = GetParam();
  MsQueue<int> q(static_cast<std::size_t>(threads_n));  // minimal pool
  std::vector<std::thread> threads;
  std::atomic<std::int64_t> delivered{0};
  for (int t = 0; t < threads_n; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kHammerCycles; ++i) {
        while (!q.enqueue(i)) std::this_thread::yield();
        while (!q.dequeue()) std::this_thread::yield();
        delivered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(delivered.load(), threads_n * static_cast<std::int64_t>(kHammerCycles));
  EXPECT_TRUE(q.empty());
  expect_pool_whole(q, static_cast<std::size_t>(threads_n));
}

INSTANTIATE_TEST_SUITE_P(Sweep, AbaHammerTest, ::testing::Values(1, 2, 4));

TEST(NbwBuffer, SingleThreadReadBack) {
  struct Msg {
    int a;
    double b;
  };
  NbwBuffer<Msg> buf({1, 2.5});
  const Msg m = buf.read();
  EXPECT_EQ(m.a, 1);
  EXPECT_DOUBLE_EQ(m.b, 2.5);
  buf.write({7, -1.0});
  EXPECT_EQ(buf.read().a, 7);
  EXPECT_EQ(buf.version(), 2u);  // one write = +2, even when stable
  EXPECT_EQ(buf.stats().retry_count(), 0);
}

TEST(NbwBuffer, WriterIsWaitFreeReadersAreConsistent) {
  // The message carries a redundant checksum; a torn read would break
  // it.  One writer updates continuously; readers must never observe an
  // inconsistent pair.
  struct Msg {
    std::int64_t value;
    std::int64_t negated;
  };
  NbwBuffer<Msg> buf({0, 0});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::int64_t i = 1; i <= 200000; ++i) buf.write({i, -i});
    stop.store(true);
  });
  std::int64_t reads = 0;
  while (!stop.load()) {
    const Msg m = buf.read();
    ASSERT_EQ(m.value, -m.negated) << "torn read";
    ++reads;
  }
  writer.join();
  // On a single CPU the reader may get few slots; consistency of every
  // read it *did* make is the property under test (reads is only
  // informational).
  (void)reads;
  EXPECT_EQ(buf.version(), 2u * 200000u);
  const Msg last = buf.read();
  EXPECT_EQ(last.value, 200000);
}

}  // namespace
}  // namespace lfrt::lockfree
