// Unit tests for the base foundation: intrusive containers, refcounting,
// queues, clocks, stats, cvars, pools, and locks.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <type_traits>
#include <vector>

#include "mpx/base/clock.hpp"
#include "mpx/base/cvar.hpp"
#include "mpx/base/instrumented_mutex.hpp"
#include "mpx/base/intrusive.hpp"
#include "mpx/base/pool.hpp"
#include "mpx/base/queue.hpp"
#include "mpx/base/spinlock.hpp"
#include "mpx/base/stats.hpp"
#include "mpx/base/thread.hpp"
#include "mpx/mc/sync.hpp"

using namespace mpx::base;

#if !MPX_MODEL_CHECK
// Zero-overhead pin for the mc:: shims (promised by mpx/mc/sync.hpp): in
// production builds they ARE the raw primitives — pure aliases, no wrapper
// types, nothing for codegen to see.
static_assert(std::is_same_v<mpx::mc::atomic<int>, std::atomic<int>>);
static_assert(std::is_same_v<mpx::mc::atomic<bool>, std::atomic<bool>>);
static_assert(std::is_same_v<mpx::mc::mutex, std::mutex>);
static_assert(std::is_same_v<mpx::mc::rec_mutex, std::recursive_mutex>);
static_assert(std::is_same_v<mpx::mc::spinlock, mpx::base::Spinlock>);
#endif

namespace {

struct Node {
  explicit Node(int val) : v(val) {}
  int v;
  ListHook hook;
};
using NodeList = IntrusiveList<Node, &Node::hook>;

}  // namespace

TEST(Intrusive, ForEachUntilStopsEarly) {
  NodeList l;
  Node a(1), b(2), c(3);
  l.push_back(&a);
  l.push_back(&b);
  l.push_back(&c);
  int visited = 0;
  Node* hit = l.for_each_until([&](Node* n) {
    ++visited;
    return n->v == 2;
  });
  ASSERT_EQ(hit, &b);
  EXPECT_EQ(visited, 2);  // early exit: c never visited
  EXPECT_EQ(l.for_each_until([](Node* n) { return n->v == 9; }), nullptr);
  l.erase(&a);
  l.erase(&b);
  l.erase(&c);
}

TEST(Intrusive, PushPopOrder) {
  NodeList l;
  Node a(1), b(2), c(3);
  EXPECT_TRUE(l.empty());
  l.push_back(&a);
  l.push_back(&b);
  l.push_front(&c);
  EXPECT_EQ(l.size(), 3u);
  EXPECT_EQ(l.pop_front()->v, 3);
  EXPECT_EQ(l.pop_front()->v, 1);
  EXPECT_EQ(l.pop_front()->v, 2);
  EXPECT_EQ(l.pop_front(), nullptr);
}

TEST(Intrusive, EraseMiddleAndRelink) {
  NodeList l;
  Node a(1), b(2), c(3);
  l.push_back(&a);
  l.push_back(&b);
  l.push_back(&c);
  l.erase(&b);
  EXPECT_EQ(l.size(), 2u);
  EXPECT_FALSE(b.hook.linked());
  l.push_back(&b);  // relinking after erase is legal
  std::vector<int> seen;
  l.for_each_safe([&](Node* n) { seen.push_back(n->v); });
  EXPECT_EQ(seen, (std::vector<int>{1, 3, 2}));
}

TEST(Intrusive, ForEachSafeAllowsErasingCurrent) {
  NodeList l;
  std::vector<Node> nodes;
  nodes.reserve(10);
  for (int i = 0; i < 10; ++i) nodes.emplace_back(i);
  for (auto& n : nodes) l.push_back(&n);
  l.for_each_safe([&](Node* n) {
    if (n->v % 2 == 0) l.erase(n);
  });
  EXPECT_EQ(l.size(), 5u);
  l.for_each_safe([&](Node* n) { EXPECT_EQ(n->v % 2, 1); });
}

TEST(Intrusive, SpliceBack) {
  NodeList a, b;
  Node n1(1), n2(2), n3(3);
  a.push_back(&n1);
  b.push_back(&n2);
  b.push_back(&n3);
  a.splice_back(b);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(a.size(), 3u);
  std::vector<int> seen;
  a.for_each_safe([&](Node* n) { seen.push_back(n->v); });
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

namespace {
struct Counted : RefCounted {
  explicit Counted(int* d) : deaths(d) {}
  ~Counted() { ++*deaths; }
  int* deaths;
};
}  // namespace

TEST(Refcount, AdoptShareRelease) {
  int deaths = 0;
  {
    Ref<Counted> r1(new Counted(&deaths));  // adopt
    EXPECT_EQ(r1->ref_count(), 1);
    {
      Ref<Counted> r2 = r1;  // copy: +1
      EXPECT_EQ(r1->ref_count(), 2);
      Ref<Counted> r3 = Ref<Counted>::share(r1.get());  // +1
      EXPECT_EQ(r1->ref_count(), 3);
    }
    EXPECT_EQ(r1->ref_count(), 1);
    Counted* raw = r1.release();  // manual ownership
    EXPECT_FALSE(r1);
    Ref<Counted> r4(raw);  // re-adopt
  }
  EXPECT_EQ(deaths, 1);
}

TEST(SpscRing, FifoAndCapacity) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_FALSE(ring.try_push(99));  // full
  for (int i = 0; i < 8; ++i) {
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, RejectsNonPowerOfTwo) {
  EXPECT_THROW(SpscRing<int>(6), mpx::UsageError);
}

TEST(SpscRing, ConcurrentProducerConsumer) {
  SpscRing<int> ring(64);
  constexpr int kN = 100000;
  std::int64_t sum = 0;
  std::thread consumer([&] {
    int got = 0;
    while (got < kN) {
      if (auto v = ring.try_pop()) {
        sum += *v;
        ++got;
      } else {
        cpu_relax();
      }
    }
  });
  for (int i = 0; i < kN; ++i) {
    while (!ring.try_push(int(i))) cpu_relax();
  }
  consumer.join();
  EXPECT_EQ(sum, static_cast<std::int64_t>(kN) * (kN - 1) / 2);
}

TEST(MpscQueue, ConcurrentProducers) {
  MpscQueue<int> q;
  constexpr int kPer = 20000;
  {
    std::vector<std::thread> producers;
    for (int t = 0; t < 4; ++t) {
      producers.emplace_back([&q, t] {
        for (int i = 0; i < kPer; ++i) q.push(t * kPer + i);
      });
    }
    for (auto& p : producers) p.join();
  }
  std::set<int> seen;
  while (auto v = q.try_pop()) seen.insert(*v);
  EXPECT_EQ(seen.size(), 4u * kPer);
}

TEST(Clock, SteadyMonotonic) {
  SteadyClock c;
  const double a = c.now();
  const double b = c.now();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(Clock, VirtualAdvanceAndSet) {
  VirtualClock c;
  EXPECT_EQ(c.now(), 0.0);
  c.advance(1.5);
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.set(3.0);
  EXPECT_DOUBLE_EQ(c.now(), 3.0);
  EXPECT_THROW(c.set(2.0), mpx::UsageError);   // backwards
  EXPECT_THROW(c.advance(-1.0), mpx::UsageError);
}

TEST(Stats, SummaryAndTrimmedMean) {
  LatencyRecorder r;
  for (int i = 1; i <= 99; ++i) r.add_us(1.0);
  r.add_us(1000.0);  // one outlier
  const auto s = r.summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.mean_us, 10.99, 0.01);
  EXPECT_NEAR(s.trimmed_mean_us, 1.0, 1e-9);  // outlier trimmed
  EXPECT_NEAR(s.p50_us, 1.0, 1e-9);
  EXPECT_NEAR(s.max_us, 1000.0, 1e-9);
}

TEST(Stats, MeanAccumulatorWelford) {
  MeanAccumulator m;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.add(x);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Cvar, EnvParsing) {
  setenv("MPX_TEST_INT", "42", 1);
  setenv("MPX_TEST_BAD", "pony", 1);
  setenv("MPX_TEST_BOOL", "yes", 1);
  EXPECT_EQ(cvar_int("MPX_TEST_INT", 7), 42);
  EXPECT_EQ(cvar_int("MPX_TEST_BAD", 7), 7);
  EXPECT_EQ(cvar_int("MPX_TEST_UNSET", 7), 7);
  EXPECT_TRUE(cvar_bool("MPX_TEST_BOOL", false));
  EXPECT_EQ(cvar_string("MPX_TEST_INT", ""), "42");
}

TEST(Pool, FixedBlockPoolRegistryAndStats) {
  auto find = [](const char* name) -> std::optional<PoolStats> {
    for (const NamedPoolStats& row : pool_registry_snapshot()) {
      if (row.name == name) return row.stats;
    }
    return std::nullopt;
  };
  EXPECT_FALSE(find("test-block").has_value());
  {
    FixedBlockPool pool("test-block", 64, /*max_free=*/4);
    void* p = pool.allocate(64);
    void* q = pool.allocate(32);  // smaller than block: still poolable
    ASSERT_TRUE(find("test-block").has_value());
    EXPECT_EQ(find("test-block")->live, 2u);
    pool.deallocate(p);
    pool.deallocate(q);
    EXPECT_EQ(find("test-block")->live, 0u);
    if (!pool_passthrough()) {
      EXPECT_EQ(find("test-block")->free_count, 2u);
      void* r = pool.allocate(64);
      EXPECT_EQ(pool.stats().hits, 1u);
      pool.deallocate(r);
    }
    // Oversized requests bypass the freelist but stay accounted.
    void* big = pool.allocate(1024);
    EXPECT_EQ(pool.stats().live, 1u);
    pool.deallocate(big);
  }
  // Destruction unregisters the pool.
  EXPECT_FALSE(find("test-block").has_value());
}

// Blocks allocated on one thread and freed on another: the counts split
// across two magazines (thread B's `live` goes negative) and both fold into
// the depot at thread exit, so the totals stay exact.
TEST(Pool, CrossThreadFreeKeepsStatsExact) {
  constexpr std::size_t kN = 100;
  constexpr std::size_t kCap = 40;
  FixedBlockPool pool("test-xthread", 64, /*max_free=*/kCap);
  std::vector<void*> blocks;
  std::thread a([&] {
    for (std::size_t i = 0; i < kN; ++i) blocks.push_back(pool.allocate(64));
  });
  a.join();
  EXPECT_EQ(pool.stats().live, kN);
  std::thread b([&] {
    for (void* p : blocks) pool.deallocate(p);
  });
  b.join();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, kN);
  EXPECT_EQ(s.live, 0u);
  // Both magazines went back at thread exit: every parked block is in the
  // depot, which keeps kCap of them and frees the rest.
  const std::size_t parked = pool_passthrough() ? 0 : kCap;
  EXPECT_EQ(s.free_count, parked);
  EXPECT_EQ(s.overflow, kN - parked);
  EXPECT_GT(s.depot, 0u);
}

// Pool ids are reused, so a thread's magazine table stays as long as the
// most pools it saw alive at once; each destroyed pool drains the calling
// thread's magazine before the next one takes its id.
TEST(Pool, StackPoolsKeepMagazineTableBounded) {
  std::size_t slots = 0;
  for (int i = 0; i < 1000; ++i) {
    FixedBlockPool pool("test-stack", 64, /*max_free=*/4);
    void* p = pool.allocate(64);
    void* q = pool.allocate(64);
    pool.deallocate(p);
    pool.deallocate(q);
    EXPECT_EQ(pool.stats().free_count, pool_passthrough() ? 0u : 2u);
    if (i == 0) slots = pool_detail::thread_magazine_slots();
  }
  EXPECT_GT(slots, 0u);
  EXPECT_EQ(pool_detail::thread_magazine_slots(), slots);
}

// A pool destroyed while another live thread still holds blocks in its
// magazine frees them; that thread then exits cleanly, and its next pool
// reuses the detached magazine.
TEST(Pool, DestroyDrainsMagazinesOfLiveThreads) {
  std::mutex mu;
  std::condition_variable cv;
  int phase = 0;
  auto pool = std::make_unique<FixedBlockPool>("test-drain", 64, 8);
  std::thread t([&] {
    pool->deallocate(pool->allocate(64));  // parks one block
    std::unique_lock<std::mutex> lk(mu);
    phase = 1;
    cv.notify_all();
    cv.wait(lk, [&] { return phase == 2; });
    FixedBlockPool next("test-drain-next", 64, 8);
    next.deallocate(next.allocate(64));
    EXPECT_EQ(next.stats().live, 0u);
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return phase == 1; });
    EXPECT_EQ(pool->stats().free_count, pool_passthrough() ? 0u : 1u);
    pool.reset();
    phase = 2;
    cv.notify_all();
  }
  t.join();
}

TEST(Pool, PooledBufferRoundtrip) {
  const char msg[] = "pooled payload bytes";
  Buffer b = pooled_copy(as_bytes(msg, sizeof(msg)));
  ASSERT_EQ(b.size(), sizeof(msg));
  EXPECT_EQ(std::memcmp(b.data(), msg, sizeof(msg)), 0);
  // Oversized buffers fall back to plain storage but keep working.
  Buffer big = pooled_buffer(PayloadPool::instance().max_block() + 1);
  EXPECT_EQ(big.size(), PayloadPool::instance().max_block() + 1);
  big.data()[0] = std::byte{7};
  Buffer moved = std::move(big);
  EXPECT_EQ(moved.data()[0], std::byte{7});
  EXPECT_EQ(pooled_buffer(0).size(), 0u);
}

TEST(Pool, PayloadPoolRecyclesPerSizeClass) {
  PayloadPool& pool = PayloadPool::instance();
  const PoolStats before = pool.stats();
  {
    Buffer a = pooled_buffer(256);
    EXPECT_EQ(pool.stats().live, before.live + 1);
  }  // released back into the 256-byte class
  EXPECT_EQ(pool.stats().live, before.live);
  if (!pool_passthrough()) {
    Buffer b = pooled_buffer(256);
    EXPECT_GT(pool.stats().hits, before.hits);  // storage was recycled
  }
}

TEST(Locks, SpinlockMutualExclusion) {
  Spinlock mu;
  int counter = 0;
  {
    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t) {
      ts.emplace_back([&] {
        for (int i = 0; i < 10000; ++i) {
          std::lock_guard<Spinlock> g(mu);
          ++counter;
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  EXPECT_EQ(counter, 40000);
}

TEST(Locks, InstrumentedMutexCountsAndRecursion) {
  InstrumentedMutex mu;
  mu.lock();
  mu.lock();  // recursive acquisition must not deadlock
  mu.unlock();
  mu.unlock();
  EXPECT_EQ(mu.stats().acquires, 2u);
  EXPECT_EQ(mu.stats().contended, 0u);
  mu.reset_stats();
  EXPECT_EQ(mu.stats().acquires, 0u);
}
