// Model-check: FixedBlockPool block handoff through the shared depot under
// cross-thread allocate/deallocate (the pooled operator new/delete pattern:
// a request is allocated on one thread and released on another).
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "mpx/base/pool.hpp"
#include "mpx/mc/mc.hpp"

#if MPX_MODEL_CHECK

namespace mc = mpx::mc;
using mpx::base::FixedBlockPool;

TEST(McPool, CrossThreadRecycleNeverDoubleHandsABlock) {
  // 8 KiB blocks give two-block magazines (one-block batches), so a handful
  // of operations reaches the depot: every refill and spill below is a
  // modeled depot-lock acquisition the explorer interleaves.
  constexpr std::size_t kBlock = 8192;
  static_assert(mpx::base::magazine_blocks(kBlock) == 2);
  constexpr std::size_t kDepot = 4;
  // Static pool: FixedBlockPool registers itself in the process-wide pool
  // registry, so it must outlive every schedule anyway.
  static FixedBlockPool pool("mc_test_pool", kBlock, /*max_free=*/8);

  // Stock the depot from a plain (unmodeled) thread: its magazine goes back
  // at exit, leaving kDepot blocks in the depot and no magazine behind.
  std::thread([] {
    void* b[kDepot];
    for (void*& p : b) p = pool.allocate(kBlock);
    for (void* p : b) pool.deallocate(p);
  }).join();
  ASSERT_EQ(pool.stats().free_count, kDepot);

  // Every virtual thread starts with an empty magazine and flushes it to
  // the depot when it exits, and each schedule ends with every block freed,
  // so each schedule starts from the same kDepot-block depot (determinism
  // requirement). The main thread never uses the pool inside explore().
  mc::Options opt;
  opt.name = "pool_recycle";
  const mc::Result res = mc::explore(opt, [] {
    // Three refills of one block each drain the depot to one block.
    void* a[3];
    for (void*& p : a) {
      p = pool.allocate(kBlock);
      mc::check(p != nullptr, "allocate must succeed");
      std::memset(p, 0x5a, 64);
    }

    // The other thread releases all three (cross-thread free): the third
    // release finds its magazine full and spills one block to the depot.
    // It then allocates from its own magazine while this thread refills
    // from the depot — possibly the block just spilled. Across every
    // interleaving the two live allocations must be distinct blocks.
    void* b_out = nullptr;
    mc::thread other([&] {
      for (void* p : a) pool.deallocate(p);
      b_out = pool.allocate(kBlock);
      mc::check(b_out != nullptr, "allocate must succeed");
      std::memset(b_out, 0x6b, 64);
    });
    void* c = pool.allocate(kBlock);
    mc::check(c != nullptr, "allocate must succeed");
    std::memset(c, 0x7c, 64);
    other.join();

    mc::check(b_out != c, "depot handed the same block to two threads");
    mc::check(*static_cast<unsigned char*>(b_out) == 0x6b &&
                  *static_cast<unsigned char*>(c) == 0x7c,
              "a live block was overwritten");
    pool.deallocate(b_out);
    pool.deallocate(c);
  });
  RecordProperty("summary", res.summary());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_TRUE(res.exhausted || res.truncated || res.bound_limited)
      << res.summary();
  EXPECT_GT(res.schedules, 1);
  // No schedule ever missed (the depot always had a block for a refill),
  // and every block is back in the depot.
  const mpx::base::PoolStats s = pool.stats();
  EXPECT_EQ(s.misses, kDepot);
  EXPECT_EQ(s.live, 0u);
  EXPECT_EQ(s.free_count, kDepot);
}

#else
TEST(McPool, SkippedWithoutModelCheck) { GTEST_SKIP(); }
#endif
