// mpx/base/pool.hpp
//
// Freelist object pools for the datapath. The point-to-point hot path
// allocates a RequestImpl per operation, an UnexpMsg per early arrival, an
// AsyncThing per hook, and a payload buffer per eager message; recycling
// them through freelists removes the global allocator from the per-message
// cost (MPICH ships the same design: CH4 request pools and cell pools).
//
// Two shapes:
//   - FixedBlockPool     : raw-block pool. Process-wide instances back the
//                          class-level operator new/delete overloads
//                          (refcounted requests, unexpected messages,
//                          collective cursors, async hooks); each compiled
//                          collective schedule owns one for its scratch
//                          arenas. Allocation and release may run on
//                          different threads.
//   - PayloadPool        : power-of-two size classes behind
//                          pooled_buffer()/pooled_copy(); eager payloads are
//                          allocated under the sender's VCI and freed under
//                          the receiver's. Each class is a FixedBlockPool.
//
// MAGAZINES AND DEPOT. A process-wide pool is two layers (Bonwick's
// magazine allocator; tcmalloc's thread caches). Each thread keeps a short
// LIFO freelist per pool, its magazine, and serves allocate/release from it
// with no lock and no shared cache line. The shared, spinlock-guarded
// freelist (the depot) is touched only when a magazine runs empty (refill)
// or full (spill), and then half a magazine at a time. A magazine holds at
// most kMagazineBytes of blocks and at most kMagazineMaxBlocks blocks
// (magazine_blocks()); classes whose blocks exceed the byte budget run on
// the depot alone. Each pool's owner passes its depot cap, a named
// constant next to the pool (kRequestPoolCap and friends). A thread's
// magazines go back to the depot when it exits; a pool destroyed while
// magazines still hold its blocks drains them.
//
// STATS. PoolStats stay exact: magazine counters are written only by their
// owning thread and summed under the depot lock by stats(); an exiting
// thread folds its counts into the depot. `depot` counts depot-lock
// acquisitions, the per-message gate (0 in a warmed single-thread loop).
//
// SANITIZERS. Freelist reuse would blind AddressSanitizer to lifetime bugs
// (a use-after-release lands in recycled, still-mapped storage), so under
// ASan every pool degrades to plain operator new/delete per acquire —
// stats still count (into the magazine, without the depot lock), the
// allocator sees every lifetime. MPX_POOL_DISABLE=1 forces the same
// passthrough at runtime. TSan keeps pooling enabled: the depot lock is the
// only edge between threads, and racy reuse is exactly what it should see.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mpx/base/buffer.hpp"
#include "mpx/base/spinlock.hpp"
#include "mpx/base/stats.hpp"
#include "mpx/base/thread_safety.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define MPX_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MPX_POOL_ASAN 1
#endif
#endif
#ifndef MPX_POOL_ASAN
#define MPX_POOL_ASAN 0
#endif

namespace mpx::base {

/// True when pools must pass every acquire/release through the global
/// allocator: compiled under ASan, or MPX_POOL_DISABLE=1 in the
/// environment (read once).
bool pool_passthrough();

/// Per-thread magazine budget of a process-wide pool (or payload size
/// class): at most this many bytes of parked blocks...
inline constexpr std::size_t kMagazineBytes = 16 * 1024;
/// ...and at most this many blocks.
inline constexpr std::size_t kMagazineMaxBlocks = 32;

/// Magazine capacity, in blocks, of a pool of `block_size`-byte blocks. 0
/// means the pool runs on its depot alone.
constexpr std::size_t magazine_blocks(std::size_t block_size) {
  return std::min(kMagazineMaxBlocks, kMagazineBytes / block_size);
}

namespace pool_detail {
struct FreeNode {
  FreeNode* next;
};
struct Magazine;     // one thread's freelist for one pool (src/base/pool.cpp)
struct ThreadCache;  // one thread's magazines, indexed by pool id
}  // namespace pool_detail

/// Process-wide freelist of fixed-size raw blocks for class-level operator
/// new/delete overloads (allocation and release may happen on different
/// threads): per-thread magazines in front of a spinlock-guarded depot of
/// at most `max_free` parked blocks. A non-null `name` registers the pool
/// in the process-wide pool registry; PayloadPool's size classes pass
/// nullptr and report through its one "payload" row.
class FixedBlockPool {
 public:
  FixedBlockPool(const char* name, std::size_t block_size,
                 std::size_t max_free);
  FixedBlockPool(const FixedBlockPool&) = delete;
  FixedBlockPool& operator=(const FixedBlockPool&) = delete;
  ~FixedBlockPool();

  void* allocate(std::size_t n);
  void deallocate(void* p) noexcept;

  const char* name() const { return name_; }
  PoolStats stats() const;

 private:
  using Node = pool_detail::FreeNode;
  using Magazine = pool_detail::Magazine;
  friend struct pool_detail::ThreadCache;

  Magazine* magazine();
  Magazine* attach();
  void refill(Magazine& m);
  void spill(Magazine& m);
  void* depot_allocate(std::size_t n);
  void depot_release(void* p) noexcept;
  void give_back(Magazine& m) noexcept;
  void park(Node* n, Node*& drop) MPX_REQUIRES(mu_);

  const char* name_;
  const std::size_t block_size_;
  const std::size_t max_free_;  ///< depot cap
  const std::size_t mag_cap_;   ///< magazine_blocks(block_size_)
  const std::size_t batch_;     ///< blocks per refill/spill
  const bool passthrough_;      ///< pool_passthrough(), read once
  const std::uint32_t id_;      ///< index into each thread's magazine table
  mutable Spinlock mu_;         ///< the depot lock
  Node* free_ MPX_GUARDED_BY(mu_) = nullptr;
  /// Depot counters plus the counts folded in from detached magazines.
  /// `live` is kept signed in live_ instead: a block freed on another
  /// thread than the one that allocated it makes per-thread counts negative.
  PoolStats st_ MPX_GUARDED_BY(mu_);
  std::int64_t live_ MPX_GUARDED_BY(mu_) = 0;
  Magazine* mags_ MPX_GUARDED_BY(mu_) = nullptr;  ///< attached magazines
};

/// Power-of-two size-class pool behind pooled payload buffers. Blocks up
/// to max_block() bytes are recycled per class, each class a FixedBlockPool
/// (kDepotCap bounds each class's depot); larger requests fall through to
/// the allocator. Thread-safe.
class PayloadPool {
 public:
  static PayloadPool& instance();

  /// Raw-block interface; `n` is the caller's requested byte count. The
  /// class is derived from `n`, so release() must receive the same `n`.
  std::byte* allocate(std::size_t n);
  void release(std::byte* p, std::size_t n) noexcept;

  /// Largest pooled payload: the top size class.
  static constexpr std::size_t max_block() {
    return class_bytes(kClasses - 1);
  }
  PoolStats stats() const;

 private:
  PayloadPool();
  ~PayloadPool();

  static constexpr std::size_t kMinBlock = 64;
  static constexpr std::size_t kClasses = 11;  // 64 B .. 64 KiB
  static constexpr std::size_t kDepotCap = 128;  ///< parked blocks per class

  static std::size_t class_of(std::size_t n);
  static constexpr std::size_t class_bytes(std::size_t cls) {
    return kMinBlock << cls;
  }

  std::optional<FixedBlockPool> classes_[kClasses];
};

/// A Buffer of `n` bytes whose storage is recycled through the payload
/// pool when `n` fits a size class (plain new[] storage otherwise).
Buffer pooled_buffer(std::size_t n);

/// pooled_buffer(src.size()) plus a copy of `src`.
Buffer pooled_copy(ConstByteSpan src);

/// One registry row: pool name plus a snapshot of its counters.
struct NamedPoolStats {
  std::string name;
  PoolStats stats;
};

/// Snapshot every registered pool (request, unexp, async-thing, cursor,
/// payload, ...).
std::vector<NamedPoolStats> pool_registry_snapshot();

namespace pool_detail {
void register_pool(const char* name, PoolStats (*fn)(const void*),
                   const void* self);
void unregister_pool(const void* self);
/// Length of the calling thread's magazine table (one slot per pool id).
/// Pool ids are reused, so it tracks the most pools alive at once, not the
/// number ever created.
std::size_t thread_magazine_slots();
}  // namespace pool_detail

}  // namespace mpx::base
