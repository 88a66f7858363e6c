// mpx/coll/ir_cache.hpp
//
// The per-communicator schedule cache: a lock-free-read table of compiled
// schedules keyed by (coll kind, algorithm, dtype layout, reduce op, count
// class, in-place, root, rank). Readers are the collective fast path —
// every cached iallreduce does one acquire load plus a short linear scan
// (the table is tiny: one entry per distinct shape ever used on the comm).
//
// PUBLISH PROTOCOL (model-checked by test_mc_coll_cache.cpp). The table is
// an immutable snapshot published through an mc::atomic head pointer,
// RCU-style:
//
//   readers   find():   head_.load(acquire) -> scan -> copy shared_ptr out
//   writers   insert(): lock mu_ -> build a NEW table = old + entry
//                       -> head_.store(release) -> retire the old table
//
// A published table is never mutated; concurrent readers either see the
// old snapshot or the new one, both fully formed (release store pairs with
// the acquire load). Retired tables are parked until the cache is
// destroyed rather than freed at swap time — a reader between its load and
// its scan may still be walking one, and collectives are rare enough
// (tables small enough) that deferred reclamation costs nothing. Insert is
// first-writer-wins under mu_: a racing compile of the same key returns
// the winner's schedule so all callers share one instance.
//
// The cache itself is comm-agnostic; comm wiring (one SchedCache per
// CommImpl via the comm-ext slot) lives in ir_front.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mpx/base/spinlock.hpp"
#include "mpx/base/thread_safety.hpp"
#include "mpx/coll/ir.hpp"
#include "mpx/mc/mc.hpp"
#include "mpx/mc/sync.hpp"

namespace mpx::coll::ir {

/// Full specialization key of one compiled schedule. `algo` is always a
/// resolved value (selection happens before lookup and is deterministic,
/// so every rank of a comm agrees); `cls` is the count class (bucketed
/// bit-width of the byte length); `rank` is the member's rank because the
/// cache object is shared by every member thread of the communicator.
struct SchedKey {
  CollKind kind = CollKind::allreduce;
  Algo algo = Algo::rd;
  dtype::Primitive leaf = dtype::Primitive::byte;
  std::uint32_t esz = 0;  ///< element (datatype) size in bytes
  dtype::ReduceOp op = dtype::ReduceOp::sum;
  std::uint8_t cls = 0;
  bool in_place = false;
  std::int32_t root = 0;
  std::int32_t rank = 0;

  friend bool operator==(const SchedKey&, const SchedKey&) = default;
};

/// Schedules cached per communicator (every member rank's entries count);
/// inserts past it run uncached and count as rejects.
inline constexpr std::size_t kSchedCacheCap = 64;

class SchedCache {
 public:
  /// `capacity` bounds the number of cached schedules; inserts past it are
  /// rejected (the caller runs its freshly compiled schedule uncached).
  explicit SchedCache(std::size_t capacity) : cap_(capacity) {}

  SchedCache(const SchedCache&) = delete;
  SchedCache& operator=(const SchedCache&) = delete;

  ~SchedCache() {
    const Table* t = head_.load(std::memory_order_acquire);
    delete t;
    for (const Table* r : retired_) delete r;
  }

  /// Lock-free lookup; null when the key has not been compiled yet.
  SchedPtr find(const SchedKey& k) {
    const Table* t = head_.load(std::memory_order_acquire);
    if (t != nullptr) {
      for (const Entry& e : t->entries) {
        if (e.key == k) {
          hits_.fetch_add(1, std::memory_order_release);
          return e.sched;
        }
      }
    }
    misses_.fetch_add(1, std::memory_order_release);
    return nullptr;
  }

  /// Publish `s` under `k`. Returns the schedule now cached under the key:
  /// `s` itself normally, the earlier winner if another thread raced this
  /// insert, or null if the table is at capacity (caller keeps its private
  /// copy and the reject is counted).
  SchedPtr insert(const SchedKey& k, SchedPtr s) {
    base::LockGuard<base::Spinlock> g(mu_);
    // Acquire, not relaxed: mu_ already orders writers, but the checker's
    // memory model lets a relaxed load return stale values regardless of
    // lock clocks, and the previous publish was a plain release store.
    const Table* old = head_.load(std::memory_order_acquire);
    if (old != nullptr) {
      for (const Entry& e : old->entries) {
        if (e.key == k) return e.sched;  // lost the compile race
      }
      if (old->entries.size() >= cap_) {
        rejects_.fetch_add(1, std::memory_order_release);
        return nullptr;
      }
    }
    auto* next = new Table;
    if (old != nullptr) next->entries = old->entries;
    next->entries.push_back(Entry{k, s});
    // Release publish: a reader's acquire load of head_ sees the fully
    // built table. The old snapshot is retired, not freed — a concurrent
    // find() may still be scanning it.
    head_.store(next, std::memory_order_release);
    if (old != nullptr) {
      MPX_MC_PLAIN_WRITE(&retired_, "cache retired-table list");
      retired_.push_back(old);
    }
    return s;
  }

  /// Snapshot of every cached schedule (for stats aggregation across the
  /// scratch recyclers). Same read protocol as find().
  std::vector<SchedPtr> snapshot() const {
    std::vector<SchedPtr> out;
    const Table* t = head_.load(std::memory_order_acquire);
    if (t != nullptr) {
      out.reserve(t->entries.size());
      for (const Entry& e : t->entries) out.push_back(e.sched);
    }
    return out;
  }

  // Release increments / acquire reads: a reader that synchronized with
  // the counting thread (e.g. joined it) sees exact values.
  std::uint64_t hits() const { return hits_.load(std::memory_order_acquire); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_acquire);
  }
  std::uint64_t rejects() const {
    return rejects_.load(std::memory_order_acquire);
  }
  std::uint32_t entries() const {
    const Table* t = head_.load(std::memory_order_acquire);
    return t == nullptr ? 0 : static_cast<std::uint32_t>(t->entries.size());
  }

 private:
  struct Entry {
    SchedKey key;
    SchedPtr sched;
  };
  struct Table {
    std::vector<Entry> entries;
  };

  /// Current published snapshot; owned by the cache (freed in the dtor
  /// together with the retired list).
  mc::atomic<const Table*> head_{nullptr};
  /// Writer serialization + retired-list guard. Leaf lock (LockRank::none):
  /// insert holds it across a table copy but never calls back into the
  /// runtime.
  base::Spinlock mu_{"coll-cache", base::LockRank::none};
  std::vector<const Table*> retired_ MPX_GUARDED_BY(mu_);
  const std::size_t cap_;

  mc::atomic<std::uint64_t> hits_{0};
  mc::atomic<std::uint64_t> misses_{0};
  mc::atomic<std::uint64_t> rejects_{0};
};

}  // namespace mpx::coll::ir
