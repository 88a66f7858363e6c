// Process-wide pool machinery: the passthrough switch, the magazine/depot
// engine behind FixedBlockPool and PayloadPool (per-thread magazine tables,
// thread-exit flush, pool ids), and the stats registry.
#include "mpx/base/pool.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>

#include "mpx/base/cvar.hpp"
#include "mpx/mc/mc.hpp"

namespace mpx::base {

bool pool_passthrough() {
  static const bool off = MPX_POOL_ASAN || cvar_bool("MPX_POOL_DISABLE", false);
  return off;
}

// ---- registry ----

namespace {

struct RegistryRow {
  const char* name;
  PoolStats (*fn)(const void*);
  const void* self;
};

// Raw std::mutex, deliberately NOT base::Spinlock: pools register lazily on
// first use (function-local statics), so under MPX_MODEL_CHECK a modeled
// registry lock would add one-time schedule points in whichever schedule
// first touches a pool — breaking the explorer's requirement that every
// schedule replay the same op stream. Registration is init bookkeeping, not
// a protocol under test.
struct Registry {
  std::mutex mu;
  std::vector<RegistryRow> rows;  // guarded by mu
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

namespace pool_detail {

void register_pool(const char* name, PoolStats (*fn)(const void*),
                   const void* self) {
  Registry& r = registry();
  std::lock_guard<std::mutex> g(r.mu);
  r.rows.push_back(RegistryRow{name, fn, self});
}

void unregister_pool(const void* self) {
  Registry& r = registry();
  std::lock_guard<std::mutex> g(r.mu);
  r.rows.erase(std::remove_if(r.rows.begin(), r.rows.end(),
                              [&](const RegistryRow& row) {
                                return row.self == self;
                              }),
               r.rows.end());
}

}  // namespace pool_detail

std::vector<NamedPoolStats> pool_registry_snapshot() {
  // Copy the rows first: fn() takes the pool's own lock, and holding the
  // registry lock across that would order registry -> pool for readers
  // while registration orders pool-construction -> registry.
  std::vector<RegistryRow> rows;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> g(r.mu);
    rows = r.rows;
  }
  std::vector<NamedPoolStats> out;
  out.reserve(rows.size());
  for (const RegistryRow& row : rows) {
    out.push_back(NamedPoolStats{row.name, row.fn(row.self)});
  }
  return out;
}

// ---- magazines ----

namespace pool_detail {

/// One thread's freelist for one pool. Only the owning thread pops and
/// pushes blocks and writes the counters; the counters are relaxed atomics
/// so that stats() can sum them, under the depot lock, while the owner
/// runs. `pool`, `prev` and `next` change only under the pool's depot lock
/// (attach, thread exit, pool destruction).
struct Magazine {
  FixedBlockPool* pool = nullptr;  ///< attached pool; null once detached
  Magazine* prev = nullptr;        ///< the pool's list of magazines
  Magazine* next = nullptr;
  FreeNode* head = nullptr;
  /// Allocations this magazine may serve from the allocator without asking
  /// the depot again: a refill that finds the depot short grants the
  /// difference as credit, so every refill supplies exactly one batch. How
  /// often a thread takes the depot lock then depends only on its own
  /// allocate/release sequence, never on what other threads left in the
  /// depot (which also keeps model-checked schedules deterministic).
  std::size_t credit = 0;
  std::atomic<std::size_t> count{0};  ///< blocks on `head`
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> overflow{0};
  std::atomic<std::int64_t> live{0};

  /// Detached and empty: the owner's slot is free for the next pool that
  /// takes this pool id.
  void clear() {
    pool = nullptr;
    prev = next = nullptr;
    head = nullptr;
    credit = 0;
    count.store(0, std::memory_order_relaxed);
    hits.store(0, std::memory_order_relaxed);
    misses.store(0, std::memory_order_relaxed);
    overflow.store(0, std::memory_order_relaxed);
    live.store(0, std::memory_order_relaxed);
  }
};

}  // namespace pool_detail

namespace {

using pool_detail::FreeNode;
using pool_detail::Magazine;

/// Owner-only counter update: a plain load and store, no RMW.
template <class T>
void bump(std::atomic<T>& c, T delta) {
  c.store(static_cast<T>(c.load(std::memory_order_relaxed) + delta),
          std::memory_order_relaxed);
}

void free_chain(FreeNode* n) noexcept {
  while (n != nullptr) {
    FreeNode* next = n->next;
    ::operator delete(static_cast<void*>(n));
    n = next;
  }
}

// Hot-path view of the calling thread's magazine table (trivially
// destructible, so reading it needs no TLS guard). ThreadCache owns the
// storage.
thread_local Magazine* const* t_slots = nullptr;
thread_local std::size_t t_nslots = 0;
// Set once the thread's magazines went back to their depots: later pool
// calls on this thread (from other thread_local destructors) use the depot.
thread_local bool t_exited = false;

// Orders a thread-exit flush against pool destruction, so an exiting thread
// never hands blocks to a pool being destroyed. Always taken before a depot
// lock. Constant-initialized: outlives every pool.
constinit Spinlock g_exit_mu;

// Pool ids index the per-thread tables. Freed ids are reused, so a table
// grows with the most pools alive at once, not with every pool ever made.
// Raw std::mutex like the registry: static pools take an id once, in
// whichever model-checked schedule first touches them.
struct PoolIds {
  std::mutex mu;
  std::vector<std::uint32_t> free;  // guarded by mu
  std::uint32_t next = 0;           // guarded by mu
};

PoolIds& pool_ids() {
  static PoolIds ids;
  return ids;
}

std::uint32_t acquire_pool_id() {
  PoolIds& ids = pool_ids();
  std::lock_guard<std::mutex> g(ids.mu);
  if (ids.free.empty()) return ids.next++;
  const std::uint32_t id = ids.free.back();
  ids.free.pop_back();
  return id;
}

void release_pool_id(std::uint32_t id) {
  PoolIds& ids = pool_ids();
  std::lock_guard<std::mutex> g(ids.mu);
  ids.free.push_back(id);
}

}  // namespace

namespace pool_detail {

struct ThreadCache {
  std::vector<Magazine*> slots;  ///< by pool id; entries may be detached

  ThreadCache();
  ~ThreadCache() { flush(); }
  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;

  /// Give every attached magazine back to its depot and free the table.
  void flush() noexcept {
    if (t_exited) return;
    t_exited = true;
    t_slots = nullptr;
    t_nslots = 0;
    {
      LockGuard<Spinlock> g(g_exit_mu);
      for (Magazine* m : slots) {
        if (m != nullptr && m->pool != nullptr) m->pool->give_back(*m);
      }
    }
    for (Magazine* m : slots) delete m;
    slots.clear();
  }
};

namespace {
ThreadCache& thread_cache() {
  thread_local ThreadCache tc;
  return tc;
}
}  // namespace

ThreadCache::ThreadCache() {
#if MPX_MODEL_CHECK
  mc::detail::at_vthread_exit([] { thread_cache().flush(); });
#endif
}

std::size_t thread_magazine_slots() { return t_nslots; }

}  // namespace pool_detail

// ---- FixedBlockPool ----

FixedBlockPool::FixedBlockPool(const char* name, std::size_t block_size,
                               std::size_t max_free)
    : name_(name),
      block_size_(std::max(block_size, sizeof(Node))),
      max_free_(max_free),
      mag_cap_(magazine_blocks(block_size_)),
      batch_(std::max<std::size_t>(1, mag_cap_ / 2)),
      passthrough_(pool_passthrough()),
      id_(acquire_pool_id()) {
  if (name_ == nullptr) return;
  pool_detail::register_pool(
      name, [](const void* self) {
        return static_cast<const FixedBlockPool*>(self)->stats();
      },
      this);
}

FixedBlockPool::~FixedBlockPool() {
  if (name_ != nullptr) pool_detail::unregister_pool(this);
  Node* drop = nullptr;
  {
    LockGuard<Spinlock> e(g_exit_mu);
    LockGuard<Spinlock> g(mu_);
    // Magazines of threads still alive: take their blocks and detach them,
    // so the owners find their slot free for whichever pool reuses the id.
    while (mags_ != nullptr) {
      Magazine& m = *mags_;
      while (m.head != nullptr) {
        Node* n = m.head;
        m.head = n->next;
        n->next = drop;
        drop = n;
      }
      mags_ = m.next;
      m.clear();
    }
    while (free_ != nullptr) {
      Node* n = free_;
      free_ = n->next;
      n->next = drop;
      drop = n;
    }
  }
  free_chain(drop);
  release_pool_id(id_);
}

inline Magazine* FixedBlockPool::magazine() {
  if (id_ < t_nslots) {
    Magazine* m = t_slots[id_];
    if (m != nullptr && m->pool == this) return m;
  }
  return attach();
}

Magazine* FixedBlockPool::attach() {
  if (t_exited) return nullptr;
  pool_detail::ThreadCache& tc = pool_detail::thread_cache();
  if (tc.slots.size() <= id_) {
    tc.slots.resize(id_ + 1, nullptr);
    t_slots = tc.slots.data();
    t_nslots = tc.slots.size();
  }
  Magazine*& slot = tc.slots[id_];
  if (slot == nullptr) slot = new Magazine;
  Magazine& m = *slot;
  LockGuard<Spinlock> g(mu_);
  ++st_.depot;
  m.pool = this;
  m.prev = nullptr;
  m.next = mags_;
  if (mags_ != nullptr) mags_->prev = &m;
  mags_ = &m;
  return &m;
}

void* FixedBlockPool::allocate(std::size_t n) {
  if (mag_cap_ == 0 && !passthrough_) return depot_allocate(n);
  Magazine* m = magazine();
  if (m == nullptr) return depot_allocate(n);
  bump(m->live, std::int64_t{1});
  if (n <= block_size_ && !passthrough_) {
    if (m->head == nullptr && m->credit == 0) refill(*m);
    if (Node* node = m->head) {
      m->head = node->next;
      m->count.store(m->count.load(std::memory_order_relaxed) - 1,
                     std::memory_order_relaxed);
      bump(m->hits, std::uint64_t{1});
      return static_cast<void*>(node);
    }
    --m->credit;
  }
  bump(m->misses, std::uint64_t{1});
  return ::operator new(std::max(n, block_size_));
}

void FixedBlockPool::deallocate(void* p) noexcept {
  if (p == nullptr) return;
  if (mag_cap_ == 0 && !passthrough_) return depot_release(p);
  Magazine* m = magazine();
  if (m == nullptr) return depot_release(p);
  bump(m->live, std::int64_t{-1});
  if (passthrough_) {
    bump(m->overflow, std::uint64_t{1});
    ::operator delete(p);
    return;
  }
  const std::size_t count = m->count.load(std::memory_order_relaxed);
  if (count + m->credit >= mag_cap_) spill(*m);
  m->head = ::new (p) Node{m->head};
  bump(m->count, std::size_t{1});
}

// Magazine empty and no credit left: take up to one batch from the depot;
// whatever the depot lacks becomes credit.
void FixedBlockPool::refill(Magazine& m) {
  LockGuard<Spinlock> g(mu_);
  ++st_.depot;
  std::size_t got = 0;
  while (got < batch_ && free_ != nullptr) {
    Node* n = free_;
    free_ = n->next;
    n->next = m.head;
    m.head = n;
    ++got;
  }
  st_.free_count -= got;
  m.count.store(got, std::memory_order_relaxed);
  m.credit = batch_ - got;
}

// Magazine full (blocks plus credit): give one batch back, unused credit
// first, blocks for the rest. Blocks past the depot cap are freed.
void FixedBlockPool::spill(Magazine& m) {
  const std::size_t cancel = std::min(m.credit, batch_);
  m.credit -= cancel;
  Node* drop = nullptr;
  {
    LockGuard<Spinlock> g(mu_);
    ++st_.depot;
    for (std::size_t k = cancel; k < batch_; ++k) {
      Node* n = m.head;
      m.head = n->next;
      park(n, drop);
    }
    m.count.store(m.count.load(std::memory_order_relaxed) - (batch_ - cancel),
                  std::memory_order_relaxed);
  }
  free_chain(drop);
}

// Park `n` in the depot, or chain it on `drop` (freed once the lock is
// released) when the depot is at its cap.
void FixedBlockPool::park(Node* n, Node*& drop) {
  if (st_.free_count < max_free_) {
    n->next = free_;
    free_ = n;
    ++st_.free_count;
  } else {
    n->next = drop;
    drop = n;
    ++st_.overflow;
  }
}

// Thread exit (g_exit_mu held): park the magazine's blocks in the depot,
// fold its counters in, and detach it.
void FixedBlockPool::give_back(Magazine& m) noexcept {
  Node* drop = nullptr;
  {
    LockGuard<Spinlock> g(mu_);
    ++st_.depot;
    while (m.head != nullptr) {
      Node* n = m.head;
      m.head = n->next;
      park(n, drop);
    }
    st_.hits += m.hits.load(std::memory_order_relaxed);
    st_.misses += m.misses.load(std::memory_order_relaxed);
    st_.overflow += m.overflow.load(std::memory_order_relaxed);
    live_ += m.live.load(std::memory_order_relaxed);
    if (m.prev != nullptr) m.prev->next = m.next;
    if (m.next != nullptr) m.next->prev = m.prev;
    if (mags_ == &m) mags_ = m.next;
    m.clear();
  }
  free_chain(drop);
}

// Depot-only path: pools whose blocks exceed the magazine budget, and
// threads whose magazines are already flushed.
void* FixedBlockPool::depot_allocate(std::size_t n) {
  {
    LockGuard<Spinlock> g(mu_);
    ++st_.depot;
    ++live_;
    if (n <= block_size_ && !passthrough_ && free_ != nullptr) {
      Node* node = free_;
      free_ = node->next;
      --st_.free_count;
      ++st_.hits;
      return static_cast<void*>(node);
    }
    ++st_.misses;
  }
  return ::operator new(std::max(n, block_size_));
}

void FixedBlockPool::depot_release(void* p) noexcept {
  {
    LockGuard<Spinlock> g(mu_);
    ++st_.depot;
    --live_;
    if (st_.free_count < max_free_ && !passthrough_) {
      free_ = ::new (p) Node{free_};
      ++st_.free_count;
      return;
    }
    ++st_.overflow;
  }
  ::operator delete(p);
}

PoolStats FixedBlockPool::stats() const {
  LockGuard<Spinlock> g(mu_);
  PoolStats s = st_;
  std::int64_t live = live_;
  for (const Magazine* m = mags_; m != nullptr; m = m->next) {
    s.hits += m->hits.load(std::memory_order_relaxed);
    s.misses += m->misses.load(std::memory_order_relaxed);
    s.overflow += m->overflow.load(std::memory_order_relaxed);
    s.free_count += m->count.load(std::memory_order_relaxed);
    live += m->live.load(std::memory_order_relaxed);
  }
  s.live = static_cast<std::size_t>(live);
  return s;
}

// ---- PayloadPool ----

PayloadPool::PayloadPool() {
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    classes_[cls].emplace(nullptr, class_bytes(cls), kDepotCap);
  }
  pool_detail::register_pool(
      "payload", [](const void* self) {
        return static_cast<const PayloadPool*>(self)->stats();
      },
      this);
}

PayloadPool::~PayloadPool() { pool_detail::unregister_pool(this); }

PayloadPool& PayloadPool::instance() {
  static PayloadPool pool;
  return pool;
}

std::size_t PayloadPool::class_of(std::size_t n) {
  const std::size_t rounded = std::bit_ceil(std::max(n, kMinBlock));
  return static_cast<std::size_t>(std::countr_zero(rounded)) -
         static_cast<std::size_t>(std::countr_zero(kMinBlock));
}

std::byte* PayloadPool::allocate(std::size_t n) {
  return static_cast<std::byte*>(classes_[class_of(n)]->allocate(n));
}

void PayloadPool::release(std::byte* p, std::size_t n) noexcept {
  classes_[class_of(n)]->deallocate(p);
}

PoolStats PayloadPool::stats() const {
  PoolStats total;
  for (const std::optional<FixedBlockPool>& c : classes_) {
    const PoolStats s = c->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.overflow += s.overflow;
    total.live += s.live;
    total.free_count += s.free_count;
    total.depot += s.depot;
  }
  return total;
}

namespace {

void payload_deleter(std::byte* p, std::size_t n) noexcept {
  PayloadPool::instance().release(p, n);
}

}  // namespace

Buffer pooled_buffer(std::size_t n) {
  if (n == 0) return Buffer();
  if (n > PayloadPool::max_block()) return Buffer(n);
  return Buffer(PayloadPool::instance().allocate(n), n, &payload_deleter);
}

Buffer pooled_copy(ConstByteSpan src) {
  Buffer b = pooled_buffer(src.size());
  if (!src.empty()) std::memcpy(b.data(), src.data(), src.size());
  return b;
}

}  // namespace mpx::base
