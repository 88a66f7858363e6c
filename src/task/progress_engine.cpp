// Adaptive progress engine runtime. See the header for the mode state
// machine; docs/architecture.md ("Adaptive progress engine") for who polls
// when.
//
// Concurrency layout:
//   - attach_mu_ serializes the slow path: attach/detach, worker spawning,
//     every mode transition, and stats(). The controller holds it for the
//     whole sample/decide pass. It is an unranked leaf taken by threads
//     that hold no runtime lock, so it cannot participate in a lock cycle.
//   - Workers never take attach_mu_. They navigate the slot table through
//     the release-published slot_count_ (the table storage never moves)
//     and read each slot's mode atomically; stale deque entries whose slot
//     left shared mode are dropped at pop time (`in_rotation` then allows
//     the controller to re-enqueue the slot later, exactly-one-copy).
//   - The poll itself is core_detail::vci_poll — the compiled stage table
//     behind every progress_test call. Workers hold no lock around it and
//     block nowhere; idle workers descend the spin/yield/sleep ladder.
//   - Engine threads are pure DATAPATH: each poll pins the VCI's
//     TopologySnapshot with one acquire-load (TopoRef inside the entry
//     point) and may run concurrently with a control-plane topology swap —
//     the RCU grace period in src/core/control_plane.cpp is what makes
//     that safe. Nothing here may call a control-plane mutation entry
//     point (mpxlint progress-contract enforces it for poll contexts).
#include "mpx/task/progress_engine.hpp"

#include <chrono>
#include <string>
#include <thread>

#include "mpx/core/progress_source.hpp"

namespace mpx::task {

struct ProgressEngine::Slot {
  explicit Slot(const ProgressEngineConfig& cfg) : policy(cfg) {}

  core_detail::Vci* vci = nullptr;
  int rank = -1;
  int id = -1;
  unsigned mask = progress_all;

  std::atomic<EngineMode> mode{EngineMode::inline_poll};
  std::atomic<bool> detached{false};
  /// True while an index for this slot lives in some worker's inbox or
  /// deque (exactly one copy in the whole pool). Workers clear it when
  /// they drop a stale entry; the controller's re-enqueue CASes it back.
  std::atomic<bool> in_rotation{false};

  std::atomic<std::uint64_t> engine_polls{0};
  std::atomic<std::uint64_t> engine_hits{0};

  // Controller-only sampling cursors (attach_mu_ held at every access).
  std::uint64_t prev_progress_calls = 0;
  std::uint64_t prev_engine_polls = 0;
  std::uint64_t prev_engine_hits = 0;
  World::WaitRungCounters prev_rungs;
  EnginePolicy policy;
};

namespace {
/// Slots in each shared worker's work-stealing deque of VCI assignments.
constexpr std::size_t kDequeCapacity = 64;
}  // namespace

struct ProgressEngine::Worker {
  explicit Worker(int idx) : index(idx), deque(kDequeCapacity) {}

  const int index;
  StealDeque<int> deque;            ///< this worker's shared rotation
  base::MpscQueue<int> inbox;       ///< controller -> worker assignments
  std::atomic<int> dedicated{-1};   ///< pinned slot index; -1 = shared role
  core_detail::WaitLadderCounters rungs;
  base::ScopedThread thread;        ///< started last, by spawn_worker_locked
};

// ---------------------------------------------------------------- policy --

EngineMode EnginePolicy::decide(EngineMode current, const EngineSample& s,
                                bool can_grow) {
  const int hysteresis = cfg_.hysteresis < 1 ? 1 : cfg_.hysteresis;
  const double hit_rate =
      s.engine_polls == 0
          ? 0.0
          : static_cast<double>(s.engine_hits) /
                static_cast<double>(s.engine_polls);
  // The application is not driving its own progress: work is pending and
  // either the app barely polls (it is off computing) or its blocking
  // waiters fell off the spin rung (polling, but empty and backed off).
  const bool app_starved =
      s.pending > 0 && (s.app_polls <
                            static_cast<std::uint64_t>(
                                cfg_.promote_app_polls < 0
                                    ? 0
                                    : cfg_.promote_app_polls) ||
                        s.wait_backoffs > 0);
  const bool gone_cold = s.pending == 0 && hit_rate <= cfg_.demote_hit_rate;

  switch (current) {
    case EngineMode::inline_poll:
      demote_streak_ = 0;
      if (app_starved) {
        if (promote_streak_ < hysteresis) ++promote_streak_;
        // A matured streak blocked by the worker ceiling holds (deferred
        // promotion), it does not reset.
        if (promote_streak_ >= hysteresis && can_grow) {
          promote_streak_ = 0;
          return EngineMode::shared;
        }
      } else {
        promote_streak_ = 0;
      }
      return EngineMode::inline_poll;

    case EngineMode::shared:
      if (gone_cold) {
        promote_streak_ = 0;
        if (++demote_streak_ >= hysteresis) {
          demote_streak_ = 0;
          return EngineMode::inline_poll;
        }
        return EngineMode::shared;
      }
      demote_streak_ = 0;
      if (s.engine_polls > 0 && hit_rate >= cfg_.dedicate_hit_rate) {
        if (promote_streak_ < hysteresis) ++promote_streak_;
        if (promote_streak_ >= hysteresis && can_grow) {
          promote_streak_ = 0;
          return EngineMode::dedicated;
        }
      } else {
        promote_streak_ = 0;
      }
      return EngineMode::shared;

    case EngineMode::dedicated:
      promote_streak_ = 0;
      if (gone_cold) {
        if (++demote_streak_ >= hysteresis) {
          demote_streak_ = 0;
          return EngineMode::shared;
        }
      } else {
        demote_streak_ = 0;
      }
      return EngineMode::dedicated;
  }
  return current;  // unreachable
}

// --------------------------------------------------------------- runtime --

namespace {

/// Hard bound on attachable VCIs; the table is preallocated so workers can
/// index it lock-free while attach() appends (same shape as RankCtx slots).
std::size_t slot_table_capacity(const World& w) {
  const std::size_t cap = static_cast<std::size_t>(w.size()) *
                          static_cast<std::size_t>(w.config().max_vcis);
  return cap < 16 ? 16 : cap;
}

}  // namespace

ProgressEngine::ProgressEngine(World& world)
    : world_(world), cfg_(world.config().progress_engine) {
  if (cfg_.epoch_us < 1) cfg_.epoch_us = 1;
  if (cfg_.max_workers < 1) cfg_.max_workers = 1;
  const WorldConfig& wc = world.config();
  worker_wait_ = core_detail::WaitPolicy{wc.wait_spin, wc.wait_yield,
                                         wc.wait_sleep_max_us};
  slots_.resize(slot_table_capacity(world));
  workers_.resize(static_cast<std::size_t>(cfg_.max_workers));
  controller_ = base::ScopedThread([this] { controller_loop(); });
}

ProgressEngine::~ProgressEngine() { stop(); }

void ProgressEngine::stop() {
  stop_.store(true, std::memory_order_release);
  // Single-joiner handshake (same shape as ProgressThread::stop): exactly
  // one caller joins the controller and workers; racing callers wait for
  // the joiner's release store so everyone returns with the threads gone
  // and their final counter publishes visible.
  if (!joining_.exchange(true, std::memory_order_acq_rel)) {
    controller_.join();
    const int nw = worker_count_.load(std::memory_order_acquire);
    for (int i = 0; i < nw; ++i) {
      workers_[static_cast<std::size_t>(i)]->thread.join();
    }
    joined_.store(true, std::memory_order_release);
    return;
  }
  while (!joined_.load(std::memory_order_acquire)) {
    base::cpu_relax();
  }
}

void ProgressEngine::attach(const Stream& stream) {
  expects(stream.valid() && &stream.world() == &world_,
          "ProgressEngine::attach: stream does not belong to this world");
  std::lock_guard<std::mutex> g(attach_mu_);
  const int n = slot_count_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (s.rank == stream.rank() && s.id == stream.vci()) {
      s.detached.store(false, std::memory_order_relaxed);
      return;
    }
  }
  expects(static_cast<std::size_t>(n) < slots_.size(),
          "ProgressEngine::attach: slot table full");
  auto s = std::make_unique<Slot>(cfg_);
  s->vci = &world_.vci(stream.rank(), stream.vci());
  s->rank = stream.rank();
  s->id = stream.vci();
  s->mask = stream.mask();
  // Prime the sampling cursors so the first epoch's deltas cover exactly
  // the first epoch, not the VCI's whole history.
  s->prev_progress_calls =
      world_.vci_progress_calls(stream.rank(), stream.vci());
  s->prev_rungs = world_.vci_wait_rungs(stream.rank(), stream.vci());
  slots_[static_cast<std::size_t>(n)] = std::move(s);
  slot_count_.store(n + 1, std::memory_order_release);
}

void ProgressEngine::detach(const Stream& stream) {
  std::lock_guard<std::mutex> g(attach_mu_);
  const int n = slot_count_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (s.rank != stream.rank() || s.id != stream.vci()) continue;
    s.detached.store(true, std::memory_order_relaxed);
    s.mode.store(EngineMode::inline_poll, std::memory_order_release);
    for (int wi = 0, nw = worker_count_.load(std::memory_order_relaxed);
         wi < nw; ++wi) {
      Worker& w = *workers_[static_cast<std::size_t>(wi)];
      int expected = i;
      w.dedicated.compare_exchange_strong(expected, -1,
                                          std::memory_order_acq_rel);
    }
    return;
  }
}

EngineMode ProgressEngine::mode_of(const Stream& stream) const {
  const int n = slot_count_.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    const Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (s.rank == stream.rank() && s.id == stream.vci()) {
      return s.mode.load(std::memory_order_acquire);
    }
  }
  return EngineMode::inline_poll;
}

ProgressEngine::Stats ProgressEngine::stats() const {
  std::lock_guard<std::mutex> g(attach_mu_);
  Stats out;
  const int n = slot_count_.load(std::memory_order_relaxed);
  out.vcis.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (s.detached.load(std::memory_order_relaxed)) continue;
    VciStats vs;
    vs.rank = s.rank;
    vs.vci = s.id;
    vs.mode = s.mode.load(std::memory_order_relaxed);
    vs.engine_polls = s.engine_polls.load(std::memory_order_relaxed);
    vs.engine_hits = s.engine_hits.load(std::memory_order_relaxed);
    out.vcis.push_back(vs);
  }
  out.epochs = epochs_.load(std::memory_order_relaxed);
  out.promotions = promotions_.load(std::memory_order_relaxed);
  out.demotions = demotions_.load(std::memory_order_relaxed);
  out.steals = steals_.load(std::memory_order_relaxed);
  out.workers = worker_count_.load(std::memory_order_relaxed);
  for (int wi = 0; wi < out.workers; ++wi) {
    const auto snap = workers_[static_cast<std::size_t>(wi)]->rungs.snapshot();
    out.worker_rungs.spin += snap.spin;
    out.worker_rungs.yield += snap.yield;
    out.worker_rungs.sleep += snap.sleep;
  }
  return out;
}

int ProgressEngine::poll_slot(Slot& s) {
  const int made = core_detail::vci_poll(*s.vci, s.mask);
  s.engine_polls.fetch_add(1, std::memory_order_relaxed);
  if (made != 0) s.engine_hits.fetch_add(1, std::memory_order_relaxed);
  return made;
}

int ProgressEngine::spawn_worker_locked() {
  const int n = worker_count_.load(std::memory_order_relaxed);
  expects(n < cfg_.max_workers, "ProgressEngine: worker ceiling exceeded");
  auto w = std::make_unique<Worker>(n);
  Worker* raw = w.get();
  workers_[static_cast<std::size_t>(n)] = std::move(w);
  // Publish the table entry before the thread starts and before other
  // workers may steal from index n.
  worker_count_.store(n + 1, std::memory_order_release);
  raw->thread = base::ScopedThread([this, raw] { worker_loop(*raw); });
  return n;
}

bool ProgressEngine::assign_to_worker(int slot_idx) {
  // attach_mu_ held. Exactly-one-copy: only the false->true winner may
  // enqueue the index anywhere.
  Slot& s = *slots_[static_cast<std::size_t>(slot_idx)];
  bool expected = false;
  if (!s.in_rotation.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
    return true;  // already riding in some deque
  }
  const int nw = worker_count_.load(std::memory_order_relaxed);
  // Spread assignments over shared-role workers; spawn one if none exists.
  for (int probe = 0; probe < nw; ++probe) {
    const int wi = (slot_idx + probe) % nw;
    Worker& w = *workers_[static_cast<std::size_t>(wi)];
    if (w.dedicated.load(std::memory_order_relaxed) < 0) {
      w.inbox.push(std::move(slot_idx));
      return true;
    }
  }
  if (nw < cfg_.max_workers) {
    const int wi = spawn_worker_locked();
    workers_[static_cast<std::size_t>(wi)]->inbox.push(std::move(slot_idx));
    return true;
  }
  s.in_rotation.store(false, std::memory_order_release);
  return false;
}

void ProgressEngine::apply_transition(int idx, Slot& s, EngineMode next) {
  // attach_mu_ held (controller only).
  const EngineMode cur = s.mode.load(std::memory_order_relaxed);
  if (next == cur) return;
  switch (next) {
    case EngineMode::shared:
      if (cur == EngineMode::dedicated) {
        // Release the pinned worker back to the shared pool.
        for (int wi = 0, nw = worker_count_.load(std::memory_order_relaxed);
             wi < nw; ++wi) {
          Worker& w = *workers_[static_cast<std::size_t>(wi)];
          int expected = idx;
          w.dedicated.compare_exchange_strong(expected, -1,
                                              std::memory_order_acq_rel);
        }
        demotions_.fetch_add(1, std::memory_order_relaxed);
      } else {
        promotions_.fetch_add(1, std::memory_order_relaxed);
      }
      s.mode.store(EngineMode::shared, std::memory_order_release);
      assign_to_worker(idx);
      break;

    case EngineMode::dedicated: {
      // Pick a worker to pin: spawn when the ceiling allows, otherwise
      // convert a shared-role worker (the controller only promotes to
      // dedicated when that leaves no shared slot stranded).
      int wi = -1;
      const int nw = worker_count_.load(std::memory_order_relaxed);
      if (nw < cfg_.max_workers) {
        wi = spawn_worker_locked();
      } else {
        for (int i = 0; i < nw; ++i) {
          if (workers_[static_cast<std::size_t>(i)]->dedicated.load(
                  std::memory_order_relaxed) < 0) {
            wi = i;
            break;
          }
        }
      }
      if (wi < 0) return;  // no worker available; keep current mode
      Worker& w = *workers_[static_cast<std::size_t>(wi)];
      // A converted shared worker stops popping; orphan its queued
      // assignments so the controller can re-enqueue them elsewhere.
      while (auto stale = w.deque.try_steal()) {
        slots_[static_cast<std::size_t>(*stale)]->in_rotation.store(
            false, std::memory_order_release);
      }
      while (auto stale = w.inbox.try_pop()) {
        slots_[static_cast<std::size_t>(*stale)]->in_rotation.store(
            false, std::memory_order_release);
      }
      s.mode.store(EngineMode::dedicated, std::memory_order_release);
      w.dedicated.store(idx, std::memory_order_release);
      promotions_.fetch_add(1, std::memory_order_relaxed);
      break;
    }

    case EngineMode::inline_poll:
      s.mode.store(EngineMode::inline_poll, std::memory_order_release);
      demotions_.fetch_add(1, std::memory_order_relaxed);
      // Deque copies drain lazily: workers drop non-shared slots at pop.
      break;
  }
}

void ProgressEngine::sample_and_decide() {
  std::lock_guard<std::mutex> g(attach_mu_);
  const int n = slot_count_.load(std::memory_order_relaxed);
  const int nw = worker_count_.load(std::memory_order_relaxed);

  int dedicated_slots = 0;
  int shared_slots = 0;
  for (int i = 0; i < n; ++i) {
    Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (s.detached.load(std::memory_order_relaxed)) continue;
    switch (s.mode.load(std::memory_order_relaxed)) {
      case EngineMode::shared: ++shared_slots; break;
      case EngineMode::dedicated: ++dedicated_slots; break;
      case EngineMode::inline_poll: break;
    }
  }

  for (int i = 0; i < n; ++i) {
    Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (s.detached.load(std::memory_order_relaxed)) continue;

    const std::uint64_t pc = world_.vci_progress_calls(s.rank, s.id);
    const std::uint64_t ep = s.engine_polls.load(std::memory_order_relaxed);
    const std::uint64_t eh = s.engine_hits.load(std::memory_order_relaxed);
    const World::WaitRungCounters rungs = world_.vci_wait_rungs(s.rank, s.id);

    EngineSample smp;
    smp.engine_polls = ep - s.prev_engine_polls;
    smp.engine_hits = eh - s.prev_engine_hits;
    const std::uint64_t total = pc - s.prev_progress_calls;
    smp.app_polls = total > smp.engine_polls ? total - smp.engine_polls : 0;
    smp.pending = world_.vci_active_ops(s.rank, s.id);
    smp.wait_backoffs = (rungs.yield - s.prev_rungs.yield) +
                        (rungs.sleep - s.prev_rungs.sleep);
    s.prev_progress_calls = pc;
    s.prev_engine_polls = ep;
    s.prev_engine_hits = eh;
    s.prev_rungs = rungs;

    const EngineMode cur = s.mode.load(std::memory_order_relaxed);
    bool can_grow = true;
    if (cur == EngineMode::inline_poll) {
      // Needs a shared-role worker: one exists, or one can be spawned.
      bool have_shared_worker = false;
      for (int wi = 0; wi < worker_count_.load(std::memory_order_relaxed);
           ++wi) {
        if (workers_[static_cast<std::size_t>(wi)]->dedicated.load(
                std::memory_order_relaxed) < 0) {
          have_shared_worker = true;
          break;
        }
      }
      can_grow = have_shared_worker ||
                 worker_count_.load(std::memory_order_relaxed) <
                     cfg_.max_workers;
    } else if (cur == EngineMode::shared) {
      // Dedication needs a fresh worker, or may convert a shared worker
      // only when no OTHER shared slot would be stranded.
      can_grow = worker_count_.load(std::memory_order_relaxed) <
                     cfg_.max_workers ||
                 shared_slots <= 1;
    }

    const EngineMode next = s.policy.decide(cur, smp, can_grow);
    if (next != cur) {
      if (cur == EngineMode::shared) --shared_slots;
      if (cur == EngineMode::dedicated) --dedicated_slots;
      apply_transition(i, s, next);
      const EngineMode now = s.mode.load(std::memory_order_relaxed);
      if (now == EngineMode::shared) ++shared_slots;
      if (now == EngineMode::dedicated) ++dedicated_slots;
    } else if (cur == EngineMode::shared &&
               !s.in_rotation.load(std::memory_order_acquire)) {
      // Heal a stranded shared slot. Two ways one arises: a worker's
      // re-push hit a full deque, or a drop raced a re-promotion (the
      // worker popped the entry, the controller saw in_rotation still
      // true and assumed the slot was riding, then the worker dropped
      // it). in_rotation == false guarantees no live copy exists, so
      // re-enqueueing cannot violate exactly-one-copy.
      assign_to_worker(i);
    }
  }
  (void)nw;
  (void)dedicated_slots;
}

void ProgressEngine::controller_loop() {
  base::set_current_thread_name("mpx-engine-ctl");
  using std::chrono::microseconds;
  while (!stop_.load(std::memory_order_acquire)) {
    // Sleep one epoch in <=1ms slices so stop() stays prompt even under
    // long experimental epochs.
    long remaining = cfg_.epoch_us;
    while (remaining > 0 && !stop_.load(std::memory_order_acquire)) {
      const long slice = remaining < 1000 ? remaining : 1000;
      std::this_thread::sleep_for(microseconds(slice));
      remaining -= slice;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    sample_and_decide();
    epochs_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ProgressEngine::worker_loop(Worker& w) {
  base::set_current_thread_name("mpx-engine-" + std::to_string(w.index));
  core_detail::WaitBackoff backoff{worker_wait_, &w.rungs};
  while (!stop_.load(std::memory_order_acquire)) {
    int made = 0;
    const int pinned = w.dedicated.load(std::memory_order_acquire);
    if (pinned >= 0) {
      made = poll_slot(*slots_[static_cast<std::size_t>(pinned)]);
    } else {
      // Move controller handoffs into the rotation.
      while (auto idx = w.inbox.try_pop()) {
        if (!w.deque.try_push(*idx)) {
          slots_[static_cast<std::size_t>(*idx)]->in_rotation.store(
              false, std::memory_order_release);
        }
      }
      // Rotate: take the oldest assignment (self-steal keeps the rotation
      // FIFO), poll it, put it back. Fall back to stealing from peers.
      std::optional<int> idx = w.deque.try_steal();
      if (!idx.has_value()) {
        const int nw = worker_count_.load(std::memory_order_acquire);
        for (int off = 1; off <= nw && !idx.has_value(); ++off) {
          const int vi = (w.index + off) % (nw == 0 ? 1 : nw);
          if (vi == w.index) continue;
          Worker* victim = workers_[static_cast<std::size_t>(vi)].get();
          if (victim == nullptr) continue;
          idx = victim->deque.try_steal();
          if (idx.has_value()) {
            steals_.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      if (idx.has_value()) {
        Slot& s = *slots_[static_cast<std::size_t>(*idx)];
        if (s.mode.load(std::memory_order_acquire) == EngineMode::shared) {
          made = poll_slot(s);
          if (!w.deque.try_push(*idx)) {
            s.in_rotation.store(false, std::memory_order_release);
          }
        } else {
          // Slot left shared mode; drop it and let the controller
          // re-enqueue if it ever comes back.
          s.in_rotation.store(false, std::memory_order_release);
        }
      }
    }
    if (made != 0) {
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
}

}  // namespace mpx::task
