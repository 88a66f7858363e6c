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
//     and poll the slots whose owner index names them. Only the
//     controller writes an owner index, so a slot is in at most one
//     worker's rotation; a worker that read an owner just before the
//     controller moved the slot polls it once more, which is harmless.
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
  /// Index of the worker that polls this slot; -1 while inline. Written
  /// only by the controller (attach_mu_ held), read by every worker.
  std::atomic<int> owner{-1};

  std::atomic<std::uint64_t> engine_polls{0};
  std::atomic<std::uint64_t> engine_hits{0};

  // Controller-only sampling cursors (attach_mu_ held at every access).
  std::uint64_t prev_progress_calls = 0;
  std::uint64_t prev_engine_polls = 0;
  std::uint64_t prev_engine_hits = 0;
  World::WaitRungCounters prev_rungs;
  EnginePolicy policy;
};

struct ProgressEngine::Worker {
  explicit Worker(int idx) : index(idx) {}

  const int index;
  core_detail::WaitLadderCounters rungs;
  base::ScopedThread thread;  ///< started last, by spawn_worker_locked
};

// ---------------------------------------------------------------- policy --

EngineMode EnginePolicy::decide(EngineMode current, const EngineSample& s,
                                bool can_grow) {
  const double hit_rate =
      s.engine_polls == 0
          ? 0.0
          : static_cast<double>(s.engine_hits) /
                static_cast<double>(s.engine_polls);
  // The application is not driving its own progress: work is pending and
  // either the app barely polls (it is off computing) or its blocking
  // waiters fell off the spin rung (polling, but empty and backed off).
  const bool app_starved =
      s.pending > 0 &&
      (s.app_polls < static_cast<std::uint64_t>(kEnginePromoteAppPolls) ||
       s.wait_backoffs > 0);
  const bool gone_cold = s.pending == 0 && hit_rate <= kEngineDemoteHitRate;

  switch (current) {
    case EngineMode::inline_poll:
      demote_streak_ = 0;
      if (app_starved) {
        if (promote_streak_ < kEngineHysteresis) ++promote_streak_;
        // A matured streak blocked by can_grow holds, it does not reset.
        if (promote_streak_ >= kEngineHysteresis && can_grow) {
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
        if (++demote_streak_ >= kEngineHysteresis) {
          demote_streak_ = 0;
          return EngineMode::inline_poll;
        }
        return EngineMode::shared;
      }
      demote_streak_ = 0;
      if (s.engine_polls > 0 && hit_rate >= cfg_.dedicate_hit_rate) {
        if (promote_streak_ < kEngineHysteresis) ++promote_streak_;
        if (promote_streak_ >= kEngineHysteresis && can_grow) {
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
        if (++demote_streak_ >= kEngineHysteresis) {
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
    s.owner.store(-1, std::memory_order_release);
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
  // Publish the table entry before the thread starts, so stats() and
  // stop() see every running worker.
  worker_count_.store(n + 1, std::memory_order_release);
  raw->thread = base::ScopedThread([this, raw] { worker_loop(*raw); });
  return n;
}

ProgressEngine::Load ProgressEngine::load_locked(int worker) const {
  // attach_mu_ held: owner and mode only change under it.
  Load load;
  for (int i = 0, n = slot_count_.load(std::memory_order_relaxed); i < n;
       ++i) {
    const Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (s.owner.load(std::memory_order_relaxed) != worker) continue;
    ++load.slots;
    if (s.mode.load(std::memory_order_relaxed) == EngineMode::dedicated) {
      load.pinned = i;
    }
  }
  return load;
}

int ProgressEngine::place_locked() {
  // attach_mu_ held. The least-loaded worker without a dedicated slot;
  // else a new worker while the ceiling allows. At the ceiling every
  // worker is pinned: share worker 0 and send its dedicated slot back to
  // shared, so the new slot is polled now instead of waiting for a worker
  // to free up.
  const int nw = worker_count_.load(std::memory_order_relaxed);
  int best = -1;
  int best_slots = 0;
  for (int wi = 0; wi < nw; ++wi) {
    const Load load = load_locked(wi);
    if (load.pinned < 0 && (best < 0 || load.slots < best_slots)) {
      best = wi;
      best_slots = load.slots;
    }
  }
  if (best >= 0) return best;
  if (nw < cfg_.max_workers) return spawn_worker_locked();
  Slot& pinned = *slots_[static_cast<std::size_t>(load_locked(0).pinned)];
  pinned.mode.store(EngineMode::shared, std::memory_order_release);
  demotions_.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

void ProgressEngine::apply_transition(Slot& s, EngineMode next) {
  // attach_mu_ held (controller only).
  const EngineMode cur = s.mode.load(std::memory_order_relaxed);
  if (next == cur) return;
  switch (next) {
    case EngineMode::shared:
      if (cur == EngineMode::dedicated) {
        // The slot stays on its worker, which may now take others.
        demotions_.fetch_add(1, std::memory_order_relaxed);
      } else {
        s.owner.store(place_locked(), std::memory_order_release);
        promotions_.fetch_add(1, std::memory_order_relaxed);
      }
      break;

    case EngineMode::dedicated: {
      // decide() only dedicates with can_grow: either the owner polls
      // nothing else and simply keeps the slot, or a new worker takes it.
      const int owner = s.owner.load(std::memory_order_relaxed);
      if (load_locked(owner).slots > 1) {
        s.owner.store(spawn_worker_locked(), std::memory_order_release);
      }
      promotions_.fetch_add(1, std::memory_order_relaxed);
      break;
    }

    case EngineMode::inline_poll:
      s.owner.store(-1, std::memory_order_release);
      demotions_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  s.mode.store(next, std::memory_order_release);
}

void ProgressEngine::sample_and_decide() {
  std::lock_guard<std::mutex> g(attach_mu_);
  const int n = slot_count_.load(std::memory_order_relaxed);
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

    // Sharing a worker is always possible (place_locked never defers).
    // Dedication needs a new worker, or an owner that polls nothing else.
    const EngineMode cur = s.mode.load(std::memory_order_relaxed);
    const bool can_grow =
        cur != EngineMode::shared ||
        worker_count_.load(std::memory_order_relaxed) < cfg_.max_workers ||
        load_locked(s.owner.load(std::memory_order_relaxed)).slots == 1;
    apply_transition(s, s.policy.decide(cur, smp, can_grow));
  }
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
  // Round-robin over the slots this worker owns: each iteration polls the
  // first owned slot at or after `cursor`, then resumes one past it.
  int cursor = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    int made = 0;
    const int n = slot_count_.load(std::memory_order_acquire);
    for (int k = 0; k < n; ++k) {
      const int i = (cursor + k) % n;
      Slot& s = *slots_[static_cast<std::size_t>(i)];
      if (s.owner.load(std::memory_order_acquire) != w.index) continue;
      made = poll_slot(s);
      cursor = i + 1;
      break;
    }
    if (made != 0) {
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
}

}  // namespace mpx::task
