// mpx/task/progress_engine.hpp
//
// Adaptive asynchronous progress engine (ROADMAP item 4): a pool of
// progress workers that owns the per-VCI decision the paper leaves to the
// application — who drives progress. "Asynchronous MPI for the Masses"
// (Wittmann & Hager) shows the right answer is workload-dependent and
// shifts at runtime: a dedicated helper thread wins when the application
// computes through communication, and burns a core for nothing when the
// application polls anyway. The engine samples what is actually happening
// and moves each attached VCI between three modes:
//
//   inline    — the application polls; the engine stays away entirely.
//   shared    — a pooled worker polls the VCI in turn with the other
//               slots it owns, one slot per loop iteration.
//   dedicated — the VCI is the only slot its worker owns (the classic
//               async-progress-thread shape, paid only while it earns).
//
// Work distribution is one owner index per slot: -1 while inline,
// otherwise the index of the one worker that polls it. Only the controller
// writes it (under attach_mu_); workers only read it. Every attached slot
// that is not inline has exactly one owner at all times: at the
// max_workers ceiling a newly starved VCI goes onto an existing worker
// (whose dedicated slot, if any, drops back to shared) — placement is
// never deferred, so no VCI with pending work is left unpolled.
//
// A controller thread ticks every epoch_us (WorldConfig::progress_engine)
// and samples, per attached VCI: application progress calls (total
// progress_calls minus the engine's own polls), pending work (in-flight
// requests plus async hooks), the engine's own poll/hit rate, and the
// wait-ladder rung occupancy from wait_policy.hpp (waiters that fell off
// the spin rung are making empty polls — background progress cuts their
// latency). Transitions take kEngineHysteresis consecutive epochs of the
// same signal, so the controller never flaps at a threshold. The decision
// rules live in EnginePolicy, pure and deterministic, so tests drive them
// with injected samples.
//
// Workers call core_detail::vci_poll on the resolved Vci — the same
// compiled stage table every progress_test scan runs, no new virtual hops
// on the poll path — and back off through the shared spin/yield/sleep
// ladder when idle, charging engine-owned WaitLadderCounters: an idle
// engine provably parks on the sleep rung instead of burning a core
// (stats().worker_rungs is the evidence the overlap bench checks in).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mpx/base/thread.hpp"
#include "mpx/core/config.hpp"
#include "mpx/core/stream.hpp"
#include "mpx/core/wait_policy.hpp"
#include "mpx/core/world.hpp"

namespace mpx::task {

/// Who drives progress on an attached VCI right now.
enum class EngineMode : std::uint8_t {
  inline_poll = 0,  ///< application threads poll; engine hands off
  shared = 1,       ///< polled in turn with the other slots of its worker
  dedicated = 2,    ///< the only slot its worker owns
};

/// Promote inline -> shared when a VCI has work pending but the
/// application issued fewer than this many progress calls in the epoch
/// (the app is not driving its own progress).
inline constexpr int kEnginePromoteAppPolls = 4;

/// Demote one step (dedicated -> shared -> inline) when the VCI had no
/// pending work and the engine hit rate fell to or below this.
inline constexpr double kEngineDemoteHitRate = 0.01;

/// Consecutive epochs a promote/demote signal must persist before the
/// transition is taken (flap damping at the thresholds).
inline constexpr int kEngineHysteresis = 2;

/// One epoch's observations for one VCI, as the controller samples them
/// (tests inject these directly into EnginePolicy).
struct EngineSample {
  /// Progress calls on the VCI this epoch NOT issued by the engine.
  std::uint64_t app_polls = 0;
  /// Engine polls on the VCI this epoch, and how many made progress.
  std::uint64_t engine_polls = 0;
  std::uint64_t engine_hits = 0;
  /// In-flight requests plus async hooks on the VCI at sample time (is
  /// work pending?).
  std::int64_t pending = 0;
  /// Wait-ladder pauses by blocking waiters on this VCI this epoch that
  /// landed past the spin rung (yield + sleep): polls happening, but
  /// empty and backed off.
  std::uint64_t wait_backoffs = 0;
};

/// The promote/demote decision rules, factored out of the runtime so tests
/// prove the transitions, hysteresis, and growth gating with injected
/// samples. One instance per attached VCI (it carries the streak state);
/// deterministic: decide() depends only on construction config, call
/// history, and arguments.
class EnginePolicy {
 public:
  explicit EnginePolicy(const ProgressEngineConfig& cfg) : cfg_(cfg) {}

  /// One epoch's decision. `can_grow` reports whether the worker budget
  /// admits the promotion the policy may want this epoch; a matured
  /// promote streak with can_grow == false is held, not reset. The
  /// controller always admits inline -> shared and gates only
  /// shared -> dedicated on the max_workers ceiling.
  EngineMode decide(EngineMode current, const EngineSample& s, bool can_grow);

 private:
  ProgressEngineConfig cfg_;
  int promote_streak_ = 0;
  int demote_streak_ = 0;
};

/// The engine runtime. RAII: the controller thread starts on construction
/// (workers start lazily on first promotion) and everything stops and
/// joins in stop()/the destructor. Constructing a World never creates one
/// of these — the engine is opt-in, owned by the application or benchmark,
/// configured through WorldConfig::progress_engine.
///
/// Threading contract: workers only ever call core_detail::vci_poll /
/// the wait-ladder backoff — they block on nothing and acquire no
/// vci/stream-ranked lock themselves (the poll takes the VCI lock
/// internally, same as every application progress call). attach/detach/
/// stats may be called from any thread; stop() is idempotent and safe to
/// race with the destructor.
class ProgressEngine {
 public:
  explicit ProgressEngine(World& world);
  ~ProgressEngine();

  ProgressEngine(const ProgressEngine&) = delete;
  ProgressEngine& operator=(const ProgressEngine&) = delete;

  /// Put `stream`'s VCI under engine management (starting mode: inline).
  /// No-op if already attached.
  void attach(const Stream& stream);

  /// Stop managing `stream`'s VCI: the engine hands progress back to the
  /// application (mode reads inline_poll afterwards).
  void detach(const Stream& stream);

  /// Current mode of an attached stream (inline_poll if never attached).
  EngineMode mode_of(const Stream& stream) const;

  /// Stop the controller and all workers and join them. Idempotent.
  void stop();

  struct VciStats {
    int rank = 0;
    int vci = 0;
    EngineMode mode = EngineMode::inline_poll;
    std::uint64_t engine_polls = 0;
    std::uint64_t engine_hits = 0;
  };
  struct Stats {
    std::vector<VciStats> vcis;
    std::uint64_t epochs = 0;      ///< controller ticks so far
    std::uint64_t promotions = 0;  ///< inline->shared + shared->dedicated
    std::uint64_t demotions = 0;   ///< dedicated->shared + shared->inline
    /// Always 0; kept because perfbench/src/counters.cpp reads it; remove
    /// at the next benchmark change.
    std::uint64_t steals = 0;
    int workers = 0;               ///< worker threads spawned so far
    /// Aggregate worker idle-backoff rung occupancy (monotonic). A parked
    /// engine accumulates `sleep` — the not-burning-a-core evidence.
    core_detail::WaitLadderCounters::Snapshot worker_rungs;
  };
  Stats stats() const;

 private:
  struct Slot;
  struct Worker;
  struct Load {
    int slots = 0;    ///< slots the worker owns
    int pinned = -1;  ///< index of its dedicated slot; -1 if none
  };

  void controller_loop();
  void worker_loop(Worker& w);
  void sample_and_decide();
  void apply_transition(Slot& s, EngineMode next);
  int poll_slot(Slot& s);
  Load load_locked(int worker) const;
  int place_locked();
  int spawn_worker_locked();

  World& world_;
  ProgressEngineConfig cfg_;
  core_detail::WaitPolicy worker_wait_;

  /// Fixed-capacity slot table published like the core VCI tables: slots_
  /// never reallocates, slot_count_ is the release-published length, so
  /// workers index it lock-free while attach() appends.
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<int> slot_count_{0};
  mutable std::mutex attach_mu_;  ///< serializes attach/detach/spawn

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<int> worker_count_{0};

  std::atomic<bool> stop_{false};
  std::atomic<bool> joining_{false};
  std::atomic<bool> joined_{false};

  std::atomic<std::uint64_t> epochs_{0};
  std::atomic<std::uint64_t> promotions_{0};
  std::atomic<std::uint64_t> demotions_{0};

  base::ScopedThread controller_;
};

}  // namespace mpx::task
