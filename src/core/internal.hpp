// src/core/internal.hpp
//
// Core-internal structures: VCIs, rank contexts, communicator impls, the
// unexpected-message queue, and the helper APIs shared by the progress
// engine, the protocol layer, and the public wrappers.
//
// LOCKING MODEL. Each VCI owns one InstrumentedMutex (`mu`, a recursive
// mutex, LockRank::vci). Every state mutation of the VCI — posting receives,
// matching, polling hooks, progressing transports for that endpoint —
// happens under it. Operations issued from inside poll callbacks re-enter
// the same lock (hence recursive), matching MPICH's owner-tracked VCI locks.
// Transports have their own fine-grained spinlocks; lock order is always
// control -> VCI -> vci-table -> transport and never the reverse (the
// control-plane mutex ranks BELOW the VCI locks because topology swaps
// drive progress — and therefore take VCI locks — while holding it) —
// enforced at runtime by the lock-rank validator (base/lock_rank.hpp) and
// documented in docs/architecture.md ("Threading model & lock hierarchy",
// "Control plane vs datapath"). Fields guarded by `mu` carry MPX_GUARDED_BY
// annotations checked by clang -Wthread-safety (the `thread-safety` CMake
// preset).
#pragma once

#include <any>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "matching.hpp"
#include "mpx/base/instrumented_mutex.hpp"
#include "mpx/core/comm_ext.hpp"
#include "mpx/base/intrusive.hpp"
#include "mpx/base/lock_rank.hpp"
#include "mpx/base/pool.hpp"
#include "mpx/base/queue.hpp"
#include "mpx/base/thread_safety.hpp"
#include "mpx/core/async.hpp"
#include "mpx/core/detail/request_impl.hpp"
#include "mpx/core/progress_source.hpp"
#include "mpx/core/topology.hpp"
#include "mpx/core/wait_policy.hpp"
#include "mpx/core/world.hpp"
#include "mpx/dtype/pack_engine.hpp"
#include "mpx/dtype/segment.hpp"
#include "mpx/transport/msg.hpp"
#include "mpx/transport/transport.hpp"

namespace mpx::core_detail {

/// Accessor shim for AsyncThing's private internals (declared friend).
struct AsyncRuntime {
  using List = base::IntrusiveList<AsyncThing, &AsyncThing::hook_>;

  static AsyncThing* make(AsyncPollFn fn, void* state, const Stream& s,
                          AsyncThing::StateDeleter deleter = nullptr) {
    auto* t = new AsyncThing();
    t->fn_ = fn;
    t->state_ = state;
    t->stream_ = s;
    t->deleter_ = deleter;
    return t;
  }
  static AsyncPollFn fn(AsyncThing& t) { return t.fn_; }
  /// poll_fn returned done: it already released the state (paper contract),
  /// so ~AsyncThing must not run the deleter a second time.
  static void disarm(AsyncThing& t) { t.deleter_ = nullptr; }
  static std::vector<AsyncThing::SpawnRec> take_spawned(AsyncThing& t) {
    return std::move(t.spawned_);
  }
  static bool has_spawned(const AsyncThing& t) { return !t.spawned_.empty(); }
};

/// Receiver-side large-message copy work for the shared-memory LMT path:
/// copies `total` bytes from the exporter's buffer into the receive buffer
/// one chunk per progress poll, then acks the sender.
struct LmtWork {
  base::Ref<RequestImpl> rreq;
  const std::byte* src = nullptr;
  std::uint64_t total = 0;
  std::uint64_t done = 0;
  std::unique_ptr<dtype::Segment> seg;  ///< non-contiguous receive cursor
  std::uint64_t sender_cookie = 0;
  std::int32_t sender_rank = -1;
  std::int32_t sender_vci = 0;
};

/// A send parked by route_send while its (src, dst) pair is fenced
/// mid-topology-swap. Flushed (FIFO) by the owning VCI's next progress call
/// after the cutover snapshot lands. `cookie` is the deferred-completion
/// cookie the eventual injection must carry (0 = fire-and-forget).
struct ParkedSend {
  transport::Msg msg;
  std::uint64_t cookie = 0;
};

/// One virtual communication interface: the serial execution context behind
/// an MPIX_Stream. VCI 0 is the default (MPIX_STREAM_NULL) context.
///
/// Immutable after construction (set before the VCI is published): id,
/// rank, world, default_mask, sink. Everything mutable is either guarded by
/// `mu` or atomic.
struct Vci {
  ~Vci() MPX_NO_THREAD_SAFETY_ANALYSIS;  // teardown is single-threaded

  int id = 0;              // mpxlint: allow(tsa-ratchet) immutable after publish
  int rank = -1;           // mpxlint: allow(tsa-ratchet) immutable after publish
  World* world = nullptr;  // mpxlint: allow(tsa-ratchet) immutable after publish
  /// false after stream_free. mc::atomic: the model checker validates the
  /// publish protocol (store-release strictly AFTER dropping `mu`, so a
  /// concurrent stream_create can never destroy a held mutex).
  mc::atomic<bool> active{true};
  unsigned default_mask = progress_all;  // mpxlint: allow(tsa-ratchet) immutable after publish

  base::InstrumentedMutex mu{"vci", base::LockRank::vci};

  // Matching engine (per-VCI, as in MPICH ch4): hashed (context, source)
  // bins — see matching.hpp. Bin counts come from WorldConfig::match_bins;
  // make_vci calls init() before the VCI is published.
  PostedQueue posted MPX_GUARDED_BY(mu);
  UnexpQueue unexpected MPX_GUARDED_BY(mu);

  // Progress subsystems, in Listing 1.1 order.
  dtype::PackEngine pack_engine MPX_GUARDED_BY(mu);   // (1) datatype engine
  AsyncRuntime::List asyncs MPX_GUARDED_BY(mu);       // (2) MPIX_Async hooks
  std::list<LmtWork> lmt MPX_GUARDED_BY(mu);          // (3a) shm LMT copies

  // Cross-thread registration mailbox, drained at the top of each progress
  // call (avoids nested VCI locks on spawn-to-other-stream). Internally
  // locked; safe to push from any thread without holding `mu`.
  base::MpscQueue<AsyncThing*> inbox_asyncs;

  // Protocol sink for transport polls (constructed by protocol.cpp before
  // the VCI is published; the sink itself must only be *invoked* under mu).
  // mpxlint: allow(tsa-ratchet) pointer immutable after publish
  std::unique_ptr<transport::TransportSink> sink;

  // --- control-plane / datapath seam (topology.hpp) ---
  /// Snapshot pinned for the duration of the current critical section (set
  /// by TopoRef at the datapath entry points, reset when the outermost
  /// TopoRef unwinds). Re-entrant sections reuse the pin, so every
  /// poll/send performs exactly ONE acquire-load.
  const TopologySnapshot* topo_cache MPX_GUARDED_BY(mu) = nullptr;
  /// Quiescence counter: the epoch of the last snapshot this VCI pinned
  /// (release store in topology_pin; the control plane's grace period
  /// acquire-reads it to skip the lock-pass — see topology.hpp).
  mc::atomic<std::uint64_t> topo_epoch{0};
  /// Sends parked while their pair is fenced mid-swap, in send order.
  std::list<ParkedSend> fence_parked MPX_GUARDED_BY(mu);
  /// Completion cookies owed by THIS side: the routed carrier reported the
  /// injection locally complete (send() returned true), so no transport
  /// completion event will ever fire — progress_test synthesizes
  /// on_send_complete for them. This is what lets a protocol started on a
  /// cap_send_cq carrier finish on one without a CQ after a swap.
  std::vector<std::uint64_t> synth_cq MPX_GUARDED_BY(mu);

  // Accounting.
  std::uint64_t progress_calls MPX_GUARDED_BY(mu) = 0;
  // Raw std::atomic on purpose: lock-free accounting read by fast paths,
  // not modeled protocol state (the queues they mirror are).
  std::atomic<std::int64_t> active_ops{0};  ///< in-flight p2p/coll requests — mpxlint: allow(mc-coverage)
  std::atomic<std::int64_t> hook_count{0};  ///< linked + mailboxed async hooks — mpxlint: allow(mc-coverage)
  /// Wait-ladder rung occupancy of blocking waits driving THIS VCI
  /// (request.cpp wires every wait loop's backoff here). The adaptive
  /// progress engine's controller reads the deltas: waiters stuck on the
  /// yield/sleep rungs mean nobody's polling is productive — promote.
  WaitLadderCounters wait_rungs;

  /// Compiled progress pipeline: one entry per registered ProgressSource,
  /// in registry order. The source/mask halves are immutable after make_vci
  /// (the registry is published before any VCI exists); the embedded
  /// hit/call counters mutate under `mu` — the observability that replaced
  /// the seed's stage_hits[5].
  std::vector<ProgressStage> stages MPX_GUARDED_BY(mu);
  /// Rotation cursor: index of the stage the next progress_test scan
  /// starts from (always < stages.size()). Advanced past the productive
  /// stage on every hit so a chatty early stage cannot starve later ones.
  std::uint32_t stage_cursor MPX_GUARDED_BY(mu) = 0;
};

/// Per-rank state: the VCI table. Storage is fixed at max_vcis slots so the
/// progress hot path resolves (rank, vci) -> Vci* with two acquire loads
/// and NO lock: `vci_count` publishes the table length, each slot pointer
/// is stored release after the Vci is fully constructed. `vcis_mu`
/// (LockRank::stream) serializes WRITERS only (stream_create growth and
/// slot reuse); it nests INSIDE a held VCI lock (spawning onto another
/// stream resolves the target VCI while the current one is locked), so it
/// ranks above LockRank::vci. Vci lifetime is unchanged: a slot is deleted
/// only when stream_create reuses it after stream_free published
/// active == false, and using a freed Stream handle was always UB.
struct RankCtx {
  int rank = -1;           // mpxlint: allow(tsa-ratchet) immutable after init
  World* world = nullptr;  // mpxlint: allow(tsa-ratchet) immutable after init
  /// index = vci id; [0] always live. Sized to max_vcis at construction
  /// (never reallocates); entries past vci_count are null.
  std::vector<mc::atomic<Vci*>> slots;
  mc::atomic<std::uint32_t> vci_count{0};
  mutable base::InstrumentedMutex vcis_mu{"vci-table",
                                          base::LockRank::stream};

  ~RankCtx() {
    const std::uint32_t n = vci_count.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < n; ++i) {
      delete slots[i].load(std::memory_order_acquire);
    }
  }
};

/// Blocking all-members coordination for communicator management ops
/// (dup/split/with_stream are collective). Each member deposits an input;
/// the last arrival runs `make` over all inputs producing one output per
/// member; everyone then picks up its own. One op at a time per comm.
class Coordinator {
 public:
  explicit Coordinator(int nmembers) : n_(nmembers), inputs_(nmembers) {}

  /// `make` maps (inputs indexed by member) -> outputs indexed by member.
  std::any run(int member, std::any input,
               std::vector<std::any> (*make)(std::vector<std::any>&, void*),
               void* arg);

 private:
  int n_;
  // Comm construction is a true rendezvous across member threads — it
  // blocks by design and is exercised outside the model checker.
  std::mutex mu_;              // mpxlint: allow(mc-coverage) construction-time rendezvous
  std::condition_variable cv_; // mpxlint: allow(mc-coverage) construction-time rendezvous
  std::uint64_t epoch_ = 0;
  int arrived_ = 0;
  std::vector<std::any> inputs_;
  std::shared_ptr<std::vector<std::any>> outputs_;
};

/// Shared communicator state. Comm handles are per-rank views of this.
struct CommImpl {
  ~CommImpl();

  // Everything below except coll_clone is frozen by the end of comm
  // construction and read-only afterwards.
  World* world = nullptr;  ///< comms must not outlive their World — mpxlint: allow(tsa-ratchet) immutable
  std::int32_t context_id = 0;       ///< p2p matching context — mpxlint: allow(tsa-ratchet) immutable
  std::int32_t coll_context_id = 0;  ///< collective matching context — mpxlint: allow(tsa-ratchet) immutable
  std::vector<int> group;         ///< comm rank -> world rank — mpxlint: allow(tsa-ratchet) immutable
  std::vector<int> vcis;          ///< comm rank -> VCI id at that rank — mpxlint: allow(tsa-ratchet) immutable
  std::vector<int> world_to_comm; ///< world rank -> comm rank (or -1) — mpxlint: allow(tsa-ratchet) immutable
  std::unique_ptr<Coordinator> coord;

  /// Per-member collective sequence numbers (each member touches only its
  /// own slot). Identical call order on all members — an MPI requirement —
  /// yields matching tags.
  // mpxlint: allow(tsa-ratchet) each member mutates only its own slot
  std::vector<int> coll_seq;
  /// Lazily-built view whose p2p context is the collective context.
  /// Unranked InstrumentedMutex (leaf: nothing nests inside it) so the
  /// clone path gets lock instrumentation + TSA coverage like every other
  /// core lock.
  base::InstrumentedMutex clone_mu{"comm:clone", base::LockRank::none};
  std::shared_ptr<CommImpl> coll_clone MPX_GUARDED_BY(clone_mu);

  /// Extension slot (comm_ext.hpp): installed lazily by upper layers with a
  /// first-writer-wins CAS, owned and deleted by ~CommImpl. mc::atomic so
  /// the install race is explorable alongside the cache protocol it
  /// publishes.
  mc::atomic<CommExt*> ext{nullptr};

  int to_world(int comm_rank) const { return group[comm_rank]; }
  int to_comm(int world_rank) const { return world_to_comm[world_rank]; }
};

// ---- helpers shared across core translation units ----

/// RAII topology pin for one VCI critical section. The outermost TopoRef at
/// a datapath entry point (progress_test, isend/irecv/imrecv) performs the
/// section's single acquire-load (topology_pin) into v.topo_cache; nested
/// sections (re-entrant progress from poll callbacks) find the cache set
/// and reuse it, loading nothing. Handlers below the entry points read
/// *v.topo_cache directly.
class TopoRef {
 public:
  explicit TopoRef(Vci& v) MPX_REQUIRES(v.mu)
      : v_(v), outer_(v.topo_cache == nullptr) {
    if (outer_) {
      v.topo_cache = topology_pin(v.world->topology(), v.topo_epoch);
    }
  }
  ~TopoRef() MPX_NO_THREAD_SAFETY_ANALYSIS {
    if (outer_) v_.topo_cache = nullptr;
  }
  TopoRef(const TopoRef&) = delete;
  TopoRef& operator=(const TopoRef&) = delete;

  const TopologySnapshot& operator*() const MPX_NO_THREAD_SAFETY_ANALYSIS {
    return *v_.topo_cache;
  }

 private:
  Vci& v_;
  const bool outer_;
};

/// Send `m` over the pinned snapshot's carrier for its (src, dst) pair —
/// or park it (Vci::fence_parked) while the pair is fenced mid-swap. A
/// nonzero `cookie` whose injection completes locally (send() returned
/// true: no transport event will ever fire) is synthesized through
/// Vci::synth_cq on the next progress call. Requires a live TopoRef pin.
void route_send(Vci& v, transport::Msg&& m, std::uint64_t cookie)
    MPX_REQUIRES(v.mu);

/// Zero-envelope eager variant: copies `payload` before returning in BOTH
/// outcomes (straight into transport storage when clear, into an owned
/// parked Msg when fenced), so an eager-local send stays locally complete
/// at initiation across a swap. Requires a live TopoRef pin.
void route_send_eager(Vci& v, const transport::MsgHeader& h,
                      base::ConstByteSpan payload) MPX_REQUIRES(v.mu);

/// Flush parked sends whose pair is no longer fenced, oldest first,
/// stopping at the first still-fenced head (conservative cross-pair FIFO —
/// fences are rare and short). Returns nonzero when anything flushed.
int flush_parked(Vci& v) MPX_REQUIRES(v.mu);

/// Fill status, fire the completion hook, then publish completion (release).
/// Must run under the request's VCI lock (or before the request is visible;
/// grequests have no VCI, hence no MPX_REQUIRES — the contract is by
/// convention, not statically checkable through the cookie indirection).
void complete_request(RequestImpl* r, Err err);

/// The collated progress function (Listing 1.1). Returns made_progress.
/// Acquires v.mu internally (re-entrant: safe to call from poll callbacks
/// already under the same VCI's lock).
int progress_test(Vci& v, unsigned mask);

/// Post-side entry points (protocol.cpp). `sync` forces rendezvous
/// (MPI_Ssend semantics: completion implies the receive matched).
Request isend_impl(const std::shared_ptr<CommImpl>& comm, int my_rank,
                   const void* buf, std::size_t count,
                   const dtype::Datatype& dt, int dst, int tag,
                   bool sync = false);
Request irecv_impl(const std::shared_ptr<CommImpl>& comm, int my_rank,
                   void* buf, std::size_t count, const dtype::Datatype& dt,
                   int src, int tag);

/// Receive a message previously claimed by improbe. Takes ownership of `u`.
Request imrecv_impl(const std::shared_ptr<CommImpl>& comm, int my_rank,
                    void* buf, std::size_t count, const dtype::Datatype& dt,
                    UnexpMsg* u);

/// Return an unconsumed matched-probe message to the unexpected queue.
/// Acquires v.mu internally.
void requeue_unexpected(Vci& v, UnexpMsg* u);

/// Emit a protocol trace record from a VCI context (no-op when disabled).
inline void trace_emit(Vci& v, trace::Event ev, int peer, int tag,
                       std::uint64_t bytes, std::uint64_t detail = 0) {
  trace::Tracer& t = v.world->tracer();
  if (!t.enabled()) return;
  trace::Record r;
  r.t = v.world->wtime();
  r.ev = ev;
  r.rank = v.rank;
  r.vci = v.id;
  r.peer = peer;
  r.tag = tag;
  r.bytes = bytes;
  r.detail = detail;
  t.emit(r);
}

/// Construct the transport sink for a VCI (called when a VCI is created).
std::unique_ptr<transport::TransportSink> make_vci_sink(Vci& v);

/// Receiver-side LMT copy stage (its own ProgressSource, registered right
/// after the mapped-memory transport's poll stage).
void lmt_progress(Vci& v, int* made_progress) MPX_REQUIRES(v.mu);

/// Register the in-tree non-transport sources (dtype, coll, async), in
/// Listing 1.1 order. Called once by the World constructor.
void register_builtin_sources(ProgressRegistry& reg);

/// Register one poll stage per transport, in list order, inserting the LMT
/// copy stage directly after the first cap_mapped_memory transport (the
/// seed polled LMT work inside the shm slot; the split keeps per-source
/// counters honest while preserving relative order).
void register_transport_sources(ProgressRegistry& reg,
                                const std::vector<transport::Transport*>& ts);

}  // namespace mpx::core_detail
