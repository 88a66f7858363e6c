// mpx/core/world.hpp
//
// A World is one simulated MPI job: N ranks sharing a process, an ordered
// list of transports (in-tree: shared-memory + simulated NIC, plus any
// WorldConfig::extra_transports), a progress-source registry, a clock, and
// per-rank VCI tables. Rank code runs on caller-provided threads
// ("threads-as-ranks"); all rank state is explicit, so one process can
// host several Worlds.
//
// Internally a World is two layers (docs/architecture.md, "Control plane
// vs datapath"): a CONTROL PLANE (comm/stream lifecycle, context-id
// allocation, transport ownership, topology publication — mutates under
// the ranked control mutex) and a DATAPATH (VCI tables, matching, progress
// stage tables — reads only immutable state plus one acquire-loaded
// TopologySnapshot per poll/send, never a lock). The facade below fronts
// both.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mpx/base/clock.hpp"
#include "mpx/base/instrumented_mutex.hpp"
#include "mpx/base/stats.hpp"
#include "mpx/core/comm.hpp"
#include "mpx/core/config.hpp"
#include "mpx/core/info.hpp"
#include "mpx/core/stream.hpp"
#include "mpx/trace/tracer.hpp"

namespace mpx {

namespace core_detail {
struct RankCtx;
struct Vci;
class ProgressRegistry;
class TopologyHandle;
struct TopologySnapshot;
}  // namespace core_detail

namespace transport {
class Transport;
}

class World : public std::enable_shared_from_this<World> {
 public:
  /// Create a world of cfg.nranks ranks. (MPI_Init analog.)
  static std::shared_ptr<World> create(WorldConfig cfg = WorldConfig{});

  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const;
  const WorldConfig& config() const;

  /// MPI_Wtime analog.
  double wtime() const;
  const base::Clock& clock() const;
  /// Non-null when the world was configured with use_virtual_clock.
  base::VirtualClock* virtual_clock();

  /// The world communicator as seen by `rank`.
  Comm comm_world(int rank);

  // --- streams (§3.1) ---

  /// The default stream (VCI 0) of `rank`: MPIX_STREAM_NULL analog.
  Stream null_stream(int rank);

  /// MPIX_Stream_create: allocate a serial execution context with its own
  /// VCI. Info hints: "mpx_skip_netmod"/"mpx_skip_shm"/"mpx_skip_dtype"/
  /// "mpx_skip_coll" = "1" trims the stream's progress mask.
  Stream stream_create(int rank, const Info& info = Info{});

  /// MPIX_Stream_free. The stream must be quiescent (no pending work).
  void stream_free(Stream& stream);

  // --- generalized requests (§4.6) ---

  /// MPI_Grequest_start analog: a user-completed request on rank's VCI 0.
  Request grequest_start(int rank, core_detail::GrequestFns fns);

  /// Generalized request bound to a specific stream (its VCI is the one a
  /// wait on the request will progress). Extension used by the collective
  /// and ext layers.
  Request grequest_start(const Stream& stream, core_detail::GrequestFns fns);

  /// MPI_Grequest_complete analog: mark `req` complete (query_fn fills the
  /// final status).
  static void grequest_complete(Request& req);

  // --- finalize (paper: MPI_Finalize spins progress until async tasks done)

  /// Drive progress on every VCI of `rank` until all pending work (async
  /// hooks, collective schedules, in-flight protocol ops) drains.
  void finalize_rank(int rank);

  // --- instrumentation ---

  /// Lock statistics of (rank, vci) — Fig. 9/11 evidence.
  base::MutexStats vci_lock_stats(int rank, int vci) const;
  /// Progress-call count of (rank, vci).
  std::uint64_t vci_progress_calls(int rank, int vci) const;

  /// The full compiled stage table of (rank, vci): one row per registered
  /// ProgressSource, in poll order, with its per-VCI hit/call counters.
  struct StageCounter {
    std::string name;
    unsigned mask = 0;
    std::uint64_t calls = 0;
    std::uint64_t hits = 0;
  };
  std::vector<StageCounter> vci_stage_table(int rank, int vci) const;

  /// Wait-ladder rung occupancy of (rank, vci): how many empty backoff
  /// pauses by blocking waits on this VCI landed on each rung (monotonic;
  /// sample twice and subtract for a windowed rate). The adaptive progress
  /// engine promotes VCIs whose waiters pile up on the yield/sleep rungs.
  struct WaitRungCounters {
    std::uint64_t spin = 0;
    std::uint64_t yield = 0;
    std::uint64_t sleep = 0;
  };
  WaitRungCounters vci_wait_rungs(int rank, int vci) const;

  /// Pending work on (rank, vci): in-flight p2p/coll requests plus
  /// registered async hooks (linked or still in the mailbox). It is the
  /// progress engine's "is there work pending on this endpoint" signal;
  /// lock-free relaxed reads, so the sum may lag a concurrent change.
  std::int64_t vci_active_ops(int rank, int vci) const;

  /// Matching-engine depths of (rank, vci): pending posted receives and
  /// parked unexpected messages (test/bench observability; takes the VCI
  /// lock).
  struct MatchCounters {
    std::size_t posted = 0;
    std::size_t unexpected = 0;
  };
  MatchCounters vci_match_counters(int rank, int vci) const;

  // --- transports ---

  /// Ordered transport list (routing order: extras, then shm, then nic).
  std::size_t transport_count() const;
  transport::Transport& transport_at(std::size_t i) const;

  /// Transport lookup by name() ("shm", "nic", ...); nullptr when absent.
  /// Tests downcast through this instead of World naming concrete types.
  transport::Transport* find_transport(std::string_view name) const;

  /// The transport carrying (src, dst) traffic: first transport in list
  /// order whose reaches() claims the pair. Compiled into a flat table
  /// carried by the published TopologySnapshot — O(1), no virtual dispatch
  /// on lookup (one snapshot acquire-load plus an indexed read).
  transport::Transport& route(int src, int dst) const;

  /// True when src and dst live on the same simulated node (shm path).
  bool same_node(int a, int b) const;

  /// The published progress-source registry (stage order of every VCI).
  const core_detail::ProgressRegistry& progress_registry() const;

  /// The protocol tracer (§2.5 observability). Disabled (capacity 0) unless
  /// WorldConfig::trace_capacity was set.
  trace::Tracer& tracer();

  // --- topology control plane (ROADMAP items 1 and 5 build on this) ---

  /// Epoch of the currently-published TopologySnapshot (starts at 1, bumps
  /// on every control-plane publication — two per swap: fence + cutover).
  std::uint64_t topology_epoch() const;

  /// TEST/INTERNAL control-plane entry point: re-route the (a, b) rank pair
  /// (both directions) onto transport `t`, which must be one of this
  /// world's transports and must reach both directions of the pair. Safe to
  /// call mid-traffic from any non-rank thread: the pair is fenced (new
  /// sends park in order), drained (in-flight messages on the old carrier
  /// delivered, driven by this thread), then cut over — zero messages
  /// lost, duplicated, or reordered. Serialized against other swaps by the
  /// control mutex. NOT poll-safe: never call from a progress callback
  /// (mpxlint's progress-contract check enforces this). This is the
  /// mechanism ROADMAP item 5's join/leave and item 1's reconnect FSM will
  /// drive.
  void swap_topology_for_test(int a, int b, transport::Transport& t);

  // --- internal access (runtime layers; not for applications) ---
  core_detail::RankCtx& rank_ctx(int rank);
  core_detail::Vci& vci(int rank, int vci_id);
  /// The datapath's topology publication point (TopoRef pins through it).
  const core_detail::TopologyHandle& topology() const;
  /// Allocate `count` consecutive matching-context ids (comm management).
  std::int32_t alloc_context_ids(int count);

 private:
  explicit World(WorldConfig cfg);
  /// Lock-free VCI-table lookup: two acquire loads (published table length,
  /// then the slot pointer) — no lock since PR 5; writers serialize on the
  /// rank's vci-table mutex and publish with release stores.
  core_detail::Vci* vci_ptr(int rank, int vci_id) const;
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace mpx
