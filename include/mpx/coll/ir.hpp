// mpx/coll/ir.hpp
//
// The collective schedule IR and compiler ("Extending MPI with User-Level
// Schedules" made concrete) — the one engine every mpx::coll collective
// runs on. A compiled Schedule is a flat graph of send/recv/reduce/copy/fn
// nodes with explicit dependency edges; a round-by-round algorithm is the
// special case where every node of layer k depends on all of layer k-1.
// Sparser edges let independent data flow independently: a ring
// allreduce's reduce-scatter chunks stream without waiting for the slowest
// peer of each "round".
//
// Schedules are specialized once per (coll kind, dtype layout, reduce op,
// count class, in-place, root, rank) and are immutable after Builder::
// finish(): counts and offsets are stored SYMBOLICALLY as block fractions
// (resolved against the actual element count when a cursor is armed), so
// one schedule serves every count in its class. Execution state lives
// entirely in a pooled cursor (ir_exec.cpp); steady-state repeated
// collectives allocate nothing and plan nothing.
//
// Buffer hazards are inferred, not declared: the Builder records each
// node's read/write ranges and adds RAW/WAR/WAW edges against earlier
// nodes automatically, so algorithm builders are written as straight-line
// emission in program order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mpx/base/pool.hpp"
#include "mpx/core/comm.hpp"
#include "mpx/dtype/reduce_op.hpp"
#include "mpx/net/cost_model.hpp"

namespace mpx::coll::ir {

namespace verify {
struct Report;  // ir_verify.hpp
}

enum class CollKind : std::uint8_t {
  allreduce = 0,
  bcast,
  reduce,
  barrier,
  allgather,
  alltoall,
  gather,
  scatter,
  reduce_scatter_block,
  scan,
  exscan,
  gatherv,   ///< per-call layouts (compile_v); never cached
  scatterv,
  allgatherv,
  neighbor_allgather,  ///< per-call neighbor lists (compile_neighbor)
  neighbor_alltoall,
};

const char* to_string(CollKind k);

/// Concrete algorithm a schedule implements. `auto_` is only an input to
/// selection — compiled schedules always carry a resolved value.
enum class Algo : std::uint8_t {
  auto_ = 0,
  rd,          ///< recursive doubling (allreduce)
  ring,        ///< ring reduce-scatter + ring allgather (allreduce)
  rsag,        ///< recursive-halving RS + recursive-doubling AG (allreduce)
  knomial,     ///< radix-k tree (bcast, reduce)
  scatter_ag,  ///< knomial scatter + ring allgather (bcast)
  dissemination,  ///< log2 rounds of zero-byte tokens (barrier)
  linear,      ///< every message posted at once (gather, scatter, alltoall,
               ///< their v-variants, neighborhood collectives)
  chain,       ///< rank r waits on r-1, feeds r+1 (scan, exscan)
};

const char* to_string(Algo a);

enum class NodeKind : std::uint8_t { send = 0, recv, reduce, copy, fn };

/// Which buffer a node operand addresses.
enum class Space : std::uint8_t {
  none = 0,
  send,     ///< the caller's send buffer (read-only)
  recv,     ///< the caller's receive / in-out buffer
  scratch,  ///< a slot in the cursor's scratch arena
};

/// Symbolic element range: blocks [b0, b1) of the vector split into `div`
/// equal parts. Resolved against the runtime count as
///   lo(b) = count * b / div   (elements; the standard block partition)
/// so one schedule covers every count in its class, including counts
/// smaller than `div` (empty blocks become zero-byte operations).
///
/// A div-1 Part names whole vectors: {1, b0, b1} is vectors [b0, b1) of
/// `count` elements each, for buffers that hold several (allgather's
/// receive buffer holds one per rank). Launched with count 1 the same form
/// is an exact element range, which is how the v-variants address their
/// per-rank displacements.
struct Part {
  std::uint32_t div = 1;
  std::uint32_t b0 = 0;
  std::uint32_t b1 = 1;

  std::size_t lo(std::size_t count) const {
    return count * b0 / div;
  }
  std::size_t elems(std::size_t count) const {
    return count * b1 / div - count * b0 / div;
  }

  friend bool operator==(const Part&, const Part&) = default;
};

/// Whole vector as a Part.
inline Part full() { return Part{1, 0, 1}; }
/// Block b of the vector split into div parts.
inline Part block(std::uint32_t div, std::uint32_t b) {
  return Part{div, b, b + 1};
}
/// Blocks [b0, b1) of the vector split into div parts.
inline Part blocks(std::uint32_t div, std::uint32_t b0, std::uint32_t b1) {
  return Part{div, b0, b1};
}
/// Whole vector b of a buffer holding several.
inline Part vec(std::uint32_t b) { return Part{1, b, b + 1}; }
/// Whole vectors [b0, b1) of a buffer holding several.
inline Part vecs(std::uint32_t b0, std::uint32_t b1) {
  return Part{1, b0, b1};
}

/// One node operand: an element range within a buffer space. For scratch
/// operands the range indexes within slot `slot` (whose own size is a Part
/// of the vector); for send/recv it indexes the user buffer directly, in
/// elements of the datatype's extent.
struct Ref {
  Space space = Space::none;
  std::uint16_t slot = 0;
  Part r;
};

inline Ref send_buf(Part p) { return Ref{Space::send, 0, p}; }
inline Ref recv_buf(Part p) { return Ref{Space::recv, 0, p}; }
inline Ref scratch_ref(std::uint16_t slot, Part p) {
  return Ref{Space::scratch, slot, p};
}

/// Resolved buffer view handed to fn nodes at execution time.
struct ExecView {
  const std::byte* sendbuf = nullptr;  ///< null for in-place schedules
  std::byte* recvbuf = nullptr;
  std::byte* scratch = nullptr;  ///< cursor's scratch arena base
  std::size_t count = 0;         ///< runtime element count
  std::size_t esz = 0;           ///< element size in bytes
  int rank = 0;
  int size = 0;
};

using FnNode = std::function<void(const ExecView&)>;

/// One IR node. `a` is the source / input operand, `b` the destination /
/// in-out operand; element count comes from the operand ranges (equal by
/// construction: identical Parts, or div-1 Parts of equal width). Flat
/// POD-ish storage: the executor walks these arrays with no per-node
/// allocation or indirection.
struct Node {
  NodeKind kind = NodeKind::copy;
  Ref a;
  Ref b;
  std::int32_t peer = -1;      ///< comm rank (send/recv)
  std::uint16_t tag_off = 0;   ///< tag offset within the instance's range
  std::uint16_t fn_id = 0;     ///< index into Schedule::fns (fn nodes)
  std::uint16_t req_slot = 0;  ///< request slot (send/recv nodes)
};

/// An immutable compiled schedule. Shared (const) between the per-comm
/// cache, in-flight cursors, and persistent handles; the only mutable
/// member is the scratch arena pool, which is thread-safe.
class Schedule {
 public:
  CollKind kind = CollKind::allreduce;
  Algo algo = Algo::rd;
  dtype::Datatype dt;
  dtype::ReduceOp op = dtype::ReduceOp::sum;
  bool in_place = false;
  int root = 0;
  int rank = 0;
  int size = 1;
  /// Largest element count this schedule's scratch sizing admits (the
  /// count-class upper bound it was compiled for).
  std::size_t max_count = 0;
  /// Whole vectors the send / recv buffers hold (bounds of div-1 Parts).
  std::uint32_t send_vecs = 1;
  std::uint32_t recv_vecs = 1;

  std::vector<Node> nodes;
  std::vector<std::uint32_t> succ;      ///< CSR successor node ids
  std::vector<std::uint32_t> succ_off;  ///< size nodes+1
  std::vector<std::uint16_t> indeg;     ///< initial dependency counts
  std::vector<std::uint32_t> entry;     ///< nodes with indeg == 0
  std::vector<Part> slots;              ///< scratch slot sizes
  std::vector<FnNode> fns;
  std::uint32_t nreq = 0;  ///< number of send/recv nodes (request slots)

  /// Byte offset of each scratch slot and the total arena size for `count`
  /// elements of `esz` bytes (64-byte aligned slots).
  std::size_t arena_bytes(std::size_t count) const;
  std::size_t slot_offset(std::uint16_t slot, std::size_t count) const;

  /// Recycles cursor scratch arenas, all arena_bytes(max_count) bytes.
  /// Emplaced by the Builder when the arena is non-empty; a verify::clone
  /// leaves it empty and is never launched.
  mutable std::optional<base::FixedBlockPool> arena_pool;
};

using SchedPtr = std::shared_ptr<const Schedule>;

/// Straight-line schedule builder with automatic hazard edges. Emit nodes
/// in program order; every RAW/WAR/WAW overlap against an earlier node
/// becomes a dependency edge, and anything untouched by hazards runs as
/// early as its operands allow (receives into fresh scratch pre-post
/// immediately). Tags are assigned per (peer, direction) sequence so both
/// sides of a matched pair agree; sequences past the instance's 64-tag
/// range are serialized onto their predecessor automatically.
///
/// Public so user-level schedules can be built out-of-tree (the paper's
/// §5.3 direction): a custom schedule executes through the same compiled
/// cursor machinery as the built-in algorithms.
class Builder {
 public:
  /// Any valid datatype; scratch slots and reduce nodes additionally need
  /// a contiguous one.
  Builder(CollKind kind, dtype::Datatype dt, dtype::ReduceOp op,
          bool in_place, int rank, int size);

  /// How many whole vectors the send and recv buffers hold (default 1
  /// each; 0 = the buffer is not addressed). Call before emitting nodes.
  void spans(std::uint32_t send_vecs, std::uint32_t recv_vecs);

  /// Allocate a scratch slot sized to `size` (a Part of the vector).
  std::uint16_t scratch(Part size);

  void send(Ref src, int peer);
  void recv(Ref dst, int peer);
  /// inout[i] = op(inout[i], in[i]) over the operand range.
  void reduce(Ref in, Ref inout);
  void copy(Ref src, Ref dst);
  /// Arbitrary local work; ordered as if it read and wrote every buffer.
  void fn(FnNode f);

  int rank() const { return rank_; }
  int size() const { return size_; }
  bool in_place() const { return in_place_; }

  /// Freeze into an immutable schedule valid for counts <= max_count.
  SchedPtr finish(Algo algo, int root, std::size_t max_count);

  /// Run the single-rank verifier battery (structural invariants, tag-window
  /// discipline, buffer hazards, reduce-order determinism) over the nodes
  /// emitted so far, without consuming the builder: a user schedule fails
  /// fast with a diagnostic instead of deadlocking the executor. Cross-rank
  /// checks (send/recv matching, global deadlock-freedom) need every rank's
  /// schedule — finish() each rank and call verify::verify_ranks
  /// (ir_verify.hpp).
  verify::Report verify() const;

 private:
  struct Access {
    Ref ref;
    bool writes = false;
  };
  void check_ref(const Ref& r) const;
  /// finish() minus the move-out: builds the immutable schedule from copies
  /// so verify() can materialize without consuming the builder.
  SchedPtr materialize(Algo algo, int root, std::size_t max_count) const;
  std::uint32_t emit(Node nd, std::initializer_list<Access> acc);
  void assign_tag(std::uint32_t id, int peer, bool is_send);
  void add_manual_edge(std::uint32_t from, std::uint32_t to);

  CollKind kind_;
  dtype::Datatype dt_;
  dtype::ReduceOp op_;
  bool in_place_;
  int rank_;
  int size_;
  std::uint32_t send_vecs_ = 1;
  std::uint32_t recv_vecs_ = 1;
  std::uint32_t nreq_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::vector<Access>> accesses_;  ///< per node, compile-only
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
  std::vector<Part> slots_;
  std::vector<FnNode> fns_;
  /// Per (peer, direction) emission history for tag assignment: the node
  /// ids of same-key messages, so the (n mod 64)-th reuse can serialize
  /// onto the previous holder of its tag.
  struct TagSeq {
    std::int32_t peer;
    bool is_send;
    std::vector<std::uint32_t> nodes;
  };
  std::vector<TagSeq> tagseqs_;
};

// ---- compiler + cache front end ----

/// Per-call options. `algo` forces a specific algorithm (bypassing cost-
/// model selection — forced compilations cache under their own key);
/// `use_cache = false` compiles fresh and leaves the cache untouched (the
/// bench's "uncached" series).
struct Opts {
  Algo algo = Algo::auto_;
  bool use_cache = true;
};

/// Cache observability (per communicator; zeros before first use).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;    ///< lookups that compiled a new schedule
  std::uint64_t rejects = 0;   ///< compiled uncached because the table was full
  std::uint32_t entries = 0;
  std::uint64_t scratch_hits = 0;    ///< arena reuse across cached schedules
  std::uint64_t scratch_misses = 0;  ///< arena allocations
};
CacheStats cache_stats(const Comm& comm);

/// True when reductions can run on `dt` (contiguous, nonzero size). Every
/// collective accepts any valid datatype; only the reducing kinds need
/// this.
bool eligible(const dtype::Datatype& dt);

/// Compile (or fetch from the comm's cache) and launch. These are what
/// coll::iallreduce / ibcast / ireduce route through; `opts` forces an
/// algorithm or bypasses the cache.
Request iallreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                   dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm,
                   Opts opts = {});
Request ibcast(void* buf, std::size_t count, dtype::Datatype dt, int root,
               const Comm& comm, Opts opts = {});
Request ireduce(const void* sendbuf, void* recvbuf, std::size_t count,
                dtype::Datatype dt, dtype::ReduceOp op, int root,
                const Comm& comm, Opts opts = {});

/// Persistent allreduce over a pinned schedule: compiles once, then every
/// start() re-arms the pinned cursor — no allocation, no planning, no
/// cache lookup per cycle.
Request allreduce_init(const void* sendbuf, void* recvbuf, std::size_t count,
                       dtype::Datatype dt, dtype::ReduceOp op,
                       const Comm& comm, Opts opts = {});

/// Compile one rank's schedule of any kind but the per-call ones below,
/// without a communicator (the front end, unit tests, offline inspection).
/// Deterministic: every rank compiling with the same arguments selects the
/// same algorithm. `in_place` is the send side's flag, except for scatter,
/// where it marks the root's recvbuf as in place.
SchedPtr compile(CollKind kind, std::size_t count, dtype::Datatype dt,
                 dtype::ReduceOp op, bool in_place, int root, int rank,
                 int size, const net::CostModel& net, Algo force = Algo::auto_);

/// Compile one rank's v-variant schedule (gatherv, scatterv, allgatherv).
/// `counts`/`displs` are per rank, in elements (only the root's matter for
/// gatherv/scatterv; other ranks may pass empty spans); `own` is this
/// rank's sendcount (gatherv, allgatherv) or recvcount (scatterv). Parts
/// are exact element ranges: launch with count 1. Zero-count messages are
/// omitted (both sides know the count).
SchedPtr compile_v(CollKind kind, std::span<const std::size_t> counts,
                   std::span<const std::size_t> displs, std::size_t own,
                   dtype::Datatype dt, bool in_place, int root, int rank,
                   int size);

/// Compile one rank's neighborhood collective over its Cartesian neighbor
/// list (Cart::neighbors order; -1 = no neighbor). A self-neighbor becomes
/// a local copy.
SchedPtr compile_neighbor(CollKind kind, std::size_t count,
                          dtype::Datatype dt, std::span<const int> nbrs,
                          int rank, int size);

/// Execute an arbitrary schedule (compiled or hand-built via Builder) over
/// the given buffers. `sendbuf` may be null for in-place schedules.
Request launch(SchedPtr sched, const void* sendbuf, void* recvbuf,
               std::size_t count, const Comm& comm);

/// The algorithm `compile` would pick for this shape (observability).
Algo select_algo(CollKind kind, std::size_t bytes, int size,
                 const net::CostModel& net);

}  // namespace mpx::coll::ir
