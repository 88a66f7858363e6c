// Cross-TU internals of the coll IR layer (compiler <-> executor <-> the
// cache front end). Not installed; include only from src/coll.
#pragma once

#include <atomic>

#include "mpx/coll/ir.hpp"
#include "mpx/coll/ir_cache.hpp"
#include "mpx/core/comm_ext.hpp"

namespace mpx::coll::ir {

// ir.cpp --------------------------------------------------------------------

/// Exact symbolic overlap test on block fractions: can the two ranges
/// intersect for ANY element count? The Builder's hazard pass and the
/// verifier's hazard re-derivation must agree, so there is one definition.
bool parts_overlap(const Part& x, const Part& y);

/// Do two copy/reduce operands resolve to the same length at every count?
/// Identical Parts, or div-1 Parts (whole vectors) of equal width.
bool same_width(const Part& x, const Part& y);

/// Operand conflict predicate over parts_overlap (Space::none = an fn
/// node's whole-memory barrier; distinct spaces/slots are disjoint).
bool refs_conflict(const Ref& a, const Ref& b);

// ir_compile.cpp ------------------------------------------------------------

/// Count class of a byte length: its bit width (one class per power of
/// two).
int count_class(std::size_t bytes);

/// Largest byte length admitted by class `cls` (schedules are compiled and
/// scratch-sized for this bound).
std::size_t class_max_bytes(int cls);

/// Algorithm resolution: the per-call force if valid for `kind`, else the
/// cost model. Deterministic — every rank resolves identically.
Algo resolve_algo(CollKind kind, std::size_t bytes, int size,
                  const net::CostModel& net, Algo force);

/// Kinds whose schedules hold no scratch and whose algorithm ignores the
/// payload size (allgather, alltoall, gather, scatter): cached at count
/// class 0 and compiled valid for every count.
bool class_free(CollKind kind);

/// max_count of a schedule valid at every count.
inline constexpr std::size_t kAnyCount = std::size_t{1} << 40;

// ir_front.cpp --------------------------------------------------------------

/// Per-communicator IR state, installed in the CommImpl extension slot and
/// freed with the communicator: the schedule cache plus the resolved
/// executor source (cached so launch skips the registry scan).
struct CollCommExt final : core_detail::CommExt {
  CollCommExt() : cache(kSchedCacheCap) {}
  SchedCache cache;
  /// The world's SchedExecSource, resolved on first launch. Raw atomic:
  /// racing writers store the same value (not part of the modeled cache
  /// protocol; this file is not in the mc fileset).
  std::atomic<void*> exec{nullptr};
};

/// The ext slot of `comm`'s primary impl, installed on first use.
CollCommExt& coll_ext(const Comm& comm);

/// Null buffers are fine exactly when the call moves no data.
inline void need(const void* p, std::size_t count, const char* what) {
  expects(p != nullptr || count == 0, what);
}

/// One call of a compile()-able kind: fetch the schedule from the comm's
/// cache (compiling it on a miss) and launch it over the buffers the
/// executor should see (null for a space the call does not supply) — as
/// a persistent handle when `persistent`. Noncontiguous datatypes compile
/// per call: the cache key names a layout by element size alone.
Request run(CollKind kind, const void* sendbuf, void* recvbuf,
            std::size_t count, const dtype::Datatype& dt, dtype::ReduceOp op,
            bool inp, int root, const Comm& comm, Opts opts = {},
            bool persistent = false);

// ir_exec.cpp ---------------------------------------------------------------

/// Persistent collective over a pinned cursor: each start() re-arms
/// pre-built state (schedule, cursor, scratch, request slots) — no
/// allocation and no planning per cycle.
Request persistent_launch(SchedPtr sched, const void* sendbuf, void* recvbuf,
                          std::size_t count, const Comm& comm);

}  // namespace mpx::coll::ir
