// mpx/coll/ir_verify.hpp
//
// Static cross-rank verification of collective schedules: given the N
// per-rank compiled (or user-built) schedules of one collective instance,
// prove — before anything runs — that the instance cannot deadlock or
// corrupt data. The same exhaustive-checking discipline mpx::mc applies to
// the concurrency model and mpxlint applies to the source is applied here
// to the schedule IR itself: every failure comes with a replayable
// counterexample trace instead of a silent hang inside the progress
// engine.
//
// The checks (ISSUE nomenclature a–e):
//
//   matching      (a) global send/recv matching is a perfect pairing per
//                     (src, dst, tag) FIFO channel, with equal resolved
//                     byte counts at every probed element count;
//   acyclic       (b) the union of intra-rank dependency edges and
//                     cross-rank send<->recv edges is acyclic over the
//                     post/complete event graph — deadlock-freedom under
//                     rendezvous (no-buffering) semantics, the MPI-safe
//                     discipline;
//   tag_window    (c) two messages of one (peer, direction) channel that
//                     share a tag offset must be serialized by dependency
//                     edges — FIFO matching is ambiguous otherwise (the
//                     Builder's 64-tag window reuse rule);
//   hazard        (d) no write-write or read-write overlap between
//                     dependency-unordered nodes of one rank (operands
//                     resolved symbolically, exact on block fractions);
//   reduce_order  (e) reduce nodes accumulating into overlapping ranges
//                     are totally ordered, so the result is deterministic
//                     for non-commutative ops.
//
// plus `structure` for malformed graphs (bad peers, out-of-range slots,
// inconsistent CSR arrays, mismatched cross-rank parameters).
//
// The verifier is a compile-path tool: it runs at SchedCache insert under
// MPX_COLL_VERIFY, under Builder::verify() for user schedules, and in the
// offline tools/sched_verify sweep. It must never be reachable from
// ProgressSource::poll (enforced by mpxlint's progress-contract check).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mpx/base/status.hpp"
#include "mpx/coll/ir.hpp"

namespace mpx::coll::ir::verify {

enum class Check : std::uint8_t {
  structure = 0,
  matching,
  acyclic,
  tag_window,
  hazard,
  reduce_order,
};

const char* to_string(Check c);

/// One step of a counterexample trace: a node of one rank's schedule, with
/// the event phase (`posted` = the node being handed to the transport,
/// otherwise its completion) and a human-readable rendering. A cycle trace
/// replays the wait-for loop step by step; a pairwise trace names the two
/// offending nodes.
struct CexStep {
  int rank = 0;
  std::uint32_t node = 0;
  bool posted = true;
  std::string desc;
};

struct Diagnostic {
  Check check = Check::structure;
  std::string message;
  std::vector<CexStep> trace;
};

struct Report {
  std::vector<Diagnostic> diags;
  int ranks = 0;                  ///< schedules verified
  std::size_t nodes = 0;          ///< total nodes across ranks
  std::size_t pairs = 0;          ///< matched send/recv pairs
  std::size_t counts_probed = 0;  ///< element counts the Parts resolved at

  bool ok() const { return diags.empty(); }
  /// Multi-line rendering: one line per diagnostic plus its trace steps.
  std::string to_string() const;
};

/// Thrown by the MPX_COLL_VERIFY cache-insert gate when a compiled
/// schedule set fails verification (routed to Err::invalid_schedule by
/// entry points that report through error codes).
class ScheduleVerifyError : public InternalError {
 public:
  explicit ScheduleVerifyError(Report r);
  const Report& report() const { return report_; }

 private:
  Report report_;
};

/// Full cross-rank battery over one collective instance: `scheds[r]` is
/// rank r's schedule (scheds.size() == comm size). Symbolic Parts are
/// resolved at each of `probe_counts`; empty probes default to
/// {1, 2, max_count/2 + 1, max_count}, the class corners plus an
/// odd interior point (floor resolution differs most there).
Report verify_ranks(const std::vector<SchedPtr>& scheds,
                    const std::vector<std::size_t>& probe_counts = {});

/// Single-rank subset: structure, tag_window, hazard, reduce_order.
/// Matching and global acyclicity need every rank — see verify_ranks.
Report verify_local(const Schedule& s);

// ---- tooling helpers (tests, tools/sched_verify) --------------------------

/// Deep-copy a schedule (minus its scratch arena pool) so a mutation can be
/// applied and proven caught without touching the original. The copy is
/// for the verifier only: it cannot be launched.
std::shared_ptr<Schedule> clone(const Schedule& s);

/// Rebuild succ/succ_off/indeg/entry from an explicit edge list (each
/// {from, to} with from < to in program order). For schedule surgery after
/// mutating the edge set.
void rebuild_edges(
    Schedule& s,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges);

/// Apply a named seeded mutation in place: "swap_tag" (perturb a send's
/// tag offset), "drop_edge" (remove a load-bearing dependency edge),
/// "truncate_part" (shrink one send's operand range), "reorder_reduce"
/// (strip the ordering edges off an accumulating reduce). Returns false
/// when the name is unknown or the schedule has no site for it. Used by
/// the seeded-mutation self-tests and the MPX_COLL_VERIFY_FAULT hook.
bool inject_fault(Schedule& s, std::string_view name);

}  // namespace mpx::coll::ir::verify
