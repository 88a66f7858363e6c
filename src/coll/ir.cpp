// Collective IR construction: the Builder's automatic hazard analysis and
// the immutable Schedule it freezes into.
//
// The Builder is the piece that makes flat dependency graphs writable by
// hand: algorithms emit nodes in program order with buffer operands, and
// every RAW/WAR/WAW overlap against an earlier node becomes an edge. The
// overlap test is exact on the symbolic ranges: Part endpoints are
// rationals b/div scaled by the runtime count through a monotone floor, so
// range [a0/ad, a1/ad) cannot collide with [b0/bd, b1/bd) for ANY count
// when a1*bd <= b0*ad or b1*ad <= a0*bd (cross-multiplied, no floats).
// Anything else is treated as overlapping — conservative, never unsound.
#include "mpx/coll/ir.hpp"

#include <algorithm>
#include <utility>

#include "ir_internal.hpp"

namespace mpx::coll::ir {

const char* to_string(Algo a) {
  switch (a) {
    case Algo::auto_: return "auto";
    case Algo::rd: return "rd";
    case Algo::ring: return "ring";
    case Algo::rsag: return "rsag";
    case Algo::knomial: return "knomial";
    case Algo::scatter_ag: return "scatter_ag";
    case Algo::dissemination: return "dissemination";
    case Algo::linear: return "linear";
    case Algo::chain: return "chain";
  }
  return "?";
}

const char* to_string(CollKind k) {
  switch (k) {
    case CollKind::allreduce: return "allreduce";
    case CollKind::bcast: return "bcast";
    case CollKind::reduce: return "reduce";
    case CollKind::barrier: return "barrier";
    case CollKind::allgather: return "allgather";
    case CollKind::alltoall: return "alltoall";
    case CollKind::gather: return "gather";
    case CollKind::scatter: return "scatter";
    case CollKind::reduce_scatter_block: return "reduce_scatter_block";
    case CollKind::scan: return "scan";
    case CollKind::exscan: return "exscan";
    case CollKind::gatherv: return "gatherv";
    case CollKind::scatterv: return "scatterv";
    case CollKind::allgatherv: return "allgatherv";
    case CollKind::neighbor_allgather: return "neighbor_allgather";
    case CollKind::neighbor_alltoall: return "neighbor_alltoall";
  }
  return "?";
}

// ---- Schedule --------------------------------------------------------------

namespace {
constexpr std::size_t kSlotAlign = 64;  // scratch slot stride within an arena
/// Depot cap of each schedule's arena pool: one magazine batch. A cursor
/// launched on a rank thread and completed on a progress thread moves its
/// arena between magazines a batch at a time; a smaller depot would free
/// part of every batch and miss on the way back.
constexpr std::size_t kScratchCap = base::kMagazineMaxBlocks / 2;
std::size_t align_up(std::size_t n) {
  return (n + kSlotAlign - 1) & ~(kSlotAlign - 1);
}
}  // namespace

std::size_t Schedule::slot_offset(std::uint16_t slot,
                                  std::size_t count) const {
  std::size_t off = 0;
  for (std::uint16_t i = 0; i < slot; ++i) {
    off += align_up(slots[i].elems(count) * dt.size());
  }
  return off;
}

std::size_t Schedule::arena_bytes(std::size_t count) const {
  return slot_offset(static_cast<std::uint16_t>(slots.size()), count);
}

// ---- Builder ---------------------------------------------------------------

// Shared with the verifier (ir_verify.cpp), which re-derives each node's
// access set with the same conflict predicate — declared in ir_internal.hpp.

/// Can ranges [x.b0/x.div, x.b1/x.div) and [y.b0/y.div, y.b1/y.div)
/// intersect for some count? Exact rational comparison; floor resolution
/// preserves disjointness because floor is monotone.
bool parts_overlap(const Part& x, const Part& y) {
  const auto x0 = static_cast<std::uint64_t>(x.b0) * y.div;
  const auto x1 = static_cast<std::uint64_t>(x.b1) * y.div;
  const auto y0 = static_cast<std::uint64_t>(y.b0) * x.div;
  const auto y1 = static_cast<std::uint64_t>(y.b1) * x.div;
  return x0 < y1 && y0 < x1;
}

bool same_width(const Part& x, const Part& y) {
  return x == y || (x.div == 1 && y.div == 1 && x.b1 - x.b0 == y.b1 - y.b0);
}

bool refs_conflict(const Ref& a, const Ref& b) {
  // Space::none marks an fn node's whole-memory barrier operand.
  if (a.space == Space::none || b.space == Space::none) return true;
  if (a.space != b.space) return false;
  if (a.space == Space::scratch && a.slot != b.slot) return false;
  return parts_overlap(a.r, b.r);
}

Builder::Builder(CollKind kind, dtype::Datatype dt, dtype::ReduceOp op,
                 bool in_place, int rank, int size)
    : kind_(kind), dt_(std::move(dt)), op_(op), in_place_(in_place),
      rank_(rank), size_(size) {
  expects(dt_.valid(), "ir::Builder: invalid datatype");
  expects(size_ >= 1 && rank_ >= 0 && rank_ < size_,
          "ir::Builder: rank out of range");
}

void Builder::spans(std::uint32_t send_vecs, std::uint32_t recv_vecs) {
  expects(nodes_.empty(), "ir::Builder::spans: call before emitting nodes");
  send_vecs_ = send_vecs;
  recv_vecs_ = recv_vecs;
}

std::uint16_t Builder::scratch(Part size) {
  expects(dt_.is_contiguous(),
          "ir::Builder: scratch needs a contiguous datatype");
  expects(size.b0 == 0 && size.b1 >= 1 && size.b1 <= size.div,
          "ir::Builder: scratch slots are prefix windows [0, b1/div)");
  expects(slots_.size() < 0xFFFF, "ir::Builder: too many scratch slots");
  slots_.push_back(size);
  return static_cast<std::uint16_t>(slots_.size() - 1);
}

void Builder::check_ref(const Ref& r) const {
  expects(r.space != Space::none, "ir::Builder: unset operand");
  expects(r.r.div >= 1 && r.r.b0 < r.r.b1, "ir::Builder: empty Part");
  if (r.space == Space::scratch) {
    expects(r.slot < slots_.size(), "ir::Builder: scratch slot out of range");
    const Part& sz = slots_[r.slot];
    expects(static_cast<std::uint64_t>(r.r.b1) * sz.div <=
                static_cast<std::uint64_t>(sz.b1) * r.r.div,
            "ir::Builder: scratch ref outside its slot");
  } else {
    const std::uint32_t vecs =
        r.space == Space::send ? send_vecs_ : recv_vecs_;
    expects(static_cast<std::uint64_t>(r.r.b1) <=
                static_cast<std::uint64_t>(vecs) * r.r.div,
            "ir::Builder: ref outside the buffer");
    if (r.space == Space::send) {
      expects(!in_place_,
              "ir::Builder: send-space ref in an in-place schedule");
    }
  }
}

std::uint32_t Builder::emit(Node nd, std::initializer_list<Access> acc) {
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  std::vector<Access> as(acc);
  // Hazard pass: any read/write overlap with an earlier node where at
  // least one side writes becomes a dependency edge (program order wins).
  for (std::uint32_t j = 0; j < id; ++j) {
    bool dep = false;
    for (const Access& mine : as) {
      for (const Access& theirs : accesses_[j]) {
        if (!mine.writes && !theirs.writes) continue;
        if (refs_conflict(mine.ref, theirs.ref)) {
          dep = true;
          break;
        }
      }
      if (dep) break;
    }
    if (dep) edges_.push_back({j, id});
  }
  nodes_.push_back(nd);
  accesses_.push_back(std::move(as));
  return id;
}

void Builder::assign_tag(std::uint32_t id, int peer, bool is_send) {
  TagSeq* seq = nullptr;
  for (TagSeq& t : tagseqs_) {
    if (t.peer == peer && t.is_send == is_send) {
      seq = &t;
      break;
    }
  }
  if (seq == nullptr) {
    tagseqs_.push_back(TagSeq{peer, is_send, {}});
    seq = &tagseqs_.back();
  }
  const std::size_t n = seq->nodes.size();
  nodes_[id].tag_off = static_cast<std::uint16_t>(n % 64);
  // One collective instance owns 64 tags. The (n mod 64)-th reuse is only
  // unambiguous if the previous holder of the tag was posted first —
  // matching is FIFO per (peer, tag) — so serialize onto it.
  if (n >= 64) add_manual_edge(seq->nodes[n - 64], id);
  seq->nodes.push_back(id);
}

void Builder::add_manual_edge(std::uint32_t from, std::uint32_t to) {
  edges_.push_back({from, to});
}

void Builder::send(Ref src, int peer) {
  check_ref(src);
  expects(peer >= 0 && peer < size_ && peer != rank_,
          "ir::Builder::send: bad peer");
  Node nd;
  nd.kind = NodeKind::send;
  nd.a = src;
  nd.peer = peer;
  nd.req_slot = static_cast<std::uint16_t>(nreq_++);
  const std::uint32_t id = emit(nd, {Access{src, false}});
  assign_tag(id, peer, /*is_send=*/true);
}

void Builder::recv(Ref dst, int peer) {
  check_ref(dst);
  expects(peer >= 0 && peer < size_ && peer != rank_,
          "ir::Builder::recv: bad peer");
  expects(dst.space != Space::send, "ir::Builder::recv into the send buffer");
  Node nd;
  nd.kind = NodeKind::recv;
  nd.b = dst;
  nd.peer = peer;
  nd.req_slot = static_cast<std::uint16_t>(nreq_++);
  const std::uint32_t id = emit(nd, {Access{dst, true}});
  assign_tag(id, peer, /*is_send=*/false);
}

void Builder::reduce(Ref in, Ref inout) {
  check_ref(in);
  check_ref(inout);
  // Identical Parts (or whole vectors of equal width) guarantee identical
  // resolved lengths for every count (different-position fractions of
  // equal rational width can floor to different element counts).
  expects(dt_.is_contiguous(),
          "ir::Builder::reduce: needs a contiguous datatype");
  expects(same_width(in.r, inout.r),
          "ir::Builder::reduce: operand widths must match");
  expects(inout.space != Space::send,
          "ir::Builder::reduce into the send buffer");
  Node nd;
  nd.kind = NodeKind::reduce;
  nd.a = in;
  nd.b = inout;
  emit(nd, {Access{in, false}, Access{inout, true}});
}

void Builder::copy(Ref src, Ref dst) {
  check_ref(src);
  check_ref(dst);
  expects(same_width(src.r, dst.r),
          "ir::Builder::copy: operand widths must match");
  expects(dst.space != Space::send, "ir::Builder::copy into the send buffer");
  Node nd;
  nd.kind = NodeKind::copy;
  nd.a = src;
  nd.b = dst;
  emit(nd, {Access{src, false}, Access{dst, true}});
}

void Builder::fn(FnNode f) {
  expects(static_cast<bool>(f), "ir::Builder::fn: empty function");
  expects(fns_.size() < 0xFFFF, "ir::Builder: too many fn nodes");
  Node nd;
  nd.kind = NodeKind::fn;
  nd.fn_id = static_cast<std::uint16_t>(fns_.size());
  fns_.push_back(std::move(f));
  // Whole-memory barrier operand: ordered against every other node.
  emit(nd, {Access{Ref{}, true}});
}

SchedPtr Builder::materialize(Algo algo, int root,
                              std::size_t max_count) const {
  auto s = std::make_shared<Schedule>();
  s->kind = kind_;
  s->algo = algo;
  s->dt = dt_;
  s->op = op_;
  s->in_place = in_place_;
  s->root = root;
  s->rank = rank_;
  s->size = size_;
  s->max_count = max_count;
  s->send_vecs = send_vecs_;
  s->recv_vecs = recv_vecs_;
  s->nreq = nreq_;

  const auto n = static_cast<std::uint32_t>(nodes_.size());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges = edges_;
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  s->succ_off.assign(n + 1, 0);
  s->indeg.assign(n, 0);
  for (const auto& [from, to] : edges) {
    expects(from < to, "ir::Builder: edge against program order");
    ++s->succ_off[from + 1];
    expects(s->indeg[to] != 0xFFFF, "ir::Builder: dependency count overflow");
    ++s->indeg[to];
  }
  for (std::uint32_t i = 0; i < n; ++i) s->succ_off[i + 1] += s->succ_off[i];
  s->succ.resize(edges.size());
  std::vector<std::uint32_t> cursor(s->succ_off.begin(),
                                    s->succ_off.end() - 1);
  for (const auto& [from, to] : edges) s->succ[cursor[from]++] = to;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (s->indeg[i] == 0) s->entry.push_back(i);
  }
  s->nodes = nodes_;
  s->slots = slots_;
  s->fns = fns_;
  if (const std::size_t ab = s->arena_bytes(max_count); ab != 0) {
    s->arena_pool.emplace(nullptr, ab, kScratchCap);
  }
  return s;
}

SchedPtr Builder::finish(Algo algo, int root, std::size_t max_count) {
  return materialize(algo, root, max_count);
}

}  // namespace mpx::coll::ir
