// The collective schedule compiler: algorithm selection against the NIC
// cost model and the per-algorithm IR builders for every collective kind.
//
// Every builder is straight-line emission in program order; dependency
// edges come from the Builder's hazard analysis (ir.cpp). Non-power-of-two
// rank counts run the standard pairwise fold: ranks below 2*rem pair up,
// odd members contribute their vector to the even neighbor and retire, the
// surviving power-of-two group runs the core exchange on renumbered ranks,
// and retired members receive the final vector back. Ring algorithms need
// no fold — they are natively correct for any rank count.
//
// Selection is deterministic from (shape, rank count, cost model) alone,
// evaluated at the count class's upper bound, so every member of a
// communicator independently compiles the same algorithm — no negotiation
// round. Kinds with one algorithm and no scratch (allgather, alltoall,
// gather, scatter) are class-free: one schedule serves every count.
#include <algorithm>
#include <bit>
#include <limits>

#include "ir_internal.hpp"

namespace mpx::coll::ir {

namespace {

int floor_pow2(int n) { return 1 << (std::bit_width(static_cast<unsigned>(n)) - 1); }

int log2_exact(int pow2) { return std::bit_width(static_cast<unsigned>(pow2)) - 1; }

/// Real rank of post-fold rank `nr`: the fold retires odd ranks below
/// 2*rem, so newranks [0, rem) are the surviving even ranks and the rest
/// map up by rem.
int fold_map(int nr, int rem) { return nr < rem ? nr * 2 : nr + rem; }

/// Pairwise pre-fold to a power-of-two group. Returns the caller's
/// newrank, or -1 for retired (odd) ranks — whose whole schedule,
/// including the final result hand-back receive, is emitted here.
int emit_fold_pre(Builder& b, const Ref& acc) {
  const int P = b.size(), r = b.rank();
  const int rem = P - floor_pow2(P);
  if (r >= 2 * rem) return r - rem;
  if (r % 2 == 1) {
    b.send(acc, r - 1);
    b.recv(acc, r - 1);  // the finished vector comes back (WAR on the send)
    return -1;
  }
  const std::uint16_t s = b.scratch(full());
  b.recv(scratch_ref(s, full()), r + 1);
  b.reduce(scratch_ref(s, full()), acc);
  return r / 2;
}

/// Even fold ranks hand the finished vector back to their retired partner.
void emit_fold_post(Builder& b, const Ref& acc) {
  const int P = b.size(), r = b.rank();
  const int rem = P - floor_pow2(P);
  if (r < 2 * rem) b.send(acc, r + 1);
}

/// Copy the caller's contribution into the accumulator (the recv buffer);
/// in-place schedules already have it there.
Ref emit_acc_setup(Builder& b) {
  const Ref acc = recv_buf(full());
  if (!b.in_place()) b.copy(send_buf(full()), acc);
  return acc;
}

// ---- allreduce -------------------------------------------------------------

/// Recursive doubling: log2(p2) full-vector exchange+reduce rounds. Two
/// alternating scratch slots let the next round's receive pre-post while
/// the current round reduces.
void build_allreduce_rd(Builder& b) {
  const Ref acc = emit_acc_setup(b);
  const int p2 = floor_pow2(b.size());
  const int rem = b.size() - p2;
  const int nr = emit_fold_pre(b, acc);
  if (nr < 0) return;
  if (p2 > 1) {
    const std::uint16_t sl[2] = {b.scratch(full()), b.scratch(full())};
    int i = 0;
    for (int m = 1; m < p2; m <<= 1, ++i) {
      const int peer = fold_map(nr ^ m, rem);
      const Ref sc = scratch_ref(sl[i & 1], full());
      b.recv(sc, peer);
      b.send(acc, peer);
      b.reduce(sc, acc);
    }
  }
  emit_fold_post(b, acc);
}

/// Ring reduce-scatter + ring allgather over div = P blocks. Works for any
/// P. Every reduce-scatter receive lands in its own scratch block, so all
/// P-1 of them pre-post at launch and chunks stream independently — the
/// schedule the round-based model cannot express.
void build_allreduce_ring(Builder& b) {
  const int P = b.size(), r = b.rank();
  const Ref acc = emit_acc_setup(b);
  if (P == 1) return;
  (void)acc;
  const int next = (r + 1) % P, prev = (r + P - 1) % P;
  const auto blk = [P](int i) {
    return block(static_cast<std::uint32_t>(P),
                 static_cast<std::uint32_t>(((i % P) + P) % P));
  };
  const std::uint16_t st = b.scratch(full());
  for (int s = 0; s < P - 1; ++s) {
    b.send(recv_buf(blk(r - s)), next);
    b.recv(scratch_ref(st, blk(r - s - 1)), prev);
    b.reduce(scratch_ref(st, blk(r - s - 1)), recv_buf(blk(r - s - 1)));
  }
  for (int s = 0; s < P - 1; ++s) {
    b.send(recv_buf(blk(r + 1 - s)), next);
    b.recv(recv_buf(blk(r - s)), prev);
  }
}

/// Recursive-halving reduce-scatter + recursive-doubling allgather
/// (Rabenseifner): rd's latency profile at ring's bandwidth profile for
/// power-of-two groups, with the pairwise fold for the remainder.
void build_allreduce_rsag(Builder& b) {
  const Ref acc = emit_acc_setup(b);
  const int p2 = floor_pow2(b.size());
  const int rem = b.size() - p2;
  const int nr = emit_fold_pre(b, acc);
  if (nr < 0) return;
  if (p2 > 1) {
    const auto rng = [p2](int a, int c) {
      return blocks(static_cast<std::uint32_t>(p2),
                    static_cast<std::uint32_t>(a),
                    static_cast<std::uint32_t>(c));
    };
    const std::uint16_t st = b.scratch(full());
    int lo = 0, hi = p2;
    for (int d = p2 / 2; d >= 1; d /= 2) {
      const int peer = fold_map(nr ^ d, rem);
      const int mid = lo + (hi - lo) / 2;
      if ((nr & d) == 0) {
        b.send(recv_buf(rng(mid, hi)), peer);
        b.recv(scratch_ref(st, rng(lo, mid)), peer);
        b.reduce(scratch_ref(st, rng(lo, mid)), recv_buf(rng(lo, mid)));
        hi = mid;
      } else {
        b.send(recv_buf(rng(lo, mid)), peer);
        b.recv(scratch_ref(st, rng(mid, hi)), peer);
        b.reduce(scratch_ref(st, rng(mid, hi)), recv_buf(rng(mid, hi)));
        lo = mid;
      }
    }
    for (int d = 1; d < p2; d *= 2) {
      const int peer = fold_map(nr ^ d, rem);
      const int span = hi - lo;
      b.send(recv_buf(rng(lo, hi)), peer);
      if ((nr & d) == 0) {
        b.recv(recv_buf(rng(hi, hi + span)), peer);
        hi += span;
      } else {
        b.recv(recv_buf(rng(lo - span, lo)), peer);
        lo -= span;
      }
    }
  }
  emit_fold_post(b, acc);
}

// ---- bcast / reduce trees --------------------------------------------------

/// Largest power of `k` strictly below `P` (the root's widest child
/// stride). P must be >= 2.
long top_scale(int P, int k) {
  long t = 1;
  while (t * k < P) t *= k;
  return t;
}

/// Radix-k tree bcast (knomial; k=2 is binomial). The root-relative rank's
/// lowest nonzero base-k digit fixes its parent and receive level;
/// children hang off every lower level. All of a rank's sends depend only
/// on its receive, so subtrees fan out concurrently.
void build_bcast_knomial(Builder& b, int root, int k) {
  const int P = b.size(), r = b.rank();
  if (P == 1) return;
  const int rel = (r - root + P) % P;
  const auto abs = [&](long x) {
    return static_cast<int>((x + root) % P);
  };
  long scale = 1;
  while (scale < P && rel % (scale * k) == 0) scale *= k;
  if (rel != 0) {
    const long parent = rel - (rel % (scale * k));
    b.recv(recv_buf(full()), abs(parent));
  }
  for (long cs = rel == 0 ? top_scale(P, k) : scale / k; cs >= 1; cs /= k) {
    for (int j = 1; j < k; ++j) {
      const long child = rel + j * cs;
      if (child < P) b.send(recv_buf(full()), abs(child));
    }
  }
}

/// Binomial scatter of root-relative blocks followed by a ring allgather:
/// each rank forwards only its subtree's blocks down the tree, then the
/// single-block ring fills everyone in. Bandwidth-optimal bcast for large
/// vectors at any rank count.
void build_bcast_scatter_ag(Builder& b, int root) {
  const int P = b.size(), r = b.rank();
  if (P == 1) return;
  const int rel = (r - root + P) % P;
  const auto abs = [&](long x) {
    return static_cast<int>((x + root) % P);
  };
  const auto blk = [P](long i) {
    return block(static_cast<std::uint32_t>(P),
                 static_cast<std::uint32_t>(((i % P) + P) % P));
  };
  const auto rng = [P](long a, long c) {
    return blocks(static_cast<std::uint32_t>(P), static_cast<std::uint32_t>(a),
                  static_cast<std::uint32_t>(c));
  };
  long scale = 1;
  while (scale < P && rel % (scale * 2) == 0) scale *= 2;
  if (rel != 0) {
    const long parent = rel - (rel % (scale * 2));
    b.recv(recv_buf(rng(rel, std::min<long>(rel + scale, P))), abs(parent));
  }
  for (long cs = rel == 0 ? top_scale(P, 2) : scale / 2; cs >= 1; cs /= 2) {
    const long child = rel + cs;
    if (child < P) {
      b.send(recv_buf(rng(child, std::min<long>(child + cs, P))), abs(child));
    }
  }
  const int next = (r + 1) % P, prev = (r + P - 1) % P;
  for (int s = 0; s < P - 1; ++s) {
    b.send(recv_buf(blk(rel - s)), next);
    b.recv(recv_buf(blk(rel - s - 1)), prev);
  }
}

/// Radix-k tree reduce: the bcast tree reversed. Each child's vector lands
/// in its own scratch slot (receives pre-post concurrently); reductions
/// into the accumulator serialize in emission order for a deterministic
/// result.
void build_reduce_knomial(Builder& b, int root, int k) {
  const int P = b.size(), r = b.rank();
  const int rel = (r - root + P) % P;
  Ref acc;
  if (rel == 0) {
    acc = recv_buf(full());
    if (!b.in_place()) b.copy(send_buf(full()), acc);
  } else {
    const std::uint16_t a = b.scratch(full());
    acc = scratch_ref(a, full());
    b.copy(send_buf(full()), acc);
  }
  if (P == 1) return;
  const auto abs = [&](long x) {
    return static_cast<int>((x + root) % P);
  };
  long scale = 1;
  while (scale < P && rel % (scale * k) == 0) scale *= k;
  for (long cs = rel == 0 ? top_scale(P, k) : scale / k; cs >= 1; cs /= k) {
    for (int j = 1; j < k; ++j) {
      const long child = rel + j * cs;
      if (child >= P) continue;
      const std::uint16_t s = b.scratch(full());
      b.recv(scratch_ref(s, full()), abs(child));
      b.reduce(scratch_ref(s, full()), acc);
    }
  }
  if (rel != 0) {
    const long parent = rel - (rel % (scale * k));
    b.send(acc, abs(parent));
  }
}

// ---- data movement ---------------------------------------------------------

/// Vector i (mod P) of a buffer holding one vector per rank.
Part vec_mod(long i, int P) {
  return vec(static_cast<std::uint32_t>(((i % P) + P) % P));
}

/// Dissemination: round k sends a zero-byte token to r + 2^k and waits for
/// one from r - 2^k. Each round's token lands in its own slot, so every
/// receive pre-posts and each send waits only on the previous receive.
void build_barrier(Builder& b) {
  const int P = b.size(), r = b.rank();
  std::uint16_t tok = b.scratch(full());
  for (int dist = 1; dist < P; dist *= 2) {
    const std::uint16_t next = b.scratch(full());
    b.send(scratch_ref(tok, full()), (r + dist) % P);
    b.recv(scratch_ref(next, full()), (r - dist + P) % P);
    tok = next;
  }
}

/// Ring allgather: step k forwards vector r-k and receives r-k-1. Every
/// receive lands in its own vector, so all pre-post; a send waits only on
/// the receive that delivered its vector.
void build_allgather_ring(Builder& b) {
  const int P = b.size(), r = b.rank();
  const bool inp = b.in_place();
  b.spans(inp ? 0 : 1, static_cast<std::uint32_t>(P));
  if (!inp) b.copy(send_buf(full()), recv_buf(vec_mod(r, P)));
  const int next = (r + 1) % P, prev = (r + P - 1) % P;
  for (int k = 0; k < P - 1; ++k) {
    b.send(k == 0 && !inp ? send_buf(full()) : recv_buf(vec_mod(r - k, P)),
           next);
    b.recv(recv_buf(vec_mod(r - k - 1, P)), prev);
  }
}

/// Alltoall: every pair exchange posted at once.
void build_alltoall(Builder& b) {
  const int P = b.size(), r = b.rank();
  b.spans(static_cast<std::uint32_t>(P), static_cast<std::uint32_t>(P));
  b.copy(send_buf(vec_mod(r, P)), recv_buf(vec_mod(r, P)));
  for (int k = 1; k < P; ++k) {
    const int src = (r - k + P) % P;
    const int dst = (r + k) % P;
    b.recv(recv_buf(vec_mod(src, P)), src);
    b.send(send_buf(vec_mod(dst, P)), dst);
  }
}

/// Linear gather: the root posts one receive per rank.
void build_gather(Builder& b, int root) {
  const int P = b.size(), r = b.rank();
  const bool inp = b.in_place();
  if (r != root) {
    b.spans(1, 0);
    b.send(send_buf(full()), root);
    return;
  }
  b.spans(inp ? 0 : 1, static_cast<std::uint32_t>(P));
  for (int i = 0; i < P; ++i) {
    if (i != root) b.recv(recv_buf(vec_mod(i, P)), i);
  }
  if (!inp) b.copy(send_buf(full()), recv_buf(vec_mod(root, P)));
}

/// Linear scatter: the root posts one send per rank. `keep` is false when
/// the root's own block stays in place (its recvbuf is coll::in_place).
void build_scatter(Builder& b, int root, bool keep) {
  const int P = b.size(), r = b.rank();
  if (r != root) {
    b.spans(0, 1);
    b.recv(recv_buf(full()), root);
    return;
  }
  b.spans(static_cast<std::uint32_t>(P), keep ? 1 : 0);
  for (int i = 0; i < P; ++i) {
    if (i != root) b.send(send_buf(vec_mod(i, P)), i);
  }
  if (keep) b.copy(send_buf(vec_mod(root, P)), recv_buf(full()));
}

// ---- reduce_scatter_block / scan -------------------------------------------

/// Ring reduce-scatter over P input vectors: step k sends partial vector
/// r-k-1 and receives partial r-k-2 into its own slot, folds in this rank's
/// input for it, and forwards it next step; the last step's partial is
/// this rank's finished vector. In place, the input is the P-vector
/// recvbuf and the result lands in its vector 0.
void build_reduce_scatter_ring(Builder& b) {
  const int P = b.size(), r = b.rank();
  const bool inp = b.in_place();
  const auto n = static_cast<std::uint32_t>(P);
  b.spans(inp ? 0 : n, inp ? n : 1);
  const auto in = [&](long i) {
    return inp ? recv_buf(vec_mod(i, P)) : send_buf(vec_mod(i, P));
  };
  if (P == 1) {
    if (!inp) b.copy(in(0), recv_buf(full()));
    return;
  }
  const int next = (r + 1) % P, prev = (r + P - 1) % P;
  b.send(in(r - 1), next);
  Ref part;
  for (int k = 0; k < P - 1; ++k) {
    part = scratch_ref(b.scratch(full()), full());
    b.recv(part, prev);
    b.reduce(in(r - k - 2), part);
    if (k < P - 2) b.send(part, next);
  }
  b.copy(part, recv_buf(vec(0)));
}

/// Linear-chain inclusive scan: receive the prefix of ranks < r, fold it
/// into this rank's contribution, pass the result on.
void build_scan_chain(Builder& b) {
  const int P = b.size(), r = b.rank();
  const Ref acc = emit_acc_setup(b);
  if (r > 0) {
    const Ref pre = scratch_ref(b.scratch(full()), full());
    b.recv(pre, r - 1);
    b.reduce(pre, acc);
  }
  if (r < P - 1) b.send(acc, r + 1);
}

/// Linear-chain exclusive scan: the received prefix is this rank's result
/// (rank 0's recvbuf is left untouched); the forwarded value folds in this
/// rank's contribution.
void build_exscan_chain(Builder& b) {
  const int P = b.size(), r = b.rank();
  const Ref in = b.in_place() ? recv_buf(full()) : send_buf(full());
  const Ref out = recv_buf(full());
  if (r == P - 1) {
    if (r > 0) b.recv(out, r - 1);
    return;
  }
  const Ref fwd = scratch_ref(b.scratch(full()), full());
  b.copy(in, fwd);
  if (r > 0) {
    b.recv(out, r - 1);
    b.reduce(out, fwd);
  }
  b.send(fwd, r + 1);
}

// ---- selection -------------------------------------------------------------

/// Tree radix for knomial bcast/reduce: depth shrinks with k but a parent
/// pays per-child injection, so cost_k ~ ceil(log_k P) * (alpha + B*beta +
/// (k-2)*B*inj_beta). Small messages take wide trees, large messages fall
/// back to binomial.
int knomial_radix(int P, double bytes, const net::CostModel& net) {
  if (P <= 2) return 2;
  int best_k = 2;
  double best = 0;
  for (const int k : {2, 4, 8}) {
    int depth = 0;
    long reach = 1;
    while (reach < P) {
      reach *= k;
      ++depth;
    }
    const double c =
        depth * (net.alpha + bytes * net.beta +
                 (k - 2) * bytes * net.inj_beta);
    if (best_k == 2 || c < best) {
      best = c;
      best_k = k;
    }
    if (k == 2) best = c;
  }
  return best_k;
}

/// The one algorithm of each kind the cost model does not choose for
/// (auto_ for allreduce and bcast, which it does).
Algo fixed_algo(CollKind kind) {
  switch (kind) {
    case CollKind::allreduce:
    case CollKind::bcast:
      return Algo::auto_;
    case CollKind::reduce:
      return Algo::knomial;
    case CollKind::barrier:
      return Algo::dissemination;
    case CollKind::allgather:
    case CollKind::allgatherv:
    case CollKind::reduce_scatter_block:
      return Algo::ring;
    case CollKind::scan:
    case CollKind::exscan:
      return Algo::chain;
    case CollKind::alltoall:
    case CollKind::gather:
    case CollKind::scatter:
    case CollKind::gatherv:
    case CollKind::scatterv:
    case CollKind::neighbor_allgather:
    case CollKind::neighbor_alltoall:
      return Algo::linear;
  }
  return Algo::auto_;
}

bool algo_valid_for(CollKind kind, Algo a) {
  switch (kind) {
    case CollKind::allreduce:
      return a == Algo::rd || a == Algo::ring || a == Algo::rsag;
    case CollKind::bcast:
      return a == Algo::knomial || a == Algo::scatter_ag;
    default:
      return a == fixed_algo(kind);
  }
}

}  // namespace

Algo select_algo(CollKind kind, std::size_t bytes, int size,
                 const net::CostModel& net) {
  const int P = size < 1 ? 1 : size;
  const double B = static_cast<double>(bytes);
  const double a = net.alpha, be = net.beta;
  const int p2 = floor_pow2(P);
  const int rem = P - p2;
  const int lg = log2_exact(p2);
  switch (kind) {
    case CollKind::allreduce: {
      if (P <= 2) return Algo::rd;
      const double fold = rem > 0 ? 2.0 * (a + B * be) : 0.0;
      const double c_rd = fold + lg * (a + B * be);
      const double c_ring = 2.0 * (P - 1) * a + 2.0 * B * be * (P - 1) / P;
      const double c_rsag =
          fold + 2.0 * lg * a + 2.0 * B * be * (p2 - 1) / p2;
      if (c_rd <= c_ring && c_rd <= c_rsag) return Algo::rd;
      if (c_ring < c_rsag) return Algo::ring;
      return Algo::rsag;
    }
    case CollKind::bcast: {
      if (P <= 2) return Algo::knomial;
      const int k = knomial_radix(P, B, net);
      int depth = 0;
      long reach = 1;
      while (reach < P) {
        reach *= k;
        ++depth;
      }
      const double c_kno =
          depth * (a + B * be + (k - 2) * B * net.inj_beta);
      const double c_sag = (lg + (rem > 0 ? 1 : 0)) * a +
                           B * be * (P - 1) / P +  // scatter
                           (P - 1) * a + B * be * (P - 1) / P;  // ring AG
      return c_kno <= c_sag ? Algo::knomial : Algo::scatter_ag;
    }
    default:
      return fixed_algo(kind);
  }
}

// ---- count classes ---------------------------------------------------------

int count_class(std::size_t bytes) {
  return static_cast<int>(std::bit_width(bytes));
}

std::size_t class_max_bytes(int cls) {
  if (cls <= 0) return 0;
  if (cls >= 48) return (std::size_t{1} << 48) - 1;  // clamp: plenty
  return (std::size_t{1} << cls) - 1;
}

// ---- compile ---------------------------------------------------------------

Algo resolve_algo(CollKind kind, std::size_t bytes, int size,
                  const net::CostModel& net, Algo force) {
  if (force != Algo::auto_ && algo_valid_for(kind, force)) return force;
  return select_algo(kind, bytes, size, net);
}

bool class_free(CollKind kind) {
  return kind == CollKind::allgather || kind == CollKind::alltoall ||
         kind == CollKind::gather || kind == CollKind::scatter;
}

SchedPtr compile(CollKind kind, std::size_t count, dtype::Datatype dt,
                 dtype::ReduceOp op, bool in_place, int root, int rank,
                 int size, const net::CostModel& net, Algo force) {
  expects(dt.valid(), "ir::compile: invalid datatype");
  expects(root >= 0 && root < size, "ir::compile: root out of range");
  expects(kind < CollKind::gatherv,
          "ir::compile: v-variants and neighborhood collectives have their "
          "own compile entry points");
  const std::size_t esz = dt.size();
  const int cls = count_class(count * esz);
  // Class-free schedules hold no scratch, so one serves every count.
  const std::size_t max_count =
      class_free(kind) || esz == 0
          ? kAnyCount
          : std::max(count, class_max_bytes(cls) / esz);
  const Algo algo =
      resolve_algo(kind, class_max_bytes(cls), size, net, force);
  // Scatter's in-place flag is the root's recvbuf (its sendbuf is real).
  const bool builder_inp = kind == CollKind::scatter ? false : in_place;
  Builder b(kind, std::move(dt), op, builder_inp, rank, size);
  // Radix evaluated at the class bound, like algorithm selection: every
  // count in the class shares one tree shape, so a schedule cached at one
  // count serves the whole class consistently on every rank.
  const auto radix = [&] {
    return knomial_radix(size, static_cast<double>(class_max_bytes(cls)),
                         net);
  };
  switch (kind) {
    case CollKind::allreduce:
      if (algo == Algo::ring) {
        build_allreduce_ring(b);
      } else if (algo == Algo::rsag) {
        build_allreduce_rsag(b);
      } else {
        build_allreduce_rd(b);
      }
      break;
    case CollKind::bcast:
      if (algo == Algo::scatter_ag) {
        build_bcast_scatter_ag(b, root);
      } else {
        build_bcast_knomial(b, root, radix());
      }
      break;
    case CollKind::reduce:
      build_reduce_knomial(b, root, radix());
      break;
    case CollKind::barrier:
      build_barrier(b);
      break;
    case CollKind::allgather:
      build_allgather_ring(b);
      break;
    case CollKind::alltoall:
      build_alltoall(b);
      break;
    case CollKind::gather:
      build_gather(b, root);
      break;
    case CollKind::scatter:
      build_scatter(b, root, !in_place);
      break;
    case CollKind::reduce_scatter_block:
      build_reduce_scatter_ring(b);
      break;
    case CollKind::scan:
      build_scan_chain(b);
      break;
    case CollKind::exscan:
      build_exscan_chain(b);
      break;
    default:
      break;
  }
  return b.finish(algo, root, max_count);
}

namespace {

std::uint32_t elem_index(std::size_t n) {
  expects(n <= std::numeric_limits<std::uint32_t>::max(),
          "ir: v-variant displacement beyond 2^32 elements");
  return static_cast<std::uint32_t>(n);
}

/// Elements [d, d + n) of a buffer addressed in single elements.
Part elems_at(std::size_t d, std::size_t n) {
  return vecs(elem_index(d), elem_index(d + n));
}

}  // namespace

SchedPtr compile_v(CollKind kind, std::span<const std::size_t> counts,
                   std::span<const std::size_t> displs, std::size_t own,
                   dtype::Datatype dt, bool in_place, int root, int rank,
                   int size) {
  expects(kind == CollKind::gatherv || kind == CollKind::scatterv ||
              kind == CollKind::allgatherv,
          "ir::compile_v: not a v-variant");
  expects(root >= 0 && root < size, "ir::compile_v: root out of range");
  const bool all = kind == CollKind::allgatherv || rank == root;
  expects(!all || (counts.size() == static_cast<std::size_t>(size) &&
                   displs.size() == counts.size()),
          "ir::compile_v: counts/displs must have one entry per rank");
  std::size_t span = 0;  // elements the per-rank layout covers
  for (std::size_t i = 0; all && i < counts.size(); ++i) {
    span = std::max(span, displs[i] + counts[i]);
  }
  const auto at = [&](int i) {
    const auto u = static_cast<std::size_t>(i);
    return elems_at(displs[u], counts[u]);
  };
  const auto has = [&](int i) {
    return counts[static_cast<std::size_t>(i)] != 0;
  };
  const bool inp = in_place && kind != CollKind::scatterv;
  Builder b(kind, std::move(dt), dtype::ReduceOp::sum, inp, rank, size);
  const int P = size, r = rank;
  switch (kind) {
    case CollKind::gatherv:
      if (r != root) {
        b.spans(elem_index(own), 0);
        if (own != 0) b.send(send_buf(elems_at(0, own)), root);
        break;
      }
      b.spans(inp ? 0 : elem_index(own), elem_index(span));
      for (int i = 0; i < P; ++i) {
        if (i != root && has(i)) b.recv(recv_buf(at(i)), i);
      }
      if (!inp && own != 0) {
        b.copy(send_buf(elems_at(0, own)),
               recv_buf(elems_at(displs[static_cast<std::size_t>(r)], own)));
      }
      break;
    case CollKind::scatterv:
      if (r != root) {
        b.spans(0, elem_index(own));
        if (own != 0) b.recv(recv_buf(elems_at(0, own)), root);
        break;
      }
      b.spans(elem_index(span), in_place ? 0 : elem_index(counts[r]));
      for (int i = 0; i < P; ++i) {
        if (i != root && has(i)) b.send(send_buf(at(i)), i);
      }
      if (!in_place && has(r)) {
        b.copy(send_buf(at(r)), recv_buf(elems_at(0, counts[r])));
      }
      break;
    default: {  // allgatherv: ring with per-rank block sizes
      b.spans(inp ? 0 : elem_index(own), elem_index(span));
      if (!inp && own != 0) {
        b.copy(send_buf(elems_at(0, own)),
               recv_buf(elems_at(displs[static_cast<std::size_t>(r)], own)));
      }
      const int next = (r + 1) % P, prev = (r + P - 1) % P;
      for (int k = 0; k < P - 1; ++k) {
        const int sb = (r - k + P) % P, rb = (r - k - 1 + P) % P;
        if (has(sb)) {
          b.send(k == 0 && !inp ? send_buf(elems_at(0, own))
                                : recv_buf(at(sb)),
                 next);
        }
        if (has(rb)) b.recv(recv_buf(at(rb)), prev);
      }
      break;
    }
  }
  return b.finish(fixed_algo(kind), root, 1);
}

SchedPtr compile_neighbor(CollKind kind, std::size_t count,
                          dtype::Datatype dt, std::span<const int> nbrs,
                          int rank, int size) {
  expects(kind == CollKind::neighbor_allgather ||
              kind == CollKind::neighbor_alltoall,
          "ir::compile_neighbor: not a neighborhood collective");
  const bool a2a = kind == CollKind::neighbor_alltoall;
  const auto n = static_cast<std::uint32_t>(nbrs.size());
  Builder b(kind, std::move(dt), dtype::ReduceOp::sum, false, rank, size);
  b.spans(a2a ? n : 1, n);
  const auto src = [&](std::uint32_t j) {
    return send_buf(a2a ? vec(j) : full());
  };
  // A message leaving through slot j arrives in the receiver's slot j^1
  // (its edge in the opposite direction).
  for (std::uint32_t j = 0; j < n; ++j) {
    if (nbrs[j] == rank) {
      b.copy(src(j), recv_buf(vec(j ^ 1)));
    } else if (nbrs[j] >= 0) {
      b.send(src(j), nbrs[j]);
    }
  }
  // Tags number each (peer, direction) sequence in emission order, and a
  // peer sends in its own slot order; its slot j lands in our slot j^1, so
  // receive in that order — degenerate grids (a size-2 periodic ring) list
  // one peer in several slots.
  for (std::uint32_t j = 0; j < n; ++j) {
    const int q = nbrs[j ^ 1];
    if (q >= 0 && q != rank) b.recv(recv_buf(vec(j ^ 1)), q);
  }
  return b.finish(Algo::linear, 0, count);
}

}  // namespace mpx::coll::ir
