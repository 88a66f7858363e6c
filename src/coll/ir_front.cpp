// Cache front end of the collective schedule compiler: the per-comm
// SchedCache lives in the communicator's extension slot, and every
// collective call resolves (algorithm, count class) to a key,
// fetch-or-compiles the schedule, and hands it to the executor.
// Steady state is find() -> launch(): one acquire load, a short scan, and
// pooled cursor arming — no planning, no allocation.
#include <memory>
#include <utility>

#include "ir_internal.hpp"
#include "mpx/base/cvar.hpp"
#include "mpx/coll/coll.hpp"
#include "mpx/coll/ir_verify.hpp"
#include "mpx/core/world.hpp"

namespace mpx::coll::ir {
namespace {

std::unique_ptr<core_detail::CommExt> make_coll_ext(void* /*arg*/) {
  return std::make_unique<CollCommExt>();
}

/// MPX_COLL_VERIFY gate: before a freshly compiled schedule may enter the
/// cache, reconstruct what every peer rank compiled for the same point
/// (compilation is deterministic, so the peers' schedules are derivable
/// locally) and run the full cross-rank verifier. A rejected set throws
/// instead of caching a deadlock. Compile-path only — cache hits never
/// come here, so the steady state is untouched.
void verify_before_insert(CollKind kind, std::size_t count,
                          const dtype::Datatype& dt, dtype::ReduceOp op,
                          bool inp, int root, int size,
                          const net::CostModel& net, Algo algo,
                          const SchedPtr& mine) {
  std::vector<SchedPtr> ranks(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    if (r == mine->rank) {
      ranks[static_cast<std::size_t>(r)] = mine;
      continue;
    }
    // Reduce, gather and scatter are in place at the root alone; every
    // other shape is uniform.
    const bool root_only = kind == CollKind::reduce ||
                           kind == CollKind::gather ||
                           kind == CollKind::scatter;
    const bool inp_r = root_only ? (r == root && inp) : inp;
    ranks[static_cast<std::size_t>(r)] =
        compile(kind, count, dt, op, inp_r, root, r, size, net, algo);
  }
  // Fault-injection hook for tests and the offline sweep: mutate a clone
  // of this rank's schedule (never the one that would execute) and prove
  // the verifier catches it.
  const std::string fault = base::cvar_string("MPX_COLL_VERIFY_FAULT", "");
  if (!fault.empty()) {
    auto mut = verify::clone(*mine);
    if (verify::inject_fault(*mut, fault)) {
      ranks[static_cast<std::size_t>(mine->rank)] = std::move(mut);
    }
  }
  verify::Report rep = verify::verify_ranks(ranks);
  if (!rep.ok()) throw verify::ScheduleVerifyError(std::move(rep));
}

SchedPtr get_or_compile(CollKind kind, std::size_t count,
                        const dtype::Datatype& dt, dtype::ReduceOp op,
                        bool inp, int root, const Comm& comm, Opts opts) {
  const std::size_t bytes = count * dt.size();
  const net::CostModel& net = comm.world().config().net;
  if (!dt.is_contiguous()) {
    // Two noncontiguous types of one size and leaf differ in strides the
    // key cannot see. Their bcast takes the tree: scattering blocks of a
    // few large elements degenerates into empty messages.
    opts.use_cache = false;
    if (kind == CollKind::bcast && opts.algo == Algo::auto_) {
      opts.algo = Algo::knomial;
    }
  }
  const Algo algo = resolve_algo(kind, bytes, comm.size(), net, opts.algo);
  if (!opts.use_cache) {
    return compile(kind, count, dt, op, inp, root, comm.rank(), comm.size(),
                   net, algo);
  }
  CollCommExt& ext = coll_ext(comm);
  SchedKey k;
  k.kind = kind;
  k.algo = algo;
  k.leaf = dt.leaf();
  k.esz = static_cast<std::uint32_t>(dt.size());
  k.op = op;
  k.cls = class_free(kind) ? 0
                           : static_cast<std::uint8_t>(count_class(bytes));
  k.in_place = inp;
  k.root = root;
  k.rank = comm.rank();
  // Any schedule cached under this key admits `count`: schedules are
  // compiled for their class's byte bound (class-free ones for every
  // count), and count_class(bytes) == k.cls implies count <= max_count.
  if (SchedPtr s = ext.cache.find(k)) return s;
  SchedPtr s = compile(kind, count, dt, op, inp, root, comm.rank(),
                       comm.size(), net, algo);
  if (base::cvar_bool("MPX_COLL_VERIFY", false)) {
    verify_before_insert(kind, count, dt, op, inp, root, comm.size(), net,
                         algo, s);
  }
  if (SchedPtr pub = ext.cache.insert(k, s)) return pub;
  return s;  // table at capacity: run the private copy uncached
}

}  // namespace

CollCommExt& coll_ext(const Comm& comm) {
  core_detail::CommExt* e = core_detail::comm_ext(comm);
  if (e == nullptr) {
    e = core_detail::comm_ext_get_or_install(comm, &make_coll_ext, nullptr);
  }
  return *static_cast<CollCommExt*>(e);
}

bool eligible(const dtype::Datatype& dt) {
  return dt.valid() && dt.is_contiguous() && dt.size() > 0;
}

Request run(CollKind kind, const void* sendbuf, void* recvbuf,
            std::size_t count, const dtype::Datatype& dt, dtype::ReduceOp op,
            bool inp, int root, const Comm& comm, Opts opts,
            bool persistent) {
  expects(comm.valid() && dt.valid(), "coll: invalid communicator or type");
  expects(root >= 0 && root < comm.size(), "coll: root out of range");
  SchedPtr s = get_or_compile(kind, count, dt, op, inp, root, comm, opts);
  if (persistent) {
    return persistent_launch(std::move(s), sendbuf, recvbuf, count, comm);
  }
  return launch(std::move(s), sendbuf, recvbuf, count, comm);
}

CacheStats cache_stats(const Comm& comm) {
  expects(comm.valid(), "coll ir cache_stats: invalid communicator");
  CacheStats out;
  auto* e = static_cast<CollCommExt*>(core_detail::comm_ext(comm));
  if (e == nullptr) return out;  // comm never ran a collective
  out.hits = e->cache.hits();
  out.misses = e->cache.misses();
  out.rejects = e->cache.rejects();
  out.entries = e->cache.entries();
  for (const SchedPtr& s : e->cache.snapshot()) {
    const base::PoolStats st = s->arena_pool.stats();
    out.scratch_hits += st.hits;
    out.scratch_misses += st.misses;
  }
  return out;
}

Request iallreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                   dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm,
                   Opts opts) {
  expects(eligible(dt), "coll iallreduce: reductions need a contiguous type");
  const bool inp = sendbuf == coll::in_place;
  need(recvbuf, count, "coll iallreduce: null recvbuf");
  need(inp ? recvbuf : sendbuf, count, "coll iallreduce: null sendbuf");
  return run(CollKind::allreduce, inp ? nullptr : sendbuf, recvbuf, count, dt,
             op, inp, /*root=*/0, comm, opts);
}

Request ibcast(void* buf, std::size_t count, dtype::Datatype dt, int root,
               const Comm& comm, Opts opts) {
  need(buf, count, "coll ibcast: null buffer");
  // Bcast data lives in the recv space; there is no send buffer.
  return run(CollKind::bcast, nullptr, buf, count, dt, dtype::ReduceOp::sum,
             /*inp=*/true, root, comm, opts);
}

Request ireduce(const void* sendbuf, void* recvbuf, std::size_t count,
                dtype::Datatype dt, dtype::ReduceOp op, int root,
                const Comm& comm, Opts opts) {
  expects(eligible(dt), "coll ireduce: reductions need a contiguous type");
  const bool inp = sendbuf == coll::in_place;
  // MPI semantics: in-place only at the root (the contribution is in
  // recvbuf there); non-roots contribute sendbuf and may pass a null
  // recvbuf.
  expects(!inp || comm.rank() == root, "coll ireduce: in_place is root-only");
  need(inp ? recvbuf : sendbuf, count, "coll ireduce: null sendbuf");
  if (comm.rank() == root) need(recvbuf, count, "coll ireduce: null recvbuf");
  return run(CollKind::reduce, inp ? nullptr : sendbuf, recvbuf, count, dt,
             op, inp, root, comm, opts);
}

Request allreduce_init(const void* sendbuf, void* recvbuf, std::size_t count,
                       dtype::Datatype dt, dtype::ReduceOp op,
                       const Comm& comm, Opts opts) {
  expects(eligible(dt),
          "coll allreduce_init: reductions need a contiguous type");
  const bool inp = sendbuf == coll::in_place;
  need(recvbuf, count, "coll allreduce_init: null recvbuf");
  need(inp ? recvbuf : sendbuf, count, "coll allreduce_init: null sendbuf");
  return run(CollKind::allreduce, inp ? nullptr : sendbuf, recvbuf, count,
             dt, op, inp, /*root=*/0, comm, opts, /*persistent=*/true);
}

}  // namespace mpx::coll::ir
