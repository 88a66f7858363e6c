// The collective entry points: argument checks, then one schedule-compiler
// call each (ir_front.cpp fetches or compiles the schedule, ir_exec.cpp
// runs it); blocking forms wait on the comm's stream.
#include "mpx/coll/coll.hpp"

#include "ir_internal.hpp"
#include "mpx/core/waittest.hpp"

namespace mpx::coll {

namespace {
const std::byte in_place_tag{};

using ir::CollKind;
using ir::need;

constexpr dtype::ReduceOp kNoOp = dtype::ReduceOp::sum;

void wait_blocking(Request r, const Comm& comm) {
  wait_on_stream(r, comm.stream());
}

/// Launch a compiled v-variant (its Parts are exact element ranges).
Request run_v(CollKind kind, const void* sendbuf, void* recvbuf,
              std::span<const std::size_t> counts,
              std::span<const std::size_t> displs, std::size_t own,
              const dtype::Datatype& dt, bool inp, int root,
              const Comm& comm) {
  expects(comm.valid() && dt.valid(), "coll: invalid communicator or type");
  expects(root >= 0 && root < comm.size(), "coll: root out of range");
  return ir::launch(ir::compile_v(kind, counts, displs, own, dt, inp, root,
                                  comm.rank(), comm.size()),
                    sendbuf, recvbuf, 1, comm);
}

}  // namespace

const void* const in_place = &in_place_tag;

Request ibarrier(const Comm& comm) {
  return ir::run(CollKind::barrier, nullptr, nullptr, 0,
                 dtype::Datatype::byte(), kNoOp, false, 0, comm);
}

void barrier(const Comm& comm) { wait_blocking(ibarrier(comm), comm); }

Request ibcast(void* buf, std::size_t count, dtype::Datatype dt, int root,
               const Comm& comm) {
  return ir::ibcast(buf, count, std::move(dt), root, comm);
}

void bcast(void* buf, std::size_t count, dtype::Datatype dt, int root,
           const Comm& comm) {
  wait_blocking(ibcast(buf, count, std::move(dt), root, comm), comm);
}

Request ireduce(const void* sendbuf, void* recvbuf, std::size_t count,
                dtype::Datatype dt, dtype::ReduceOp op, int root,
                const Comm& comm) {
  return ir::ireduce(sendbuf, recvbuf, count, std::move(dt), op, root, comm);
}

void reduce(const void* sendbuf, void* recvbuf, std::size_t count,
            dtype::Datatype dt, dtype::ReduceOp op, int root,
            const Comm& comm) {
  wait_blocking(ireduce(sendbuf, recvbuf, count, std::move(dt), op, root,
                        comm),
                comm);
}

Request iallreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                   dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm) {
  return ir::iallreduce(sendbuf, recvbuf, count, std::move(dt), op, comm);
}

void allreduce(const void* sendbuf, void* recvbuf, std::size_t count,
               dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm) {
  wait_blocking(iallreduce(sendbuf, recvbuf, count, std::move(dt), op, comm),
                comm);
}

Request iallgather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                   void* recvbuf, const Comm& comm) {
  const bool inp = sendbuf == in_place;
  need(recvbuf, count, "iallgather: null recvbuf");
  if (!inp) need(sendbuf, count, "iallgather: null sendbuf");
  return ir::run(CollKind::allgather, inp ? nullptr : sendbuf, recvbuf, count,
                 dt, kNoOp, inp, 0, comm);
}

void allgather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
               void* recvbuf, const Comm& comm) {
  wait_blocking(iallgather(sendbuf, count, std::move(dt), recvbuf, comm),
                comm);
}

Request igather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                void* recvbuf, int root, const Comm& comm) {
  const bool inp = sendbuf == in_place;
  const bool is_root = comm.rank() == root;
  expects(!inp || is_root, "igather: in_place is root-only");
  if (!inp) need(sendbuf, count, "igather: null sendbuf");
  if (is_root) need(recvbuf, count, "igather: null recvbuf");
  return ir::run(CollKind::gather, inp ? nullptr : sendbuf, recvbuf, count,
                 dt, kNoOp, inp, root, comm);
}

void gather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
            void* recvbuf, int root, const Comm& comm) {
  wait_blocking(igather(sendbuf, count, std::move(dt), recvbuf, root, comm),
                comm);
}

Request iscatter(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                 void* recvbuf, int root, const Comm& comm) {
  // In place, the root's own block stays in its sendbuf.
  const bool inp = recvbuf == in_place;
  const bool is_root = comm.rank() == root;
  expects(!inp || is_root, "iscatter: in_place is root-only");
  if (is_root) need(sendbuf, count, "iscatter: null sendbuf");
  if (!inp) need(recvbuf, count, "iscatter: null recvbuf");
  return ir::run(CollKind::scatter, sendbuf, inp ? nullptr : recvbuf, count,
                 dt, kNoOp, inp, root, comm);
}

void scatter(const void* sendbuf, std::size_t count, dtype::Datatype dt,
             void* recvbuf, int root, const Comm& comm) {
  wait_blocking(iscatter(sendbuf, count, std::move(dt), recvbuf, root, comm),
                comm);
}

Request ialltoall(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                  void* recvbuf, const Comm& comm) {
  expects(sendbuf != in_place, "ialltoall: in_place is not supported");
  need(sendbuf, count, "ialltoall: null sendbuf");
  need(recvbuf, count, "ialltoall: null recvbuf");
  return ir::run(CollKind::alltoall, sendbuf, recvbuf, count, dt, kNoOp,
                 false, 0, comm);
}

void alltoall(const void* sendbuf, std::size_t count, dtype::Datatype dt,
              void* recvbuf, const Comm& comm) {
  wait_blocking(ialltoall(sendbuf, count, std::move(dt), recvbuf, comm),
                comm);
}

Request ireduce_scatter_block(const void* sendbuf, void* recvbuf,
                              std::size_t recvcount, dtype::Datatype dt,
                              dtype::ReduceOp op, const Comm& comm) {
  expects(ir::eligible(dt),
          "ireduce_scatter_block: reductions need a contiguous type");
  const bool inp = sendbuf == in_place;
  need(recvbuf, recvcount, "ireduce_scatter_block: null recvbuf");
  if (!inp) need(sendbuf, recvcount, "ireduce_scatter_block: null sendbuf");
  return ir::run(CollKind::reduce_scatter_block, inp ? nullptr : sendbuf,
                 recvbuf, recvcount, dt, op, inp, 0, comm);
}

void reduce_scatter_block(const void* sendbuf, void* recvbuf,
                          std::size_t recvcount, dtype::Datatype dt,
                          dtype::ReduceOp op, const Comm& comm) {
  wait_blocking(ireduce_scatter_block(sendbuf, recvbuf, recvcount,
                                      std::move(dt), op, comm),
                comm);
}

namespace {

Request prefix(CollKind kind, const void* sendbuf, void* recvbuf,
               std::size_t count, const dtype::Datatype& dt,
               dtype::ReduceOp op, const Comm& comm) {
  expects(ir::eligible(dt), "iscan/iexscan: reductions need a contiguous type");
  const bool inp = sendbuf == in_place;
  need(recvbuf, count, "iscan/iexscan: null recvbuf");
  if (!inp) need(sendbuf, count, "iscan/iexscan: null sendbuf");
  return ir::run(kind, inp ? nullptr : sendbuf, recvbuf, count, dt, op, inp,
                 0, comm);
}

}  // namespace

Request iscan(const void* sendbuf, void* recvbuf, std::size_t count,
              dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm) {
  return prefix(CollKind::scan, sendbuf, recvbuf, count, dt, op, comm);
}

void scan(const void* sendbuf, void* recvbuf, std::size_t count,
          dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm) {
  wait_blocking(iscan(sendbuf, recvbuf, count, std::move(dt), op, comm),
                comm);
}

Request iexscan(const void* sendbuf, void* recvbuf, std::size_t count,
                dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm) {
  return prefix(CollKind::exscan, sendbuf, recvbuf, count, dt, op, comm);
}

void exscan(const void* sendbuf, void* recvbuf, std::size_t count,
            dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm) {
  wait_blocking(iexscan(sendbuf, recvbuf, count, std::move(dt), op, comm),
                comm);
}

// --- persistent collectives: the schedule and its cursor are built once
// and pinned to the handle; start() re-arms them allocation-free. ---

Request barrier_init(const Comm& comm) {
  return ir::run(CollKind::barrier, nullptr, nullptr, 0,
                 dtype::Datatype::byte(), kNoOp, false, 0, comm, {},
                 /*persistent=*/true);
}

Request bcast_init(void* buf, std::size_t count, dtype::Datatype dt,
                   int root, const Comm& comm) {
  need(buf, count, "bcast_init: null buffer");
  return ir::run(CollKind::bcast, nullptr, buf, count, dt, kNoOp, true, root,
                 comm, {}, /*persistent=*/true);
}

Request allreduce_init(const void* sendbuf, void* recvbuf, std::size_t count,
                       dtype::Datatype dt, dtype::ReduceOp op,
                       const Comm& comm) {
  return ir::allreduce_init(sendbuf, recvbuf, count, std::move(dt), op, comm);
}

// --- v-variants ---

Request igatherv(const void* sendbuf, std::size_t sendcount,
                 dtype::Datatype dt, void* recvbuf,
                 std::span<const std::size_t> recvcounts,
                 std::span<const std::size_t> displs, int root,
                 const Comm& comm) {
  const bool inp = sendbuf == in_place;
  expects(!inp || comm.rank() == root, "igatherv: in_place is root-only");
  return run_v(CollKind::gatherv, inp ? nullptr : sendbuf, recvbuf,
               recvcounts, displs, sendcount, dt, inp, root, comm);
}

void gatherv(const void* sendbuf, std::size_t sendcount, dtype::Datatype dt,
             void* recvbuf, std::span<const std::size_t> recvcounts,
             std::span<const std::size_t> displs, int root,
             const Comm& comm) {
  wait_blocking(igatherv(sendbuf, sendcount, std::move(dt), recvbuf,
                         recvcounts, displs, root, comm),
                comm);
}

Request iscatterv(const void* sendbuf,
                  std::span<const std::size_t> sendcounts,
                  std::span<const std::size_t> displs, dtype::Datatype dt,
                  void* recvbuf, std::size_t recvcount, int root,
                  const Comm& comm) {
  const bool inp = recvbuf == in_place;
  expects(!inp || comm.rank() == root, "iscatterv: in_place is root-only");
  return run_v(CollKind::scatterv, sendbuf, inp ? nullptr : recvbuf,
               sendcounts, displs, recvcount, dt, inp, root, comm);
}

void scatterv(const void* sendbuf, std::span<const std::size_t> sendcounts,
              std::span<const std::size_t> displs, dtype::Datatype dt,
              void* recvbuf, std::size_t recvcount, int root,
              const Comm& comm) {
  wait_blocking(iscatterv(sendbuf, sendcounts, displs, std::move(dt),
                          recvbuf, recvcount, root, comm),
                comm);
}

Request iallgatherv(const void* sendbuf, std::size_t sendcount,
                    dtype::Datatype dt, void* recvbuf,
                    std::span<const std::size_t> recvcounts,
                    std::span<const std::size_t> displs, const Comm& comm) {
  const bool inp = sendbuf == in_place;
  return run_v(CollKind::allgatherv, inp ? nullptr : sendbuf, recvbuf,
               recvcounts, displs, sendcount, dt, inp, 0, comm);
}

void allgatherv(const void* sendbuf, std::size_t sendcount,
                dtype::Datatype dt, void* recvbuf,
                std::span<const std::size_t> recvcounts,
                std::span<const std::size_t> displs, const Comm& comm) {
  wait_blocking(iallgatherv(sendbuf, sendcount, std::move(dt), recvbuf,
                            recvcounts, displs, comm),
                comm);
}

}  // namespace mpx::coll
