// mpx/coll/coll.hpp
//
// Nonblocking (and blocking) collective operations. Every call runs on the
// schedule compiler (mpx/coll/ir.hpp): it fetches (or compiles) a
// dependency-graph schedule for its shape and hands it to the executor, a
// progress source driven by the comm's stream — collectives as a library
// over a core with interoperable progress (the paper's §2.7). Algorithms:
//
//   barrier                dissemination
//   bcast                  knomial tree | knomial scatter + ring allgather
//                          (cost model; noncontiguous types: knomial)
//   reduce                 knomial tree
//   allreduce              recursive doubling | ring | recursive-halving
//                          reduce-scatter + allgather (cost model)
//   allgather(v)           ring
//   gather(v), scatter(v)  linear (root posts every message at once)
//   alltoall               linear (every pair at once)
//   reduce_scatter_block   ring
//   scan, exscan           linear chain
//
// ir::Opts::algo forces an algorithm where the cost model picks.
// All "count"s are per-rank element counts of `dt`, MPI-style; any valid
// datatype works except that reductions need a contiguous one. Reductions
// assume commutative operators (all built-in ReduceOps are commutative).
// Buffers may be null when the count is 0.
#pragma once

#include <span>

#include "mpx/core/comm.hpp"
#include "mpx/dtype/reduce_op.hpp"

namespace mpx::coll {

/// Pass as `sendbuf` to reduce in place from/to `recvbuf` (MPI_IN_PLACE).
extern const void* const in_place;

Request ibarrier(const Comm& comm);
void barrier(const Comm& comm);

/// Repeated shapes are served from the per-comm schedule cache with zero
/// planning and zero allocation; noncontiguous datatypes compile per call.
Request ibcast(void* buf, std::size_t count, dtype::Datatype dt, int root,
               const Comm& comm);
void bcast(void* buf, std::size_t count, dtype::Datatype dt, int root,
           const Comm& comm);

Request ireduce(const void* sendbuf, void* recvbuf, std::size_t count,
                dtype::Datatype dt, dtype::ReduceOp op, int root,
                const Comm& comm);
void reduce(const void* sendbuf, void* recvbuf, std::size_t count,
            dtype::Datatype dt, dtype::ReduceOp op, int root,
            const Comm& comm);

Request iallreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                   dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm);
void allreduce(const void* sendbuf, void* recvbuf, std::size_t count,
               dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm);

Request iallgather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                   void* recvbuf, const Comm& comm);
void allgather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
               void* recvbuf, const Comm& comm);

Request igather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                void* recvbuf, int root, const Comm& comm);
void gather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
            void* recvbuf, int root, const Comm& comm);

Request iscatter(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                 void* recvbuf, int root, const Comm& comm);
void scatter(const void* sendbuf, std::size_t count, dtype::Datatype dt,
             void* recvbuf, int root, const Comm& comm);

Request ialltoall(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                  void* recvbuf, const Comm& comm);
void alltoall(const void* sendbuf, std::size_t count, dtype::Datatype dt,
              void* recvbuf, const Comm& comm);

/// Reduce size*recvcount elements, leaving block r (recvcount elements) on
/// rank r (MPI_Reduce_scatter_block). Ring reduce-scatter.
Request ireduce_scatter_block(const void* sendbuf, void* recvbuf,
                              std::size_t recvcount, dtype::Datatype dt,
                              dtype::ReduceOp op, const Comm& comm);
void reduce_scatter_block(const void* sendbuf, void* recvbuf,
                          std::size_t recvcount, dtype::Datatype dt,
                          dtype::ReduceOp op, const Comm& comm);

/// Inclusive prefix reduction (MPI_Scan): rank r receives
/// op(x_0, ..., x_r). Linear chain.
Request iscan(const void* sendbuf, void* recvbuf, std::size_t count,
              dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm);
void scan(const void* sendbuf, void* recvbuf, std::size_t count,
          dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm);

/// Exclusive prefix reduction (MPI_Exscan): rank r receives
/// op(x_0, ..., x_{r-1}); rank 0's recvbuf is left untouched.
Request iexscan(const void* sendbuf, void* recvbuf, std::size_t count,
                dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm);
void exscan(const void* sendbuf, void* recvbuf, std::size_t count,
            dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm);

// --- variable-count collectives (v-variants) ---
// counts/displs are per communicator rank, in elements of dt; displacements
// index into the root's (gatherv/scatterv) or everyone's (allgatherv)
// buffer, MPI-style.

Request igatherv(const void* sendbuf, std::size_t sendcount,
                 dtype::Datatype dt, void* recvbuf,
                 std::span<const std::size_t> recvcounts,
                 std::span<const std::size_t> displs, int root,
                 const Comm& comm);
void gatherv(const void* sendbuf, std::size_t sendcount, dtype::Datatype dt,
             void* recvbuf, std::span<const std::size_t> recvcounts,
             std::span<const std::size_t> displs, int root, const Comm& comm);

Request iscatterv(const void* sendbuf,
                  std::span<const std::size_t> sendcounts,
                  std::span<const std::size_t> displs, dtype::Datatype dt,
                  void* recvbuf, std::size_t recvcount, int root,
                  const Comm& comm);
void scatterv(const void* sendbuf, std::span<const std::size_t> sendcounts,
              std::span<const std::size_t> displs, dtype::Datatype dt,
              void* recvbuf, std::size_t recvcount, int root,
              const Comm& comm);

// --- persistent collectives (MPI-4 MPI_*_init analogs) ---
// Initialize once (collective: every member must call, in the same order),
// then arm each cycle with mpx::start() and complete it with wait/test.
// Buffer bindings are fixed at init time.

Request barrier_init(const Comm& comm);
Request bcast_init(void* buf, std::size_t count, dtype::Datatype dt,
                   int root, const Comm& comm);
Request allreduce_init(const void* sendbuf, void* recvbuf, std::size_t count,
                       dtype::Datatype dt, dtype::ReduceOp op,
                       const Comm& comm);

Request iallgatherv(const void* sendbuf, std::size_t sendcount,
                    dtype::Datatype dt, void* recvbuf,
                    std::span<const std::size_t> recvcounts,
                    std::span<const std::size_t> displs, const Comm& comm);
void allgatherv(const void* sendbuf, std::size_t sendcount,
                dtype::Datatype dt, void* recvbuf,
                std::span<const std::size_t> recvcounts,
                std::span<const std::size_t> displs, const Comm& comm);

}  // namespace mpx::coll
