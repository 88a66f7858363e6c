// C binding implementation. Thin handle wrappers over the C++ API; every
// entry point translates exceptions into MPIX_ error codes (C callers get
// codes, never exceptions).
#include "mpx/capi/mpix.h"

#include <memory>
#include <new>

#include "mpx/coll/coll.hpp"
#include "mpx/mpx.hpp"

struct mpix_world_s {
  std::shared_ptr<mpx::World> w;
};
struct mpix_comm_s {
  mpx::Comm c;
};
struct mpix_stream_s {
  mpx::Stream s;
};
struct mpix_request_s {
  mpx::Request r;
};
struct mpix_info_s {
  mpx::Info i;
};

namespace {

using mpx::dtype::Datatype;

Datatype to_dt(MPIX_Datatype dt) {
  switch (dt) {
    case MPIX_BYTE: return Datatype::byte();
    case MPIX_INT32: return Datatype::int32();
    case MPIX_INT64: return Datatype::int64();
    case MPIX_FLOAT: return Datatype::float32();
    case MPIX_DOUBLE: return Datatype::float64();
    default: return Datatype();
  }
}

mpx::dtype::ReduceOp to_op(MPIX_Op op) {
  switch (op) {
    case MPIX_PROD: return mpx::dtype::ReduceOp::prod;
    case MPIX_MIN: return mpx::dtype::ReduceOp::min;
    case MPIX_MAX: return mpx::dtype::ReduceOp::max;
    case MPIX_SUM:
    default: return mpx::dtype::ReduceOp::sum;
  }
}

void fill_status(MPIX_Status* out, const mpx::Status& st) {
  if (out == MPIX_STATUS_IGNORE) return;
  out->MPIX_SOURCE = st.source;
  out->MPIX_TAG = st.tag;
  out->MPIX_ERROR =
      st.error == mpx::Err::success
          ? MPIX_SUCCESS
          : (st.error == mpx::Err::truncate ? MPIX_ERR_TRUNCATE
                                            : MPIX_ERR_OTHER);
  out->count_bytes = st.count_bytes;
}

/// Run `fn`, translating C++ errors to C codes.
template <class F>
int guarded(F&& fn) {
  try {
    return fn();
  } catch (const mpx::UsageError&) {
    return MPIX_ERR_ARG;
  } catch (const std::bad_alloc&) {
    return MPIX_ERR_OTHER;
  } catch (...) {
    return MPIX_ERR_OTHER;
  }
}

/// Bridges a C poll function (int return codes) to the C++ hook signature.
struct AsyncBridge {
  MPIX_Async_poll_function* fn;
  void* user_state;
};

mpx::AsyncResult bridge_poll(mpx::AsyncThing& thing) {
  auto* b = static_cast<AsyncBridge*>(thing.state());
  const int r = b->fn(reinterpret_cast<MPIX_Async_thing>(&thing));
  if (r == MPIX_ASYNC_DONE) {
    delete b;
    return mpx::AsyncResult::done;
  }
  return mpx::AsyncResult::pending;
}

void delete_bridge(void* bridge) { delete static_cast<AsyncBridge*>(bridge); }

/// Register a C hook on `stream`, or stage it as a spawn of `parent` when
/// one is given. The bridge is owned here until registration succeeds;
/// after that bridge_poll frees it on done, and delete_bridge frees it if
/// the hook is dropped while pending (stream free, World teardown).
int start_bridged(MPIX_Async_poll_function* poll_fn, void* extra_state,
                  const mpx::Stream& stream,
                  mpx::AsyncThing* parent = nullptr) {
  return guarded([&] {
    auto bridge =
        std::make_unique<AsyncBridge>(AsyncBridge{poll_fn, extra_state});
    if (parent != nullptr) {
      parent->spawn(&bridge_poll, bridge.get(), stream, &delete_bridge);
    } else {
      mpx::async_start(&bridge_poll, bridge.get(), stream, &delete_bridge);
    }
    bridge.release();
    return MPIX_SUCCESS;
  });
}

}  // namespace

extern "C" {

int MPIX_World_create(int nranks, int ranks_per_node, MPIX_World* world) {
  if (world == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    mpx::WorldConfig cfg;
    cfg.nranks = nranks;
    cfg.ranks_per_node = ranks_per_node;
    *world = new mpix_world_s{mpx::World::create(cfg)};
    return MPIX_SUCCESS;
  });
}

int MPIX_World_finalize_rank(MPIX_World world, int rank) {
  if (world == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    world->w->finalize_rank(rank);
    return MPIX_SUCCESS;
  });
}

int MPIX_World_free(MPIX_World* world) {
  if (world == nullptr || *world == nullptr) return MPIX_ERR_ARG;
  delete *world;
  *world = nullptr;
  return MPIX_SUCCESS;
}

double MPIX_Wtime(MPIX_World world) {
  return world == nullptr ? 0.0 : world->w->wtime();
}

int MPIX_Comm_world(MPIX_World world, int rank, MPIX_Comm* comm) {
  if (world == nullptr || comm == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    *comm = new mpix_comm_s{world->w->comm_world(rank)};
    return MPIX_SUCCESS;
  });
}

int MPIX_Comm_free(MPIX_Comm* comm) {
  if (comm == nullptr || *comm == nullptr) return MPIX_ERR_ARG;
  delete *comm;
  *comm = nullptr;
  return MPIX_SUCCESS;
}

int MPIX_Comm_rank(MPIX_Comm comm, int* rank) {
  if (comm == nullptr || rank == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    *rank = comm->c.rank();
    return MPIX_SUCCESS;
  });
}

int MPIX_Comm_size(MPIX_Comm comm, int* size) {
  if (comm == nullptr || size == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    *size = comm->c.size();
    return MPIX_SUCCESS;
  });
}

int MPIX_Info_create(MPIX_Info* info) {
  if (info == nullptr) return MPIX_ERR_ARG;
  *info = new mpix_info_s{};
  return MPIX_SUCCESS;
}

int MPIX_Info_set(MPIX_Info info, const char* key, const char* value) {
  if (info == nullptr || key == nullptr || value == nullptr) {
    return MPIX_ERR_ARG;
  }
  info->i.set(key, value);
  return MPIX_SUCCESS;
}

int MPIX_Info_free(MPIX_Info* info) {
  if (info == nullptr || *info == nullptr) return MPIX_ERR_ARG;
  delete *info;
  *info = nullptr;
  return MPIX_SUCCESS;
}

int MPIX_Stream_create_on(MPIX_World world, int rank, MPIX_Info info,
                          MPIX_Stream* stream) {
  if (world == nullptr || stream == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    const mpx::Info empty;
    const mpx::Info& hints = info != nullptr ? info->i : empty;
    *stream = new mpix_stream_s{world->w->stream_create(rank, hints)};
    return MPIX_SUCCESS;
  });
}

int MPIX_Stream_free(MPIX_Stream* stream) {
  if (stream == nullptr || *stream == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    mpx::Stream s = (*stream)->s;
    s.world().stream_free(s);
    delete *stream;
    *stream = nullptr;
    return MPIX_SUCCESS;
  });
}

int MPIX_Stream_comm_create(MPIX_Comm parent_comm, MPIX_Stream stream,
                            MPIX_Comm* stream_comm) {
  if (parent_comm == nullptr || stream_comm == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    const mpx::Stream s =
        stream != MPIX_STREAM_NULL
            ? stream->s
            : parent_comm->c.world().null_stream(
                  parent_comm->c.world_rank(parent_comm->c.rank()));
    *stream_comm = new mpix_comm_s{parent_comm->c.with_stream(s)};
    return MPIX_SUCCESS;
  });
}

int MPIX_Stream_progress(MPIX_Stream stream) {
  if (stream == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    mpx::stream_progress(stream->s);
    return MPIX_SUCCESS;
  });
}

int MPIX_Comm_progress(MPIX_Comm comm) {
  if (comm == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    mpx::stream_progress(comm->c.stream());
    return MPIX_SUCCESS;
  });
}

int MPIX_Async_start(MPIX_Async_poll_function* poll_fn, void* extra_state,
                     MPIX_Stream stream) {
  if (poll_fn == nullptr || stream == nullptr) return MPIX_ERR_ARG;
  return start_bridged(poll_fn, extra_state, stream->s);
}

int MPIX_Async_start_on_comm(MPIX_Async_poll_function* poll_fn,
                             void* extra_state, MPIX_Comm comm) {
  if (poll_fn == nullptr || comm == nullptr) return MPIX_ERR_ARG;
  return start_bridged(poll_fn, extra_state, comm->c.stream());
}

void* MPIX_Async_get_state(MPIX_Async_thing thing) {
  auto* t = reinterpret_cast<mpx::AsyncThing*>(thing);
  return static_cast<AsyncBridge*>(t->state())->user_state;
}

int MPIX_Async_spawn(MPIX_Async_thing thing,
                     MPIX_Async_poll_function* poll_fn, void* extra_state,
                     MPIX_Stream stream) {
  if (thing == nullptr || poll_fn == nullptr) return MPIX_ERR_ARG;
  auto* t = reinterpret_cast<mpx::AsyncThing*>(thing);
  return start_bridged(poll_fn, extra_state,
                       stream != MPIX_STREAM_NULL ? stream->s : t->stream(),
                       t);
}

int MPIX_Request_is_complete(MPIX_Request request) {
  return request == MPIX_REQUEST_NULL || request->r.is_complete() ? 1 : 0;
}

int MPIX_Isend(const void* buf, size_t count, MPIX_Datatype dt, int dst,
               int tag, MPIX_Comm comm, MPIX_Request* request) {
  if (comm == nullptr || request == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    *request = new mpix_request_s{comm->c.isend(buf, count, to_dt(dt), dst,
                                                tag)};
    return MPIX_SUCCESS;
  });
}

int MPIX_Irecv(void* buf, size_t count, MPIX_Datatype dt, int src, int tag,
               MPIX_Comm comm, MPIX_Request* request) {
  if (comm == nullptr || request == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    *request = new mpix_request_s{comm->c.irecv(buf, count, to_dt(dt), src,
                                                tag)};
    return MPIX_SUCCESS;
  });
}

int MPIX_Send(const void* buf, size_t count, MPIX_Datatype dt, int dst,
              int tag, MPIX_Comm comm) {
  if (comm == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    comm->c.send(buf, count, to_dt(dt), dst, tag);
    return MPIX_SUCCESS;
  });
}

int MPIX_Recv(void* buf, size_t count, MPIX_Datatype dt, int src, int tag,
              MPIX_Comm comm, MPIX_Status* status) {
  if (comm == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    const mpx::Status st = comm->c.recv(buf, count, to_dt(dt), src, tag);
    fill_status(status, st);
    return st.error == mpx::Err::truncate ? MPIX_ERR_TRUNCATE : MPIX_SUCCESS;
  });
}

int MPIX_Wait(MPIX_Request* request, MPIX_Status* status) {
  if (request == nullptr) return MPIX_ERR_ARG;
  if (*request == MPIX_REQUEST_NULL) return MPIX_SUCCESS;
  return guarded([&] {
    const mpx::Status st = (*request)->r.wait();
    fill_status(status, st);
    delete *request;
    *request = MPIX_REQUEST_NULL;
    return MPIX_SUCCESS;
  });
}

int MPIX_Test(MPIX_Request* request, int* flag, MPIX_Status* status) {
  if (request == nullptr || flag == nullptr) return MPIX_ERR_ARG;
  if (*request == MPIX_REQUEST_NULL) {
    *flag = 1;
    return MPIX_SUCCESS;
  }
  return guarded([&] {
    const auto st = (*request)->r.test();
    *flag = st.has_value() ? 1 : 0;
    if (st.has_value()) {
      fill_status(status, *st);
      delete *request;
      *request = MPIX_REQUEST_NULL;
    }
    return MPIX_SUCCESS;
  });
}

int MPIX_Request_free(MPIX_Request* request) {
  if (request == nullptr || *request == MPIX_REQUEST_NULL) {
    return MPIX_ERR_ARG;
  }
  delete *request;
  *request = MPIX_REQUEST_NULL;
  return MPIX_SUCCESS;
}

int MPIX_Barrier(MPIX_Comm comm) {
  if (comm == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    mpx::coll::barrier(comm->c);
    return MPIX_SUCCESS;
  });
}

int MPIX_Bcast(void* buf, size_t count, MPIX_Datatype dt, int root,
               MPIX_Comm comm) {
  if (comm == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    mpx::coll::bcast(buf, count, to_dt(dt), root, comm->c);
    return MPIX_SUCCESS;
  });
}

int MPIX_Allreduce(const void* sendbuf, void* recvbuf, size_t count,
                   MPIX_Datatype dt, MPIX_Op op, MPIX_Comm comm) {
  if (comm == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    mpx::coll::allreduce(sendbuf, recvbuf, count, to_dt(dt), to_op(op),
                         comm->c);
    return MPIX_SUCCESS;
  });
}

int MPIX_Grequest_start(MPIX_Comm comm, MPIX_Request* request) {
  if (comm == nullptr || request == nullptr) return MPIX_ERR_ARG;
  return guarded([&] {
    mpx::Request r = comm->c.world().grequest_start(
        comm->c.stream(), mpx::core_detail::GrequestFns{});
    *request = new mpix_request_s{std::move(r)};
    return MPIX_SUCCESS;
  });
}

int MPIX_Grequest_complete(MPIX_Request request) {
  if (request == MPIX_REQUEST_NULL) return MPIX_ERR_ARG;
  return guarded([&] {
    mpx::World::grequest_complete(request->r);
    return MPIX_SUCCESS;
  });
}

}  // extern "C"
