// Point-to-point protocol state machines: eager / rendezvous / pipeline,
// message matching, and the transport sink that feeds arrivals into them.
// This is where the paper's Fig. 1 message modes live, selected from the
// routed transport's capability bits and limits() — never from its
// concrete type:
//
//   cap_eager_local, size <= eager_max : buffered eager (Fig. 1a) — payload
//                                        copied out by send_eager, complete
//                                        at initiation (shm cell ring)
//   size <= lightweight_max            : buffered eager (Fig. 1a), owned
//                                        copy, fire-and-forget
//   cap_send_cq, size <= eager_max     : eager (Fig. 1b) — sender completes
//                                        at injection-done CQ event
//   cap_mapped_memory, larger (or sync): LMT rendezvous — RTS carries the
//                                        exporter pointer -> receiver
//                                        chunk-copies -> ACK (ONE wait)
//   otherwise larger (or sync)         : rendezvous (Fig. 1c) — RTS -> CTS
//                                        -> DATA (two wait blocks); above
//                                        pipeline_min the data is chunked
//                                        with a bounded in-flight window
//                                        (§2.1 pipeline)
//
// All handlers run under the polling VCI's lock, with the VCI's topology
// pin live (TopoRef at the progress/post entry points): routing decisions
// read *v.topo_cache, and every outbound message leaves through
// route_send / route_send_eager so a fenced pair parks instead of
// injecting (topology.hpp, "ROUTE FENCING").
#include <algorithm>
#include <cstring>

#include "internal.hpp"

namespace mpx::core_detail {
namespace {

using transport::Msg;
using transport::MsgHeader;
using transport::MsgKind;

RequestImpl* peek_cookie(std::uint64_t c) {
  return reinterpret_cast<RequestImpl*>(c);
}

/// Inject `m` on its pair's carrier, counting it in flight and synthesizing
/// the completion event transports that finish locally never raise
/// (transport.hpp send() contract: returning true means no event will ever
/// fire — without the synthesis, a cookie'd protocol started on a
/// cap_send_cq carrier could never finish on a carrier without a CQ after
/// a swap).
void inject(Vci& v, const TopologySnapshot& topo, Msg&& m,
            std::uint64_t cookie) MPX_REQUIRES(v.mu) {
  const int src = m.h.src_rank;
  const int dst = m.h.dst_rank;
  topo.inflight_add(src, dst, +1);
  if (topo.carrier(src, dst)->send(std::move(m), cookie) && cookie != 0) {
    v.synth_cq.push_back(cookie);
  }
}

/// Pop the oldest posted receive matching the header (MPI FIFO order, bin
/// scan + wildcard-list scan — matching.hpp). The returned pointer carries
/// the posted-list reference.
RequestImpl* pop_posted(Vci& v, const MsgHeader& h) MPX_REQUIRES(v.mu) {
  return v.posted.pop_match(h.context_id, h.src_rank, h.tag);
}

/// Park an arrival on the unexpected queue.
void park_unexpected(Vci& v, Msg&& m) MPX_REQUIRES(v.mu) {
  auto* u = new UnexpMsg();
  u->msg = std::move(m);
  v.unexpected.push_back(u);
}

void set_recv_envelope(RequestImpl* rreq, const MsgHeader& h) {
  rreq->status.source =
      rreq->comm != nullptr ? rreq->comm->to_comm(h.src_rank) : h.src_rank;
  rreq->status.tag = h.tag;
}

/// Deliver a fully-arrived eager payload into the receive buffer.
void deliver_eager(RequestImpl* rreq, const MsgHeader& h,
                   base::ConstByteSpan data) {
  const std::size_t cap = rreq->count * rreq->dt.size();
  Err err = Err::success;
  std::size_t n = data.size();
  if (n > cap) {
    n = cap;
    err = Err::truncate;
  }
  if (n > 0) {
    if (rreq->dt.is_contiguous()) {
      std::memcpy(rreq->buf, data.data(), n);
    } else {
      dtype::unpack_all(data.first(n), rreq->buf, rreq->count, rreq->dt);
    }
  }
  set_recv_envelope(rreq, h);
  rreq->status.count_bytes = n;
  complete_request(rreq, err);
}

/// Begin the rendezvous receive for a matched RTS.
/// Takes ownership of the caller's reference to rreq.
void start_rndv_recv(Vci& v, base::Ref<RequestImpl> rreq, const MsgHeader& h)
    MPX_REQUIRES(v.mu) {
  set_recv_envelope(rreq.get(), h);
  rreq->total_bytes = h.total_bytes;
  if (h.shm_src != nullptr) {
    // Mapped-memory LMT (the RTS carried the exporter's pointer): chunk-copy
    // directly from the exporter's buffer during this VCI's progress, then
    // ack the sender.
    LmtWork work;
    work.src = static_cast<const std::byte*>(h.shm_src);
    work.total = h.total_bytes;
    work.sender_cookie = h.sender_cookie;
    work.sender_rank = h.src_rank;
    work.sender_vci = h.src_vci;
    if (!rreq->dt.is_contiguous()) {
      work.seg = std::make_unique<dtype::Segment>(rreq->buf, rreq->count,
                                                  rreq->dt);
    }
    work.rreq = std::move(rreq);
    v.lmt.push_back(std::move(work));
    return;
  }
  // No shared mapping: CTS/DATA rendezvous — clear-to-send back to the
  // sender's VCI (Fig. 1c).
  RequestImpl* rp = rreq.get();
  if (!rp->dt.is_contiguous()) {
    rp->seg = std::make_unique<dtype::Segment>(rp->buf, rp->count, rp->dt);
  }
  Msg cts;
  cts.h.kind = MsgKind::cts;
  cts.h.src_rank = v.rank;
  cts.h.dst_rank = h.src_rank;
  cts.h.src_vci = v.id;
  cts.h.dst_vci = h.src_vci;
  cts.h.context_id = h.context_id;
  cts.h.tag = h.tag;
  cts.h.total_bytes = h.total_bytes;
  cts.h.sender_cookie = h.sender_cookie;
  // One reference rides the cookie until the final data chunk adopts it;
  // our own (rreq) drops at scope end.
  cts.h.recver_cookie = cookie_of(rp);
  route_send(v, std::move(cts), 0);
}

/// Pipeline/rendezvous chunk size for a message of `total` bytes, per the
/// carrying transport's limits.
std::uint64_t chunk_bytes(const transport::TransportLimits& lim,
                          std::uint64_t total) {
  return total > lim.pipeline_min
             ? static_cast<std::uint64_t>(lim.pipeline_chunk)
             : total;
}

/// Inject the next data chunk of a rendezvous send. Geometry comes from the
/// request's PINNED pipe_chunk/pipe_window (set once at CTS time), not the
/// current route: a mid-rendezvous topology swap must not change the chunk
/// size the completion handler reconstructs acked bytes with.
void inject_next_chunk(Vci& v, RequestImpl* sreq) MPX_REQUIRES(v.mu) {
  const std::uint64_t len = std::min<std::uint64_t>(
      sreq->pipe_chunk, sreq->total_bytes - sreq->next_offset);
  Msg data;
  data.h.kind = MsgKind::data;
  data.h.src_rank = sreq->self;
  data.h.dst_rank = sreq->peer;
  data.h.src_vci = v.id;
  data.h.dst_vci = sreq->peer_vci;
  data.h.total_bytes = sreq->total_bytes;
  data.h.chunk_offset = sreq->next_offset;
  data.h.recver_cookie = sreq->peer_cookie;
  data.payload = base::pooled_copy(base::ConstByteSpan(
      sreq->send_src + sreq->next_offset, static_cast<std::size_t>(len)));
  sreq->next_offset += len;
  ++sreq->chunks_inflight;
  route_send(v, std::move(data), cookie_of(sreq));
}

// ---- inbound handlers (under the VCI lock) ----

void handle_eager(Vci& v, Msg&& m) MPX_REQUIRES(v.mu) {
  if (RequestImpl* rreq = pop_posted(v, m.h); rreq != nullptr) {
    base::Ref<RequestImpl> own(rreq);  // adopt the posted-list reference
    trace_emit(v, trace::Event::match, m.h.src_rank, m.h.tag,
               m.h.total_bytes);
    deliver_eager(rreq, m.h, m.payload.span());
    return;
  }
  trace_emit(v, trace::Event::unexpected, m.h.src_rank, m.h.tag,
             m.h.total_bytes);
  park_unexpected(v, std::move(m));
}

/// Zero-copy eager arrival: `payload` views transport-owned storage (a shm
/// ring slot) valid only for this call. A matched receive copies straight
/// slot -> user buffer (the single receive-side copy); an unmatched arrival
/// is the one case that must materialize owned storage (pooled block).
void handle_eager_inline(Vci& v, const MsgHeader& h, base::ConstByteSpan data)
    MPX_REQUIRES(v.mu) {
  if (RequestImpl* rreq = pop_posted(v, h); rreq != nullptr) {
    base::Ref<RequestImpl> own(rreq);  // adopt the posted-list reference
    trace_emit(v, trace::Event::match, h.src_rank, h.tag, h.total_bytes);
    deliver_eager(rreq, h, data);
    return;
  }
  trace_emit(v, trace::Event::unexpected, h.src_rank, h.tag, h.total_bytes);
  auto* u = new UnexpMsg();
  u->msg.h = h;
  u->msg.payload = base::pooled_copy(data);
  v.unexpected.push_back(u);
}

void handle_rts(Vci& v, Msg&& m) MPX_REQUIRES(v.mu) {
  trace_emit(v, trace::Event::rts, m.h.src_rank, m.h.tag, m.h.total_bytes);
  if (RequestImpl* rreq = pop_posted(v, m.h); rreq != nullptr) {
    trace_emit(v, trace::Event::match, m.h.src_rank, m.h.tag,
               m.h.total_bytes);
    start_rndv_recv(v, base::Ref<RequestImpl>(rreq), m.h);
    return;
  }
  trace_emit(v, trace::Event::unexpected, m.h.src_rank, m.h.tag,
             m.h.total_bytes);
  park_unexpected(v, std::move(m));
}

void handle_cts(Vci& v, Msg&& m) MPX_REQUIRES(v.mu) {
  trace_emit(v, trace::Event::cts, m.h.src_rank, m.h.tag, m.h.total_bytes);
  // Adopt the RTS reference; the injection cookies below keep sreq alive.
  base::Ref<RequestImpl> rts_ref = from_cookie(m.h.sender_cookie);
  RequestImpl* sreq = rts_ref.get();
  ensures(sreq->proto == SendProto::rndv, "cts: unexpected protocol");
  sreq->peer_cookie = m.h.recver_cookie;
  // Pin the pipeline geometry NOW, from the currently-routed carrier (for a
  // fenced pair that is already the pending new one). Every later chunk and
  // completion event uses these frozen values.
  const transport::TransportLimits& lim =
      (*v.topo_cache).carrier(sreq->self, sreq->peer)->limits();
  sreq->pipe_chunk = chunk_bytes(lim, sreq->total_bytes);
  sreq->pipe_window =
      sreq->total_bytes > lim.pipeline_min ? lim.pipeline_inflight : 1;
  while (sreq->next_offset < sreq->total_bytes &&
         sreq->chunks_inflight < sreq->pipe_window) {
    inject_next_chunk(v, sreq);
  }
}

void handle_data(Vci& v, Msg&& m) {
  trace_emit(v, trace::Event::data, m.h.src_rank, m.h.tag,
             m.payload.size(), m.h.chunk_offset);
  RequestImpl* rreq = peek_cookie(m.h.recver_cookie);
  const std::size_t cap = rreq->count * rreq->dt.size();
  const base::ConstByteSpan data = m.payload.span();
  if (rreq->seg != nullptr) {
    // Chunks arrive in order (FIFO channels); clip happens inside unpack.
    rreq->seg->unpack(data);
  } else {
    const std::uint64_t off = m.h.chunk_offset;
    if (off < cap) {
      const std::size_t n =
          std::min<std::size_t>(data.size(), cap - static_cast<std::size_t>(off));
      std::memcpy(static_cast<std::byte*>(rreq->buf) + off, data.data(), n);
    }
  }
  rreq->bytes_moved += data.size();
  if (rreq->bytes_moved >= rreq->total_bytes) {
    base::Ref<RequestImpl> own = from_cookie(m.h.recver_cookie);
    rreq->status.count_bytes = std::min<std::uint64_t>(rreq->total_bytes, cap);
    rreq->seg.reset();
    complete_request(rreq,
                     rreq->total_bytes > cap ? Err::truncate : Err::success);
  }
}

void handle_ack(Vci& v, Msg&& m) {
  trace_emit(v, trace::Event::ack, m.h.src_rank, m.h.tag, 0);
  base::Ref<RequestImpl> sreq = from_cookie(m.h.sender_cookie);
  sreq->status.count_bytes = sreq->total_bytes;
  complete_request(sreq.get(), Err::success);
}

/// The transport sink: dispatches arrivals into the handlers above. Both
/// entry points run under the polling VCI's lock (transports are only
/// polled from progress_test), expressed as MPX_REQUIRES below — placed
/// after `override`, the one position both clang (which sees the attribute)
/// and gcc (which sees nothing) accept.
class VciSink final : public transport::TransportSink {
 public:
  explicit VciSink(Vci& v) : v_(v) {}

  void on_msg(Msg&& m) override MPX_REQUIRES(v_.mu) {
    arrived(m.h);
    dispatch(std::move(m));
  }

  void on_msg_inline(const MsgHeader& h, base::ConstByteSpan payload)
      override MPX_REQUIRES(v_.mu) {
    arrived(h);
    if (h.kind == MsgKind::eager) {
      handle_eager_inline(v_, h, payload);
      return;
    }
    // Control messages (rts/cts/ack) are header-only; data chunks never
    // arrive inline on shm. Materialize for the regular handlers —
    // dispatch(), not on_msg(): the arrival was already counted above.
    Msg m;
    m.h = h;
    m.payload = base::Buffer::copy_of(payload);
    dispatch(std::move(m));
  }

  void on_send_complete(std::uint64_t cookie) override MPX_REQUIRES(v_.mu) {
    base::Ref<RequestImpl> ref = from_cookie(cookie);
    RequestImpl* sreq = ref.get();
    switch (sreq->proto) {
      case SendProto::eager_cq:
        sreq->status.count_bytes = sreq->total_bytes;
        complete_request(sreq, Err::success);
        break;
      case SendProto::rndv: {
        // Reconstruct acked bytes from the PINNED geometry (handle_cts):
        // a completion event always covers one injected chunk, and every
        // chunk but the last is exactly pipe_chunk bytes.
        const std::uint64_t acked = std::min<std::uint64_t>(
            sreq->pipe_chunk, sreq->total_bytes - sreq->bytes_moved);
        sreq->bytes_moved += acked;
        --sreq->chunks_inflight;
        while (sreq->next_offset < sreq->total_bytes &&
               sreq->chunks_inflight < sreq->pipe_window) {
          inject_next_chunk(v_, sreq);
        }
        if (sreq->bytes_moved >= sreq->total_bytes) {
          sreq->status.count_bytes = sreq->total_bytes;
          complete_request(sreq, Err::success);
        }
        break;
      }
      default:
        ensures(false, "on_send_complete: unexpected protocol");
    }
  }

 private:
  /// Exactly-once in-flight accounting for one arrival, regardless of
  /// which entry point it came through (on_msg_inline must NOT forward to
  /// on_msg, or a materialized control message would decrement twice).
  void arrived(const MsgHeader& h) MPX_REQUIRES(v_.mu) {
    (*v_.topo_cache).inflight_add(h.src_rank, h.dst_rank, -1);
  }

  void dispatch(Msg&& m) MPX_REQUIRES(v_.mu) {
    switch (m.h.kind) {
      case MsgKind::eager: handle_eager(v_, std::move(m)); break;
      case MsgKind::rts: handle_rts(v_, std::move(m)); break;
      case MsgKind::cts: handle_cts(v_, std::move(m)); break;
      case MsgKind::data: handle_data(v_, std::move(m)); break;
      case MsgKind::ack: handle_ack(v_, std::move(m)); break;
    }
  }

  Vci& v_;
};

}  // namespace

void route_send(Vci& v, Msg&& m, std::uint64_t cookie) {
  const TopologySnapshot& topo = *v.topo_cache;
  // Conservative cross-pair FIFO: once anything is parked on this VCI, park
  // everything behind it — fences are rare and short, and flush_parked
  // restores order the moment the head's pair unfences.
  if (topo.fenced(m.h.src_rank, m.h.dst_rank) || !v.fence_parked.empty()) {
    v.fence_parked.push_back(ParkedSend{std::move(m), cookie});
    return;
  }
  inject(v, topo, std::move(m), cookie);
}

void route_send_eager(Vci& v, const MsgHeader& h, base::ConstByteSpan payload) {
  const TopologySnapshot& topo = *v.topo_cache;
  if (topo.fenced(h.src_rank, h.dst_rank) || !v.fence_parked.empty()) {
    // The zero-envelope contract says the payload is copied before we
    // return (the caller completes the request at initiation), so parking
    // must materialize an owned message. It flushes through send() — every
    // transport accepts an owned eager Msg.
    Msg m;
    m.h = h;
    m.payload = base::pooled_copy(payload);
    v.fence_parked.push_back(ParkedSend{std::move(m), 0});
    return;
  }
  topo.inflight_add(h.src_rank, h.dst_rank, +1);
  topo.carrier(h.src_rank, h.dst_rank)->send_eager(h, payload, 0);
}

int flush_parked(Vci& v) {
  const TopologySnapshot& topo = *v.topo_cache;
  int made = 0;
  while (!v.fence_parked.empty()) {
    ParkedSend& head = v.fence_parked.front();
    if (topo.fenced(head.msg.h.src_rank, head.msg.h.dst_rank)) break;
    ParkedSend p = std::move(head);
    v.fence_parked.pop_front();
    inject(v, topo, std::move(p.msg), p.cookie);
    made = 1;
  }
  return made;
}

std::unique_ptr<transport::TransportSink> make_vci_sink(Vci& v) {
  return std::make_unique<VciSink>(v);
}

void lmt_progress(Vci& v, int* made_progress) {
  const WorldConfig& cfg = v.world->config();
  for (auto it = v.lmt.begin(); it != v.lmt.end();) {
    LmtWork& w = *it;
    const std::uint64_t len =
        std::min<std::uint64_t>(cfg.shm_lmt_chunk, w.total - w.done);
    RequestImpl* rreq = w.rreq.get();
    const std::size_t cap = rreq->count * rreq->dt.size();
    if (w.seg != nullptr) {
      w.seg->unpack(base::ConstByteSpan(w.src + w.done,
                                        static_cast<std::size_t>(len)));
    } else if (w.done < cap) {
      const std::size_t n = std::min<std::size_t>(
          static_cast<std::size_t>(len), cap - static_cast<std::size_t>(w.done));
      std::memcpy(static_cast<std::byte*>(rreq->buf) + w.done, w.src + w.done,
                  n);
    }
    w.done += len;
    if (made_progress != nullptr) *made_progress = 1;
    if (w.done >= w.total) {
      Msg ack;
      ack.h.kind = transport::MsgKind::ack;
      ack.h.src_rank = v.rank;
      ack.h.dst_rank = w.sender_rank;
      ack.h.src_vci = v.id;
      ack.h.dst_vci = w.sender_vci;
      ack.h.sender_cookie = w.sender_cookie;
      route_send(v, std::move(ack), 0);
      rreq->status.count_bytes = std::min<std::uint64_t>(w.total, cap);
      complete_request(rreq, w.total > cap ? Err::truncate : Err::success);
      it = v.lmt.erase(it);
    } else {
      ++it;
    }
  }
}

Request isend_impl(const std::shared_ptr<CommImpl>& comm, int my_rank,
                   const void* buf, std::size_t count,
                   const dtype::Datatype& dt, int dst, int tag, bool sync) {
  expects(comm != nullptr, "isend: invalid communicator");
  expects(dst >= 0 && dst < static_cast<int>(comm->group.size()),
          "isend: destination rank out of range");
  expects(dt.valid(), "isend: invalid datatype");
  expects(tag >= 0, "isend: tag must be non-negative");
  World& w = *comm->world;
  const int self = comm->to_world(my_rank);
  const int peer = comm->to_world(dst);
  Vci& v = w.vci(self, comm->vcis[static_cast<std::size_t>(my_rank)]);

  auto* r = new RequestImpl(ReqKind::send);
  r->world = &w;
  r->vci = &v;
  r->comm = comm;
  r->self = self;
  r->peer = peer;
  r->peer_vci = comm->vcis[static_cast<std::size_t>(dst)];
  r->context_id = comm->context_id;
  r->total_bytes = count * dt.size();
  v.active_ops.fetch_add(1, std::memory_order_relaxed);

  // Flatten non-contiguous data once up front; protocols below see bytes.
  if (dt.is_contiguous() || r->total_bytes == 0) {
    r->send_src = static_cast<const std::byte*>(buf);
  } else {
    r->staging = base::Buffer(static_cast<std::size_t>(r->total_bytes));
    dtype::pack_all(buf, count, dt, r->staging.span());
    r->send_src = r->staging.data();
    r->uses_staging = true;
  }

  Msg m;
  m.h.src_rank = self;
  m.h.dst_rank = peer;
  m.h.src_vci = v.id;
  m.h.dst_vci = r->peer_vci;
  m.h.context_id = comm->context_id;
  m.h.tag = tag;
  m.h.total_bytes = r->total_bytes;

  // Select the message mode from the routed transport's capabilities and
  // limits — the protocol layer never names a concrete transport. Routing
  // resolves under the VCI lock through the section's topology pin, so the
  // carrier consulted is exactly the one (or, mid-swap, the pending one)
  // the message leaves through.
  base::LockGuard<base::InstrumentedMutex> g(v.mu);
  TopoRef topo(v);
  transport::Transport& t = *(*topo).carrier(self, peer);
  const unsigned caps = t.caps();
  const transport::TransportLimits& lim = t.limits();
  const bool can_eager =
      !sync && r->total_bytes <= lim.eager_max &&
      ((caps & transport::cap_eager_local) != 0 ||
       r->total_bytes <= lim.lightweight_max ||
       (caps & transport::cap_send_cq) != 0);
  if (can_eager) {
    m.h.kind = MsgKind::eager;
    if ((caps & transport::cap_eager_local) != 0) {
      r->proto = SendProto::eager_local;
      // Zero-envelope: the payload is copied straight from the user (or
      // staging) buffer before route_send_eager returns — into transport
      // storage when the pair is clear, into an owned parked message when
      // fenced — so the operation is locally complete either way.
      route_send_eager(v, m.h,
                       base::ConstByteSpan(
                           r->send_src,
                           static_cast<std::size_t>(r->total_bytes)));
      r->status.count_bytes = r->total_bytes;
      complete_request(r, Err::success);
    } else if (r->total_bytes <= lim.lightweight_max) {
      r->proto = SendProto::light;
      m.payload = base::pooled_copy(base::ConstByteSpan(
          r->send_src, static_cast<std::size_t>(r->total_bytes)));
      route_send(v, std::move(m), 0);
      r->status.count_bytes = r->total_bytes;
      complete_request(r, Err::success);
    } else {
      r->proto = SendProto::eager_cq;
      m.payload = base::pooled_copy(base::ConstByteSpan(
          r->send_src, static_cast<std::size_t>(r->total_bytes)));
      route_send(v, std::move(m), cookie_of(r));
    }
  } else {
    m.h.kind = MsgKind::rts;
    m.h.sender_cookie = cookie_of(r);
    if ((caps & transport::cap_mapped_memory) != 0) {
      // The receiver copies straight out of our buffer (LMT): export it in
      // the RTS and wait for the single ACK.
      r->proto = SendProto::rndv_lmt;
      m.h.shm_src = r->send_src;
    } else {
      r->proto = SendProto::rndv;
    }
    route_send(v, std::move(m), 0);
  }
  trace_emit(v, trace::Event::post_send, dst, tag, r->total_bytes,
             static_cast<std::uint64_t>(r->proto));
  return Request(base::Ref<RequestImpl>(r));
}

Request irecv_impl(const std::shared_ptr<CommImpl>& comm, int my_rank,
                   void* buf, std::size_t count, const dtype::Datatype& dt,
                   int src, int tag) {
  expects(comm != nullptr, "irecv: invalid communicator");
  expects(src == any_source ||
              (src >= 0 && src < static_cast<int>(comm->group.size())),
          "irecv: source rank out of range");
  expects(dt.valid(), "irecv: invalid datatype");
  World& w = *comm->world;
  const int self = comm->to_world(my_rank);
  Vci& v = w.vci(self, comm->vcis[static_cast<std::size_t>(my_rank)]);

  auto* r = new RequestImpl(ReqKind::recv);
  r->world = &w;
  r->vci = &v;
  r->comm = comm;
  r->self = self;
  r->buf = buf;
  r->count = count;
  r->dt = dt;
  r->context_id = comm->context_id;
  r->match_src = src == any_source ? any_source : comm->to_world(src);
  r->match_tag = tag;
  v.active_ops.fetch_add(1, std::memory_order_relaxed);

  base::LockGuard<base::InstrumentedMutex> g(v.mu);
  // Pin before touching the unexpected queue: matching an RTS starts the
  // rendezvous reply (CTS), which routes.
  TopoRef topo(v);
  // Check the unexpected queue first (oldest eligible arrival).
  if (UnexpMsg* hit =
          v.unexpected.pop(r->context_id, r->match_src, r->match_tag);
      hit != nullptr) {
    base::Ref<RequestImpl> own = base::Ref<RequestImpl>::share(r);
    if (hit->msg.h.kind == MsgKind::eager) {
      deliver_eager(r, hit->msg.h, hit->msg.payload.span());
    } else {
      ensures(hit->msg.h.kind == MsgKind::rts, "unexpected queue: bad kind");
      start_rndv_recv(v, std::move(own), hit->msg.h);
    }
    delete hit;
    return Request(base::Ref<RequestImpl>(r));
  }
  r->ref_inc();  // the posted queue holds a reference
  v.posted.push(r);
  trace_emit(v, trace::Event::post_recv, src, tag,
             count * dt.size());
  return Request(base::Ref<RequestImpl>(r));
}

Request imrecv_impl(const std::shared_ptr<CommImpl>& comm, int my_rank,
                    void* buf, std::size_t count, const dtype::Datatype& dt,
                    UnexpMsg* u) {
  expects(comm != nullptr && u != nullptr, "imrecv: invalid arguments");
  World& w = *comm->world;
  const int self = comm->to_world(my_rank);
  Vci& v = w.vci(self, comm->vcis[static_cast<std::size_t>(my_rank)]);

  auto* r = new RequestImpl(ReqKind::recv);
  r->world = &w;
  r->vci = &v;
  r->comm = comm;
  r->self = self;
  r->buf = buf;
  r->count = count;
  r->dt = dt;
  r->context_id = u->msg.h.context_id;
  v.active_ops.fetch_add(1, std::memory_order_relaxed);

  base::LockGuard<base::InstrumentedMutex> g(v.mu);
  // Same as irecv: a claimed RTS replies with a CTS, which routes.
  TopoRef topo(v);
  if (u->msg.h.kind == MsgKind::eager) {
    deliver_eager(r, u->msg.h, u->msg.payload.span());
  } else {
    ensures(u->msg.h.kind == MsgKind::rts, "imrecv: bad claimed message");
    start_rndv_recv(v, base::Ref<RequestImpl>::share(r), u->msg.h);
  }
  delete u;
  return Request(base::Ref<RequestImpl>(r));
}

void requeue_unexpected(Vci& v, UnexpMsg* u) {
  base::LockGuard<base::InstrumentedMutex> g(v.mu);
  v.unexpected.push_front(u);
}

}  // namespace mpx::core_detail
