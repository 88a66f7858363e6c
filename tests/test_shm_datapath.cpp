// Shm eager datapath tests: the zero-copy inline-cell ring end to end.
//
// Covers the PR's acceptance assertions directly:
//  - zero per-message heap allocations on the in-slot eager path (pool and
//    transport stats counters, not heap hooks);
//  - randomized property test interleaving full-ring parking, wildcard
//    receives, and LMT cutover, asserting FIFO per (src, dst, vci) channel
//    (single-threaded deterministic interleave + a two-thread variant that
//    exercises the wait backoff ladder under tsan).
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "mpx/base/pool.hpp"
#include "mpx/shm/shm_transport.hpp"
#include "test_util.hpp"

using namespace mpx;

namespace {

std::vector<std::uint8_t> pattern(int seq, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t j = 0; j < n; ++j) {
    v[j] = static_cast<std::uint8_t>(seq * 131 + static_cast<int>(j) * 7 + 1);
  }
  return v;
}

}  // namespace

// In-slot eager traffic (payload <= slot_bytes) with a matching posted
// receive must not touch the payload pool at all: the payload goes user
// buffer -> ring slot -> user buffer. ShmStats::inline_payload_hits counts
// every send as in-slot and the PayloadPool acquire counters stay flat.
TEST(ShmDatapath, InSlotEagerMakesZeroPayloadAllocations) {
  auto w = World::create(WorldConfig{.nranks = 2});
  Comm c0 = w->comm_world(0);
  Comm c1 = w->comm_world(1);
  constexpr int kN = 64;
  constexpr std::size_t kBytes = 128;  // <= default slot_bytes (256)

  const shm::ShmStats shm0 = mpx_test::transport_as<shm::ShmTransport>(*w, "shm").stats();
  const base::PoolStats pay0 = base::PayloadPool::instance().stats();

  std::vector<std::vector<std::uint8_t>> recv_bufs(
      kN, std::vector<std::uint8_t>(kBytes, 0));
  std::vector<Request> rreqs;
  rreqs.reserve(kN);
  for (int i = 0; i < kN; ++i) {  // pre-post: every arrival finds a match
    rreqs.push_back(c1.irecv(recv_bufs[static_cast<std::size_t>(i)].data(),
                             kBytes, dtype::Datatype::byte(), 0, i));
  }
  for (int i = 0; i < kN; ++i) {
    auto v = pattern(i, kBytes);
    Request s = c0.isend(v.data(), kBytes, dtype::Datatype::byte(), 1, i);
    EXPECT_TRUE(s.is_complete());  // eager: locally complete at initiation
    // Drain each message promptly so the default 64-cell ring never fills
    // (a full ring legitimately parks + pool-copies).
    rreqs[static_cast<std::size_t>(i)].wait();
  }

  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(recv_bufs[static_cast<std::size_t>(i)],
              pattern(i, kBytes));
  }

  const shm::ShmStats shm1 = mpx_test::transport_as<shm::ShmTransport>(*w, "shm").stats();
  const base::PoolStats pay1 = base::PayloadPool::instance().stats();
  EXPECT_EQ(shm1.sends - shm0.sends, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(shm1.inline_payload_hits - shm0.inline_payload_hits,
            static_cast<std::uint64_t>(kN));
  EXPECT_EQ(shm1.ring_full_events - shm0.ring_full_events, 0u);
  // The heart of the claim: no payload-pool acquires — neither recycled
  // blocks nor fresh allocations — anywhere on the in-slot path.
  EXPECT_EQ(pay1.hits - pay0.hits, 0u);
  EXPECT_EQ(pay1.misses - pay0.misses, 0u);
}

namespace {

base::PoolStats registry_stats(const char* name) {
  for (const base::NamedPoolStats& row : base::pool_registry_snapshot()) {
    if (row.name == name) return row.stats;
  }
  ADD_FAILURE() << "no pool named " << name;
  return {};
}

// `rounds` two-rank ping-pong round trips of `bytes`, both ranks driven
// from the calling thread.
void ping_pong(const Comm& c0, const Comm& c1, std::size_t bytes, int rounds) {
  std::vector<std::uint8_t> out(bytes, 0x3c), in(bytes, 0);
  for (int i = 0; i < rounds; ++i) {
    Request r1 = c1.irecv(in.data(), bytes, dtype::Datatype::byte(), 0, 7);
    c0.isend(out.data(), bytes, dtype::Datatype::byte(), 1, 7).wait();
    r1.wait();
    Request r0 = c0.irecv(in.data(), bytes, dtype::Datatype::byte(), 1, 8);
    c1.isend(out.data(), bytes, dtype::Datatype::byte(), 0, 8).wait();
    r0.wait();
  }
}

// Like ping_pong, but every message arrives before its receive is posted:
// the receiver probes until the message has parked on its unexpected queue,
// then receives it.
void unexpected_ping_pong(const Comm& c0, const Comm& c1, int rounds) {
  std::uint64_t out = 0x3c, in = 0;
  const auto hop = [&](const Comm& from, const Comm& to, int tag) {
    from.isend(&out, sizeof out, dtype::Datatype::byte(), to.rank(), tag)
        .wait();
    while (!to.iprobe(from.rank(), tag)) {
    }
    to.recv(&in, sizeof in, dtype::Datatype::byte(), from.rank(), tag);
  };
  for (int i = 0; i < rounds; ++i) {
    hop(c0, c1, 7);
    hop(c1, c0, 8);
  }
}

}  // namespace

// Work-per-message gate on the shared pool lock: once a thread's magazines
// are warm, a steady 8 B ping-pong recycles every request through them and
// never takes the request pool's depot lock, and a ping-pong whose every
// message parks as unexpected does the same for the unexpected-message
// pool. 1 KiB payloads ride pooled overflow cells; their size class may
// reach the depot at most once per magazine batch, far below once per
// message. The counts are exact, so a change that puts a shared lock back
// on the per-message path fails here instead of hiding in wall-time noise.
TEST(ShmDatapath, SteadyPingPongStaysOffThePoolDepots) {
  auto w = World::create(WorldConfig{.nranks = 2});
  Comm c0 = w->comm_world(0);
  Comm c1 = w->comm_world(1);
  constexpr int kRounds = 1000;

  ping_pong(c0, c1, 8, 100);  // warm-up
  const base::PoolStats req0 = registry_stats("request");
  ping_pong(c0, c1, 8, kRounds);
  const base::PoolStats req1 = registry_stats("request");
  EXPECT_GE(req1.hits + req1.misses - req0.hits - req0.misses,
            static_cast<std::uint64_t>(4 * kRounds));
  EXPECT_EQ(req1.depot - req0.depot, 0u);

  unexpected_ping_pong(c0, c1, 100);  // warm-up
  const base::PoolStats unexp0 = registry_stats("unexp");
  unexpected_ping_pong(c0, c1, kRounds);
  const base::PoolStats unexp1 = registry_stats("unexp");
  EXPECT_GE(unexp1.hits + unexp1.misses - unexp0.hits - unexp0.misses,
            static_cast<std::uint64_t>(2 * kRounds));
  EXPECT_EQ(unexp1.depot - unexp0.depot, 0u);

  constexpr std::size_t kLarge = 1024;  // > slot_bytes: pooled overflow cell
  ping_pong(c0, c1, kLarge, 100);
  const base::PoolStats pay0 = base::PayloadPool::instance().stats();
  ping_pong(c0, c1, kLarge, kRounds);
  const base::PoolStats pay1 = base::PayloadPool::instance().stats();
  const std::uint64_t messages = 2 * kRounds;
  EXPECT_GE(pay1.hits + pay1.misses - pay0.hits - pay0.misses, messages);
  const std::uint64_t batch = base::magazine_blocks(kLarge) / 2;
  EXPECT_LE(pay1.depot - pay0.depot, messages / batch);
}

TEST(ShmDatapath, BatchedDeliveryCountersSurfaceThroughWorldStats) {
  auto w = World::create(WorldConfig{.nranks = 2});
  Comm c0 = w->comm_world(0);
  Comm c1 = w->comm_world(1);
  constexpr int kN = 8;
  const shm::ShmStats before = mpx_test::transport_as<shm::ShmTransport>(*w, "shm").stats();

  std::vector<std::uint8_t> v(64, 0xab);
  for (int i = 0; i < kN; ++i) {
    c0.isend(v.data(), v.size(), dtype::Datatype::byte(), 1, i);
  }
  // One receiver progress pass drains all kN cells (deliver_batch=16)
  // under a single acquire/publish pair -> one batched delivery.
  std::vector<std::uint8_t> r(64, 0);
  for (int i = 0; i < kN; ++i) {
    c1.recv(r.data(), r.size(), dtype::Datatype::byte(), 0, i);
  }
  const shm::ShmStats after = mpx_test::transport_as<shm::ShmTransport>(*w, "shm").stats();
  EXPECT_EQ(after.delivered - before.delivered, static_cast<std::uint64_t>(kN));
  EXPECT_GE(after.batched_deliveries - before.batched_deliveries, 1u);
}

// Randomized property test, single-threaded deterministic interleave.
//
// One directed channel (0 -> 1, vci 0) under a tiny 4-cell ring so sends
// park constantly; sizes cross all three modes (in-slot, pooled overflow,
// LMT rendezvous above shm_eager_max); receives are a random mix of exact
// and wildcard (any_source / any_tag). Non-overtaking per channel says
// receive #i — posted in order — must match message #i: its status tag,
// byte count, and payload pattern must all be message i's.
TEST(ShmDatapath, RandomizedFifoAcrossParkingWildcardsAndLmtCutover) {
  WorldConfig cfg{.nranks = 2};
  cfg.shm_cells = 4;
  cfg.shm_eager_max = 1024;  // LMT cutover within reach of the size mix
  auto w = World::create(cfg);
  Comm c0 = w->comm_world(0);
  Comm c1 = w->comm_world(1);

  constexpr int kMsgs = 200;
  const std::size_t sizes[] = {0, 8, 200, 256, 257, 600, 1024, 1025, 5000};
  std::mt19937 rng = mpx_test::rank_rng(/*salt=*/0x5470, 0);

  std::vector<std::vector<std::uint8_t>> send_bufs(kMsgs);
  std::vector<std::vector<std::uint8_t>> recv_bufs(kMsgs);
  std::vector<Request> sreqs;
  std::vector<Request> rreqs;
  sreqs.reserve(kMsgs);
  rreqs.reserve(kMsgs);
  int sent = 0;
  int posted = 0;

  while (sent < kMsgs || posted < kMsgs) {
    const int action = static_cast<int>(rng() % 4);
    if (action == 0 && sent < kMsgs) {
      const std::size_t n = sizes[rng() % std::size(sizes)];
      send_bufs[static_cast<std::size_t>(sent)] = pattern(sent, n);
      sreqs.push_back(c0.isend(send_bufs[static_cast<std::size_t>(sent)].data(),
                               n, dtype::Datatype::byte(), 1, sent));
      ++sent;
    } else if (action == 1 && posted < kMsgs) {
      // Receives may be posted ahead of their message or after it parked
      // unexpectedly; wildcards must still match in channel-FIFO order.
      recv_bufs[static_cast<std::size_t>(posted)].assign(8192, 0);
      const int src = (rng() % 2 == 0) ? 0 : any_source;
      const int tag = (rng() % 2 == 0) ? posted : any_tag;
      rreqs.push_back(
          c1.irecv(recv_bufs[static_cast<std::size_t>(posted)].data(), 8192,
                   dtype::Datatype::byte(), src, tag));
      ++posted;
    } else if (action == 2) {
      stream_progress(w->null_stream(0));
    } else {
      stream_progress(w->null_stream(1));
    }
  }

  for (;;) {
    bool all = true;
    for (Request& r : rreqs) all = all && r.is_complete();
    for (Request& r : sreqs) all = all && r.is_complete();
    if (all) break;
    stream_progress(w->null_stream(0));
    stream_progress(w->null_stream(1));
  }

  for (int i = 0; i < kMsgs; ++i) {
    const Status st = rreqs[static_cast<std::size_t>(i)].status();
    EXPECT_EQ(st.source, 0);
    EXPECT_EQ(st.tag, i) << "receive " << i << " matched out of FIFO order";
    const std::size_t n = send_bufs[static_cast<std::size_t>(i)].size();
    ASSERT_EQ(st.count_bytes, n);
    EXPECT_TRUE(n == 0 ||
                std::memcmp(recv_bufs[static_cast<std::size_t>(i)].data(),
                            send_bufs[static_cast<std::size_t>(i)].data(),
                            n) == 0)
        << "payload of message " << i << " corrupted";
  }
  EXPECT_GT(mpx_test::transport_as<shm::ShmTransport>(*w, "shm").stats().ring_full_events, 0u)
      << "size the ring down: the scenario must actually exercise parking";
}

// Two-thread variant: sender and receiver ranks run concurrently, so the
// blocking waits go through the spin -> yield -> sleep backoff ladder while
// parked sends are flushed by the sender's own progress. tsan coverage for
// the ring protocol + backoff interplay.
TEST(ShmDatapath, ThreadedSenderReceiverFifoUnderParking) {
  WorldConfig cfg{.nranks = 2};
  cfg.shm_cells = 4;
  cfg.shm_eager_max = 1024;
  cfg.wait_spin = 8;  // reach the yield/sleep phases quickly
  cfg.wait_yield = 4;
  auto w = World::create(cfg);

  constexpr int kMsgs = 120;
  const std::size_t sizes[] = {8, 256, 600, 2048};

  mpx_test::run_ranks(*w, [&](int rank) {
    std::mt19937 rng = mpx_test::rank_rng(/*salt=*/0x5471, 0);  // shared seq
    if (rank == 0) {
      Comm c = w->comm_world(0);
      std::vector<Request> reqs;
      std::vector<std::vector<std::uint8_t>> bufs(kMsgs);
      for (int i = 0; i < kMsgs; ++i) {
        const std::size_t n = sizes[rng() % std::size(sizes)];
        bufs[static_cast<std::size_t>(i)] = pattern(i, n);
        reqs.push_back(c.isend(bufs[static_cast<std::size_t>(i)].data(), n,
                               dtype::Datatype::byte(), 1, i));
      }
      wait_all(reqs);
    } else {
      Comm c = w->comm_world(1);
      std::vector<std::uint8_t> buf(8192);
      for (int i = 0; i < kMsgs; ++i) {
        const std::size_t n = sizes[rng() % std::size(sizes)];
        std::fill(buf.begin(), buf.end(), 0);
        const Status st = c.recv(buf.data(), buf.size(),
                                 dtype::Datatype::byte(), any_source, any_tag);
        EXPECT_EQ(st.tag, i);  // channel FIFO, even via full wildcards
        ASSERT_EQ(st.count_bytes, n);
        EXPECT_TRUE(std::memcmp(buf.data(), pattern(i, n).data(), n) == 0);
      }
    }
    // The receiver's last rendezvous acks may still be parked behind the
    // full 1 -> 0 ring when its final recv returns; only rank 1's own
    // progress flushes them, so it must keep progressing until quiescent
    // (MPI_Finalize semantics) or the sender's wait_all never completes.
    w->finalize_rank(rank);
  });
}
