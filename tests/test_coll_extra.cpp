// Extended collective coverage: exscan, v-variants, stream-comm
// collectives, concurrent collectives across communicators, zero-count
// calls of every kind, and derived (strided) datatypes.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpx/coll/coll.hpp"
#include "mpx/coll/topo.hpp"
#include "test_util.hpp"

using namespace mpx;

TEST(CollVariable, Exscan) {
  auto w = World::create(WorldConfig{.nranks = 5});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::int32_t v = rank + 1;
    std::int32_t out = -999;
    coll::exscan(&v, &out, 1, dtype::Datatype::int32(), dtype::ReduceOp::sum,
                 c);
    if (rank == 0) {
      EXPECT_EQ(out, -999);  // rank 0's recvbuf untouched (MPI semantics)
    } else {
      EXPECT_EQ(out, rank * (rank + 1) / 2);  // sum of 1..rank
    }
    w->finalize_rank(rank);
  });
}

TEST(CollVariable, GathervScattervRoundTrip) {
  auto w = World::create(WorldConfig{.nranks = 4});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int n = c.size();
    // Rank r contributes r+1 elements.
    std::vector<std::size_t> counts, displs;
    std::size_t total = 0;
    for (int r = 0; r < n; ++r) {
      counts.push_back(static_cast<std::size_t>(r) + 1);
      displs.push_back(total);
      total += counts.back();
    }
    std::vector<std::int32_t> mine(counts[static_cast<std::size_t>(rank)],
                                   rank * 10);
    std::vector<std::int32_t> gathered(total, -1);
    coll::gatherv(mine.data(), mine.size(), dtype::Datatype::int32(),
                  gathered.data(), counts, displs, 2, c);
    if (rank == 2) {
      for (int r = 0; r < n; ++r) {
        for (std::size_t i = 0; i < counts[static_cast<std::size_t>(r)]; ++i) {
          ASSERT_EQ(gathered[displs[static_cast<std::size_t>(r)] + i], r * 10);
        }
      }
    }
    // Scatter it back out; every rank must recover its own block.
    std::vector<std::int32_t> back(counts[static_cast<std::size_t>(rank)], -1);
    coll::scatterv(gathered.data(), counts, displs, dtype::Datatype::int32(),
                   back.data(), back.size(), 2, c);
    for (auto x : back) ASSERT_EQ(x, rank * 10);
    w->finalize_rank(rank);
  });
}

TEST(CollVariable, Allgatherv) {
  auto w = World::create(WorldConfig{.nranks = 5});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int n = c.size();
    std::vector<std::size_t> counts, displs;
    std::size_t total = 0;
    for (int r = 0; r < n; ++r) {
      counts.push_back(static_cast<std::size_t>(2 * r + 1));
      displs.push_back(total);
      total += counts.back();
    }
    std::vector<std::int64_t> mine(counts[static_cast<std::size_t>(rank)],
                                   100 + rank);
    std::vector<std::int64_t> all(total, -1);
    coll::allgatherv(mine.data(), mine.size(), dtype::Datatype::int64(),
                     all.data(), counts, displs, c);
    for (int r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < counts[static_cast<std::size_t>(r)]; ++i) {
        ASSERT_EQ(all[displs[static_cast<std::size_t>(r)] + i], 100 + r);
      }
    }
    w->finalize_rank(rank);
  });
}

TEST(CollStream, CollectivesOnStreamCommunicator) {
  // Collectives on a stream communicator run entirely on the streams' VCIs;
  // the default stream stays quiet.
  auto w = World::create(WorldConfig{.nranks = 3});
  mpx_test::run_ranks(*w, [&](int rank) {
    Stream s = w->stream_create(rank);
    Comm sc = w->comm_world(rank).with_stream(s);
    const auto vci0_calls_before = w->vci_progress_calls(rank, 0);

    std::int64_t v = rank + 1, sum = 0;
    coll::allreduce(&v, &sum, 1, dtype::Datatype::int64(),
                    dtype::ReduceOp::sum, sc);
    EXPECT_EQ(sum, 6);
    std::int32_t b = rank == 0 ? 55 : 0;
    coll::bcast(&b, 1, dtype::Datatype::int32(), 0, sc);
    EXPECT_EQ(b, 55);

    EXPECT_EQ(w->vci_progress_calls(rank, 0), vci0_calls_before);
    w->finalize_rank(rank);
  });
}

TEST(CollStream, ConcurrentCollectivesOnSplitComms) {
  // Disjoint split communicators run collectives concurrently without
  // interference (distinct collective contexts).
  auto w = World::create(WorldConfig{.nranks = 6});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    Comm sub = c.split(rank % 2, rank);
    std::int64_t v = rank, sum = -1;
    coll::allreduce(&v, &sum, 1, dtype::Datatype::int64(),
                    dtype::ReduceOp::sum, sub);
    const std::int64_t expect = rank % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5;
    EXPECT_EQ(sum, expect);
    // A world-comm barrier still works across the split.
    coll::barrier(c);
    w->finalize_rank(rank);
  });
}

TEST(CollEdge, SingleRankCollectivesAreLocal) {
  auto w = World::create(WorldConfig{.nranks = 1});
  Comm c = w->comm_world(0);
  std::int32_t v = 7, out = 0;
  coll::allreduce(&v, &out, 1, dtype::Datatype::int32(),
                  dtype::ReduceOp::sum, c);
  EXPECT_EQ(out, 7);
  coll::bcast(&v, 1, dtype::Datatype::int32(), 0, c);
  coll::barrier(c);
  std::int32_t scanout = 0;
  coll::scan(&v, &scanout, 1, dtype::Datatype::int32(),
             dtype::ReduceOp::sum, c);
  EXPECT_EQ(scanout, 7);
  w->finalize_rank(0);
}

TEST(CollEdge, ZeroCountCollectives) {
  // Every kind with a zero count and null buffers: the schedules still run
  // (zero-byte messages keep the ranks in step) and touch no memory.
  auto w = World::create(WorldConfig{.nranks = 3});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const auto i32 = dtype::Datatype::int32();
    const auto sum = dtype::ReduceOp::sum;
    const std::vector<std::size_t> none(3, 0);
    coll::allreduce(nullptr, nullptr, 0, i32, sum, c);
    coll::bcast(nullptr, 0, i32, 1, c);
    coll::reduce(nullptr, nullptr, 0, i32, sum, 2, c);
    coll::allgather(nullptr, 0, i32, nullptr, c);
    coll::gather(nullptr, 0, i32, nullptr, 1, c);
    coll::scatter(nullptr, 0, i32, nullptr, 2, c);
    coll::alltoall(nullptr, 0, i32, nullptr, c);
    coll::reduce_scatter_block(nullptr, nullptr, 0, i32, sum, c);
    coll::scan(nullptr, nullptr, 0, i32, sum, c);
    coll::exscan(nullptr, nullptr, 0, i32, sum, c);
    coll::gatherv(nullptr, 0, i32, nullptr, none, none, 0, c);
    coll::scatterv(nullptr, none, none, i32, nullptr, 0, 1, c);
    coll::allgatherv(nullptr, 0, i32, nullptr, none, none, c);
    const int dims[] = {3};
    const int periodic[] = {1};
    const coll::Cart cart = coll::Cart::create(c, dims, periodic);
    coll::neighbor_allgather(nullptr, 0, i32, nullptr, cart);
    coll::neighbor_alltoall(nullptr, 0, i32, nullptr, cart);
    Request pb = coll::bcast_init(nullptr, 0, i32, 0, c);
    Request pa = coll::allreduce_init(nullptr, nullptr, 0, i32, sum, c);
    for (Request* p : {&pb, &pa}) {
      start(*p);
      wait_on_stream(*p, c.stream());
    }
    coll::barrier(c);
    w->finalize_rank(rank);
  });
}

// ---- derived datatypes ------------------------------------------------------

namespace {

/// Two int32 with a one-int gap: size 8 B, extent 12 B, so element e of a
/// buffer starts at int 3e and int 3e+1 is a gap no collective may touch.
dtype::Datatype strided_pair() {
  return dtype::Datatype::vector(2, 1, 2, dtype::Datatype::int32());
}
constexpr std::size_t kInts = 3;  // ints per strided_pair element
constexpr std::int32_t kGap = -1;

/// `n` elements whose element e carries (tag + 2e, tag + 2e + 1).
std::vector<std::int32_t> strided(std::size_t n, std::int32_t tag) {
  std::vector<std::int32_t> v(n * kInts, kGap);
  for (std::size_t e = 0; e < n; ++e) {
    v[e * kInts] = tag + static_cast<std::int32_t>(2 * e);
    v[e * kInts + 2] = tag + static_cast<std::int32_t>(2 * e + 1);
  }
  return v;
}

/// The `n` elements at element `at` of `got` carry `tag`, gaps untouched.
void expect_strided(const std::vector<std::int32_t>& got, std::size_t at,
                    std::size_t n, std::int32_t tag, const char* what) {
  const std::vector<std::int32_t> want = strided(n, tag);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[at * kInts + i], want[i])
        << what << ": int " << at * kInts + i;
  }
}

std::int32_t tag_of(int src, int dst) { return 1000 * src + 100 * dst + 1; }

}  // namespace

TEST(CollDatatype, StridedTypeDataMovementKinds) {
  for (const int nranks : {2, 3}) {
    auto w = World::create(WorldConfig{.nranks = nranks});
    mpx_test::run_ranks(*w, [&](int rank) {
      Comm c = w->comm_world(rank);
      const auto dt = strided_pair();
      const std::size_t n = 2;  // elements per rank
      const auto P = static_cast<std::size_t>(nranks);
      const std::vector<std::int32_t> mine = strided(n, tag_of(rank, 0));

      std::vector<std::int32_t> all(P * n * kInts, kGap);
      coll::allgather(mine.data(), n, dt, all.data(), c);
      for (int s = 0; s < nranks; ++s) {
        expect_strided(all, static_cast<std::size_t>(s) * n, n, tag_of(s, 0),
                       "allgather");
      }

      std::vector<std::int32_t> out(P * n * kInts, kGap);
      for (int d = 0; d < nranks; ++d) {
        const auto blk = strided(n, tag_of(rank, d));
        std::copy(blk.begin(), blk.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(
                                    static_cast<std::size_t>(d) * n * kInts));
      }
      std::vector<std::int32_t> a2a(P * n * kInts, kGap);
      coll::alltoall(out.data(), n, dt, a2a.data(), c);
      for (int s = 0; s < nranks; ++s) {
        expect_strided(a2a, static_cast<std::size_t>(s) * n, n,
                       tag_of(s, rank), "alltoall");
      }

      const int root = nranks - 1;
      std::vector<std::int32_t> gathered(P * n * kInts, kGap);
      coll::gather(mine.data(), n, dt, gathered.data(), root, c);
      if (rank == root) {
        for (int s = 0; s < nranks; ++s) {
          expect_strided(gathered, static_cast<std::size_t>(s) * n, n,
                         tag_of(s, 0), "gather");
        }
      }

      // The root scatters block d = what rank `root` addressed to d.
      std::vector<std::int32_t> back(n * kInts, kGap);
      coll::scatter(out.data(), n, dt, back.data(), root, c);
      expect_strided(back, 0, n, tag_of(root, rank), "scatter");

      // allgatherv: rank r contributes r+1 elements, one gap element
      // between blocks stays untouched.
      std::vector<std::size_t> counts, displs;
      std::size_t total = 0;
      for (std::size_t r = 0; r < P; ++r) {
        counts.push_back(r + 1);
        displs.push_back(total);
        total += r + 2;
      }
      const auto cnt = counts[static_cast<std::size_t>(rank)];
      const std::vector<std::int32_t> vmine = strided(cnt, tag_of(rank, 7));
      std::vector<std::int32_t> vall(total * kInts, kGap);
      coll::allgatherv(vmine.data(), cnt, dt, vall.data(), counts, displs, c);
      for (std::size_t s = 0; s < P; ++s) {
        expect_strided(vall, displs[s], counts[s],
                       tag_of(static_cast<int>(s), 7), "allgatherv");
        for (std::size_t i = 0; i < kInts; ++i) {
          ASSERT_EQ(vall[(displs[s] + counts[s]) * kInts + i], kGap)
              << "allgatherv wrote the gap element after block " << s;
        }
      }
      w->finalize_rank(rank);
    });
  }
}

TEST(CollDatatype, SameSizeDifferentStrideBcastsBackToBack) {
  // Two vector types with one size (8 B) and leaf (int32) but different
  // strides (extent 12 B vs 16 B): a schedule shared between them would
  // address the second bcast with the first type's layout.
  auto w = World::create(WorldConfig{.nranks = 3});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const std::size_t n = 3;
    for (const int stride : {2, 3}) {
      const auto dt =
          dtype::Datatype::vector(2, 1, stride, dtype::Datatype::int32());
      const auto ints = static_cast<std::size_t>(stride + 1);
      std::vector<std::int32_t> buf(n * ints, kGap);
      for (std::size_t e = 0; rank == 1 && e < n; ++e) {
        buf[e * ints] = static_cast<std::int32_t>(10 * e + 1);
        buf[e * ints + ints - 1] = static_cast<std::int32_t>(10 * e + 2);
      }
      coll::bcast(buf.data(), n, dt, 1, c);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        const std::size_t e = i / ints, k = i % ints;
        const std::int32_t want =
            k == 0 ? static_cast<std::int32_t>(10 * e + 1)
            : k == ints - 1 ? static_cast<std::int32_t>(10 * e + 2)
                            : kGap;
        ASSERT_EQ(buf[i], want) << "stride " << stride << " int " << i;
      }
    }
    w->finalize_rank(rank);
  });
}

TEST(CollPersistent, BarrierAndAllreduceCycles) {
  auto w = World::create(WorldConfig{.nranks = 4});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::int64_t in = 0, out = 0;
    Request pbar = coll::barrier_init(c);
    Request pall = coll::allreduce_init(&in, &out, 1,
                                        dtype::Datatype::int64(),
                                        dtype::ReduceOp::sum, c);
    EXPECT_TRUE(pbar.is_complete());  // born inactive
    for (int cycle = 0; cycle < 5; ++cycle) {
      in = rank * 10 + cycle;
      start(pall);
      pall.wait();
      EXPECT_EQ(out, (0 + 10 + 20 + 30) + 4 * cycle);
      start(pbar);
      pbar.wait();
    }
    w->finalize_rank(rank);
  });
}

TEST(CollPersistent, BcastCycles) {
  auto w = World::create(WorldConfig{.nranks = 3});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::int32_t buf = -1;
    Request pb = coll::bcast_init(&buf, 1, dtype::Datatype::int32(), 1, c);
    for (int cycle = 0; cycle < 4; ++cycle) {
      if (rank == 1) buf = cycle * 7;
      start(pb);
      pb.wait();
      EXPECT_EQ(buf, cycle * 7);
      coll::barrier(c);  // keep cycles in lock-step across members
    }
    w->finalize_rank(rank);
  });
}
