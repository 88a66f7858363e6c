// Collective correctness across algorithms, communicator sizes, payload
// sizes, and both transports (parameterized sweeps).
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <vector>

#include "mpx/coll/coll.hpp"
#include "mpx/coll/ir.hpp"
#include "mpx/coll/user_allreduce.hpp"
#include "test_util.hpp"

using namespace mpx;

struct CollParam {
  int nranks;
  int ranks_per_node;  // 1 => NIC path, large => shm path
  std::size_t count;
};

class CollSweep : public ::testing::TestWithParam<CollParam> {
 protected:
  std::shared_ptr<World> make_world() const {
    const CollParam p = GetParam();
    WorldConfig cfg;
    cfg.nranks = p.nranks;
    cfg.ranks_per_node = p.ranks_per_node;
    return World::create(cfg);
  }
};

TEST_P(CollSweep, AllreduceSumMatchesSerial) {
  auto w = make_world();
  const auto p = GetParam();
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::vector<std::int64_t> in(p.count), out(p.count, -1);
    for (std::size_t i = 0; i < p.count; ++i) {
      in[i] = static_cast<std::int64_t>(i) + rank;
    }
    coll::allreduce(in.data(), out.data(), p.count, dtype::Datatype::int64(),
                    dtype::ReduceOp::sum, c);
    const int n = c.size();
    for (std::size_t i = 0; i < p.count; ++i) {
      const auto expect = static_cast<std::int64_t>(i) * n +
                          static_cast<std::int64_t>(n) * (n - 1) / 2;
      ASSERT_EQ(out[i], expect) << "i=" << i;
    }
    w->finalize_rank(rank);
  });
}

TEST_P(CollSweep, BcastFromEveryRoot) {
  auto w = make_world();
  const auto p = GetParam();
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    for (int root = 0; root < c.size(); ++root) {
      std::vector<std::int32_t> buf(p.count, rank == root ? root + 7 : -1);
      coll::bcast(buf.data(), p.count, dtype::Datatype::int32(), root, c);
      for (std::size_t i = 0; i < p.count; ++i) {
        ASSERT_EQ(buf[i], root + 7);
      }
    }
    w->finalize_rank(rank);
  });
}

TEST_P(CollSweep, ReduceToEveryRoot) {
  auto w = make_world();
  const auto p = GetParam();
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int n = c.size();
    for (int root = 0; root < n; ++root) {
      std::vector<std::int32_t> in(p.count, rank + 1);
      std::vector<std::int32_t> out(p.count, 0);
      coll::reduce(in.data(), out.data(), p.count, dtype::Datatype::int32(),
                   dtype::ReduceOp::sum, root, c);
      if (rank == root) {
        for (std::size_t i = 0; i < p.count; ++i) {
          ASSERT_EQ(out[i], n * (n + 1) / 2);
        }
      }
    }
    w->finalize_rank(rank);
  });
}

TEST_P(CollSweep, AllgatherRing) {
  auto w = make_world();
  const auto p = GetParam();
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int n = c.size();
    std::vector<std::int32_t> mine(p.count, rank * 100);
    std::vector<std::int32_t> all(p.count * static_cast<std::size_t>(n), -1);
    coll::allgather(mine.data(), p.count, dtype::Datatype::int32(),
                    all.data(), c);
    for (int r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < p.count; ++i) {
        ASSERT_EQ(all[static_cast<std::size_t>(r) * p.count + i], r * 100);
      }
    }
    w->finalize_rank(rank);
  });
}

TEST_P(CollSweep, Barrier) {
  auto w = make_world();
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    for (int i = 0; i < 5; ++i) coll::barrier(c);
    w->finalize_rank(rank);
  });
}

TEST_P(CollSweep, AlltoallPairwise) {
  auto w = make_world();
  const auto p = GetParam();
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int n = c.size();
    const std::size_t cnt = p.count;
    std::vector<std::int32_t> in(cnt * static_cast<std::size_t>(n));
    std::vector<std::int32_t> out(cnt * static_cast<std::size_t>(n), -1);
    for (int d = 0; d < n; ++d) {
      for (std::size_t i = 0; i < cnt; ++i) {
        in[static_cast<std::size_t>(d) * cnt + i] = rank * 1000 + d;
      }
    }
    coll::alltoall(in.data(), cnt, dtype::Datatype::int32(), out.data(), c);
    for (int s = 0; s < n; ++s) {
      for (std::size_t i = 0; i < cnt; ++i) {
        ASSERT_EQ(out[static_cast<std::size_t>(s) * cnt + i],
                  s * 1000 + rank);
      }
    }
    w->finalize_rank(rank);
  });
}

TEST_P(CollSweep, GatherScatterRoundTrip) {
  auto w = make_world();
  const auto p = GetParam();
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int n = c.size();
    std::vector<std::int32_t> mine(p.count, rank + 1);
    std::vector<std::int32_t> gathered(p.count * static_cast<std::size_t>(n));
    coll::gather(mine.data(), p.count, dtype::Datatype::int32(),
                 gathered.data(), 0, c);
    std::vector<std::int32_t> back(p.count, -1);
    coll::scatter(gathered.data(), p.count, dtype::Datatype::int32(),
                  back.data(), 0, c);
    for (std::size_t i = 0; i < p.count; ++i) ASSERT_EQ(back[i], rank + 1);
    w->finalize_rank(rank);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CollSweep,
    ::testing::Values(CollParam{1, 0, 4}, CollParam{2, 0, 1},
                      CollParam{3, 0, 17}, CollParam{4, 0, 256},
                      CollParam{5, 0, 33}, CollParam{8, 0, 1024},
                      CollParam{2, 1, 64}, CollParam{4, 1, 512},
                      CollParam{6, 2, 100}),
    [](const ::testing::TestParamInfo<CollParam>& info) {
      const auto& p = info.param;
      std::ostringstream name;
      name << "n" << p.nranks << "_rpn" << p.ranks_per_node << "_c"
           << p.count;
      return name.str();
    });

TEST(CollRing, RingAllreduceMatchesRecursiveDoubling) {
  WorldConfig cfg;
  cfg.nranks = 4;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const std::size_t count = 1000;
    std::vector<double> in(count), rd(count), ring(count);
    for (std::size_t i = 0; i < count; ++i) {
      in[i] = static_cast<double>(i) * (rank + 1);
    }
    Request r = coll::ir::iallreduce(in.data(), rd.data(), count,
                                     dtype::Datatype::float64(),
                                     dtype::ReduceOp::sum, c,
                                     {.algo = coll::ir::Algo::rd});
    wait_on_stream(r, c.stream());
    r = coll::ir::iallreduce(in.data(), ring.data(), count,
                             dtype::Datatype::float64(), dtype::ReduceOp::sum,
                             c, {.algo = coll::ir::Algo::ring});
    wait_on_stream(r, c.stream());
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_DOUBLE_EQ(ring[i], rd[i]);
    }
    w->finalize_rank(rank);
  });
}

TEST(CollUser, UserAllreduceMatchesNative) {
  WorldConfig cfg;
  cfg.nranks = 4;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const std::size_t count = 64;
    std::vector<std::int32_t> user(count), native(count);
    for (std::size_t i = 0; i < count; ++i) {
      user[i] = static_cast<std::int32_t>(i) + rank;
      native[i] = user[i];
    }
    ASSERT_EQ(coll::user_allreduce_int_sum(user.data(), count, c),
              Err::success);
    coll::allreduce(coll::in_place, native.data(), count,
                    dtype::Datatype::int32(), dtype::ReduceOp::sum, c);
    for (std::size_t i = 0; i < count; ++i) ASSERT_EQ(user[i], native[i]);
    w->finalize_rank(rank);
  });
}

TEST(CollUser, GeneralizedUserAllreduceMatchesNativeOnNonPow2) {
  WorldConfig cfg;
  cfg.nranks = 6;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const std::size_t count = 33;
    std::vector<std::int64_t> user(count), native(count);
    for (std::size_t i = 0; i < count; ++i) {
      user[i] = static_cast<std::int64_t>(i) * (rank + 1) - 7;
      native[i] = user[i];
    }
    ASSERT_EQ(coll::user_allreduce(user.data(), count,
                                   dtype::Datatype::int64(),
                                   dtype::ReduceOp::max, c),
              Err::success);
    coll::allreduce(coll::in_place, native.data(), count,
                    dtype::Datatype::int64(), dtype::ReduceOp::max, c);
    for (std::size_t i = 0; i < count; ++i) ASSERT_EQ(user[i], native[i]);
    w->finalize_rank(rank);
  });
}

TEST(CollNonblocking, OverlappingCollectives) {
  // Two iallreduces in flight simultaneously on the same comm must not
  // interfere (distinct collective tags).
  WorldConfig cfg;
  cfg.nranks = 4;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::int64_t a_in = rank, a_out = 0;
    std::int64_t b_in = rank * 10, b_out = 0;
    Request ra = coll::iallreduce(&a_in, &a_out, 1, dtype::Datatype::int64(),
                                  dtype::ReduceOp::sum, c);
    Request rb = coll::iallreduce(&b_in, &b_out, 1, dtype::Datatype::int64(),
                                  dtype::ReduceOp::sum, c);
    Request reqs[2] = {ra, rb};
    wait_all(reqs);
    EXPECT_EQ(a_out, 0 + 1 + 2 + 3);
    EXPECT_EQ(b_out, 10 * (0 + 1 + 2 + 3));
    w->finalize_rank(rank);
  });
}

TEST(CollMinMax, MinMaxProdOps) {
  WorldConfig cfg;
  cfg.nranks = 3;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    double v = rank + 1.0;
    double mn = 0, mx = 0, pr = 0;
    coll::allreduce(&v, &mn, 1, dtype::Datatype::float64(),
                    dtype::ReduceOp::min, c);
    coll::allreduce(&v, &mx, 1, dtype::Datatype::float64(),
                    dtype::ReduceOp::max, c);
    coll::allreduce(&v, &pr, 1, dtype::Datatype::float64(),
                    dtype::ReduceOp::prod, c);
    EXPECT_EQ(mn, 1.0);
    EXPECT_EQ(mx, 3.0);
    EXPECT_EQ(pr, 6.0);
    w->finalize_rank(rank);
  });
}
