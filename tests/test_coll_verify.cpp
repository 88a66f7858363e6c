// The cross-rank schedule verifier (mpx::coll::ir::verify): compiled
// shapes across algorithms and rank counts verify clean; each seeded
// mutation (swapped tag, dropped hazard edge, truncated operand, reordered
// reduce) is rejected with a counterexample trace; a hand-built
// head-to-head exchange is proven deadlocked with the cycle replayed step
// by step; randomized user-built schedules verify AND execute while their
// mutants are rejected before the executor would ever see them; and the
// MPX_COLL_VERIFY runtime gate routes rejection to Err::invalid_schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include "mpx/coll/coll.hpp"
#include "mpx/coll/ir.hpp"
#include "mpx/coll/ir_verify.hpp"
#include "mpx/coll/topo.hpp"
#include "mpx/coll/user_allreduce.hpp"
#include "test_util.hpp"

using namespace mpx;
namespace ir = mpx::coll::ir;
namespace verify = ir::verify;

namespace {

/// Compile all N per-rank schedules of one point, mirroring the runtime's
/// in-place conventions (bcast recv-space only; reduce in place at root).
std::vector<ir::SchedPtr> compile_ranks(ir::CollKind kind, ir::Algo algo,
                                        std::size_t count, int size,
                                        int root) {
  const net::CostModel net{};
  if (kind == ir::CollKind::barrier) count = 0;  // barriers carry no data
  std::vector<ir::SchedPtr> out;
  for (int r = 0; r < size; ++r) {
    const bool inp = kind == ir::CollKind::bcast ||
                     (kind == ir::CollKind::reduce && r == root);
    out.push_back(ir::compile(kind, count, dtype::Datatype::int32(),
                              dtype::ReduceOp::sum, inp, root, r, size, net,
                              algo));
  }
  return out;
}

bool has_check(const verify::Report& rep, verify::Check c) {
  for (const auto& d : rep.diags) {
    if (d.check == c) return true;
  }
  return false;
}

}  // namespace

// ---- clean compiled shapes --------------------------------------------------

// Spot checks across every algorithm and awkward rank counts; the
// exhaustive sweep lives in tools/sched_verify.
TEST(CollVerify, CompiledShapesVerifyClean) {
  struct Shape {
    ir::CollKind kind;
    ir::Algo algo;
  };
  const Shape shapes[] = {
      {ir::CollKind::allreduce, ir::Algo::rd},
      {ir::CollKind::allreduce, ir::Algo::ring},
      {ir::CollKind::allreduce, ir::Algo::rsag},
      {ir::CollKind::bcast, ir::Algo::knomial},
      {ir::CollKind::bcast, ir::Algo::scatter_ag},
      {ir::CollKind::reduce, ir::Algo::knomial},
      {ir::CollKind::barrier, ir::Algo::dissemination},
      {ir::CollKind::allgather, ir::Algo::ring},
      {ir::CollKind::alltoall, ir::Algo::linear},
      {ir::CollKind::gather, ir::Algo::linear},
      {ir::CollKind::scatter, ir::Algo::linear},
      {ir::CollKind::reduce_scatter_block, ir::Algo::ring},
      {ir::CollKind::scan, ir::Algo::chain},
      {ir::CollKind::exscan, ir::Algo::chain},
  };
  for (const Shape& sh : shapes) {
    for (const int size : {2, 3, 5, 8, 13, 17}) {
      for (const std::size_t count : {1ul, 4096ul}) {
        const auto ranks =
            compile_ranks(sh.kind, sh.algo, count, size, size / 2);
        const verify::Report rep = verify::verify_ranks(ranks);
        EXPECT_TRUE(rep.ok())
            << "P=" << size << " count=" << count << "\n"
            << rep.to_string();
        EXPECT_EQ(rep.ranks, size);
        EXPECT_GT(rep.counts_probed, 0u);
        EXPECT_GT(rep.pairs, 0u);
      }
    }
  }
}

namespace {

/// Every rank's v-variant schedule for a layout where every third rank
/// contributes nothing and blocks sit one element apart.
std::vector<ir::SchedPtr> compile_v_ranks(ir::CollKind kind, std::size_t n,
                                          int size, int root) {
  std::vector<std::size_t> counts, displs;
  for (std::size_t r = 0, d = 0; r < static_cast<std::size_t>(size); ++r) {
    counts.push_back(n * (r % 3));
    displs.push_back(d + r);
    d += counts.back();
  }
  std::vector<ir::SchedPtr> out;
  for (int r = 0; r < size; ++r) {
    out.push_back(ir::compile_v(kind, counts, displs,
                                counts[static_cast<std::size_t>(r)],
                                dtype::Datatype::int32(), false, root, r,
                                size));
  }
  return out;
}

/// Every rank's neighborhood schedule over a real Cartesian topology.
std::vector<ir::SchedPtr> compile_neighbor_ranks(
    ir::CollKind kind, std::size_t count, const std::vector<int>& dims,
    const std::vector<int>& periodic) {
  int size = 1;
  for (const int d : dims) size *= d;
  auto w = World::create(WorldConfig{.nranks = size});
  std::vector<ir::SchedPtr> out;
  for (int r = 0; r < size; ++r) {
    const auto nbrs =
        coll::Cart::create(w->comm_world(r), dims, periodic).neighbors();
    out.push_back(ir::compile_neighbor(kind, count, dtype::Datatype::int32(),
                                       nbrs, r, size));
  }
  return out;
}

}  // namespace

// The per-call kinds: v-variants over uneven layouts with empty blocks,
// neighborhood collectives over open, periodic and degenerate grids (a
// size-2 ring lists one peer twice; a periodic dimension of 1 makes every
// rank its own neighbor).
TEST(CollVerify, PerCallShapesVerifyClean) {
  for (const ir::CollKind k : {ir::CollKind::gatherv, ir::CollKind::scatterv,
                               ir::CollKind::allgatherv}) {
    for (const int size : {2, 3, 5, 8}) {
      const auto ranks = compile_v_ranks(k, 7, size, size - 1);
      const verify::Report rep = verify::verify_ranks(ranks);
      EXPECT_TRUE(rep.ok()) << ir::to_string(k) << " P=" << size << "\n"
                            << rep.to_string();
    }
  }
  struct Grid {
    std::vector<int> dims, periodic;
  };
  const Grid grids[] = {{{2}, {1}}, {{5}, {0}}, {{2, 3}, {1, 1}},
                        {{3, 1}, {0, 1}}, {{2, 2}, {1, 0}}};
  for (const ir::CollKind k : {ir::CollKind::neighbor_allgather,
                               ir::CollKind::neighbor_alltoall}) {
    for (const Grid& g : grids) {
      const auto ranks = compile_neighbor_ranks(k, 16, g.dims, g.periodic);
      const verify::Report rep = verify::verify_ranks(ranks);
      EXPECT_TRUE(rep.ok()) << ir::to_string(k) << " ndims=" << g.dims.size()
                            << "\n" << rep.to_string();
    }
  }
}

// ---- seeded mutations -------------------------------------------------------

namespace {

/// Mutate one rank's clone with a named fault and return the report.
verify::Report mutated_report(std::vector<ir::SchedPtr> ranks, int victim,
                              const char* fault) {
  auto mut = verify::clone(*ranks[static_cast<std::size_t>(victim)]);
  EXPECT_TRUE(verify::inject_fault(*mut, fault)) << fault;
  ranks[static_cast<std::size_t>(victim)] = std::move(mut);
  return verify::verify_ranks(ranks);
}

}  // namespace

TEST(CollVerifyMutation, SwappedTagCaughtWithCounterexample) {
  const auto ranks =
      compile_ranks(ir::CollKind::allreduce, ir::Algo::rd, 4096, 8, 0);
  const verify::Report rep = mutated_report(ranks, 3, "swap_tag");
  ASSERT_FALSE(rep.ok());
  // The retagged send leaves both the old and the new channel unbalanced.
  EXPECT_TRUE(has_check(rep, verify::Check::matching)) << rep.to_string();
  EXPECT_FALSE(rep.diags[0].trace.empty());
  EXPECT_FALSE(rep.diags[0].trace[0].desc.empty());
}

TEST(CollVerifyMutation, DroppedHazardEdgeCaughtWithCounterexample) {
  const auto ranks =
      compile_ranks(ir::CollKind::allreduce, ir::Algo::ring, 4096, 5, 0);
  const verify::Report rep = mutated_report(ranks, 2, "drop_edge");
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(has_check(rep, verify::Check::hazard)) << rep.to_string();
  // The counterexample names both racing nodes.
  for (const auto& d : rep.diags) {
    if (d.check == verify::Check::hazard) {
      ASSERT_EQ(d.trace.size(), 2u);
      EXPECT_EQ(d.trace[0].rank, 2);
      EXPECT_EQ(d.trace[1].rank, 2);
    }
  }
}

TEST(CollVerifyMutation, TruncatedPartCaughtWithCounterexample) {
  const auto ranks =
      compile_ranks(ir::CollKind::allreduce, ir::Algo::ring, 4096, 6, 0);
  const verify::Report rep = mutated_report(ranks, 1, "truncate_part");
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(has_check(rep, verify::Check::matching)) << rep.to_string();
  // The trace pairs the shrunken send with its (now larger) receive.
  bool found = false;
  for (const auto& d : rep.diags) {
    if (d.check == verify::Check::matching && d.trace.size() == 2) {
      found = true;
      EXPECT_NE(d.message.find("byte"), std::string::npos);
    }
  }
  EXPECT_TRUE(found) << rep.to_string();
}

TEST(CollVerifyMutation, ReorderedReduceCaughtWithCounterexample) {
  const auto ranks =
      compile_ranks(ir::CollKind::reduce, ir::Algo::knomial, 4096, 5, 0);
  const verify::Report rep = mutated_report(ranks, 0, "reorder_reduce");
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(has_check(rep, verify::Check::reduce_order))
      << rep.to_string();
}

// Every seeded fault with a site in one of the newly compiled kinds is
// rejected with a counterexample trace.
TEST(CollVerifyMutation, EveryKindsMutantsCaught) {
  std::vector<std::pair<const char*, std::vector<ir::SchedPtr>>> points;
  const std::pair<ir::CollKind, ir::Algo> compiled[] = {
      {ir::CollKind::barrier, ir::Algo::dissemination},
      {ir::CollKind::allgather, ir::Algo::ring},
      {ir::CollKind::alltoall, ir::Algo::linear},
      {ir::CollKind::gather, ir::Algo::linear},
      {ir::CollKind::scatter, ir::Algo::linear},
      {ir::CollKind::reduce_scatter_block, ir::Algo::ring},
      {ir::CollKind::scan, ir::Algo::chain},
      {ir::CollKind::exscan, ir::Algo::chain},
  };
  for (const auto& [k, a] : compiled) {
    points.push_back({ir::to_string(k), compile_ranks(k, a, 4096, 5, 2)});
  }
  for (const ir::CollKind k : {ir::CollKind::gatherv, ir::CollKind::scatterv,
                               ir::CollKind::allgatherv}) {
    points.push_back({ir::to_string(k), compile_v_ranks(k, 64, 5, 2)});
  }
  for (const ir::CollKind k : {ir::CollKind::neighbor_allgather,
                               ir::CollKind::neighbor_alltoall}) {
    points.push_back(
        {ir::to_string(k), compile_neighbor_ranks(k, 64, {2, 3}, {1, 0})});
  }
  for (const auto& [name, ranks] : points) {
    ASSERT_TRUE(verify::verify_ranks(ranks).ok()) << name;
    int applied = 0;
    // Rank 2 is the root of the rooted kinds, rank 1 a non-root; between
    // them every kind has a sender.
    for (const std::size_t victim : {1u, 2u}) {
      for (const char* fault :
           {"swap_tag", "drop_edge", "truncate_part", "reorder_reduce"}) {
        auto mut = verify::clone(*ranks[victim]);
        if (!verify::inject_fault(*mut, fault)) continue;
        ++applied;
        auto mranks = ranks;
        mranks[victim] = std::move(mut);
        const verify::Report rep = verify::verify_ranks(mranks);
        ASSERT_FALSE(rep.ok()) << name << " fault=" << fault;
        EXPECT_FALSE(rep.diags[0].trace.empty())
            << name << " fault=" << fault;
      }
    }
    EXPECT_GE(applied, 2) << name;
  }
}

TEST(CollVerifyMutation, TagWindowReuseCaughtLocally) {
  // Two unordered sends of disjoint halves to the same peer get distinct
  // tags from the Builder; force them onto one tag and the FIFO channel
  // becomes ambiguous.
  ir::Builder b(ir::CollKind::bcast, dtype::Datatype::int32(),
                dtype::ReduceOp::sum, /*in_place=*/false, 0, 2);
  b.send(ir::send_buf(ir::block(2, 0)), 1);
  b.send(ir::send_buf(ir::block(2, 1)), 1);
  auto mut = verify::clone(*b.finish(ir::Algo::ring, 0, 64));
  EXPECT_TRUE(verify::verify_local(*mut).ok());
  mut->nodes[1].tag_off = mut->nodes[0].tag_off;
  const verify::Report rep = verify::verify_local(*mut);
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(has_check(rep, verify::Check::tag_window)) << rep.to_string();
  EXPECT_EQ(rep.diags[0].trace.size(), 2u);
}

// ---- deadlock detection -----------------------------------------------------

// The classic head-to-head exchange: both ranks send, then (strictly
// after) receive. Under rendezvous semantics neither send can complete
// until the peer posts its receive, which is ordered after its own send —
// a wait-for cycle spanning both ranks, replayed in the trace.
TEST(CollVerifyDeadlock, HeadToHeadExchangeProvenDeadlocked) {
  std::vector<ir::SchedPtr> ranks;
  for (int r = 0; r < 2; ++r) {
    ir::Builder b(ir::CollKind::bcast, dtype::Datatype::int32(),
                  dtype::ReduceOp::sum, /*in_place=*/false, r, 2);
    b.send(ir::send_buf(ir::full()), 1 - r);
    b.fn([](const ir::ExecView&) {});  // whole-memory barrier: recv waits
    b.recv(ir::recv_buf(ir::full()), 1 - r);
    ranks.push_back(b.finish(ir::Algo::ring, 0, 64));
  }
  const verify::Report rep = verify::verify_ranks(ranks);
  ASSERT_FALSE(rep.ok());
  ASSERT_TRUE(has_check(rep, verify::Check::acyclic)) << rep.to_string();
  for (const auto& d : rep.diags) {
    if (d.check != verify::Check::acyclic) continue;
    // The cycle must visit both ranks and name concrete nodes.
    bool r0 = false, r1 = false;
    for (const auto& st : d.trace) {
      r0 |= st.rank == 0;
      r1 |= st.rank == 1;
      EXPECT_FALSE(st.desc.empty());
    }
    EXPECT_TRUE(r0 && r1);
    EXPECT_GE(d.trace.size(), 4u);
  }
}

// Same shape with the safe ordering (receive posted before the send is
// required to complete — here: unordered, so both post eagerly) is clean.
TEST(CollVerifyDeadlock, UnorderedExchangeIsClean) {
  std::vector<ir::SchedPtr> ranks;
  for (int r = 0; r < 2; ++r) {
    ir::Builder b(ir::CollKind::bcast, dtype::Datatype::int32(),
                  dtype::ReduceOp::sum, /*in_place=*/false, r, 2);
    b.send(ir::send_buf(ir::full()), 1 - r);
    b.recv(ir::recv_buf(ir::full()), 1 - r);
    ranks.push_back(b.finish(ir::Algo::ring, 0, 64));
  }
  const verify::Report rep = verify::verify_ranks(ranks);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

// ---- Builder::verify() ------------------------------------------------------

TEST(CollVerifyBuilder, VerifyRunsWithoutConsumingTheBuilder) {
  ir::Builder b(ir::CollKind::bcast, dtype::Datatype::int32(),
                dtype::ReduceOp::sum, /*in_place=*/false, 0, 4);
  b.send(ir::send_buf(ir::full()), 1);
  b.recv(ir::recv_buf(ir::full()), 3);
  const verify::Report rep = b.verify();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(rep.ranks, 1);
  EXPECT_EQ(rep.nodes, 2u);
  // Still usable: finish() after verify() yields the same schedule.
  ir::SchedPtr s = b.finish(ir::Algo::ring, 0, 64);
  EXPECT_EQ(s->nodes.size(), 2u);
}

// ---- fuzz property: random valid schedules verify AND execute ---------------

// Random multi-round neighbor rotations: each round every rank sends its
// send buffer to (rank + offset) and receives the full vector from
// (rank - offset). Valid by construction (every send has exactly one
// matching receive, rounds serialize through the recv-buffer WAW hazard),
// so the verifier must pass them and the executor must produce the last
// round's rotation; their mutants must be rejected by verify alone,
// before anything executes.
TEST(CollVerifyFuzz, RandomRotationsVerifyExecuteAndMutantsAreRejected) {
  constexpr int kRanks = 4;
  constexpr std::size_t kCount = 32;
  WorldConfig cfg;
  cfg.nranks = kRanks;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      // Every rank derives the same round plan (same seed).
      std::mt19937 rng{static_cast<std::mt19937::result_type>(977 + seed)};
      const int rounds = 1 + static_cast<int>(rng() % 4);
      std::vector<int> offs;
      for (int k = 0; k < rounds; ++k) {
        offs.push_back(1 + static_cast<int>(rng() % (kRanks - 1)));
      }
      ir::Builder b(ir::CollKind::bcast, dtype::Datatype::int32(),
                    dtype::ReduceOp::sum, /*in_place=*/false, rank, kRanks);
      for (const int o : offs) {
        b.send(ir::send_buf(ir::full()), (rank + o) % kRanks);
        b.recv(ir::recv_buf(ir::full()), (rank + kRanks - o) % kRanks);
      }
      EXPECT_TRUE(b.verify().ok());
      ir::SchedPtr s = b.finish(ir::Algo::ring, 0, kCount);

      // Cross-rank verification needs every rank's schedule; rebuild the
      // peers locally (the plan is deterministic in the seed).
      std::vector<ir::SchedPtr> all(kRanks);
      for (int r = 0; r < kRanks; ++r) {
        ir::Builder pb(ir::CollKind::bcast, dtype::Datatype::int32(),
                       dtype::ReduceOp::sum, false, r, kRanks);
        for (const int o : offs) {
          pb.send(ir::send_buf(ir::full()), (r + o) % kRanks);
          pb.recv(ir::recv_buf(ir::full()), (r + kRanks - o) % kRanks);
        }
        all[static_cast<std::size_t>(r)] = pb.finish(ir::Algo::ring, 0,
                                                     kCount);
      }
      const verify::Report rep = verify::verify_ranks(all);
      ASSERT_TRUE(rep.ok()) << "seed=" << seed << "\n" << rep.to_string();

      // Mutants of a valid schedule must die in verify, not in the
      // executor (only rank 0 bothers; the check is rank-local).
      if (rank == 0) {
        for (const char* fault : {"swap_tag", "truncate_part"}) {
          auto mut = verify::clone(*all[0]);
          ASSERT_TRUE(verify::inject_fault(*mut, fault));
          auto mranks = all;
          mranks[0] = std::move(mut);
          EXPECT_FALSE(verify::verify_ranks(mranks).ok())
              << "seed=" << seed << " fault=" << fault;
        }
      }

      // The clean schedule executes: after the last round the receive
      // buffer holds the last sender's vector.
      std::vector<std::int32_t> in(kCount), out(kCount, -1);
      for (std::size_t i = 0; i < kCount; ++i) {
        in[i] = static_cast<std::int32_t>(rank * 1000 + i);
      }
      Request req = ir::launch(s, in.data(), out.data(), kCount, c);
      wait_on_stream(req, c.stream());
      const int last_src = (rank + kRanks - offs.back()) % kRanks;
      for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(out[i], last_src * 1000 + static_cast<std::int32_t>(i))
            << "seed=" << seed << " i=" << i;
      }
      coll::barrier(c);
    }
    w->finalize_rank(rank);
  });
}

// ---- the MPX_COLL_VERIFY runtime gate ---------------------------------------

TEST(CollVerifyGate, CleanSchedulesPassAndFaultedOnesReportInvalidSchedule) {
  ::setenv("MPX_COLL_VERIFY", "1", 1);
  {
    WorldConfig cfg;
    cfg.nranks = 3;  // non-pow2: the generalized compiled path
    auto w = World::create(cfg);
    mpx_test::run_ranks(*w, [&](int rank) {
      Comm c = w->comm_world(rank);
      std::vector<std::int32_t> buf(64, rank + 1);
      ASSERT_EQ(coll::user_allreduce(buf.data(), buf.size(),
                                     dtype::Datatype::int32(),
                                     dtype::ReduceOp::sum, c),
                Err::success);
      for (const std::int32_t v : buf) ASSERT_EQ(v, 1 + 2 + 3);
      w->finalize_rank(rank);
    });
  }
  // A faulted compilation must be rejected BEFORE caching or launching:
  // every rank reports Err::invalid_schedule and no one hangs.
  ::setenv("MPX_COLL_VERIFY_FAULT", "truncate_part", 1);
  {
    WorldConfig cfg;
    cfg.nranks = 3;
    auto w = World::create(cfg);
    mpx_test::run_ranks(*w, [&](int rank) {
      Comm c = w->comm_world(rank);
      std::vector<std::int32_t> buf(4096, rank + 1);
      ASSERT_EQ(coll::user_allreduce(buf.data(), buf.size(),
                                     dtype::Datatype::int32(),
                                     dtype::ReduceOp::sum, c),
                Err::invalid_schedule);
      w->finalize_rank(rank);
    });
  }
  ::unsetenv("MPX_COLL_VERIFY_FAULT");
  ::unsetenv("MPX_COLL_VERIFY");
}
