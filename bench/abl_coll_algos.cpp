// Ablation: collective algorithm choices the paper's §2.7 motivates letting
// users experiment with — the whole point of interoperable progress is that
// algorithm variants like these can be built and swapped OUTSIDE the
// runtime core. Two classic tradeoffs on the simulated fabric, each
// algorithm forced through ir::Opts:
//
//   bcast:     knomial tree (log P steps of the full payload) vs
//              scatter + ring allgather (log P + P-1 steps of payload/P)
//   allreduce: recursive doubling (log P rounds of full payload) vs
//              ring reduce-scatter+allgather (2(P-1) rounds of payload/P)
//
// Expectation (and the crossover the bench exposes): tree/doubling wins on
// small payloads (latency bound), scatter/ring wins on large ones
// (bandwidth bound).
#include <benchmark/benchmark.h>

#include <numeric>
#include <thread>
#include <vector>

#include "mpx/coll/coll.hpp"
#include "mpx/coll/ir.hpp"
#include "mpx/mpx.hpp"

namespace {

using namespace mpx;

template <class LaunchFn>
double run_collective(World& world, int nranks, int reps, LaunchFn launch) {
  std::vector<std::thread> threads;
  double elapsed = 0.0;
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      Comm comm = world.comm_world(r);
      const Stream s = comm.stream();
      const double t0 = world.wtime();
      for (int rep = 0; rep < reps; ++rep) {
        Request req = launch(comm);
        while (!req.is_complete()) {
          stream_progress(s);
          std::this_thread::yield();
        }
      }
      if (r == 0) elapsed = (world.wtime() - t0) / reps;
      world.finalize_rank(r);
    });
  }
  for (auto& t : threads) t.join();
  return elapsed * 1e6;  // us per op
}

void BM_BcastAlgos(benchmark::State& state) {
  const int nranks = 8;
  const auto elems = static_cast<std::size_t>(state.range(0));
  const bool sag = state.range(1) != 0;
  WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 1;
  std::vector<std::vector<std::int32_t>> bufs(nranks);
  for (auto& b : bufs) b.assign(elems, 1);

  double us = 0;
  for (auto _ : state) {
    auto world = World::create(cfg);
    us = run_collective(*world, nranks, 5, [&](Comm& c) {
      auto* buf = bufs[static_cast<std::size_t>(c.rank())].data();
      return coll::ir::ibcast(
          buf, elems, dtype::Datatype::int32(), 0, c,
          {.algo = sag ? coll::ir::Algo::scatter_ag : coll::ir::Algo::knomial});
    });
  }
  state.counters["us_per_op"] = us;
  state.counters["bytes"] = static_cast<double>(elems * 4);
  state.SetLabel(sag ? "scatter_ag" : "knomial");
}

void BM_AllreduceAlgos(benchmark::State& state) {
  const int nranks = 8;
  const auto elems = static_cast<std::size_t>(state.range(0));
  const bool ring = state.range(1) != 0;
  WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 1;
  std::vector<std::vector<std::int32_t>> in(nranks), out(nranks);
  for (int r = 0; r < nranks; ++r) {
    in[static_cast<std::size_t>(r)].assign(elems, r);
    out[static_cast<std::size_t>(r)].assign(elems, 0);
  }

  double us = 0;
  for (auto _ : state) {
    auto world = World::create(cfg);
    us = run_collective(*world, nranks, 5, [&](Comm& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      return coll::ir::iallreduce(
          in[r].data(), out[r].data(), elems, dtype::Datatype::int32(),
          dtype::ReduceOp::sum, c,
          {.algo = ring ? coll::ir::Algo::ring : coll::ir::Algo::rd});
    });
  }
  state.counters["us_per_op"] = us;
  state.counters["bytes"] = static_cast<double>(elems * 4);
  state.SetLabel(ring ? "ring" : "recursive_doubling");
}

void SizeArgs(benchmark::internal::Benchmark* b) {
  for (int alg : {0, 1}) {
    for (std::int64_t elems : {64, 4096, 262144}) b->Args({elems, alg});
  }
}

}  // namespace

BENCHMARK(BM_BcastAlgos)->Apply(SizeArgs)->Iterations(2)->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AllreduceAlgos)->Apply(SizeArgs)->Iterations(2)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
