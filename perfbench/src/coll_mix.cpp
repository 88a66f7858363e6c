// coll_mix: 4 ranks on 2 simulated nodes of 2 (shm inside a node, the
// simulated NIC between nodes) running a seeded mix of blocking collectives
// (i* call + Request::wait), every result checked against a closed form.
//
// The schedule-compiler kinds (allreduce on int32 and double, contiguous
// bcast) draw their counts inside a few fixed size classes so that every
// shape fits the per-communicator schedule cache at its default capacity:
// the timed phase measures the cached path and set-up pays each first
// compile. The legacy-engine kinds (barrier, allgather, alltoall, and a
// bcast of a strided vector datatype, which adds dtype pack/unpack) draw
// theirs from their whole range. The library rejects reductions on
// noncontiguous datatypes, so the noncontiguous member of the mix is a
// bcast.
#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "counters.hpp"
#include "mpx/coll/coll.hpp"
#include "workload.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 4;
constexpr int kRanksPerNode = 2;
constexpr std::size_t kOps = 1 << 16;       // seeded operations, cycled
constexpr std::size_t kPat = 1 << 16;       // pattern elements per rank
constexpr std::size_t kMaxCount = 1 << 14;  // allreduce / bcast elements
constexpr std::size_t kMaxBlock = 1 << 12;  // allgather / alltoall per-rank block
constexpr std::size_t kMaxVec = 1 << 13;    // strided bcast blocks
constexpr std::size_t kBufInts = 1 << 14;
constexpr std::int32_t kPoison = 0x5a5a5a5a;
/// Longest run of bcasts (which need no data from rank 0 unless it is the
/// root) before a synchronising collective is forced; keeps every rank
/// within StopLine::kMargin operations of rank 0.
constexpr int kMaxUnsyncedRun = 15;

enum class K : std::uint8_t { allreduce_i32, allreduce_f64, bcast, bcast_vec, barrier, allgather, alltoall };
constexpr int kNumK = 7;
/// Index into kCollKinds for each K.
constexpr int kMetricKind[kNumK] = {0, 0, 2, 1, 3, 4, 5};
/// Mix weights, percent.
constexpr int kWeight[kNumK] = {20, 20, 15, 10, 10, 15, 10};

/// Element-count classes [2^e, 2^(e+1)) of the schedule-compiler kinds, the
/// same for every seed; the seed picks the count inside a class. A class is
/// one cached schedule per (rank, root), so the 3 + 3 + 2 x 4 roots = 14
/// shapes per rank (56 for 4 ranks) fit the default 64-entry cache and
/// every seed runs the same shapes.
constexpr int kAllreduceI32Exp[] = {0, 6, 12};
constexpr int kAllreduceF64Exp[] = {2, 8, 12};
constexpr int kBcastExp[] = {3, 11};
/// Strided-bcast block counts: one per equal slice of [2, kMaxVec] in log
/// space, so every seed's pool covers the range alike.
constexpr int kVecPool = 16;

struct Op {
  K kind;
  std::uint8_t pool;  ///< bcast_vec: index of its datatype
  std::uint32_t count;
  std::uint32_t offset;
  int root;
};

/// Pattern elements one operation reads from a rank's pattern.
std::size_t span_of(const Op& op) {
  switch (op.kind) {
    case K::bcast_vec: return 2 * std::size_t{op.count} - 1;
    case K::alltoall: return kRanks * std::size_t{op.count};
    default: return op.count;
  }
}

template <std::size_t N>
std::uint32_t count_in_class(Rng& r, const int (&exps)[N]) {
  const int e = exps[r.below(N)];
  return static_cast<std::uint32_t>(r.log_uniform(std::size_t{1} << e, (std::size_t{2} << e) - 1));
}

struct Inputs {
  std::array<std::vector<std::int32_t>, kRanks> pat_i32;
  std::array<std::vector<double>, kRanks> pat_f64;
  std::vector<std::int32_t> sum_i32;
  std::vector<double> sum_f64;
  std::vector<std::uint32_t> vec_count;
  std::vector<mpx::dtype::Datatype> vec_dt;  ///< per vec_count entry
  std::vector<Op> ops;
  std::vector<Op> warm;  ///< every compiled shape once, largest buffers touched

  explicit Inputs(std::uint64_t seed) : sum_i32(kPat, 0), sum_f64(kPat, 0.0) {
    Rng pr(seed, 10);
    for (int r = 0; r < kRanks; ++r) {
      pat_i32[r].resize(kPat);
      pat_f64[r].resize(kPat);
      for (std::size_t k = 0; k < kPat; ++k) {
        // Small integers: int32 sums cannot overflow and double sums are
        // exact in any order.
        pat_i32[r][k] = static_cast<std::int32_t>(pr.below(1 << 21)) - (1 << 20);
        pat_f64[r][k] = static_cast<double>(static_cast<std::int64_t>(pr.below(1 << 21)) - (1 << 20));
        sum_i32[k] += pat_i32[r][k];
        sum_f64[k] += pat_f64[r][k];
      }
    }
    Rng vr(seed, 11);
    for (int j = 0; j < kVecPool; ++j) {
      // At least two blocks: a one-block vector is contiguous.
      const double span = static_cast<double>(kMaxVec) / 2.0;
      const double lo = 2.0 * std::pow(span, static_cast<double>(j) / kVecPool);
      const double hi = 2.0 * std::pow(span, static_cast<double>(j + 1) / kVecPool);
      vec_count.push_back(static_cast<std::uint32_t>(
          vr.log_uniform(static_cast<std::size_t>(lo), static_cast<std::size_t>(hi))));
      vec_dt.push_back(mpx::dtype::Datatype::vector(static_cast<int>(vec_count.back()), 1, 2,
                                                    mpx::dtype::Datatype::int32()));
    }
    Rng r(seed, 12);
    int roots[kNumK] = {};
    int unsynced = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      int k = 0;
      for (int pick = static_cast<int>(r.below(100)); pick >= kWeight[k]; pick -= kWeight[k]) ++k;
      const bool rooted = k == static_cast<int>(K::bcast) || k == static_cast<int>(K::bcast_vec);
      if (rooted && unsynced >= kMaxUnsyncedRun) k = static_cast<int>(K::barrier);
      unsynced = k == static_cast<int>(K::bcast) || k == static_cast<int>(K::bcast_vec) ? unsynced + 1 : 0;
      Op op{static_cast<K>(k), 0, 0, 0, roots[k]++ % kRanks};
      switch (op.kind) {
        case K::allreduce_i32: op.count = count_in_class(r, kAllreduceI32Exp); break;
        case K::allreduce_f64: op.count = count_in_class(r, kAllreduceF64Exp); break;
        case K::bcast: op.count = count_in_class(r, kBcastExp); break;
        case K::bcast_vec:
          op.pool = static_cast<std::uint8_t>(r.below(kVecPool));
          op.count = vec_count[op.pool];
          break;
        case K::barrier: break;
        case K::allgather:
        case K::alltoall: op.count = static_cast<std::uint32_t>(r.log_uniform(1, kMaxBlock)); break;
      }
      op.offset = static_cast<std::uint32_t>(r.below(kPat - span_of(op) + 1));
      ops.push_back(op);
    }
    auto warm_classes = [&](K kind, const auto& exps, int roots_n) {
      for (int e : exps) {
        for (int root = 0; root < roots_n; ++root) {
          warm.push_back(Op{kind, 0, (2u << e) - 1, 0, root});
        }
      }
      warm.push_back(Op{K::barrier, 0, 0, 0, 0});
    };
    warm_classes(K::allreduce_i32, kAllreduceI32Exp, 1);
    warm_classes(K::allreduce_f64, kAllreduceF64Exp, 1);
    warm_classes(K::bcast, kBcastExp, kRanks);
    const auto big = static_cast<std::uint8_t>(kVecPool - 1);
    warm.push_back(Op{K::bcast_vec, big, vec_count[big], 0, 0});
    warm.push_back(Op{K::allgather, 0, kMaxBlock, 0, 0});
    warm.push_back(Op{K::alltoall, 0, kMaxBlock, 0, 0});
  }
};

/// User payload bytes one operation delivers, summed over ranks.
double payload_bytes(const Op& op) {
  const double n = op.count;
  switch (op.kind) {
    case K::allreduce_i32: return kRanks * n * 4;
    case K::allreduce_f64: return kRanks * n * 8;
    case K::bcast:
    case K::bcast_vec: return (kRanks - 1) * n * 4;
    case K::barrier: return 0.0;
    case K::allgather:
    case K::alltoall: return kRanks * (kRanks - 1) * n * 4;
  }
  return 0.0;
}

struct Run {
  Run(const Inputs& i, Failures& f) : in(i), fail(f) {}
  const Inputs& in;
  Failures& fail;
  std::shared_ptr<mpx::World> world;
  mpx::Stream stream[kRanks];
  mpx::Comm comm[kRanks];
  Gate gate{kRanks};
  StopLine stop;
  const trace::Recorder* rec = nullptr;

  bool cap_reached() const { return rec != nullptr && rec->any_full(); }
};

struct Bufs {
  std::vector<std::int32_t> i32 = std::vector<std::int32_t>(kBufInts);
  std::vector<double> f64 = std::vector<double>(kMaxCount);
};

/// Runs one blocking collective on `rank` and checks its result. Returns
/// the time from the i* call to the end of wait, in microseconds.
double exec(Run& run, int rank, const Op& op, std::int64_t i, Bufs& b) {
  const Inputs& in = run.in;
  const mpx::Comm& c = run.comm[rank];
  const CollKind& names = kCollKinds[kMetricKind[static_cast<int>(op.kind)]];
  const auto i32 = mpx::dtype::Datatype::int32();
  const std::size_t n = op.count;
  const std::int32_t* mine = in.pat_i32[rank].data() + op.offset;
  std::int32_t* buf = b.i32.data();

  // Inputs and poisoned outputs, so a result that is never written fails.
  switch (op.kind) {
    case K::allreduce_f64: std::fill_n(b.f64.data(), n, -0.5); break;
    case K::bcast:
    case K::bcast_vec:
      if (rank == op.root) std::copy_n(in.pat_i32[rank].data() + op.offset, span_of(op), buf);
      else std::fill_n(buf, span_of(op), kPoison);
      break;
    case K::allreduce_i32:
    case K::allgather:
    case K::alltoall: std::fill_n(buf, op.kind == K::allreduce_i32 ? n : kRanks * n, kPoison); break;
    case K::barrier: break;
  }

  const std::int64_t t0 = now_ns();
  mpx::Status st;
  {
    trace::Span sp(names.op_span, i);
    mpx::Request q;
    {
      trace::Span start(names.start_span, i);
      switch (op.kind) {
        case K::allreduce_i32:
          q = mpx::coll::iallreduce(mine, buf, n, i32, mpx::dtype::ReduceOp::sum, c);
          break;
        case K::allreduce_f64:
          q = mpx::coll::iallreduce(in.pat_f64[rank].data() + op.offset, b.f64.data(), n,
                                    mpx::dtype::Datatype::float64(), mpx::dtype::ReduceOp::sum, c);
          break;
        case K::bcast: q = mpx::coll::ibcast(buf, n, i32, op.root, c); break;
        case K::bcast_vec: q = mpx::coll::ibcast(buf, 1, in.vec_dt[op.pool], op.root, c); break;
        case K::barrier: q = mpx::coll::ibarrier(c); break;
        case K::allgather: q = mpx::coll::iallgather(mine, n, i32, buf, c); break;
        case K::alltoall: q = mpx::coll::ialltoall(mine, n, i32, buf, c); break;
      }
    }
    st = wait(q, i);
  }
  const double us = static_cast<double>(now_ns() - t0) * 1e-3;

  bool ok = st.error == mpx::Err::success;
  auto same = [&](const void* got, const void* want, std::size_t bytes) {
    ok = ok && std::memcmp(got, want, bytes) == 0;
  };
  switch (op.kind) {
    case K::allreduce_i32: same(buf, in.sum_i32.data() + op.offset, n * 4); break;
    case K::allreduce_f64: same(b.f64.data(), in.sum_f64.data() + op.offset, n * 8); break;
    case K::bcast: same(buf, in.pat_i32[op.root].data() + op.offset, n * 4); break;
    case K::bcast_vec: {
      const std::int32_t* want = in.pat_i32[op.root].data() + op.offset;
      for (std::size_t j = 0; ok && j < span_of(op); ++j) {
        ok = buf[j] == (j % 2 == 0 || rank == op.root ? want[j] : kPoison);
      }
      break;
    }
    case K::barrier: break;
    case K::allgather:
      for (int s = 0; s < kRanks; ++s) same(buf + s * n, in.pat_i32[s].data() + op.offset, n * 4);
      break;
    case K::alltoall:
      for (int s = 0; s < kRanks; ++s) {
        same(buf + s * n, in.pat_i32[s].data() + op.offset + rank * n, n * 4);
      }
      break;
  }
  if (!ok) run.fail.fail(names.name, i);
  return us;
}

struct MixOut {
  std::int64_t ops = 0;
  double bytes = 0.0;
  double seconds = 0.0;
  Samples lat_us;
  CollKindSamples kind_lat_us;
};

/// The timed loop: runs ops[first], ops[first + 1], ... (cycling) until
/// run.stop ends the phase; returns how many ran. Rank 0 records them into
/// `out` when given.
std::int64_t mix(Run& run, int rank, std::int64_t limit, const std::vector<Op>& ops,
                 std::int64_t first, Bufs& b, MixOut* out) {
  const std::int64_t t0 = now_ns();
  std::int64_t i = 0;
  for (;; ++i) {
    if (rank == 0) run.stop.poll(i, i >= limit || run.cap_reached());
    if (run.stop.done(i)) break;
    const Op& op = ops[static_cast<std::size_t>(first + i) % ops.size()];
    const double us = exec(run, rank, op, i, b);
    if (rank == 0 && out != nullptr) {
      out->lat_us.add(us);
      out->kind_lat_us[static_cast<std::size_t>(kMetricKind[static_cast<int>(op.kind)])].add(us);
      out->bytes += payload_bytes(op);
    }
  }
  if (rank == 0 && out != nullptr) {
    out->ops += i;
    out->seconds += seconds_between(t0, now_ns());
  }
  return i;
}

}  // namespace

Result run_coll_mix(const Args& args) {
  const Inputs in(args.seed);
  Failures fail;
  trace::Recorder rec;
  std::vector<double> setup_s;
  MixOut main_out, traced_out;
  BlockRates rates;
  mpx::base::LatencyRecorder probe;
  counters::Snapshot before, after;

  for (int setup = 0; setup < kSetups; ++setup) {
    const bool last = setup == kSetups - 1;
    const bool traced_setup = last && args.trace;
    Run run(in, fail);
    const std::int64_t t0 = now_ns();
    if (traced_setup) trace::set_thread_log(&rec.make_log(0));
    {
      trace::Span sp("world.create", -1);
      mpx::WorldConfig cfg;
      cfg.nranks = kRanks;
      cfg.ranks_per_node = kRanksPerNode;
      run.world = mpx::World::create(cfg);
    }
    run_ranks(kRanks, setup, [&](int rank) {
      if (traced_setup && rank != 0) trace::set_thread_log(&rec.make_log(rank));
      {
        trace::Span sp("core.stream_create", -1);
        run.stream[rank] = run.world->stream_create(rank);
      }
      trace::set_thread_log(nullptr);
      run.comm[rank] = run.world->comm_world(rank).with_stream(run.stream[rank]);
      Bufs b;
      phase(run, rank, share_ns(args.seconds, 1.0), [&] {  // warm-up
        mix(run, rank, static_cast<std::int64_t>(in.warm.size()), in.warm, 0, b, nullptr);
      });
      if (rank == 0) setup_s.push_back(seconds_between(t0, now_ns()));

      std::int64_t next = 0;  // position in the op sequence, same on every rank
      auto block = [&](MixOut& out, BlockRates* r) {
        double cpu0 = 0.0;
        phase(run, rank, 0, [&] { if (rank == 0) cpu0 = process_cpu_s(); });
        const std::int64_t ops0 = out.ops;
        const double bytes0 = out.bytes, secs0 = out.seconds;
        phase(run, rank, kBlockNs, [&] { next += mix(run, rank, INT64_MAX, in.ops, next, b, &out); });
        if (rank == 0 && r != nullptr) {
          r->add(static_cast<double>(out.ops - ops0), out.bytes - bytes0, out.seconds - secs0,
                 process_cpu_s() - cpu0);
        }
      };
      if (!args.trace && measured_world(setup)) {
        // Progress latency is probed on rank 0's stream between blocks, so
        // its samples spread over the whole run.
        Rng probe_rng(args.seed, 30);
        for (int k = block_count(args.seconds / kMeasuredWorlds); k > 0; --k) {
          block(main_out, &rates);
          phase(run, rank, 0, [&] {
            if (rank == 0) progress_probe(*run.world, run.stream[0], probe_rng, 512, probe);
          });
        }
      } else if (args.trace && last) {
        const counters::Sources src{run.world.get(),
                                    {{0, run.stream[0].vci()}, {1, run.stream[1].vci()},
                                     {2, run.stream[2].vci()}, {3, run.stream[3].vci()}},
                                    &run.comm[0]};
        phase(run, rank, 0, [&] { if (rank == 0) before = counters::read(src); });
        for (int k = block_count(0.5 * args.seconds); k > 0; --k) block(main_out, nullptr);
        phase(run, rank, 0, [&] { if (rank == 0) after = counters::read(src); });
        phase(run, rank, 0, [&] {
          Rng probe_rng(args.seed, 30);
          for (int k = 0; rank == 0 && k < 64; ++k) {
            progress_probe(*run.world, run.stream[0], probe_rng, 512, probe);
          }
        });
        run.rec = &rec;
        phase(run, rank, share_ns(args.seconds, 0.5), [&] {
          trace::set_thread_log(&rec.make_log(rank));
          mix(run, rank, INT64_MAX, in.ops, next, b, &traced_out);
          trace::set_thread_log(nullptr);
        });
        run.rec = nullptr;
      }
      run.gate.wait();
      run.world->stream_free(run.stream[rank]);
      run.world->finalize_rank(rank);
    });
  }

  Result res;
  res.failed = fail.count.load();
  res.attempted = static_cast<std::uint64_t>(main_out.ops + traced_out.ops);
  if (!args.trace) {
    const auto pr = probe.summarize();
    res.add("setup_s", median(setup_s), "s");
    res.add("latency_us.p50", main_out.lat_us.percentile(0.50), "us");
    res.add("throughput_ops_s", median(rates.ops_s), "ops/s");
    res.add("goodput_mb_s", median(rates.mb_s), "MB/s");
    res.add("cpu_us_per_op", median(rates.cpu_us_per_op), "us");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.extra.push_back({"latency_us.p99", main_out.lat_us.percentile(0.99), "us"});
    res.extra.push_back({"latency_samples", static_cast<double>(main_out.lat_us.count()), "count"});
    res.extra.push_back({"progress_latency_us.p50", pr.p50_us, "us"});
    res.extra.push_back({"progress_latency_samples", static_cast<double>(pr.count), "count"});
  } else {
    counters::add_layer_metrics(before, after, static_cast<double>(main_out.ops), res);
    add_span_metrics(rec.times(), res);
    res.add("latency_us.p99", main_out.lat_us.percentile(0.99), "us");
    res.add("progress_latency_us.p50", probe.summarize().p50_us, "us");
    add_coll_latencies(&main_out.kind_lat_us, res);
    res.add("core.unexpected_peak", 0.0, "count");
    res.add("task.engine.idle_sleep_delta", 0.0, "count");
    res.add("bench_trace.overhead_ratio",
            ratio(traced_out.lat_us.percentile(0.5), main_out.lat_us.percentile(0.5)) - 1.0,
            "ratio");
    res.add("bench_trace.unaccounted_ratio", 0.0, "ratio");
    if (!args.spans_out.empty() && !rec.write_csv(args.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
    }
  }
  return res;
}

}  // namespace perfbench
