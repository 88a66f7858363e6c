// p2p_small: 2 ranks on one simulated node, so every message takes the shm
// ring. Phase A is a ping-pong with pre-posted receives (latency); phase B
// streams 64-deep windows with sends running ahead of receives (rate). Both
// drive completion with explicit stream_progress + is_complete.
#include <algorithm>
#include <vector>

#include "counters.hpp"
#include "workload.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMinMsg = 8;
constexpr std::size_t kMaxMsg = 4096;
constexpr std::size_t kSlots = 1 << 16;  // seeded messages, cycled
constexpr std::size_t kPatternBytes = 1 << 16;
constexpr int kWindow = 64;
constexpr int kAckTag = 1 << 20;
constexpr std::int64_t kWarmRounds = 2000;
constexpr std::int64_t kWarmWindows = 16;

struct Msg {
  std::uint32_t size;
  std::uint32_t offset;
  int tag;
};

struct Inputs {
  std::vector<std::byte> pattern;
  std::vector<Msg> pingpong;  ///< even index: ping 0->1, odd: pong 1->0
  std::vector<Msg> stream;    ///< phase B, 0->1

  explicit Inputs(std::uint64_t seed) : pattern(kPatternBytes + kMaxMsg) {
    Rng r(seed, 1);
    for (auto& b : pattern) b = static_cast<std::byte>(r.next());
    auto gen = [&](Rng& g) {
      return Msg{static_cast<std::uint32_t>(g.log_uniform(kMinMsg, kMaxMsg)),
                 static_cast<std::uint32_t>(g.below(kPatternBytes)),
                 static_cast<int>(g.below(1 << 15))};
    };
    Rng a(seed, 2), b(seed, 3);
    for (std::size_t i = 0; i < kSlots; ++i) {
      pingpong.push_back(gen(a));
      stream.push_back(gen(b));
    }
  }
  const Msg& ping(std::int64_t i) const { return pingpong[(2 * i) % kSlots]; }
  const Msg& pong(std::int64_t i) const { return pingpong[(2 * i + 1) % kSlots]; }
  const Msg& streamed(std::int64_t w, int j) const {
    return stream[static_cast<std::size_t>(w * kWindow + j) % kSlots];
  }
  const std::byte* payload(const Msg& m) const { return pattern.data() + m.offset; }
};

/// One world and its two ranks.
struct Run {
  Run(const Inputs& i, Failures& f) : in(i), fail(f) {}
  const Inputs& in;
  Failures& fail;
  std::shared_ptr<mpx::World> world;
  mpx::Stream stream[2];
  mpx::Comm comm[2];
  Gate gate{2};
  StopLine stop;
  /// Traced phase: ends early once a span log fills.
  const trace::Recorder* rec = nullptr;

  bool cap_reached() const { return rec != nullptr && rec->any_full(); }
};

/// Phase outputs accumulate over calls, so one object can collect a
/// series of blocks.
struct PingPongOut {
  Samples half_rtt_us;
  std::int64_t rounds = 0;
};

struct StreamOut {
  std::int64_t msgs = 0;
  double bytes = 0.0;
  double seconds = 0.0;
  std::size_t unexpected_peak = 0;
};

/// Phase A.
void pingpong(Run& run, int rank, std::int64_t limit, PingPongOut& out) {
  const mpx::Comm& c = run.comm[rank];
  const mpx::Stream& s = run.stream[rank];
  std::vector<std::byte> rbuf(kMaxMsg);
  if (rank == 0) {
    std::int64_t i = 0;
    for (;; ++i) {
      run.stop.poll(i, i >= limit || run.cap_reached());
      if (run.stop.done(i)) break;
      const Msg& ping = run.in.ping(i);
      const Msg& pong = run.in.pong(i);
      const std::int64_t t0 = now_ns();
      mpx::Request rr;
      mpx::Request sr;
      {
        trace::Span op("p2p.roundtrip", i);
        rr = irecv(c, rbuf.data(), kMaxMsg, 1, pong.tag, i);
        sr = isend(c, run.in.payload(ping), ping.size, 1, ping.tag, i);
        drive_until(s, i, [&] { return is_complete(rr, i) && is_complete(sr, i); });
      }
      out.half_rtt_us.add(static_cast<double>(now_ns() - t0) * 1e-3 / 2.0);
      if (sr.status().error != mpx::Err::success ||
          !recv_ok(rr.status(), 1, pong.tag, rbuf.data(), run.in.payload(pong), pong.size)) {
        run.fail.fail("ping-pong reply mismatch", i);
      }
    }
    out.rounds += i;
    return;
  }
  // Rank 1: the receive for round i + 1 is posted before the reply to round
  // i is sent, so every ping finds its receive already posted.
  mpx::Request rr;
  if (!run.stop.done(0)) rr = irecv(c, rbuf.data(), kMaxMsg, 0, run.in.ping(0).tag, 0);
  for (std::int64_t i = 0; rr.valid(); ++i) {
    const Msg& ping = run.in.ping(i);
    const Msg& pong = run.in.pong(i);
    drive_until(s, i, [&] { return is_complete(rr, i); });
    if (!recv_ok(rr.status(), 0, ping.tag, rbuf.data(), run.in.payload(ping), ping.size)) {
      run.fail.fail("ping mismatch", i);
    }
    rr = mpx::Request();
    if (!run.stop.done(i + 1)) {
      rr = irecv(c, rbuf.data(), kMaxMsg, 0, run.in.ping(i + 1).tag, i + 1);
    }
    mpx::Request sr = isend(c, run.in.payload(pong), pong.size, 0, pong.tag, i);
    drive_until(s, i, [&] { return is_complete(sr, i); });
    if (sr.status().error != mpx::Err::success) run.fail.fail("pong send error", i);
  }
}

/// Waits for every request of `reqs` (in order) by driving progress.
void drive_all(const mpx::Stream& s, std::int64_t op, std::vector<mpx::Request>& reqs) {
  std::size_t k = 0;
  drive_until(s, op, [&] {
    while (k < reqs.size() && is_complete(reqs[k], op)) ++k;
    return k == reqs.size();
  });
}

/// Phase B. Rank 0 sends window w as soon as window w - 2 is acknowledged,
/// so it runs up to two windows ahead of rank 1's receives.
void streaming(Run& run, int rank, std::int64_t limit, StreamOut& out,
               bool sample_unexpected) {
  const mpx::Comm& c = run.comm[rank];
  const mpx::Stream& s = run.stream[rank];
  std::vector<mpx::Request> reqs(kWindow);
  if (rank == 0) {
    const std::int64_t start = now_ns();
    std::int64_t ack_val[3] = {-1, -1, -1};
    mpx::Request ack[3];
    auto finish_ack = [&](std::int64_t w) {
      mpx::Request& a = ack[w % 3];
      drive_until(s, w, [&] { return is_complete(a, w); });
      const std::int64_t want = w;
      if (!recv_ok(a.status(), 1, kAckTag, &ack_val[w % 3], &want, sizeof want)) {
        run.fail.fail("window ack mismatch", w);
      }
    };
    std::int64_t w = 0;
    for (;; ++w) {
      run.stop.poll(w, w >= limit || run.cap_reached());
      if (run.stop.done(w)) break;
      if (w >= 2) finish_ack(w - 2);
      ack[w % 3] = irecv(c, &ack_val[w % 3], sizeof(std::int64_t), 1, kAckTag, w);
      for (int j = 0; j < kWindow; ++j) {
        const Msg& m = run.in.streamed(w, j);
        reqs[static_cast<std::size_t>(j)] = isend(c, run.in.payload(m), m.size, 1, m.tag, w);
      }
      drive_all(s, w, reqs);
      for (const auto& r : reqs) {
        if (r.status().error != mpx::Err::success) run.fail.fail("stream send error", w);
      }
    }
    for (std::int64_t k = std::max<std::int64_t>(0, w - 2); k < w; ++k) finish_ack(k);
    out.seconds += seconds_between(start, now_ns());
    return;
  }
  std::vector<std::byte> rbufs(kWindow * kMaxMsg);
  for (std::int64_t w = 0; !run.stop.done(w); ++w) {
    for (int j = 0; j < kWindow; ++j) {
      reqs[static_cast<std::size_t>(j)] =
          irecv(c, rbufs.data() + j * kMaxMsg, kMaxMsg, 0, run.in.streamed(w, j).tag, w);
    }
    drive_all(s, w, reqs);
    for (int j = 0; j < kWindow; ++j) {
      const Msg& m = run.in.streamed(w, j);
      if (recv_ok(reqs[static_cast<std::size_t>(j)].status(), 0, m.tag,
                  rbufs.data() + j * kMaxMsg, run.in.payload(m), m.size)) {
        out.bytes += m.size;
      } else {
        run.fail.fail("streamed message mismatch", w);
      }
      ++out.msgs;
    }
    if (sample_unexpected) {
      out.unexpected_peak = std::max(
          out.unexpected_peak, run.world->vci_match_counters(1, s.vci()).unexpected);
    }
    const std::int64_t val = w;
    mpx::Request a = isend(c, &val, sizeof val, 0, kAckTag, w);
    drive_until(s, w, [&] { return is_complete(a, w); });
  }
}

/// What the measured phases report. Both ranks get the same phase outputs;
/// pingpong() fills a PingPongOut on rank 0 only, streaming() fills a
/// StreamOut on rank 1 only (its `seconds` on rank 0).
struct Report {
  std::vector<double> setup_s;
  PingPongOut a;  ///< untraced ping-pong
  StreamOut b;    ///< untraced streaming
  BlockRates rates;
  mpx::base::LatencyRecorder probe;
  // traced run
  counters::Snapshot before, after;
  PingPongOut traced_a;
  StreamOut traced_b;
  double unaccounted = 0.0;
};

}  // namespace

Result run_p2p_small(const Args& args) {
  const Inputs in(args.seed);
  Failures fail;
  Report rep;
  trace::Recorder rec;

  for (int setup = 0; setup < kSetups; ++setup) {
    const bool last = setup == kSetups - 1;
    const bool traced_setup = last && args.trace;
    Run run(in, fail);
    const std::int64_t t0 = now_ns();
    if (traced_setup) trace::set_thread_log(&rec.make_log(0));
    {
      trace::Span sp("world.create", -1);
      mpx::WorldConfig cfg;
      cfg.nranks = 2;
      run.world = mpx::World::create(cfg);
    }
    run_ranks(2, setup, [&](int rank) {
      if (traced_setup && rank != 0) trace::set_thread_log(&rec.make_log(rank));
      {
        trace::Span sp("core.stream_create", -1);
        run.stream[rank] = run.world->stream_create(rank);
      }
      trace::set_thread_log(nullptr);
      run.comm[rank] = run.world->comm_world(rank).with_stream(run.stream[rank]);

      {  // warm-up: every message slot's size class, buffers touched
        PingPongOut a;
        StreamOut b;
        const std::int64_t ns = share_ns(args.seconds, 1.0);
        phase(run, rank, ns, [&] { pingpong(run, rank, kWarmRounds, a); });
        phase(run, rank, ns, [&] { streaming(run, rank, kWarmWindows, b, false); });
      }
      if (rank == 0) rep.setup_s.push_back(seconds_between(t0, now_ns()));

      // One block of each phase. Interleaving them exposes both to the same
      // machine conditions; with `rates`, rank 0 records the pair's rates.
      auto block_pair = [&](BlockRates* rates) {
        double cpu0 = 0.0;
        std::int64_t rounds0 = 0, msgs0 = 0;
        double bytes0 = 0.0, secs0 = 0.0;
        phase(run, rank, 0, [&] {
          if (rank != 0) return;
          cpu0 = process_cpu_s();
          rounds0 = rep.a.rounds;
          msgs0 = rep.b.msgs;
          bytes0 = rep.b.bytes;
          secs0 = rep.b.seconds;
        });
        phase(run, rank, kBlockNs, [&] { pingpong(run, rank, INT64_MAX, rep.a); });
        phase(run, rank, kBlockNs, [&] { streaming(run, rank, INT64_MAX, rep.b, false); });
        if (rank == 0 && rates != nullptr) {
          const auto msgs = static_cast<double>(rep.b.msgs - msgs0);
          rates->ops_s.push_back(ratio(msgs, rep.b.seconds - secs0));
          rates->mb_s.push_back(ratio(rep.b.bytes - bytes0, rep.b.seconds - secs0) * 1e-6);
          rates->cpu_us_per_op.push_back(
              ratio((process_cpu_s() - cpu0) * 1e6,
                    static_cast<double>(2 * (rep.a.rounds - rounds0)) + msgs));
        }
      };
      if (!args.trace && measured_world(setup)) {
        // Progress latency is probed on rank 0's stream between blocks, so
        // its samples spread over the whole run.
        Rng probe_rng(args.seed, 30);
        for (int k = block_count(0.5 * args.seconds / kMeasuredWorlds); k > 0; --k) {
          block_pair(&rep.rates);
          phase(run, rank, 0, [&] {
            if (rank == 0) progress_probe(*run.world, run.stream[0], probe_rng, 1024, rep.probe);
          });
        }
      } else if (args.trace && last) {
        const counters::Sources src{run.world.get(),
                                    {{0, run.stream[0].vci()}, {1, run.stream[1].vci()}}};
        phase(run, rank, 0, [&] { if (rank == 0) rep.before = counters::read(src); });
        for (int k = block_count(0.25 * args.seconds); k > 0; --k) block_pair(nullptr);
        phase(run, rank, 0, [&] { if (rank == 0) rep.after = counters::read(src); });
        phase(run, rank, 0, [&] {
          Rng probe_rng(args.seed, 30);
          for (int k = 0; rank == 0 && k < 32; ++k) {
            progress_probe(*run.world, run.stream[0], probe_rng, 1024, rep.probe);
          }
        });
        run.rec = &rec;
        phase(run, rank, share_ns(args.seconds, 0.25), [&] {
          trace::set_thread_log(&rec.make_log(rank));
          pingpong(run, rank, INT64_MAX, rep.traced_a);
          trace::set_thread_log(nullptr);
        });
        if (rank == 0) {
          // Layer-sum check over the ping-pong spans only: the critical path
          // of a round trip is one isend, one irecv, one productive progress
          // call and one completion check on each rank.
          const SpanTimes t = rec.times();
          const double covered =
              2.0 * (median_span_ns(t, "core.isend") + median_span_ns(t, "core.irecv") +
                     median_span_ns(t, "core.progress.hit") + median_span_ns(t, "core.is_complete"));
          rep.unaccounted = 1.0 - ratio(covered, median_span_ns(t, "p2p.roundtrip", false));
        }
        phase(run, rank, share_ns(args.seconds, 0.25), [&] {
          trace::set_thread_log(&rec.make_log(rank));
          streaming(run, rank, INT64_MAX, rep.traced_b, true);
          trace::set_thread_log(nullptr);
        });
        run.rec = nullptr;
      }
      run.gate.wait();
      run.world->stream_free(run.stream[rank]);
      run.world->finalize_rank(rank);
    });
  }

  // Every message of every measured phase was checked; a ping-pong round
  // is two messages.
  const auto msgs = [](const PingPongOut& a, const StreamOut& b) {
    return static_cast<double>(2 * a.rounds + b.msgs);
  };
  Result res;
  res.failed = fail.count.load();
  res.attempted = static_cast<std::uint64_t>(msgs(rep.a, rep.b) + msgs(rep.traced_a, rep.traced_b));
  if (!args.trace) {
    const Samples& lat = rep.a.half_rtt_us;
    const auto probe = rep.probe.summarize();
    res.add("setup_s", median(rep.setup_s), "s");
    res.add("latency_us.p50", lat.percentile(0.50), "us");
    res.add("throughput_ops_s", median(rep.rates.ops_s), "ops/s");
    res.add("goodput_mb_s", median(rep.rates.mb_s), "MB/s");
    res.add("cpu_us_per_op", median(rep.rates.cpu_us_per_op), "us");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.extra.push_back({"latency_us.p99", lat.percentile(0.99), "us"});
    res.extra.push_back({"latency_samples", static_cast<double>(lat.count()), "count"});
    res.extra.push_back({"progress_latency_us.p50", probe.p50_us, "us"});
    res.extra.push_back({"progress_latency_samples", static_cast<double>(probe.count), "count"});
  } else {
    counters::add_layer_metrics(rep.before, rep.after, msgs(rep.a, rep.b), res);
    add_span_metrics(rec.times(), res);
    res.add("latency_us.p99", rep.a.half_rtt_us.percentile(0.99), "us");
    res.add("progress_latency_us.p50", rep.probe.summarize().p50_us, "us");
    add_coll_latencies(nullptr, res);
    res.add("core.unexpected_peak", static_cast<double>(rep.traced_b.unexpected_peak), "count");
    res.add("task.engine.idle_sleep_delta", 0.0, "count");
    res.add("bench_trace.overhead_ratio",
            ratio(rep.traced_a.half_rtt_us.percentile(0.5), rep.a.half_rtt_us.percentile(0.5)) - 1.0,
            "ratio");
    res.add("bench_trace.unaccounted_ratio", rep.unaccounted, "ratio");
    if (!args.spans_out.empty() && !rec.write_csv(args.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
    }
  }
  return res;
}

}  // namespace perfbench
