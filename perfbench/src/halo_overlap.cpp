// halo_overlap: 2 ranks on one node with task::ProgressEngine attached to
// both ranks' streams. Each step posts a 1 MiB halo irecv + isend (an LMT
// rendezvous) and K deadline "kernel" tasks, computes host-busy for a fixed
// span, then checks completion with is_complete only, so the engine must
// carry all progress.
#include <optional>
#include <vector>

#include "counters.hpp"
#include "mpx/task/deadline.hpp"
#include "workload.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 2;
constexpr std::size_t kHalo = 1 << 20;
constexpr std::size_t kOffsets = 1 << 16;  // seeded payload offsets span
constexpr int kKernels = 4;
/// Host compute per step. Shorter than the ~175 us the two 1 MiB halos
/// take when only the engine moves them, so the step time follows how well
/// the engine carries the copies and notices completions, not the compute.
constexpr std::int64_t kComputeNs = 150'000;
constexpr std::size_t kSlots = 1024;  // seeded steps, cycled
constexpr std::int64_t kWarmSteps = 40;
constexpr std::int64_t kKernelStride = 16;
constexpr int kStandingTag = 1 << 20;
/// The library default. With a single worker the engine can pin it to one
/// rank's VCI while the other rank's VCI waits, inline, for a promotion
/// the worker ceiling never admits; the two ranks' halos depend on each
/// other, so that run hangs. Two workers (one per attached VCI) cannot be
/// stranded that way. Busy threads: 2 ranks + 2 workers; the controller
/// sleeps between epochs.
constexpr int kEngineWorkers = 2;

struct Step {
  std::uint32_t offset[kRanks];  ///< payload offset of each rank's halo
  int tag;
  double kernel_frac[kKernels];  ///< kernel deadlines, as shares of the compute span
};

struct Inputs {
  std::vector<std::byte> pattern;
  std::vector<Step> steps;

  explicit Inputs(std::uint64_t seed) : pattern(kHalo + kOffsets) {
    Rng r(seed, 20);
    for (auto& b : pattern) b = static_cast<std::byte>(r.next());
    Rng s(seed, 21);
    for (std::size_t i = 0; i < kSlots; ++i) {
      Step st{};
      for (auto& o : st.offset) o = static_cast<std::uint32_t>(s.below(kOffsets));
      st.tag = static_cast<int>(s.below(1 << 15));
      for (auto& f : st.kernel_frac) f = 0.1 + 0.9 * s.unit();
      steps.push_back(st);
    }
  }
  const Step& step(std::int64_t i) const { return steps[static_cast<std::size_t>(i) % kSlots]; }
};

struct Run {
  Run(const Inputs& i, Failures& f) : in(i), fail(f) {}
  const Inputs& in;
  Failures& fail;
  std::shared_ptr<mpx::World> world;
  std::optional<mpx::task::ProgressEngine> engine;
  mpx::Stream stream[kRanks];
  mpx::Comm comm[kRanks];
  Gate gate{kRanks};
  StopLine stop;
  const trace::Recorder* rec = nullptr;

  bool cap_reached() const { return rec != nullptr && rec->any_full(); }
};

struct HaloOut {
  std::int64_t steps = 0;
  double seconds = 0.0;
  Samples step_us;
};

/// Runs steps first, first + 1, ... until run.stop ends the phase; returns
/// how many ran. Rank 0 adds them to `out`.
std::int64_t halo(Run& run, int rank, std::int64_t limit, std::int64_t first, HaloOut& out,
                  mpx::base::LatencyRecorder& kernel_lat) {
  const mpx::Comm& c = run.comm[rank];
  const mpx::Stream& s = run.stream[rank];
  const int peer = 1 - rank;
  std::vector<std::byte> in_buf(kHalo);
  std::atomic<int> kernels{0};
  const std::int64_t start = now_ns();
  std::int64_t i = 0;
  for (;; ++i) {
    if (rank == 0) run.stop.poll(i, i >= limit || run.cap_reached());
    if (run.stop.done(i)) break;
    const Step& st = run.in.step(first + i);
    const std::int64_t t0 = now_ns();
    mpx::Request rr;
    mpx::Request sr;
    {
      trace::Span op("halo.step", i);
      rr = irecv(c, in_buf.data(), kHalo, peer, st.tag, i);
      sr = isend(c, run.in.pattern.data() + st.offset[rank], kHalo, peer, st.tag, i);
      kernels.store(kKernels, std::memory_order_relaxed);
      const double now_s = run.world->wtime();
      // Kernels of every kKernelStride-th step are recorded, so the samples
      // spread over the whole run before the recorder's cap.
      auto* rec = (first + i) % kKernelStride == 0 ? while_room(&kernel_lat) : nullptr;
      for (double f : st.kernel_frac) {
        mpx::task::add_dummy_task_abs(s, now_s + f * static_cast<double>(kComputeNs) * 1e-9,
                                      &kernels, rec);
      }
      spin_until(t0 + kComputeNs);
      // The rank never drives progress: completion is only observed.
      for (std::uint32_t n = 1; !(is_complete(sr, i) && is_complete(rr, i) &&
                                  kernels.load(std::memory_order_acquire) == 0);
           ++n) {
        spin_until(now_ns() + 200);
        if ((n & 1023u) == 0 && now_ns() - t0 > kOpTimeoutNs) Failures::timeout(i);
      }
    }
    if (rank == 0) out.step_us.add(static_cast<double>(now_ns() - t0) * 1e-3);
    if (sr.status().error != mpx::Err::success ||
        !recv_ok(rr.status(), peer, st.tag, in_buf.data(),
                 run.in.pattern.data() + st.offset[peer], kHalo)) {
      run.fail.fail("halo mismatch", i);
    }
  }
  if (rank == 0) {
    out.steps += i;
    out.seconds += seconds_between(start, now_ns());
  }
  return i;
}

}  // namespace

Result run_halo_overlap(const Args& args) {
  const Inputs in(args.seed);
  Failures fail;
  trace::Recorder rec;
  std::vector<double> setup_s;
  HaloOut main_out, traced_out;
  mpx::base::LatencyRecorder kernel_lat;
  BlockRates rates;
  double idle_sleeps = 0.0;
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
      cfg.progress_engine.max_workers = kEngineWorkers;
      run.world = mpx::World::create(cfg);
    }
    run.engine.emplace(*run.world);
    run_ranks(kRanks, setup, [&](int rank) {
      if (traced_setup && rank != 0) trace::set_thread_log(&rec.make_log(rank));
      {
        trace::Span sp("core.stream_create", -1);
        run.stream[rank] = run.world->stream_create(rank);
      }
      {
        trace::Span sp("task.engine.attach", -1);
        run.engine->attach(run.stream[rank]);
      }
      trace::set_thread_log(nullptr);
      run.comm[rank] = run.world->comm_world(rank).with_stream(run.stream[rank]);
      // A standing receive (the pre-posted control receive many MPI codes
      // keep) holds each VCI's in-flight count above zero for the whole
      // run. The engine counts only p2p/coll requests as pending work: a
      // VCI whose sole pending work is deadline tasks (async hooks) looks
      // idle, can be demoted to inline mid-step, and is then never promoted
      // again, so a rank that only observes completion hangs.
      std::int64_t standing_in = -1;
      const std::int64_t standing_out = rank;
      mpx::Request standing = irecv(run.comm[rank], &standing_in, sizeof standing_in, 1 - rank,
                                    kStandingTag, -1);
      auto release_standing = [&] {
        if (!standing.valid()) return;
        mpx::Request sr = isend(run.comm[rank], &standing_out, sizeof standing_out, 1 - rank,
                                kStandingTag, -1);
        sr.wait();
        standing.wait();
        const std::int64_t want = 1 - rank;
        if (!recv_ok(standing.status(), 1 - rank, kStandingTag, &standing_in, &want, sizeof want)) {
          fail.fail("standing receive mismatch", -1);
        }
        standing = mpx::Request();
      };
      {  // warm-up: engine promotion ramp, buffers touched
        HaloOut w;
        mpx::base::LatencyRecorder lat;
        phase(run, rank, share_ns(args.seconds, 1.0), [&] { halo(run, rank, kWarmSteps, 0, w, lat); });
      }
      if (rank == 0) setup_s.push_back(seconds_between(t0, now_ns()));

      std::int64_t next = 0;  // step index, same on both ranks
      auto block = [&](mpx::base::LatencyRecorder& lat, BlockRates* r) {
        double cpu0 = 0.0;
        phase(run, rank, 0, [&] { if (rank == 0) cpu0 = process_cpu_s(); });
        const std::int64_t steps0 = main_out.steps;
        const double secs0 = main_out.seconds;
        phase(run, rank, kBlockNs, [&] { next += halo(run, rank, INT64_MAX, next, main_out, lat); });
        if (rank == 0 && r != nullptr) {
          const auto steps = static_cast<double>(main_out.steps - steps0);
          r->add(steps, steps * kRanks * kHalo, main_out.seconds - secs0, process_cpu_s() - cpu0);
        }
      };
      if (!args.trace && measured_world(setup)) {
        for (int k = block_count(args.seconds / kMeasuredWorlds); k > 0; --k) {
          block(kernel_lat, &rates);
        }
      } else if (args.trace && last) {
        const counters::Sources src{run.world.get(),
                                    {{0, run.stream[0].vci()}, {1, run.stream[1].vci()}},
                                    nullptr, &*run.engine};
        mpx::base::LatencyRecorder lat;  // traced kernels, not reported
        phase(run, rank, 0, [&] { if (rank == 0) before = counters::read(src); });
        for (int k = block_count(0.5 * args.seconds); k > 0; --k) block(kernel_lat, nullptr);
        phase(run, rank, 0, [&] { if (rank == 0) after = counters::read(src); });
        run.rec = &rec;
        phase(run, rank, share_ns(args.seconds, 0.5), [&] {
          trace::set_thread_log(&rec.make_log(rank));
          halo(run, rank, INT64_MAX, next, traced_out, lat);
          trace::set_thread_log(nullptr);
        });
        run.rec = nullptr;
        // Park check: with the work gone, idle workers reach the sleep rung.
        phase(run, rank, 0, release_standing);
        phase(run, rank, 0, [&] { if (rank == 0) idle_sleeps = counters::engine_idle_sleeps(&*run.engine, 30); });
      }
      run.gate.wait();
      release_standing();
      run.gate.wait();
      run.engine->detach(run.stream[rank]);
      run.gate.wait();
      run.world->stream_free(run.stream[rank]);
      run.world->finalize_rank(rank);
    });
    run.engine->stop();
  }

  Result res;
  res.failed = fail.count.load();
  res.attempted = static_cast<std::uint64_t>(main_out.steps + traced_out.steps);
  if (!args.trace) {
    const auto kl = kernel_lat.summarize();
    res.add("setup_s", median(setup_s), "s");
    res.add("latency_us.p50", main_out.step_us.percentile(0.50), "us");
    res.add("throughput_ops_s", median(rates.ops_s), "ops/s");
    res.add("goodput_mb_s", median(rates.mb_s), "MB/s");
    res.add("cpu_us_per_op", median(rates.cpu_us_per_op), "us");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.extra.push_back({"latency_us.p99", main_out.step_us.percentile(0.99), "us"});
    res.extra.push_back({"latency_samples", static_cast<double>(main_out.step_us.count()), "count"});
    res.extra.push_back({"progress_latency_us.p50", kl.p50_us, "us"});
    res.extra.push_back({"progress_latency_samples", static_cast<double>(kl.count), "count"});
  } else {
    counters::add_layer_metrics(before, after, static_cast<double>(main_out.steps), res);
    add_span_metrics(rec.times(), res);
    res.add("latency_us.p99", main_out.step_us.percentile(0.99), "us");
    res.add("progress_latency_us.p50", kernel_lat.summarize().p50_us, "us");
    add_coll_latencies(nullptr, res);
    res.add("core.unexpected_peak", 0.0, "count");
    res.add("task.engine.idle_sleep_delta", idle_sleeps, "count");
    res.add("bench_trace.overhead_ratio",
            ratio(traced_out.step_us.percentile(0.5), main_out.step_us.percentile(0.5)) - 1.0,
            "ratio");
    res.add("bench_trace.unaccounted_ratio", 0.0, "ratio");
    if (!args.spans_out.empty() && !rec.write_csv(args.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
    }
  }
  return res;
}

}  // namespace perfbench
