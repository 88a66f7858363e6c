// What the three workloads share: traced wrappers around the public mpx
// calls they make, failure accounting, and the set-up/run skeleton (several
// timed set-ups, the last of which goes on into the measured phases).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "common.hpp"
#include "mpx/base/thread.hpp"
#include "mpx/mpx.hpp"
#include "mpx/task/deadline.hpp"
#include "trace.hpp"

namespace perfbench {

// --- traced calls into the library ------------------------------------

inline mpx::Request isend(const mpx::Comm& c, const void* buf, std::size_t n,
                          int dst, int tag, std::int64_t op) {
  trace::Span s("core.isend", op);
  return c.isend(buf, n, mpx::dtype::Datatype::byte(), dst, tag);
}

inline mpx::Request irecv(const mpx::Comm& c, void* buf, std::size_t n,
                          int src, int tag, std::int64_t op) {
  trace::Span s("core.irecv", op);
  return c.irecv(buf, n, mpx::dtype::Datatype::byte(), src, tag);
}

inline int progress(const mpx::Stream& st, std::int64_t op) {
  trace::Span s("core.progress.empty", op);
  const int hit = mpx::stream_progress(st);
  if (hit != 0) s.rename("core.progress.hit");
  return hit;
}

inline bool is_complete(const mpx::Request& r, std::int64_t op) {
  trace::Span s("core.is_complete", op);
  return r.is_complete();
}

inline mpx::Status wait(mpx::Request& r, std::int64_t op) {
  trace::Span s("core.wait", op);
  return r.wait();
}

/// Collective kinds of coll_mix, with the span names the benchmark records
/// around each kind's i* call ("start") and whole operation ("op").
struct CollKind {
  const char* name;
  const char* start_span;
  const char* op_span;
};
inline constexpr CollKind kCollKinds[] = {
    {"allreduce", "coll.allreduce.start", "coll.allreduce.op"},
    {"bcast_vec", "coll.bcast_vec.start", "coll.bcast_vec.op"},
    {"bcast", "coll.bcast.start", "coll.bcast.op"},
    {"barrier", "coll.barrier.start", "coll.barrier.op"},
    {"allgather", "coll.allgather.start", "coll.allgather.op"},
    {"alltoall", "coll.alltoall.start", "coll.alltoall.op"},
};

/// Per-kind operation latencies, indexed like kCollKinds.
using CollKindSamples = std::array<Samples, std::size(kCollKinds)>;

/// coll.<kind>.latency_us.p50 for every kind (0 without samples).
inline void add_coll_latencies(const CollKindSamples* samples, Result& out) {
  for (std::size_t k = 0; k < std::size(kCollKinds); ++k) {
    out.add(std::string("coll.") + kCollKinds[k].name + ".latency_us.p50",
            samples != nullptr ? (*samples)[k].percentile(0.5) : 0.0, "us");
  }
}

using SpanTimes = std::map<std::string, trace::Recorder::Times, std::less<>>;

/// Median self time (or duration) in ns of the spans named `name`; 0 when
/// there are none.
inline double median_span_ns(const SpanTimes& t, std::string_view name, bool self = true) {
  const auto it = t.find(name);
  if (it == t.end()) return 0.0;
  return median(self ? it->second.self_ns : it->second.dur_ns);
}

/// Every span-derived per-layer metric (0 where the workload makes no such
/// call), from the spans of the traced phase.
inline void add_span_metrics(const SpanTimes& t, Result& out) {
  out.add("core.isend_ns", median_span_ns(t, "core.isend"), "ns");
  out.add("core.irecv_ns", median_span_ns(t, "core.irecv"), "ns");
  out.add("core.progress_ns.hit", median_span_ns(t, "core.progress.hit"), "ns");
  out.add("core.progress_ns.empty", median_span_ns(t, "core.progress.empty"), "ns");
  out.add("core.is_complete_ns", median_span_ns(t, "core.is_complete"), "ns");
  out.add("core.wait_ns", median_span_ns(t, "core.wait"), "ns");
  for (const CollKind& k : kCollKinds) {
    out.add(std::string("coll.") + k.name + ".start_ns", median_span_ns(t, k.start_span), "ns");
  }
}

// --- failures -----------------------------------------------------------

/// Failed operations of one run: payload or result mismatches and error
/// statuses are counted and the run goes on; an operation that is not
/// complete within kOpTimeoutNs ends the process at once with exit code 1
/// (its peers may be blocked on it, so there is no orderly teardown).
struct Failures {
  std::atomic<std::uint64_t> count{0};

  void fail(const char* what, std::int64_t op) {
    if (count.fetch_add(1, std::memory_order_relaxed) < 8) {
      std::fprintf(stderr, "perfbench: operation %lld failed: %s\n",
                   static_cast<long long>(op), what);
    }
  }
  [[noreturn]] static void timeout(std::int64_t op) {
    std::fprintf(stderr, "perfbench: operation %lld not complete after %.1f s\n",
                 static_cast<long long>(op), static_cast<double>(kOpTimeoutNs) * 1e-9);
    std::fflush(stderr);
    std::_Exit(1);
  }
};

/// Checks a completed receive: no error, expected envelope, and the bytes
/// equal the seeded payload.
inline bool recv_ok(const mpx::Status& st, int src, int tag, const void* got,
                    const void* want, std::size_t n) {
  return st.error == mpx::Err::success && st.source == src && st.tag == tag &&
         st.count_bytes == n && std::memcmp(got, want, n) == 0;
}

/// Spin-drive `st` until `done()` holds; an operation still incomplete
/// after kOpTimeoutNs ends the run (Failures::timeout).
template <class Done>
void drive_until(const mpx::Stream& st, std::int64_t op, Done&& done) {
  const std::int64_t t0 = now_ns();
  for (std::uint32_t n = 1; !done(); ++n) {
    progress(st, op);
    if ((n & 1023u) == 0 && now_ns() - t0 > kOpTimeoutNs) Failures::timeout(op);
  }
}

// --- run skeleton ---------------------------------------------------------

/// Most deadline-task latencies one LatencyRecorder keeps: later tasks
/// are not recorded, so the recorder's memory stops growing.
inline constexpr std::size_t kMaxLatencySamples = 1u << 16;

inline mpx::base::LatencyRecorder* while_room(mpx::base::LatencyRecorder* rec) {
  return rec != nullptr && rec->count() < kMaxLatencySamples ? rec : nullptr;
}

/// The paper's Sec. 4.1 progress-latency experiment on one stream: `tasks`
/// dummy tasks in batches of 16, deadlines spread over (1, 20] us, progress
/// driven by stream_progress until each batch is observed. `rec` receives
/// each task's observation delay.
inline void progress_probe(mpx::World& w, const mpx::Stream& s, Rng& rng, int tasks,
                           mpx::base::LatencyRecorder& rec) {
  constexpr int kBatch = 16;
  for (int done = 0; done < tasks; done += kBatch) {
    std::atomic<int> pending{kBatch};
    const double t = w.wtime();
    for (int k = 0; k < kBatch; ++k) {
      mpx::task::add_dummy_task_abs(s, t + (1.0 + 19.0 * rng.unit()) * 1e-6, &pending,
                                    while_room(&rec));
    }
    drive_until(s, -1, [&] { return pending.load(std::memory_order_acquire) == 0; });
  }
}

/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetups = 15;

/// Worlds an untraced run's measured phase is spread over: the last
/// kMeasuredWorlds set-ups each run an equal share of it. Where a World's
/// rings and buffers land in memory moves per-message latency by up to 15 %
/// from one World to the next within a process, so one World would decide
/// the whole run.
inline constexpr int kMeasuredWorlds = 6;

inline bool measured_world(int setup) { return setup >= kSetups - kMeasuredWorlds; }

/// The CPUs this process may run on, read once before any thread is
/// pinned (a pinned thread's children inherit its single-CPU mask).
inline const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

/// Bind the calling thread to one allowed CPU (`index` modulo their
/// number), or, with index < 0, let it run on any of them again.
inline void pin_thread(int index) {
  const auto& cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (index < 0) {
    for (int c : cpus) CPU_SET(c, &set);
  } else {
    CPU_SET(cpus[static_cast<std::size_t>(index) % cpus.size()], &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Run `rank_body(rank)` on `nranks` threads, rank 0 on the caller's own
/// thread (so a workload's thread count is its ranks plus any engine
/// threads), and join the rest. Rank r is bound to CPU first_cpu + r, as an
/// MPI launcher binds ranks to cores; callers rotate first_cpu from one
/// World to the next so that no single set of (virtual) CPUs decides a run.
/// The caller is unbound again on return, so threads it starts later
/// (engine threads) may run anywhere.
inline void run_ranks(int nranks, int first_cpu, const std::function<void(int)>& rank_body) {
  allowed_cpus();
  {
    std::vector<mpx::base::ScopedThread> threads;
    threads.reserve(static_cast<std::size_t>(nranks - 1));
    for (int r = 1; r < nranks; ++r) {
      threads.emplace_back([&rank_body, first_cpu, r] {
        pin_thread(first_cpu + r);
        rank_body(r);
      });
    }
    pin_thread(first_cpu);
    rank_body(0);
  }
  pin_thread(-1);
}

/// A measured phase of `ns`: the ranks of `run` start together, rank 0
/// arms run.stop, every rank runs `body`, and all meet again at the end.
template <class RunT, class Body>
void phase(RunT& run, int rank, std::int64_t ns, Body&& body) {
  run.gate.wait();
  if (rank == 0) run.stop.arm(now_ns() + ns);
  run.gate.wait();
  body();
  run.gate.wait();
}

inline std::int64_t share_ns(double seconds, double share) {
  return static_cast<std::int64_t>(seconds * share * 1e9);
}

/// Length of one measurement block. The main measured phase is a series of
/// blocks and rates are reported as the median over blocks, so a burst of
/// outside load on a shared machine moves a few blocks, not the result.
inline constexpr double kBlockSeconds = 0.25;
inline constexpr std::int64_t kBlockNs = static_cast<std::int64_t>(kBlockSeconds * 1e9);

inline int block_count(double seconds) {
  return std::max(1, static_cast<int>(seconds / kBlockSeconds));
}

/// Per-block rates of the main measured phase (rank 0 appends).
struct BlockRates {
  std::vector<double> ops_s;
  std::vector<double> mb_s;
  std::vector<double> cpu_us_per_op;

  void add(double ops, double bytes, double seconds, double cpu_s) {
    ops_s.push_back(ratio(ops, seconds));
    mb_s.push_back(ratio(bytes, seconds) * 1e-6);
    cpu_us_per_op.push_back(ratio(cpu_s * 1e6, ops));
  }
};

}  // namespace perfbench
