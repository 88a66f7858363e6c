// Shared pieces of the benchmark: the command line, the result record every
// workload fills, seeded generators, clocks, and the small synchronisation
// helpers the rank threads use to agree on where the timed phase ends.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< where the traced run writes its spans
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of a workload reports. `metrics` holds the end-to-end set
/// in an untraced run and the per-layer set in a traced run; `extra` holds
/// lines printed for people only (never part of the final JSON).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

/// Process CPU time (user + system, every thread) in seconds.
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// splitmix64: decorrelated streams from structured (seed, stream) pairs.
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b * 0xbf58476d1ce4e5b9ull +
                    0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Small seeded generator (xorshift64*), one per input stream.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream) : s_(mix(seed, stream) | 1) {}
  std::uint64_t next() {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545f4914f6cdd1dull;
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Log-uniform integer in [lo, hi].
  std::size_t log_uniform(std::size_t lo, std::size_t hi) {
    const double l = std::log(static_cast<double>(lo));
    const double h = std::log(static_cast<double>(hi) + 1.0);
    const auto v = static_cast<std::size_t>(std::exp(l + (h - l) * unit()));
    return std::clamp(v, lo, hi);
  }

 private:
  std::uint64_t s_;
};

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  k = std::clamp<std::size_t>(k, 1, n);
  return v[k - 1];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// A uniform sample of fixed capacity (reservoir sampling) of a stream of
/// values: percentiles cover the whole phase while the benchmark's own
/// memory stays the same whatever the run length or speed, so peak_rss_mb
/// measures the library. The storage is touched at construction.
class Samples {
 public:
  explicit Samples(std::size_t capacity = 1u << 16, std::uint64_t seed = 0)
      : v_(capacity, 0.0), rng_(seed, 99) {}
  void add(double x) {
    if (n_ < v_.size()) {
      v_[n_] = x;
    } else if (const auto j = rng_.below(n_ + 1); j < v_.size()) {
      v_[j] = x;
    }
    ++n_;
  }
  std::uint64_t count() const { return n_; }
  double percentile(double q) const {
    std::vector<double> v(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(
                                                       std::min<std::uint64_t>(n_, v_.size())));
    return perfbench::percentile(v, q);
  }

 private:
  std::vector<double> v_;
  Rng rng_;
  std::uint64_t n_ = 0;
};

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Reusable spin barrier for the rank threads of one run.
class Gate {
 public:
  explicit Gate(int parties) : parties_(parties) {}
  void wait() {
    const int gen = gen_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      gen_.store(gen + 1, std::memory_order_release);
      return;
    }
    while (gen_.load(std::memory_order_acquire) == gen) std::this_thread::yield();
  }

 private:
  const int parties_;
  std::atomic<int> arrived_{0};
  std::atomic<int> gen_{0};
};

/// Where a timed phase ends, agreed by every rank without extra messages.
/// Rank 0 watches the clock; once the deadline passes at its operation i it
/// publishes i + kMargin, and every rank stops before that operation. The
/// workloads guarantee no rank runs kMargin operations ahead of rank 0
/// (every rank depends on rank 0 at least that often), so each rank reads
/// the published value before it gets there.
class StopLine {
 public:
  static constexpr std::int64_t kMargin = 32;

  void arm(std::int64_t deadline_ns) {
    deadline_ns_ = deadline_ns;
    stop_at_.store(std::numeric_limits<std::int64_t>::max(),
                   std::memory_order_relaxed);
  }
  /// Rank 0, before operation i: publish the stop once time is up. Also
  /// stops at `cap` operations (the traced run's span budget).
  void poll(std::int64_t i, bool cap_reached = false) {
    if (stop_at_.load(std::memory_order_relaxed) !=
        std::numeric_limits<std::int64_t>::max()) {
      return;
    }
    if (cap_reached || now_ns() >= deadline_ns_) {
      stop_at_.store(i + kMargin, std::memory_order_release);
    }
  }
  bool done(std::int64_t i) const {
    return i >= stop_at_.load(std::memory_order_acquire);
  }

 private:
  std::int64_t deadline_ns_ = 0;
  std::atomic<std::int64_t> stop_at_{std::numeric_limits<std::int64_t>::max()};
};

/// Busy host compute until `deadline_ns` (spinning, never sleeping: sleep
/// overshoot on a shared VM is larger than the effects being measured).
inline void spin_until(std::int64_t deadline_ns) {
  while (now_ns() < deadline_ns) {
  }
}

/// Operations that are not complete this long after they were started
/// count as failed.
inline constexpr std::int64_t kOpTimeoutNs = 2'000'000'000;

}  // namespace perfbench
