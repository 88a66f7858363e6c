// mpx/task/progress_thread.hpp
//
// Stream-scoped progress helper thread — the Fig. 5(b) remedy done right
// (§5.1): instead of an implementation-global async-progress thread that
// contends with every MPI call under MPI_THREAD_MULTIPLE, the application
// spins progress on exactly the stream(s) that need it, where it knows by
// design that background progress is required. When progress is idle the
// thread climbs the World's spin -> yield -> sleep wait ladder
// (WorldConfig::wait_spin / wait_yield / wait_sleep_max_us), so an idle
// helper ends up sleeping (the MVAPICH-style tuning the paper cites).
#pragma once

#include <atomic>
#include <cstdint>

#include "mpx/base/thread.hpp"
#include "mpx/core/stream.hpp"

namespace mpx::task {

/// RAII progress thread for one stream. Starts on construction, stops and
/// joins on destruction.
///
/// Threading contract: the helper thread only ever calls stream_progress(),
/// which takes the stream's VCI lock (rank vci) and, transitively, transport
/// locks (rank transport*) — the same order every application thread uses,
/// so adding a helper thread can never introduce a lock-order cycle. All
/// members it shares with the owner (stop_, counters) are atomics; stop()
/// is safe to call from any thread, idempotent, and safe to race with the
/// destructor (exactly one caller joins; the rest wait for the join), and
/// its return fences the worker's final counter publish — iterations()/
/// productive() read after stop() see the thread's last poll.
class ProgressThread {
 public:
  explicit ProgressThread(Stream stream);
  ~ProgressThread();

  ProgressThread(const ProgressThread&) = delete;
  ProgressThread& operator=(const ProgressThread&) = delete;

  /// Ask the thread to stop and wait for it.
  void stop();

  /// Progress calls issued so far (lifetime total).
  std::uint64_t iterations() const {
    return iterations_.load(std::memory_order_relaxed);
  }
  /// Progress calls that reported progress (lifetime total).
  std::uint64_t productive() const {
    return productive_.load(std::memory_order_relaxed);
  }

 private:
  void run();

  Stream stream_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> iterations_{0};
  std::atomic<std::uint64_t> productive_{0};
  std::atomic<bool> joining_{false};
  std::atomic<bool> joined_{false};
  base::ScopedThread thread_;
};

}  // namespace mpx::task
