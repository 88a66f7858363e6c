#include "mpx/task/progress_thread.hpp"

#include <chrono>
#include <thread>

#include "mpx/core/wait_policy.hpp"
#include "mpx/core/world.hpp"

namespace mpx::task {

ProgressThread::ProgressThread(Stream stream, ProgressBackoff backoff)
    : stream_(std::move(stream)), backoff_(backoff) {
  expects(stream_.valid(), "ProgressThread: invalid stream");
  thread_ = base::ScopedThread([this] { run(); });
}

ProgressThread::~ProgressThread() { stop(); }

void ProgressThread::stop() {
  stop_.store(true, std::memory_order_release);
  // Exactly one caller joins; everyone else (e.g. the destructor racing an
  // explicit stop() from another thread — double std::thread::join is UB)
  // waits for the joiner's release store. Loading joined_ with acquire
  // orders the worker's final counter publish before our return either way:
  // the join itself synchronizes-with thread exit for the joiner, and the
  // joined_ handshake extends that edge to the non-joining callers.
  if (!joining_.exchange(true, std::memory_order_acq_rel)) {
    thread_.join();
    joined_.store(true, std::memory_order_release);
    return;
  }
  while (!joined_.load(std::memory_order_acquire)) {
    base::cpu_relax();
  }
}

ProgressThread::Window ProgressThread::sample_window() {
  const std::uint64_t it = iterations_.load(std::memory_order_relaxed);
  const std::uint64_t pr = productive_.load(std::memory_order_relaxed);
  const Window delta{it - last_window_.iterations,
                     pr - last_window_.productive};
  last_window_ = Window{it, pr};
  return delta;
}

void ProgressThread::run() {
  base::set_current_thread_name("mpx-progress");
  std::uint64_t idle_streak = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    const int made = stream_progress(stream_);
    iterations_.fetch_add(1, std::memory_order_relaxed);
    if (made != 0) {
      productive_.fetch_add(1, std::memory_order_relaxed);
      idle_streak = 0;
      continue;
    }
    ++idle_streak;
    switch (backoff_) {
      case ProgressBackoff::busy:
        base::cpu_relax();
        break;
      case ProgressBackoff::yield:
        std::this_thread::yield();
        break;
      case ProgressBackoff::sleep: {
        // Exponential backoff keeps idle cost near zero while bounding
        // added latency when work reappears. The cap is the same
        // WorldConfig::wait_sleep_max_us the wait ladder uses — one knob
        // for every idle sleeper of the World.
        if (idle_streak < 8) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(
              std::chrono::microseconds(core_detail::backoff_sleep_us(
                  static_cast<long>(idle_streak) - 8,
                  stream_.world().config().wait_sleep_max_us)));
        }
        break;
      }
    }
  }
}

}  // namespace mpx::task
