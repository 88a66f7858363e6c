#include "mpx/task/progress_thread.hpp"

#include "mpx/core/wait_policy.hpp"
#include "mpx/core/world.hpp"

namespace mpx::task {

ProgressThread::ProgressThread(Stream stream) : stream_(std::move(stream)) {
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

void ProgressThread::run() {
  base::set_current_thread_name("mpx-progress");
  const WorldConfig& wc = stream_.world().config();
  core_detail::WaitBackoff backoff{core_detail::WaitPolicy{
      wc.wait_spin, wc.wait_yield, wc.wait_sleep_max_us}};
  while (!stop_.load(std::memory_order_acquire)) {
    const int made = stream_progress(stream_);
    iterations_.fetch_add(1, std::memory_order_relaxed);
    if (made != 0) {
      productive_.fetch_add(1, std::memory_order_relaxed);
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
}

}  // namespace mpx::task
