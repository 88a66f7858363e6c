// Benchmark-side tracing: in-memory spans around every public call the
// benchmark makes into a layer of mpx (World::create, stream_create,
// ProgressEngine::attach, Comm::isend/irecv, stream_progress,
// Request::is_complete/wait, each coll::i* call) plus one span per
// benchmark operation that parents the calls made on its behalf.
//
// Each rank thread appends to its own log (no locking on the hot path); a
// log is bounded, and the traced phase ends when any log fills. Spans are
// kept in memory and written out once, when the run ends. With tracing off
// a Span costs one thread-local load and a branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace perfbench::trace {

struct SpanRec {
  const char* name = nullptr;  ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same log, -1 for a root
  std::int64_t op = -1;      ///< benchmark operation id, -1 for set-up
};

class Log {
 public:
  Log(int thread_id, std::size_t capacity, std::atomic<bool>& full);
  int thread_id() const { return thread_id_; }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  friend class Span;
  int thread_id_;
  std::size_t cap_;
  std::vector<SpanRec> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
  std::atomic<bool>& full_;  ///< the recorder's flag, raised near capacity
};

/// Owns every thread's log for one traced phase.
class Recorder {
 public:
  explicit Recorder(std::size_t per_thread_capacity = 1u << 18)
      : cap_(per_thread_capacity) {}
  /// Create (thread-safely) the log of one thread.
  Log& make_log(int thread_id);
  /// True once any thread's log is close to its capacity.
  bool any_full() const { return full_.load(std::memory_order_acquire); }
  std::vector<const Log*> logs() const;

  /// Self time (duration minus the time its child spans cover) and
  /// duration, in ns, of every span, grouped by span name.
  struct Times {
    std::vector<double> self_ns;
    std::vector<double> dur_ns;
  };
  std::map<std::string, Times, std::less<>> times() const;
  /// Write every span as CSV (thread,index,parent,op,name,start_ns,end_ns).
  bool write_csv(const std::string& path) const;

 private:
  std::size_t cap_;
  std::atomic<bool> full_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Log>> logs_;
};

/// Route the calling thread's spans to `log` (nullptr: tracing off).
void set_thread_log(Log* log);
Log* thread_log();

/// RAII span. Records nothing when the thread has no log or it is full.
class Span {
 public:
  Span(const char* name, std::int64_t op) {
    Log* log = thread_log();
    if (log != nullptr && log->spans_.size() < log->cap_) open(*log, name, op);
  }
  ~Span() {
    if (log_ != nullptr) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Change the name before the span closes (e.g. progress hit vs empty).
  void rename(const char* name) {
    if (log_ != nullptr) log_->spans_[static_cast<std::size_t>(idx_)].name = name;
  }

 private:
  void open(Log& log, const char* name, std::int64_t op);
  void close();
  Log* log_ = nullptr;
  std::int32_t idx_ = -1;
};

}  // namespace perfbench::trace
