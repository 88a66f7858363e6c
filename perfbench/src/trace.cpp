#include "trace.hpp"

#include <cstdio>

namespace perfbench::trace {
namespace {
thread_local Log* t_log = nullptr;
}  // namespace

void set_thread_log(Log* log) { t_log = log; }
Log* thread_log() { return t_log; }

Log::Log(int thread_id, std::size_t capacity, std::atomic<bool>& full)
    : thread_id_(thread_id), cap_(capacity), full_(full) {
  spans_.reserve(capacity);
  open_.reserve(16);
}

void Span::open(Log& log, const char* name, std::int64_t op) {
  log_ = &log;
  idx_ = static_cast<std::int32_t>(log.spans_.size());
  const std::int32_t parent = log.open_.empty() ? -1 : log.open_.back();
  log.spans_.push_back(SpanRec{name, now_ns(), 0, parent, op});
  log.open_.push_back(idx_);
  if (log.spans_.size() + 64 >= log.cap_) {
    log.full_.store(true, std::memory_order_release);
  }
}

void Span::close() {
  log_->spans_[static_cast<std::size_t>(idx_)].end_ns = now_ns();
  log_->open_.pop_back();
}

Log& Recorder::make_log(int thread_id) {
  std::lock_guard<std::mutex> g(mu_);
  logs_.push_back(std::make_unique<Log>(thread_id, cap_, full_));
  return *logs_.back();
}

std::vector<const Log*> Recorder::logs() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<const Log*> out;
  for (const auto& l : logs_) out.push_back(l.get());
  return out;
}

std::map<std::string, Recorder::Times, std::less<>> Recorder::times() const {
  std::map<std::string, Times, std::less<>> out;
  for (const Log* log : logs()) {
    const auto& s = log->spans();
    // Children are sequential on one thread, so the time they cover is the
    // sum of their durations.
    std::vector<std::int64_t> child_ns(s.size(), 0);
    for (const SpanRec& r : s) {
      if (r.parent >= 0) {
        child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
      }
    }
    for (std::size_t i = 0; i < s.size(); ++i) {
      const std::int64_t dur = s[i].end_ns - s[i].start_ns;
      Times& t = out[s[i].name];
      t.self_ns.push_back(static_cast<double>(dur - child_ns[i]));
      t.dur_ns.push_back(static_cast<double>(dur));
    }
  }
  return out;
}

bool Recorder::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,parent,op,name,start_ns,end_ns\n");
  for (const Log* log : logs()) {
    const auto& s = log->spans();
    for (std::size_t i = 0; i < s.size(); ++i) {
      std::fprintf(f, "%d,%zu,%d,%lld,%s,%lld,%lld\n", log->thread_id(), i,
                   s[i].parent, static_cast<long long>(s[i].op), s[i].name,
                   static_cast<long long>(s[i].start_ns),
                   static_cast<long long>(s[i].end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
