// Progress dispatch cost of the compiled stage table on the empty-engine
// fast path (the case wait loops hammer):
//
//   registry_active0  the real stream_progress on an idle 1-rank World
//                     (full stage table: dtype/async/shm/lmt/nic; binaries
//                     that link the collectives add coll-exec).
//   registry_active1  same, plus 1 registered user source that is never
//                     idle (scan width grows by one).
//   registry_active5  same, with 5 such sources.
//
// The active1/active5 deltas price one extra stage in the scan. CI's
// bench-smoke job tracks registry_active0 against the trajectory baseline
// via scripts/bench_diff.py.
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace mpx;

/// A user stage that is never idle and never makes progress: each one adds
/// a full (mask test + idle + poll) step to every scan.
class BusyNopSource final : public core_detail::ProgressSource {
 public:
  const char* name() const override { return "bench-nop"; }
  unsigned mask_bit() const override { return progress_user; }
  bool idle(core_detail::Vci&) override { return false; }
  void poll(core_detail::Vci&, int*) override {}
};

std::shared_ptr<World> world_with_sources(int active) {
  WorldConfig cfg{.nranks = 1};
  for (int i = 0; i < active; ++i) {
    cfg.extra_sources.push_back([](World&) {
      return std::make_unique<BusyNopSource>();
    });
  }
  return World::create(cfg);
}

/// One timed chunk of `iters` calls.
template <typename F>
double chunk_ns(F&& f, int iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) f();
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count() * 1e9 / iters;
}

}  // namespace

int main() {
  const int iters = mpx_bench::smoke_run() ? 100'000 : 500'000;
  const int reps = mpx_bench::smoke_run() ? 9 : 15;
  std::printf("Progress dispatch cost, %d calls x %d reps/variant "
              "(empty engine, min estimator)\n%20s %12s\n",
              iters, reps, "variant", "ns_call");

  // All variants are built up front and their repetitions interleaved
  // round-robin, so a frequency or load shift mid-run hits every variant
  // alike instead of biasing whichever section it lands on. Per variant the
  // minimum over reps is reported (noise only ever adds time).
  struct Variant {
    const char* name;
    std::function<void()> call;
    double best = 1e300;
  };
  std::vector<Variant> variants;

  std::vector<std::shared_ptr<World>> worlds;
  std::vector<Stream> streams;
  streams.reserve(3);  // stable addresses for the captured pointers
  static const char* kRegNames[] = {"registry_active0", "registry_active1",
                                    "registry_active5"};
  const int actives[] = {0, 1, 5};
  for (int a = 0; a < 3; ++a) {
    worlds.push_back(world_with_sources(actives[a]));
    streams.push_back(worlds.back()->null_stream(0));
    Stream* s = &streams.back();
    variants.push_back({kRegNames[a], [s] { stream_progress(*s); }});
  }

  for (auto& v : variants) {
    for (int i = 0; i < iters / 10 + 1; ++i) v.call();  // warm-up
  }
  for (int r = 0; r < reps; ++r) {
    for (auto& v : variants) {
      const double ns = chunk_ns(v.call, iters);
      if (ns < v.best) v.best = ns;
    }
  }

  for (const auto& v : variants) {
    std::printf("%20s %12.2f\n", v.name, v.best);
    mpx_bench::json_emit("fig_progress_stages", v.name,
                         {{"ns_call", v.best},
                          {"iters", static_cast<double>(iters)}});
  }
  return 0;
}
