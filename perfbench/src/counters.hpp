// The one place the benchmark reads the counters mpx already exposes.
//
// Today those counters come in nine shapes (World's per-VCI accessors,
// ShmStats, TransportStats, NicStats, the pool registry, the collective
// cache, the progress engine); a workload names the sources it uses, the
// adapter snapshots all of them before and after the measured phase, and
// turns the deltas into per-operation layer metrics. A single metrics
// surface on World would replace `read()` and nothing else.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "mpx/coll/ir.hpp"
#include "mpx/core/world.hpp"
#include "mpx/task/progress_engine.hpp"

namespace perfbench::counters {

/// What to read: the (rank, vci) pairs a workload drives, and optionally
/// the communicator its collectives run on and its progress engine.
struct Sources {
  mpx::World* world = nullptr;
  std::vector<std::pair<int, int>> vcis;
  const mpx::Comm* coll_comm = nullptr;
  const mpx::task::ProgressEngine* engine = nullptr;
};

struct Snapshot {
  std::uint64_t progress_calls = 0;
  std::uint64_t lock_acquires = 0;
  std::uint64_t lock_contended = 0;
  std::uint64_t wait_spin = 0;
  std::uint64_t wait_yield = 0;
  std::uint64_t wait_sleep = 0;
  /// Stage-table rows, in the order of kStages.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stage_calls_hits;
  std::uint64_t shm_sends = 0;
  std::uint64_t shm_ring_full = 0;
  std::uint64_t shm_batched = 0;
  std::uint64_t shm_inline = 0;
  std::uint64_t shm_backlogged = 0;
  std::uint64_t nic_injected = 0;
  std::uint64_t nic_cq_events = 0;
  std::uint64_t nic_sends = 0;
  std::uint64_t nic_backlogged = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  mpx::coll::ir::CacheStats cache;
  std::uint64_t engine_promotions = 0;
  std::uint64_t engine_demotions = 0;
  std::uint64_t engine_steals = 0;
  std::uint64_t engine_polls = 0;
  std::uint64_t engine_hits = 0;
};

/// The progress-stage rows reported, by registry name.
inline const std::vector<std::string> kStages = {
    "dtype", "coll", "coll-exec", "async", "shm", "lmt", "nic"};

Snapshot read(const Sources& src);

/// Append every counter-derived per-layer metric for the window
/// [before, after] in which `ops` benchmark operations completed.
void add_layer_metrics(const Snapshot& before, const Snapshot& after,
                       double ops, Result& out);

/// Park check after a workload: how many times the engine's idle workers
/// reached the sleep rung in `idle_ms` without work (0 without an engine).
double engine_idle_sleeps(const mpx::task::ProgressEngine* engine, int idle_ms);

}  // namespace perfbench::counters
