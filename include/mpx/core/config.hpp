// mpx/core/config.hpp
//
// World construction parameters. Callers set fields on a WorldConfig and
// pass it to World::create; the defaults below are the only other source
// (docs/tuning.md lists them alongside the module constants).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "mpx/net/cost_model.hpp"

namespace mpx {

class World;
namespace core_detail {
class ProgressSource;
}
namespace transport {
class Transport;
}

/// Tuning of the adaptive progress engine (task::ProgressEngine). Plain
/// data held by WorldConfig so the engine, its tests, and its benches share
/// one knob set; the engine itself lives in the task layer and reads this
/// through World::config().
struct ProgressEngineConfig {
  /// Controller epoch length in microseconds: how often the per-VCI
  /// windowed rates are sampled and promote/demote decisions made.
  int epoch_us = 500;

  /// Ceiling on engine-owned threads polling VCIs (shared pool workers +
  /// dedicated workers; the controller itself is not counted). Promotions
  /// that would exceed it are deferred, not dropped.
  int max_workers = 2;

  /// Promote inline -> shared when a VCI has work pending but the
  /// application issued fewer than this many progress calls during the
  /// epoch (the app is not driving its own progress).
  int promote_app_polls = 4;

  /// Promote shared -> dedicated when the engine's own polls on the VCI
  /// hit (made progress) at or above this rate over the epoch.
  double dedicate_hit_rate = 0.5;

  /// Demote one step (dedicated -> shared -> inline) when the VCI had no
  /// pending work and the engine hit rate fell to or below this.
  double demote_hit_rate = 0.01;

  /// Consecutive epochs a promote/demote signal must persist before the
  /// transition is taken (flap damping at the thresholds).
  int hysteresis = 2;
};

/// Configuration for a World (one simulated MPI job).
struct WorldConfig {
  /// Number of ranks in the job.
  int nranks = 1;

  /// Ranks per simulated node: pairs within a node use the shared-memory
  /// transport, pairs across nodes use the simulated NIC. Default (0) means
  /// "all ranks on one node".
  int ranks_per_node = 0;

  /// Maximum number of VCIs (streams + the default VCI 0) per rank.
  int max_vcis = 16;

  /// Shared-memory transport: eager cutover and ring capacity.
  std::size_t shm_eager_max = 64 * 1024;
  std::size_t shm_cells = 64;
  /// Shared-memory LMT copy chunk (receiver-side copy work per poll).
  std::size_t shm_lmt_chunk = 256 * 1024;

  /// Wait-loop backoff policy (request.cpp): spin this many empty progress
  /// rounds at full rate (<0 = spin forever), then sched-yield this many
  /// rounds (<0 = never sleep), then sleep with exponential backoff capped
  /// at wait_sleep_max_us. Any progress resets the ladder.
  int wait_spin = 200;
  int wait_yield = 32;
  /// Sleep-rung cap in microseconds, shared by the wait ladder and the
  /// task-layer progress helper threads (one knob for every idle sleeper).
  int wait_sleep_max_us = 64;

  /// Adaptive progress engine tuning (task::ProgressEngine reads this
  /// through World::config(); constructing a World never starts engine
  /// threads by itself).
  ProgressEngineConfig progress_engine;

  /// Simulated NIC thresholds: <= lightweight is buffered-and-forget
  /// (Fig. 1a); <= eager_max completes at injection-done (Fig. 1b); above
  /// that, rendezvous (Fig. 1c); above pipeline_min, chunked pipeline mode.
  std::size_t net_lightweight_max = 1024;
  std::size_t net_eager_max = 64 * 1024;
  std::size_t net_pipeline_min = 1024 * 1024;
  std::size_t net_pipeline_chunk = 256 * 1024;
  int net_pipeline_inflight = 4;

  /// NIC timing model.
  net::CostModel net;

  /// Use a manually-advanced virtual clock (deterministic tests) instead of
  /// the steady clock.
  bool use_virtual_clock = false;

  /// Protocol-trace ring capacity (records). 0 disables tracing.
  std::size_t trace_capacity = 0;

  /// Message-matching bins per VCI (rounded up to a power of two). Posted
  /// receives and unexpected messages are hashed by (context, source); 1
  /// degenerates to the seed's single linear queue.
  int match_bins = 64;

  /// Out-of-tree progress stages, appended to the registry after the
  /// in-tree dtype/async stages and any link-time sources (the collective
  /// executor), before the transport stages.
  /// Factories run during World construction; they may inspect
  /// World::config() and World::clock() but the World is not yet usable
  /// for communication.
  std::vector<
      std::function<std::unique_ptr<core_detail::ProgressSource>(World&)>>
      extra_sources;

  /// Out-of-tree transports, placed BEFORE the in-tree shm/nic pair in
  /// routing order (first transport whose reaches(src, dst) claims a rank
  /// pair carries it). Same construction-time restrictions as
  /// extra_sources.
  std::vector<std::function<std::unique_ptr<transport::Transport>(World&)>>
      extra_transports;
};

}  // namespace mpx
