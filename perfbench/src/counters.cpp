#include "counters.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "mpx/base/pool.hpp"
#include "mpx/net/nic.hpp"
#include "mpx/shm/shm_transport.hpp"

namespace perfbench::counters {

Snapshot read(const Sources& src) {
  Snapshot s;
  s.stage_calls_hits.assign(kStages.size(), {0, 0});
  mpx::World& w = *src.world;
  for (const auto& [rank, vci] : src.vcis) {
    s.progress_calls += w.vci_progress_calls(rank, vci);
    const auto lk = w.vci_lock_stats(rank, vci);
    s.lock_acquires += lk.acquires;
    s.lock_contended += lk.contended;
    const auto rungs = w.vci_wait_rungs(rank, vci);
    s.wait_spin += rungs.spin;
    s.wait_yield += rungs.yield;
    s.wait_sleep += rungs.sleep;
    for (const auto& row : w.vci_stage_table(rank, vci)) {
      for (std::size_t i = 0; i < kStages.size(); ++i) {
        if (row.name == kStages[i]) {
          s.stage_calls_hits[i].first += row.calls;
          s.stage_calls_hits[i].second += row.hits;
        }
      }
    }
  }
  if (auto* t = dynamic_cast<mpx::shm::ShmTransport*>(w.find_transport("shm"))) {
    const auto st = t->stats();
    s.shm_sends = st.sends;
    s.shm_ring_full = st.ring_full_events;
    s.shm_batched = st.batched_deliveries;
    s.shm_inline = st.inline_payload_hits;
    s.shm_backlogged = t->transport_stats().backlogged;
  }
  if (auto* t = dynamic_cast<mpx::net::Nic*>(w.find_transport("nic"))) {
    const auto st = t->stats();
    s.nic_injected = st.injected;
    s.nic_cq_events = st.cq_events;
    const auto ts = t->transport_stats();
    s.nic_sends = ts.sends;
    s.nic_backlogged = ts.backlogged;
  }
  for (const auto& p : mpx::base::pool_registry_snapshot()) {
    s.pool_hits += p.stats.hits;
    s.pool_misses += p.stats.misses;
  }
  if (src.coll_comm != nullptr) s.cache = mpx::coll::ir::cache_stats(*src.coll_comm);
  if (src.engine != nullptr) {
    const auto st = src.engine->stats();
    s.engine_promotions = st.promotions;
    s.engine_demotions = st.demotions;
    s.engine_steals = st.steals;
    for (const auto& v : st.vcis) {
      s.engine_polls += v.engine_polls;
      s.engine_hits += v.engine_hits;
    }
  }
  return s;
}

void add_layer_metrics(const Snapshot& a, const Snapshot& b, double ops,
                       Result& out) {
  auto d = [](std::uint64_t before, std::uint64_t after) {
    return static_cast<double>(after - before);
  };
  auto per_op = [&](std::uint64_t before, std::uint64_t after) {
    return ratio(d(before, after), ops);
  };

  out.add("core.progress_calls_per_op", per_op(a.progress_calls, b.progress_calls), "count");
  out.add("core.lock_acquires_per_op", per_op(a.lock_acquires, b.lock_acquires), "count");
  out.add("core.lock_contended_ratio",
          ratio(d(a.lock_contended, b.lock_contended), d(a.lock_acquires, b.lock_acquires)),
          "ratio");
  out.add("core.wait_spin_per_op", per_op(a.wait_spin, b.wait_spin), "count");
  out.add("core.wait_yield_per_op", per_op(a.wait_yield, b.wait_yield), "count");
  out.add("core.wait_sleep_per_op", per_op(a.wait_sleep, b.wait_sleep), "count");

  for (std::size_t i = 0; i < kStages.size(); ++i) {
    const auto [c0, h0] = a.stage_calls_hits[i];
    const auto [c1, h1] = b.stage_calls_hits[i];
    out.add("stage." + kStages[i] + ".calls_per_op", per_op(c0, c1), "count");
    out.add("stage." + kStages[i] + ".hit_ratio", ratio(d(h0, h1), d(c0, c1)), "ratio");
  }

  const double shm_sends = d(a.shm_sends, b.shm_sends);
  // Share of productive shm-stage polls whose drain moved two or more cells.
  const auto shm_row = static_cast<std::size_t>(
      std::find(kStages.begin(), kStages.end(), "shm") - kStages.begin());
  const double shm_hits = d(a.stage_calls_hits[shm_row].second, b.stage_calls_hits[shm_row].second);
  out.add("shm.ring_full_per_send", ratio(d(a.shm_ring_full, b.shm_ring_full), shm_sends), "count");
  out.add("shm.batched_delivery_ratio", ratio(d(a.shm_batched, b.shm_batched), shm_hits), "ratio");
  out.add("shm.inline_payload_ratio", ratio(d(a.shm_inline, b.shm_inline), shm_sends), "ratio");
  out.add("shm.backlogged_per_send", ratio(d(a.shm_backlogged, b.shm_backlogged), shm_sends), "count");

  out.add("net.wire_msgs_per_op", per_op(a.nic_injected, b.nic_injected), "count");
  out.add("net.cq_events_per_op", per_op(a.nic_cq_events, b.nic_cq_events), "count");
  out.add("net.backlogged_per_send",
          ratio(d(a.nic_backlogged, b.nic_backlogged), d(a.nic_sends, b.nic_sends)), "count");

  const double pool_ops = d(a.pool_hits, b.pool_hits) + d(a.pool_misses, b.pool_misses);
  out.add("base.pool.hit_ratio", ratio(d(a.pool_hits, b.pool_hits), pool_ops), "ratio");
  out.add("base.pool.ops_per_op", ratio(pool_ops, ops), "count");

  const double lookups = d(a.cache.hits, b.cache.hits) + d(a.cache.misses, b.cache.misses);
  const double scratch = d(a.cache.scratch_hits, b.cache.scratch_hits) +
                         d(a.cache.scratch_misses, b.cache.scratch_misses);
  out.add("coll.ir_cache_hit_ratio", ratio(d(a.cache.hits, b.cache.hits), lookups), "ratio");
  out.add("coll.ir_cache_entries", static_cast<double>(b.cache.entries), "count");
  out.add("coll.scratch_hit_ratio",
          ratio(d(a.cache.scratch_hits, b.cache.scratch_hits), scratch), "ratio");

  out.add("task.engine.promotions", d(a.engine_promotions, b.engine_promotions), "count");
  out.add("task.engine.demotions", d(a.engine_demotions, b.engine_demotions), "count");
  out.add("task.engine.steals", d(a.engine_steals, b.engine_steals), "count");
  out.add("task.engine.polls_per_op", per_op(a.engine_polls, b.engine_polls), "count");
  out.add("task.engine.poll_hit_ratio",
          ratio(d(a.engine_hits, b.engine_hits), d(a.engine_polls, b.engine_polls)), "ratio");
}

double engine_idle_sleeps(const mpx::task::ProgressEngine* engine, int idle_ms) {
  if (engine == nullptr) return 0.0;
  const auto s1 = engine->stats().worker_rungs.sleep;
  std::this_thread::sleep_for(std::chrono::milliseconds(idle_ms));
  const auto s2 = engine->stats().worker_rungs.sleep;
  return static_cast<double>(s2 - s1);
}

}  // namespace perfbench::counters
