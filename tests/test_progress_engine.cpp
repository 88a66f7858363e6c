// Adaptive progress engine tests.
//
// The EnginePolicy half is pure and deterministic: tests inject fabricated
// epoch samples and prove the mode transitions, the hysteresis damping at
// thresholds, promotion held while can_grow is false, and the wait-ladder
// starvation signal. The runtime half is exercised end to end
// on a real World (promote while the application computes, demote and park
// on the sleep rung when the workload goes idle), with generous deadlines
// so scheduling noise cannot flake the assertions. The ProgressThread
// satellite fixes ride along: concurrent stop()/destructor and windowed
// counter sampling.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "mpx/task/progress_engine.hpp"
#include "mpx/task/progress_thread.hpp"
#include "test_util.hpp"

using namespace mpx;
using task::EngineMode;
using task::EnginePolicy;
using task::EngineSample;

namespace {

ProgressEngineConfig policy_cfg() {
  ProgressEngineConfig cfg;
  cfg.dedicate_hit_rate = 0.5;
  return cfg;
}

EngineSample starved_sample() {
  EngineSample s;
  s.pending = 1;
  s.app_polls = 0;
  return s;
}

EngineSample app_polling_sample() {
  EngineSample s;
  s.pending = 1;
  s.app_polls = 1000;
  return s;
}

EngineSample cold_sample() {
  EngineSample s;  // pending == 0, no polls anywhere
  return s;
}

EngineSample hot_shared_sample() {
  EngineSample s;
  s.pending = 1;
  s.engine_polls = 100;
  s.engine_hits = 60;  // 0.6 >= dedicate_hit_rate 0.5
  return s;
}

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

}  // namespace

// ---------------------------------------------------------------- policy --

TEST(EnginePolicyTest, PromotesInlineToSharedAfterHysteresis) {
  EnginePolicy p(policy_cfg());
  // Epoch 1: signal present but streak not mature yet.
  EXPECT_EQ(p.decide(EngineMode::inline_poll, starved_sample(), true),
            EngineMode::inline_poll);
  // Epoch 2: second consecutive starved epoch takes the transition.
  EXPECT_EQ(p.decide(EngineMode::inline_poll, starved_sample(), true),
            EngineMode::shared);
}

TEST(EnginePolicyTest, StaysInlineWhileApplicationPolls) {
  EnginePolicy p(policy_cfg());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(p.decide(EngineMode::inline_poll, app_polling_sample(), true),
              EngineMode::inline_poll);
  }
}

TEST(EnginePolicyTest, WaitLadderBackoffCountsAsStarvation) {
  // The app IS polling (blocking waiters poll every round) but its waiters
  // fell off the spin rung: polls are empty, promote anyway.
  EnginePolicy p(policy_cfg());
  EngineSample s = app_polling_sample();
  s.wait_backoffs = 50;
  EXPECT_EQ(p.decide(EngineMode::inline_poll, s, true),
            EngineMode::inline_poll);
  EXPECT_EQ(p.decide(EngineMode::inline_poll, s, true), EngineMode::shared);
}

TEST(EnginePolicyTest, HysteresisDampsFlappingAtThreshold) {
  // Signal alternating on/off every epoch never accumulates a streak: the
  // mode must hold inline forever.
  EnginePolicy p(policy_cfg());
  for (int i = 0; i < 50; ++i) {
    const EngineSample s = (i % 2 == 0) ? starved_sample()
                                        : app_polling_sample();
    EXPECT_EQ(p.decide(EngineMode::inline_poll, s, true),
              EngineMode::inline_poll)
        << "flapped at epoch " << i;
  }
}

TEST(EnginePolicyTest, PromotesSharedToDedicatedOnHitRate) {
  EnginePolicy p(policy_cfg());
  EXPECT_EQ(p.decide(EngineMode::shared, hot_shared_sample(), true),
            EngineMode::shared);
  EXPECT_EQ(p.decide(EngineMode::shared, hot_shared_sample(), true),
            EngineMode::dedicated);
}

TEST(EnginePolicyTest, DemotesDownTheLadderWhenCold) {
  EnginePolicy p(policy_cfg());
  EXPECT_EQ(p.decide(EngineMode::dedicated, cold_sample(), true),
            EngineMode::dedicated);
  EXPECT_EQ(p.decide(EngineMode::dedicated, cold_sample(), true),
            EngineMode::shared);
  EXPECT_EQ(p.decide(EngineMode::shared, cold_sample(), true),
            EngineMode::shared);
  EXPECT_EQ(p.decide(EngineMode::shared, cold_sample(), true),
            EngineMode::inline_poll);
}

TEST(EnginePolicyTest, BusySharedVciIsNotDemoted) {
  EnginePolicy p(policy_cfg());
  EngineSample s;
  s.pending = 3;  // work in flight: hit rate alone must not demote
  s.engine_polls = 1000;
  s.engine_hits = 0;
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(p.decide(EngineMode::shared, s, true), EngineMode::shared);
  }
}

TEST(EnginePolicyTest, CeilingDefersPromotionWithoutDroppingIt) {
  EnginePolicy p(policy_cfg());
  // Streak matures but the worker budget says no: hold, don't reset.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(p.decide(EngineMode::inline_poll, starved_sample(), false),
              EngineMode::inline_poll);
  }
  // The moment budget frees up, the deferred promotion fires — no need to
  // rebuild the streak from scratch.
  EXPECT_EQ(p.decide(EngineMode::inline_poll, starved_sample(), true),
            EngineMode::shared);
}

// --------------------------------------------------------------- runtime --

TEST(ProgressEngineTest, PromotesWhileApplicationComputes) {
  WorldConfig cfg{.nranks = 2};
  cfg.progress_engine.epoch_us = 200;
  auto w = World::create(cfg);
  task::ProgressEngine eng(*w);
  eng.attach(w->null_stream(0));

  // Rank 0 posts a large (rendezvous) receive and then goes off to
  // "compute": it never calls progress again. Without the engine the LMT
  // copy would never run and the receive could not complete.
  const std::size_t n = 1 << 18;
  std::vector<std::int32_t> rbuf(n, -1), sbuf(n, 7);
  Comm c0 = w->comm_world(0);
  Request rreq =
      c0.irecv(rbuf.data(), n, dtype::Datatype::int32(), 1, 9);

  std::thread sender([&] {
    Comm c1 = w->comm_world(1);
    Request sreq = c1.isend(sbuf.data(), n, dtype::Datatype::int32(), 0, 9);
    sreq.wait();  // drives rank 1's own VCI only
  });

  EXPECT_TRUE(wait_until([&] { return rreq.is_complete(); },
                         std::chrono::seconds(20)))
      << "engine never completed the receive";
  sender.join();
  EXPECT_EQ(rbuf.front(), 7);
  EXPECT_EQ(rbuf.back(), 7);

  const auto st = eng.stats();
  EXPECT_GE(st.promotions, 1u) << "completion without a promotion?";
  EXPECT_GE(st.workers, 1);

  // Workload over: the engine must demote back to inline and park its
  // workers on the sleep rung instead of burning a core.
  EXPECT_TRUE(wait_until(
      [&] {
        return eng.mode_of(w->null_stream(0)) == EngineMode::inline_poll;
      },
      std::chrono::seconds(20)));
  EXPECT_GE(eng.stats().demotions, 1u);
  const std::uint64_t slept = eng.stats().worker_rungs.sleep;
  EXPECT_TRUE(wait_until(
      [&] { return eng.stats().worker_rungs.sleep > slept; },
      std::chrono::seconds(20)))
      << "idle engine workers never reached the sleep rung";

  eng.stop();
  w->finalize_rank(0);
  w->finalize_rank(1);
}

TEST(ProgressEngineTest, WorkerCeilingHolds) {
  WorldConfig cfg{.nranks = 1};
  cfg.progress_engine.epoch_us = 200;
  cfg.progress_engine.max_workers = 1;
  auto w = World::create(cfg);
  task::ProgressEngine eng(*w);

  // Two streams, both permanently starved (a receive that never matches
  // keeps active_ops pinned at 1 while the app never polls): both must end
  // up shared on the single allowed worker.
  Stream sa = w->stream_create(0);
  Stream sb = w->stream_create(0);
  eng.attach(sa);
  eng.attach(sb);

  Comm cw = w->comm_world(0);
  Comm ca = cw.with_stream(sa);
  Comm cb = cw.with_stream(sb);
  std::int32_t da = 0, db = 0;
  Request ra = ca.irecv(&da, 1, dtype::Datatype::int32(), 0, 1001);
  Request rb = cb.irecv(&db, 1, dtype::Datatype::int32(), 0, 1002);

  EXPECT_TRUE(wait_until(
      [&] {
        return eng.mode_of(sa) == EngineMode::shared &&
               eng.mode_of(sb) == EngineMode::shared;
      },
      std::chrono::seconds(20)));
  EXPECT_EQ(eng.stats().workers, 1);

  // A worker multiplexing both VCIs must be polling both.
  EXPECT_TRUE(wait_until(
      [&] {
        const auto st = eng.stats();
        std::uint64_t polled = 0;
        for (const auto& v : st.vcis) polled += v.engine_polls > 0 ? 1 : 0;
        return polled == 2;
      },
      std::chrono::seconds(20)));

  eng.stop();
  ra.cancel();
  rb.cancel();
  EXPECT_TRUE(ra.is_complete());
  EXPECT_TRUE(rb.is_complete());
  w->stream_free(sa);
  w->stream_free(sb);
  w->finalize_rank(0);
}

TEST(ProgressEngineTest, CeilingNeverStrandsAStarvedVci) {
  // One worker allowed, and any shared VCI the engine polls earns
  // dedication. A starves first, so the only worker is dedicated to it;
  // B starving afterwards must still get polled (A goes back to shared)
  // instead of waiting for a worker that never frees up.
  WorldConfig cfg{.nranks = 1};
  cfg.progress_engine.epoch_us = 200;
  cfg.progress_engine.max_workers = 1;
  cfg.progress_engine.dedicate_hit_rate = 0;
  auto w = World::create(cfg);
  task::ProgressEngine eng(*w);
  Stream sa = w->stream_create(0);
  Stream sb = w->stream_create(0);
  eng.attach(sa);
  eng.attach(sb);

  Comm cw = w->comm_world(0);
  std::int32_t da = 0, db = 0;
  Request ra =
      cw.with_stream(sa).irecv(&da, 1, dtype::Datatype::int32(), 0, 1001);
  ASSERT_TRUE(wait_until(
      [&] { return eng.mode_of(sa) == EngineMode::dedicated; },
      std::chrono::seconds(20)));
  EXPECT_EQ(eng.stats().workers, 1);

  // B gets a never-matching receive; the application never polls it.
  Request rb =
      cw.with_stream(sb).irecv(&db, 1, dtype::Datatype::int32(), 0, 1002);
  auto polls_of_b = [&] {
    for (const auto& v : eng.stats().vcis) {
      if (v.vci == sb.vci()) return v.engine_polls;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t before = polls_of_b();
  EXPECT_TRUE(wait_until([&] { return polls_of_b() > before; },
                         std::chrono::seconds(10)))
      << "starved VCI stranded at the worker ceiling";
  EXPECT_EQ(eng.stats().workers, 1);

  eng.stop();
  ra.cancel();
  rb.cancel();
  EXPECT_TRUE(ra.is_complete());
  EXPECT_TRUE(rb.is_complete());
  w->stream_free(sa);
  w->stream_free(sb);
  w->finalize_rank(0);
}

TEST(ProgressEngineTest, AsyncHookCountsAsPendingWork) {
  // The VCI's only work is one async hook that finishes after a few
  // polls, and the application only reads a flag: the engine must take
  // the hook as pending work and poll it to completion.
  WorldConfig cfg{.nranks = 1};
  cfg.progress_engine.epoch_us = 200;
  auto w = World::create(cfg);
  task::ProgressEngine eng(*w);
  Stream s = w->stream_create(0);
  eng.attach(s);

  std::atomic<bool> done{false};
  int polls = 0;
  async_start(
      [&] {
        if (++polls < 5) return AsyncResult::pending;
        done.store(true, std::memory_order_release);
        return AsyncResult::done;
      },
      s);
  EXPECT_TRUE(wait_until([&] { return done.load(std::memory_order_acquire); },
                         std::chrono::seconds(10)))
      << "engine never polled a VCI whose only work is a hook";

  eng.stop();
  w->stream_free(s);
  w->finalize_rank(0);
}

TEST(ProgressEngineTest, DetachHandsProgressBack) {
  WorldConfig cfg{.nranks = 1};
  cfg.progress_engine.epoch_us = 200;
  auto w = World::create(cfg);
  task::ProgressEngine eng(*w);
  Stream s = w->null_stream(0);
  eng.attach(s);
  EXPECT_EQ(eng.mode_of(s), EngineMode::inline_poll);
  eng.detach(s);
  EXPECT_EQ(eng.mode_of(s), EngineMode::inline_poll);
  eng.stop();
  eng.stop();  // idempotent
  w->finalize_rank(0);
}

// ----------------------------------------------------- ProgressThread fix --

TEST(ProgressThreadTest, ConcurrentStopAndDestroyIsSafe) {
  // Regression: stop() used to join unconditionally, so a destructor racing
  // an explicit stop() from another thread was a double-join (UB). Run the
  // race repeatedly with a live stream; TSan builds verify the handshake.
  for (int iter = 0; iter < 50; ++iter) {
    auto w = World::create(WorldConfig{.nranks = 1});
    auto* pt = new task::ProgressThread(w->null_stream(0));
    std::thread racer([&] { pt->stop(); });
    pt->stop();
    racer.join();
    // Counters published by the worker are visible after stop() returns.
    const std::uint64_t its = pt->iterations();
    EXPECT_GE(its, pt->productive());
    delete pt;  // third stop() via the destructor
  }
}
