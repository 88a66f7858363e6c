// Generalized requests (§4.6, §5.2): plain greqs, greqs + MPIX_Async as the
// progression mechanism (Listing 1.7), and the Latham-style polling greq.
#include <gtest/gtest.h>

#include <atomic>

#include "mpx/ext/grequest_poll.hpp"
#include "mpx/task/deadline.hpp"
#include "test_util.hpp"

using namespace mpx;

namespace {

Err fill_status_query(void* extra_state, Status* status) {
  status->count_bytes = *static_cast<std::uint64_t*>(extra_state);
  return Err::success;
}

}  // namespace

TEST(Grequest, ManualCompleteAndWait) {
  auto w = World::create(WorldConfig{.nranks = 1});
  std::uint64_t payload = 123;
  core_detail::GrequestFns fns;
  fns.query_fn = &fill_status_query;
  fns.extra_state = &payload;
  Request r = w->grequest_start(0, fns);
  EXPECT_FALSE(r.is_complete());
  World::grequest_complete(r);
  ASSERT_TRUE(r.is_complete());
  EXPECT_EQ(r.status().count_bytes, 123u);  // query_fn filled it
  EXPECT_EQ(r.wait().error, Err::success);
}

namespace {

// Listing 1.7: dummy deadline task completing a generalized request.
struct GreqDummy {
  World* world;
  double wtime_complete;
  Request greq;
};

AsyncResult greq_dummy_poll(AsyncThing& thing) {
  auto* p = static_cast<GreqDummy*>(thing.state());
  if (p->world->wtime() > p->wtime_complete) {
    World::grequest_complete(p->greq);
    delete p;
    return AsyncResult::done;
  }
  return AsyncResult::noprogress;
}

}  // namespace

TEST(Grequest, AsyncDrivenGeneralizedRequest) {
  WorldConfig cfg{.nranks = 1};
  cfg.use_virtual_clock = true;
  auto w = World::create(cfg);
  Request greq = w->grequest_start(0, core_detail::GrequestFns{});
  auto* p = new GreqDummy{w.get(), 0.5, greq};
  async_start(&greq_dummy_poll, p, w->null_stream(0));

  stream_progress(w->null_stream(0));
  EXPECT_FALSE(greq.is_complete());
  w->virtual_clock()->advance(1.0);
  // MPI_Wait on the greq drives the VCI whose progress runs the async hook.
  EXPECT_EQ(greq.wait().error, Err::success);
}

TEST(Grequest, PollingGrequestExtension) {
  // grequest_start_with_poll: the Latham'07 proposal — a greq with a
  // progress callback, here built on MPIX_Async.
  WorldConfig cfg{.nranks = 1};
  cfg.use_virtual_clock = true;
  auto w = World::create(cfg);
  struct State {
    World* w;
    bool freed = false;
  } st{w.get(), false};

  Request r = ext::grequest_start_with_poll(
      *w, w->null_stream(0),
      [](void* s) { return static_cast<State*>(s)->w->wtime() >= 1.0; },
      [](void* s) { static_cast<State*>(s)->freed = true; }, &st);
  stream_progress(w->null_stream(0));
  EXPECT_FALSE(r.is_complete());
  w->virtual_clock()->advance(2.0);
  r.wait();
  EXPECT_TRUE(r.is_complete());
  EXPECT_TRUE(st.freed);
}

TEST(Grequest, PendingPollingGrequestFreedAtTeardown) {
  // A World torn down while a polling greq is still pending drops its hook:
  // the user's free_state runs once and no request reference leaks.
  const long base_live = core_detail::RequestImpl::live_count().load();
  int frees = 0;
  {
    auto w = World::create(WorldConfig{.nranks = 1});
    Request r = ext::grequest_start_with_poll(
        *w, w->null_stream(0), [](void*) { return false; },
        [](void* s) { ++*static_cast<int*>(s); }, &frees);
    stream_progress(w->null_stream(0));
    EXPECT_FALSE(r.is_complete());
  }
  EXPECT_EQ(frees, 1);
  EXPECT_EQ(core_detail::RequestImpl::live_count().load(), base_live);
}

TEST(Grequest, CancelCallback) {
  auto w = World::create(WorldConfig{.nranks = 1});
  static std::atomic<int> cancels{0};
  core_detail::GrequestFns fns;
  fns.cancel_fn = [](void*, bool) -> Err {
    cancels.fetch_add(1);
    return Err::success;
  };
  Request r = w->grequest_start(0, fns);
  r.cancel();
  EXPECT_EQ(cancels.load(), 1);
  World::grequest_complete(r);
  EXPECT_TRUE(r.is_complete());
}
