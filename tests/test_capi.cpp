// C-binding tests: the paper's API surface exercised through mpix.h.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "mpx/capi/mpix.h"

namespace {

struct WorldGuard {
  MPIX_World w = nullptr;
  explicit WorldGuard(int nranks, int rpn = 0) {
    EXPECT_EQ(MPIX_World_create(nranks, rpn, &w), MPIX_SUCCESS);
  }
  ~WorldGuard() { MPIX_World_free(&w); }
};

}  // namespace

TEST(Capi, WorldCommLifecycle) {
  WorldGuard g(3);
  MPIX_Comm c = nullptr;
  ASSERT_EQ(MPIX_Comm_world(g.w, 1, &c), MPIX_SUCCESS);
  int rank = -1, size = -1;
  EXPECT_EQ(MPIX_Comm_rank(c, &rank), MPIX_SUCCESS);
  EXPECT_EQ(MPIX_Comm_size(c, &size), MPIX_SUCCESS);
  EXPECT_EQ(rank, 1);
  EXPECT_EQ(size, 3);
  EXPECT_EQ(MPIX_Comm_free(&c), MPIX_SUCCESS);
  EXPECT_EQ(c, nullptr);
  EXPECT_EQ(MPIX_Comm_world(g.w, 7, &c), MPIX_ERR_ARG);
  EXPECT_GE(MPIX_Wtime(g.w), 0.0);
}

TEST(Capi, SendRecvAndWait) {
  WorldGuard g(2);
  MPIX_Comm c0 = nullptr, c1 = nullptr;
  MPIX_Comm_world(g.w, 0, &c0);
  MPIX_Comm_world(g.w, 1, &c1);

  std::int32_t v = 99;
  MPIX_Request sreq = MPIX_REQUEST_NULL;
  ASSERT_EQ(MPIX_Isend(&v, 1, MPIX_INT32, 1, 7, c0, &sreq), MPIX_SUCCESS);
  EXPECT_EQ(MPIX_Request_is_complete(sreq), 1);  // buffered eager

  std::int32_t out = 0;
  MPIX_Status st;
  ASSERT_EQ(MPIX_Recv(&out, 1, MPIX_INT32, 0, 7, c1, &st), MPIX_SUCCESS);
  EXPECT_EQ(out, 99);
  EXPECT_EQ(st.MPIX_SOURCE, 0);
  EXPECT_EQ(st.MPIX_TAG, 7);
  EXPECT_EQ(st.count_bytes, 4u);

  ASSERT_EQ(MPIX_Wait(&sreq, MPIX_STATUS_IGNORE), MPIX_SUCCESS);
  EXPECT_EQ(sreq, MPIX_REQUEST_NULL);
  MPIX_Comm_free(&c0);
  MPIX_Comm_free(&c1);
}

TEST(Capi, TestAndTruncation) {
  WorldGuard g(2);
  MPIX_Comm c0 = nullptr, c1 = nullptr;
  MPIX_Comm_world(g.w, 0, &c0);
  MPIX_Comm_world(g.w, 1, &c1);

  std::int32_t out = 0;
  MPIX_Request rreq = MPIX_REQUEST_NULL;
  ASSERT_EQ(MPIX_Irecv(&out, 1, MPIX_INT32, 0, 0, c1, &rreq), MPIX_SUCCESS);
  int flag = -1;
  ASSERT_EQ(MPIX_Test(&rreq, &flag, MPIX_STATUS_IGNORE), MPIX_SUCCESS);
  EXPECT_EQ(flag, 0);

  std::int32_t big[4] = {1, 2, 3, 4};
  MPIX_Send(big, 4, MPIX_INT32, 1, 0, c0);
  while (flag == 0) {
    MPIX_Comm_progress(c1);
    MPIX_Test(&rreq, &flag, MPIX_STATUS_IGNORE);
  }
  EXPECT_EQ(out, 1);  // truncated receive got the first element
  MPIX_Comm_free(&c0);
  MPIX_Comm_free(&c1);
}

namespace {

struct CDummy {
  MPIX_World world;
  double due;
  int* counter;
};

int c_dummy_poll(MPIX_Async_thing thing) {
  auto* p = static_cast<CDummy*>(MPIX_Async_get_state(thing));
  if (MPIX_Wtime(p->world) >= p->due) {
    --*p->counter;
    delete p;
    return MPIX_ASYNC_DONE;
  }
  return MPIX_ASYNC_NOPROGRESS;
}

int c_spawning_poll(MPIX_Async_thing thing) {
  auto* p = static_cast<CDummy*>(MPIX_Async_get_state(thing));
  if (*p->counter > 1) {
    auto* next = new CDummy{p->world, 0.0, p->counter};
    MPIX_Async_spawn(thing, &c_spawning_poll, next, MPIX_STREAM_NULL);
  }
  --*p->counter;
  delete p;
  return MPIX_ASYNC_DONE;
}

}  // namespace

TEST(Capi, AsyncOnStreamAndComm) {
  WorldGuard g(1);
  MPIX_Comm c = nullptr;
  MPIX_Comm_world(g.w, 0, &c);
  MPIX_Stream s = nullptr;
  ASSERT_EQ(MPIX_Stream_create_on(g.w, 0, MPIX_INFO_NULL, &s), MPIX_SUCCESS);

  int counter = 2;
  MPIX_Async_start(&c_dummy_poll, new CDummy{g.w, MPIX_Wtime(g.w) + 1e-4,
                                             &counter},
                   s);
  MPIX_Async_start_on_comm(&c_dummy_poll,
                           new CDummy{g.w, MPIX_Wtime(g.w) + 1e-4, &counter},
                           c);
  while (counter > 0) {
    MPIX_Stream_progress(s);
    MPIX_Comm_progress(c);
  }
  EXPECT_EQ(counter, 0);
  EXPECT_EQ(MPIX_Stream_free(&s), MPIX_SUCCESS);
  MPIX_Comm_free(&c);
}

TEST(Capi, AsyncSpawnChain) {
  WorldGuard g(1);
  MPIX_Comm c = nullptr;
  MPIX_Comm_world(g.w, 0, &c);
  int counter = 4;
  MPIX_Async_start_on_comm(&c_spawning_poll, new CDummy{g.w, 0.0, &counter},
                           c);
  for (int i = 0; i < 20 && counter > 0; ++i) MPIX_Comm_progress(c);
  EXPECT_EQ(counter, 0);
  MPIX_Comm_free(&c);
}

TEST(Capi, WorldFreeDropsPendingHook) {
  // A hook still pending when its World is freed is dropped, and with it
  // the runtime's per-hook bridge state (LeakSanitizer builds catch a
  // leak). The user's own extra_state stays the caller's to free.
  MPIX_World w = nullptr;
  ASSERT_EQ(MPIX_World_create(1, 0, &w), MPIX_SUCCESS);
  MPIX_Comm c = nullptr;
  ASSERT_EQ(MPIX_Comm_world(w, 0, &c), MPIX_SUCCESS);
  int counter = 1;
  CDummy never{w, 1e300, &counter};
  ASSERT_EQ(MPIX_Async_start_on_comm(&c_dummy_poll, &never, c), MPIX_SUCCESS);
  MPIX_Comm_progress(c);
  EXPECT_EQ(counter, 1);
  MPIX_Comm_free(&c);
  EXPECT_EQ(MPIX_World_free(&w), MPIX_SUCCESS);
  EXPECT_EQ(counter, 1);
}

TEST(Capi, StreamCommAndCollectives) {
  WorldGuard g(4);
  std::vector<std::thread> threads;
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      MPIX_Comm parent = nullptr;
      MPIX_Comm_world(g.w, r, &parent);
      MPIX_Stream s = nullptr;
      MPIX_Stream_create_on(g.w, r, MPIX_INFO_NULL, &s);
      MPIX_Comm sc = nullptr;
      ASSERT_EQ(MPIX_Stream_comm_create(parent, s, &sc), MPIX_SUCCESS);

      std::int64_t v = r + 1, sum = 0;
      ASSERT_EQ(MPIX_Allreduce(&v, &sum, 1, MPIX_INT64, MPIX_SUM, sc),
                MPIX_SUCCESS);
      EXPECT_EQ(sum, 10);
      std::int32_t b = r == 2 ? 5 : 0;
      ASSERT_EQ(MPIX_Bcast(&b, 1, MPIX_INT32, 2, sc), MPIX_SUCCESS);
      EXPECT_EQ(b, 5);
      ASSERT_EQ(MPIX_Barrier(sc), MPIX_SUCCESS);

      MPIX_World_finalize_rank(g.w, r);
      MPIX_Comm_free(&sc);
      MPIX_Stream_free(&s);
      MPIX_Comm_free(&parent);
    });
  }
  for (auto& t : threads) t.join();
}

TEST(Capi, GrequestLifecycle) {
  WorldGuard g(1);
  MPIX_Comm c = nullptr;
  MPIX_Comm_world(g.w, 0, &c);
  MPIX_Request greq = MPIX_REQUEST_NULL;
  ASSERT_EQ(MPIX_Grequest_start(c, &greq), MPIX_SUCCESS);
  EXPECT_EQ(MPIX_Request_is_complete(greq), 0);
  ASSERT_EQ(MPIX_Grequest_complete(greq), MPIX_SUCCESS);
  EXPECT_EQ(MPIX_Request_is_complete(greq), 1);
  MPIX_Wait(&greq, MPIX_STATUS_IGNORE);
  MPIX_Comm_free(&c);
}

TEST(Capi, NullArgumentHandling) {
  EXPECT_EQ(MPIX_World_create(1, 0, nullptr), MPIX_ERR_ARG);
  EXPECT_EQ(MPIX_Comm_rank(nullptr, nullptr), MPIX_ERR_ARG);
  EXPECT_EQ(MPIX_Stream_progress(nullptr), MPIX_ERR_ARG);
  EXPECT_EQ(MPIX_Request_is_complete(MPIX_REQUEST_NULL), 1);
  MPIX_Request r = MPIX_REQUEST_NULL;
  EXPECT_EQ(MPIX_Request_free(&r), MPIX_ERR_ARG);
  MPIX_World w = nullptr;
  EXPECT_EQ(MPIX_World_create(0, 0, &w), MPIX_ERR_ARG);  // nranks < 1
  EXPECT_EQ(w, nullptr);
}
