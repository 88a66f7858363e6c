#include "mpx/ext/grequest_poll.hpp"

#include "mpx/core/async.hpp"

namespace mpx::ext {
namespace {

struct PollState {
  GrequestPollFn poll;
  GrequestFreeFn free_state;
  void* extra_state;
  Request greq;
};

AsyncResult poll_trampoline(AsyncThing& thing) {
  auto* s = static_cast<PollState*>(thing.state());
  if (!s->poll(s->extra_state)) return AsyncResult::pending;
  if (s->free_state != nullptr) s->free_state(s->extra_state);
  Request handle = std::move(s->greq);
  delete s;
  World::grequest_complete(handle);
  return AsyncResult::done;
}

/// Drops a request whose hook was destroyed before `poll` returned true
/// (World teardown): the user's state is released, the request stays
/// incomplete.
void free_pending(void* p) {
  auto* s = static_cast<PollState*>(p);
  if (s->free_state != nullptr) s->free_state(s->extra_state);
  delete s;
}

}  // namespace

Request grequest_start_with_poll(World& world, const Stream& stream,
                                 GrequestPollFn poll,
                                 GrequestFreeFn free_state,
                                 void* extra_state) {
  expects(poll != nullptr, "grequest_start_with_poll: null poll callback");
  auto* s = new PollState{poll, free_state, extra_state, Request()};
  s->greq = world.grequest_start(stream, core_detail::GrequestFns{});
  Request out = s->greq;
  async_start(&poll_trampoline, s, stream, &free_pending);
  return out;
}

}  // namespace mpx::ext
