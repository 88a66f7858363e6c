// mpx/ext/grequest_poll.hpp
//
// Generalized requests WITH a progress callback — the extension proposed by
// Latham et al. (paper §5.2 reference [7]) and the combination the paper
// demonstrates in §4.6: MPIX_Async supplies the progression mechanism, the
// generalized request supplies the MPI-compatible tracking handle.
#pragma once

#include "mpx/core/request.hpp"
#include "mpx/core/stream.hpp"
#include "mpx/core/world.hpp"

namespace mpx::ext {

/// Poll callback: return true when the underlying task has completed.
/// Invoked from within the stream's progress (keep it lightweight).
using GrequestPollFn = bool (*)(void* extra_state);
/// Invoked exactly once to release `extra_state`: after `poll` returns true,
/// or when the World is torn down while the request is still pending (the
/// request then never completes).
using GrequestFreeFn = void (*)(void* extra_state);

/// Start a generalized request whose progress is driven by the runtime:
/// `poll` runs inside stream progress (via an MPIX_Async hook); when it
/// returns true `free_state` runs and the request completes. The result is
/// a normal Request usable with wait/test/is_complete.
Request grequest_start_with_poll(World& world, const Stream& stream,
                                 GrequestPollFn poll,
                                 GrequestFreeFn free_state,
                                 void* extra_state);

}  // namespace mpx::ext
