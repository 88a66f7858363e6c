// src/core/matching.hpp
//
// Hashed message-matching engine. Each VCI owns one PostedQueue (pending
// receives) and one UnexpQueue (early arrivals); both replace the seed's
// single linear lists with an array of (context_id, src) hash bins so a
// matching scan touches only the one channel it cares about — the MPICH ch4
// "posted/unexpected hash" design. With B bins and D pending operations
// spread over C channels, a match costs O(D/C + collisions) instead of O(D).
//
// CORRECTNESS. MPI matching is FIFO per (communicator, source) channel, and
// a receive must match the OLDEST eligible candidate even when wildcard
// (any_source) receives interleave with specific ones. The structures keep
// that exact order:
//
//   PostedQueue: specific-source receives live in their channel's bin;
//   any_source receives live in a separate wildcard list. Every posted
//   receive is stamped with a per-VCI monotone sequence number. An arrival
//   scans its bin for the first eligible specific receive, scans the
//   wildcard list for the first eligible wildcard, and takes whichever was
//   posted earlier (lower seq) — exactly what one walk of the seed's single
//   list would have produced. any_tag needs no special path: bins are keyed
//   by (context, source) only, so a bin/wildcard scan sees every tag.
//
//   UnexpQueue: every parked message is on TWO lists — its channel bin
//   (via bin_hook) and one global arrival-order FIFO (via hook). A
//   specific-source lookup scans only the bin; an any_source lookup scans
//   the FIFO, which preserves cross-channel arrival order. Pop unlinks from
//   both; a requeue (unconsumed improbe) pushes at the front of both, so a
//   returned message cannot be overtaken by a younger one from its channel.
//
// All methods must be called under the owning VCI's lock; the Vci members
// carry the MPX_GUARDED_BY(mu) annotations. The queues link messages but do
// not own them: UnexpMsg is allocated with new (class-level operator
// new/delete on the process-wide "unexp" FixedBlockPool) by the arrival
// handlers and deleted by whoever consumes it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "mpx/base/intrusive.hpp"
#include "mpx/core/detail/request_impl.hpp"
#include "mpx/core/request.hpp"
#include "mpx/transport/msg.hpp"

namespace mpx::core_detail {

/// An unexpected message (eager payload or rendezvous RTS) parked until a
/// matching receive is posted. Lives on the owning VCI's UnexpQueue; storage
/// is recycled through unexp_msg_pool().
struct UnexpMsg {
  base::ListHook hook;      ///< global arrival-order FIFO
  base::ListHook bin_hook;  ///< (context, src) channel bin
  transport::Msg msg;

  static void* operator new(std::size_t n);
  static void operator delete(void* p) noexcept;
};

/// Parked blocks in the unexpected-message pool's depot.
inline constexpr std::size_t kUnexpPoolCap = 256;

/// Process-wide storage pool behind UnexpMsg::operator new/delete. A
/// message may be parked under one VCI's lock and consumed under another's
/// (imrecv), so it recycles through per-thread magazines, not a VCI.
inline base::FixedBlockPool& unexp_msg_pool() {
  static base::FixedBlockPool pool("unexp", sizeof(UnexpMsg), kUnexpPoolCap);
  return pool;
}

inline void* UnexpMsg::operator new(std::size_t n) {
  return unexp_msg_pool().allocate(n);
}

inline void UnexpMsg::operator delete(void* p) noexcept {
  unexp_msg_pool().deallocate(p);
}

inline bool tag_ok(std::int32_t want, std::int32_t got) {
  return want == any_tag || want == got;
}

/// Bin index for a (context, source) channel: splitmix64 finalizer over the
/// packed pair. nbins must be a power of two.
inline std::size_t match_bin_of(std::int32_t ctx, std::int32_t src,
                                std::size_t nbins) {
  std::uint64_t h =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ctx)) << 32) |
      static_cast<std::uint32_t>(src);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  return static_cast<std::size_t>(h) & (nbins - 1);
}

/// Pending receives, binned by (context, source) with a wildcard overflow
/// list. Holds raw RequestImpl pointers; each linked receive carries one
/// reference (taken by the caller before push, adopted by whoever pops).
class PostedQueue {
 public:
  using List = base::IntrusiveList<RequestImpl, &RequestImpl::match_hook>;

  /// `nbins` is rounded up to a power of two. Must run before first use
  /// (intrusive lists are pinned in place, hence the fixed array).
  void init(std::size_t nbins) {
    nbins_ = std::bit_ceil(nbins < 1 ? std::size_t{1} : nbins);
    bins_ = std::make_unique<List[]>(nbins_);
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// File a posted receive; stamps match_seq/match_bin.
  /// Callers serialize via the owning VCI's lock; the model checker proves
  /// it — the PLAIN annotations on next_seq_ here and in pop_match turn any
  /// unlocked caller into a detected race across all explored schedules.
  void push(RequestImpl* r) {
    MPX_MC_PLAIN_WRITE(&next_seq_, "PostedQueue::next_seq");
    r->match_seq = next_seq_++;
    if (r->match_src == any_source) {
      r->match_bin = -1;
      wildcard_.push_back(r);
    } else {
      const std::size_t b =
          match_bin_of(r->context_id, r->match_src, nbins_);
      r->match_bin = static_cast<std::int32_t>(b);
      bins_[b].push_back(r);
    }
    ++count_;
  }

  /// Pop the oldest receive eligible for an arrival from channel
  /// (ctx, src) with tag `tag`, or nullptr. The returned pointer carries
  /// the reference taken at push time.
  RequestImpl* pop_match(std::int32_t ctx, std::int32_t src,
                         std::int32_t tag) {
    MPX_MC_PLAIN_WRITE(&next_seq_, "PostedQueue::next_seq");
    if (count_ == 0) return nullptr;
    List& bin = bins_[match_bin_of(ctx, src, nbins_)];
    RequestImpl* spec = bin.for_each_until([&](RequestImpl* r) {
      return r->context_id == ctx && r->match_src == src &&
             tag_ok(r->match_tag, tag);
    });
    RequestImpl* wild = wildcard_.for_each_until([&](RequestImpl* r) {
      return r->context_id == ctx && tag_ok(r->match_tag, tag);
    });
    // Each list is in post (seq) order, so each candidate is its list's
    // oldest eligible entry; the overall oldest is the lower seq.
    RequestImpl* hit = spec;
    if (wild != nullptr && (hit == nullptr || wild->match_seq < hit->match_seq))
      hit = wild;
    if (hit != nullptr) erase(hit);
    return hit;
  }

  /// Unlink a receive (cancel path / pop_match internals).
  void erase(RequestImpl* r) {
    if (r->match_bin < 0) {
      wildcard_.erase(r);
    } else {
      bins_[static_cast<std::size_t>(r->match_bin)].erase(r);
    }
    --count_;
  }

  /// Unlink any one pending receive (teardown drain), or nullptr.
  RequestImpl* pop_any() {
    if (count_ == 0) return nullptr;
    if (RequestImpl* r = wildcard_.pop_front(); r != nullptr) {
      --count_;
      return r;
    }
    for (std::size_t i = 0; i < nbins_; ++i) {
      if (RequestImpl* r = bins_[i].pop_front(); r != nullptr) {
        --count_;
        return r;
      }
    }
    return nullptr;
  }

 private:
  std::unique_ptr<List[]> bins_;
  std::size_t nbins_ = 1;
  List wildcard_;  ///< any_source receives, in post order
  std::uint64_t next_seq_ = 0;
  std::size_t count_ = 0;
};

/// Early arrivals, binned by (context, src) plus one global arrival-order
/// FIFO for wildcard scans. Does not own the messages: whoever pops one
/// deletes it.
class UnexpQueue {
 public:
  using FifoList = base::IntrusiveList<UnexpMsg, &UnexpMsg::hook>;
  using BinList = base::IntrusiveList<UnexpMsg, &UnexpMsg::bin_hook>;

  /// `nbins` is rounded up to a power of two. Must run before first use.
  void init(std::size_t nbins) {
    nbins_ = std::bit_ceil(nbins < 1 ? std::size_t{1} : nbins);
    bins_ = std::make_unique<BinList[]>(nbins_);
  }

  bool empty() const { return fifo_.empty(); }
  std::size_t size() const { return fifo_.size(); }

  void push_back(UnexpMsg* u) {
    fifo_.push_back(u);
    bin_of(u).push_back(u);
  }

  /// Return an unconsumed matched-probe message. Front, not back: the
  /// message was matched first; returning it must not let a younger message
  /// from its channel overtake it.
  void push_front(UnexpMsg* u) {
    fifo_.push_front(u);
    bin_of(u).push_front(u);
  }

  /// Oldest parked message matching (ctx, src-or-any, tag-or-any), without
  /// unlinking (iprobe), or nullptr.
  UnexpMsg* find(std::int32_t ctx, std::int32_t src, std::int32_t tag) const {
    if (src == any_source) {
      // Wildcard: cross-channel order is arrival order — scan the FIFO.
      return fifo_.for_each_until([&](UnexpMsg* u) {
        return u->msg.h.context_id == ctx && tag_ok(tag, u->msg.h.tag);
      });
    }
    const BinList& bin = bins_[match_bin_of(ctx, src, nbins_)];
    return bin.for_each_until([&](UnexpMsg* u) {
      return u->msg.h.context_id == ctx && u->msg.h.src_rank == src &&
             tag_ok(tag, u->msg.h.tag);
    });
  }

  /// find() + unlink from both lists (irecv / improbe consume path).
  UnexpMsg* pop(std::int32_t ctx, std::int32_t src, std::int32_t tag) {
    UnexpMsg* u = find(ctx, src, tag);
    if (u != nullptr) unlink(u);
    return u;
  }

  /// Unlink the oldest parked message regardless of match (teardown drain).
  UnexpMsg* pop_front_any() {
    UnexpMsg* u = fifo_.front();
    if (u != nullptr) unlink(u);
    return u;
  }

 private:
  BinList& bin_of(UnexpMsg* u) {
    return bins_[match_bin_of(u->msg.h.context_id, u->msg.h.src_rank, nbins_)];
  }

  void unlink(UnexpMsg* u) {
    fifo_.erase(u);
    bin_of(u).erase(u);
  }

  FifoList fifo_;
  std::unique_ptr<BinList[]> bins_;
  std::size_t nbins_ = 1;
};

}  // namespace mpx::core_detail
