// The benchmark's workloads. Each builds its inputs from the seed, sets up
// kSetups times, runs its measured phases on the last set-up, checks every
// result, and returns the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). DESIGN.md explains why each exists.
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_p2p_small(const Args& args);
Result run_coll_mix(const Args& args);
Result run_halo_overlap(const Args& args);

}  // namespace perfbench
