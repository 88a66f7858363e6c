// sched_verify: exhaustive offline sweep of the cross-rank schedule
// verifier (mpx::coll::ir::verify) over every compiled collective point.
//
// For each (kind, algo) x comm size x count class x root (x topology, for
// the neighborhood collectives; x per-rank layout, for the v-variants),
// compile all N per-rank schedules exactly as the runtime would and run
// the full verify_ranks battery; then, on a sample of points, apply each seeded
// mutation (ir_verify.hpp inject_fault) to one rank's clone and require
// the verifier to reject it with a counterexample. A JSON report is
// written for CI archival; the exit code is nonzero on any clean-point
// diagnostic or any uncaught mutation.
//
// Usage: sched_verify [--out report.json] [--max-size N]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "mpx/coll/ir.hpp"
#include "mpx/coll/ir_verify.hpp"
#include "mpx/coll/topo.hpp"
#include "mpx/core/world.hpp"
#include "mpx/dtype/datatype.hpp"

namespace ir = mpx::coll::ir;
namespace verify = ir::verify;

namespace {

struct Combo {
  ir::CollKind kind;
  ir::Algo algo;
  bool rooted;  ///< sweep roots (rooted kinds) vs root fixed at 0
};

constexpr Combo kCombos[] = {
    {ir::CollKind::allreduce, ir::Algo::rd, false},
    {ir::CollKind::allreduce, ir::Algo::ring, false},
    {ir::CollKind::allreduce, ir::Algo::rsag, false},
    {ir::CollKind::bcast, ir::Algo::knomial, true},
    {ir::CollKind::bcast, ir::Algo::scatter_ag, true},
    {ir::CollKind::reduce, ir::Algo::knomial, true},
    {ir::CollKind::barrier, ir::Algo::dissemination, false},
    {ir::CollKind::allgather, ir::Algo::ring, false},
    {ir::CollKind::alltoall, ir::Algo::linear, false},
    {ir::CollKind::gather, ir::Algo::linear, true},
    {ir::CollKind::scatter, ir::Algo::linear, true},
    {ir::CollKind::reduce_scatter_block, ir::Algo::ring, false},
    {ir::CollKind::scan, ir::Algo::chain, false},
    {ir::CollKind::exscan, ir::Algo::chain, false},
    {ir::CollKind::gatherv, ir::Algo::linear, true},
    {ir::CollKind::scatterv, ir::Algo::linear, true},
    {ir::CollKind::allgatherv, ir::Algo::ring, false},
    {ir::CollKind::neighbor_allgather, ir::Algo::linear, false},
    {ir::CollKind::neighbor_alltoall, ir::Algo::linear, false},
};

bool is_v(ir::CollKind k) {
  return k == ir::CollKind::gatherv || k == ir::CollKind::scatterv ||
         k == ir::CollKind::allgatherv;
}

bool is_neighbor(ir::CollKind k) {
  return k == ir::CollKind::neighbor_allgather ||
         k == ir::CollKind::neighbor_alltoall;
}

/// Element counts spanning the count classes (int32): a few bytes to 1 MiB.
constexpr std::size_t kCounts[] = {1, 16, 256, 4096, 65536, 262144};

constexpr const char* kFaults[] = {"swap_tag", "drop_edge", "truncate_part",
                                   "reorder_reduce"};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

struct Failure {
  std::string point;
  std::string detail;
};

/// Every rank's Cart::neighbors() for the two swept grids: a periodic
/// ring (size 2 lists one peer twice) and a 2-D grid open in dimension 0
/// and periodic in dimension 1 (a prime size gives a periodic dimension of
/// 1, where each rank is its own neighbor).
std::vector<std::vector<int>> grid_neighbors(int size, int topo) {
  const std::vector<int> dims =
      topo == 0 ? std::vector<int>{size} : mpx::coll::dims_create(size, 2);
  const std::vector<int> periodic =
      topo == 0 ? std::vector<int>{1} : std::vector<int>{0, 1};
  auto w = mpx::World::create(mpx::WorldConfig{.nranks = size});
  std::vector<std::vector<int>> out;
  for (int r = 0; r < size; ++r) {
    out.push_back(mpx::coll::Cart::create(w->comm_world(r), dims, periodic)
                      .neighbors());
  }
  return out;
}

/// Compile all N per-rank schedules of one point. `variant` is the root
/// for rooted kinds and the grid (grid_neighbors) for neighborhood ones.
std::vector<ir::SchedPtr> compile_ranks(
    const Combo& c, std::size_t count, int size, int variant,
    const std::vector<std::vector<int>>& nbrs) {
  const mpx::net::CostModel net{};
  const auto dt = mpx::dtype::Datatype::int32();
  const int root = c.rooted ? variant : 0;
  // v-variant layout: every third rank contributes nothing (omitted
  // messages), displacements leave a one-element gap per rank.
  std::vector<std::size_t> counts, displs;
  for (std::size_t r = 0, d = 0; r < static_cast<std::size_t>(size); ++r) {
    counts.push_back(count * (r % 3) / 2);
    displs.push_back(d + r);
    d += counts.back();
  }
  std::vector<ir::SchedPtr> ranks;
  ranks.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    if (is_v(c.kind)) {
      ranks.push_back(ir::compile_v(c.kind, counts, displs,
                                    counts[static_cast<std::size_t>(r)], dt,
                                    false, root, r, size));
      continue;
    }
    if (is_neighbor(c.kind)) {
      ranks.push_back(ir::compile_neighbor(
          c.kind, count, dt, nbrs[static_cast<std::size_t>(r)], r, size));
      continue;
    }
    // Match the runtime's in-place conventions: bcast has no send buffer,
    // reduce and gather contribute in place at the root only, everything
    // else out-of-place here (the send-space hazards get verified too).
    const bool inp = c.kind == ir::CollKind::bcast ||
                     ((c.kind == ir::CollKind::reduce ||
                       c.kind == ir::CollKind::gather) &&
                      r == root);
    const std::size_t n = c.kind == ir::CollKind::barrier ? 0 : count;
    ranks.push_back(ir::compile(c.kind, n, dt, mpx::dtype::ReduceOp::sum,
                                inp, root, r, size, net, c.algo));
  }
  return ranks;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "sched_verify_report.json";
  int max_size = 17;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--max-size") == 0 && i + 1 < argc) {
      max_size = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--out file] [--max-size N]\n",
                   argv[0]);
      return 2;
    }
  }

  std::size_t points = 0, mutations = 0, mutations_caught = 0;
  std::vector<Failure> clean_failures, mutation_misses;

  for (const Combo& c : kCombos) {
    for (int size = 2; size <= max_size; ++size) {
      const int roots[] = {0, size - 1, size / 2};
      const int nvariants =
          is_neighbor(c.kind) ? 2 : c.rooted ? (size > 2 ? 3 : 2) : 1;
      for (int vi = 0; vi < nvariants; ++vi) {
        const int variant = is_neighbor(c.kind) ? vi : roots[vi];
        const auto nbrs = is_neighbor(c.kind)
                              ? grid_neighbors(size, variant)
                              : std::vector<std::vector<int>>{};
        for (const std::size_t count : kCounts) {
          const std::string point =
              std::string(ir::to_string(c.kind)) + "/" +
              ir::to_string(c.algo) + " P=" + std::to_string(size) +
              (is_neighbor(c.kind) ? " grid=" : " root=") +
              std::to_string(variant) + " count=" + std::to_string(count);
          const auto ranks = compile_ranks(c, count, size, variant, nbrs);
          const verify::Report rep = verify::verify_ranks(ranks);
          ++points;
          if (!rep.ok()) {
            clean_failures.push_back({point, rep.to_string()});
            continue;
          }
          // Mutation pass on one mid-size cell per (combo, size, variant):
          // mutate rank (size/2)'s clone, expect rejection. Needs a count
          // class with headroom — at tiny max_count every block resolves
          // to zero elements and a truncated Part is extensionally
          // invisible (the schedules are equal at every admissible count).
          if (count != 4096) continue;
          for (const char* fault : kFaults) {
            auto mut = verify::clone(*ranks[static_cast<std::size_t>(
                size / 2)]);
            if (!verify::inject_fault(*mut, fault)) {
              continue;  // no site in this schedule (e.g. no reduce pair)
            }
            auto mranks = ranks;
            mranks[static_cast<std::size_t>(size / 2)] = std::move(mut);
            ++mutations;
            const verify::Report mrep = verify::verify_ranks(mranks);
            if (!mrep.ok() && !mrep.diags[0].trace.empty()) {
              ++mutations_caught;
            } else if (!mrep.ok()) {
              ++mutations_caught;  // caught, but trace-less: still report
              mutation_misses.push_back(
                  {point + " fault=" + fault,
                   "rejected without a counterexample trace"});
            } else {
              mutation_misses.push_back(
                  {point + " fault=" + fault, "mutation verified clean"});
            }
          }
        }
      }
    }
  }

  const bool ok = clean_failures.empty() && mutation_misses.empty();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"points\": %zu,\n  \"mutations\": %zu,\n"
                 "  \"mutations_caught\": %zu,\n  \"ok\": %s,\n",
                 points, mutations, mutations_caught, ok ? "true" : "false");
    std::fprintf(f, "  \"clean_failures\": [");
    for (std::size_t i = 0; i < clean_failures.size(); ++i) {
      std::fprintf(f, "%s\n    {\"point\": \"%s\", \"detail\": \"%s\"}",
                   i != 0 ? "," : "",
                   json_escape(clean_failures[i].point).c_str(),
                   json_escape(clean_failures[i].detail).c_str());
    }
    std::fprintf(f, "],\n  \"mutation_misses\": [");
    for (std::size_t i = 0; i < mutation_misses.size(); ++i) {
      std::fprintf(f, "%s\n    {\"point\": \"%s\", \"detail\": \"%s\"}",
                   i != 0 ? "," : "",
                   json_escape(mutation_misses[i].point).c_str(),
                   json_escape(mutation_misses[i].detail).c_str());
    }
    std::fprintf(f, "]\n}\n");
    std::fclose(f);
  }

  std::printf("sched_verify: %zu points, %zu mutations (%zu caught)\n",
              points, mutations, mutations_caught);
  for (const Failure& fl : clean_failures) {
    std::printf("CLEAN POINT FAILED: %s\n%s\n", fl.point.c_str(),
                fl.detail.c_str());
  }
  for (const Failure& fl : mutation_misses) {
    std::printf("MUTATION MISSED: %s (%s)\n", fl.point.c_str(),
                fl.detail.c_str());
  }
  return ok ? 0 : 1;
}
