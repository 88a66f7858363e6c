// mpx_perfbench --workload <p2p_small|coll_mix|halo_overlap> --seed <n>
//               --seconds <s> --trace <0|1> [--spans-out <file>]
//
// Runs one workload against the mpx library and prints, as the last line of
// standard output, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (with spans written to --spans-out). Lines before it are for people.
// Exits 1 when any operation failed, 2 on a bad command line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <csignal>

#include <execinfo.h>
#include <unistd.h>

#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mpx_perfbench: %s\n"
               "usage: mpx_perfbench --workload p2p_small|coll_mix|halo_overlap "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* k = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (std::strcmp(k, "--workload") == 0) {
      a.workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (std::strcmp(k, "--seconds") == 0) {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 120.0) {
        usage("--seconds takes a number in (0, 120]");
      }
    } else if (std::strcmp(k, "--trace") == 0) {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (std::strcmp(k, "--spans-out") == 0) {
      a.spans_out = v;
    } else {
      usage("unknown option");
    }
  }
  if (a.workload.empty() || !have_trace) usage("--workload and --trace are required");
  return a;
}

/// A crash prints where it happened before the process dies, so a failed
/// run leaves evidence (async-signal-safe calls only).
void on_crash(int sig) {
  const char msg[] = "mpx_perfbench: fatal signal, backtrace:\n";
  (void)!write(STDERR_FILENO, msg, sizeof msg - 1);
  void* frames[64];
  backtrace_symbols_fd(frames, backtrace(frames, 64), STDERR_FILENO);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void print_json(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::signal(SIGSEGV, on_crash);
  std::signal(SIGBUS, on_crash);
  std::signal(SIGABRT, on_crash);
  // Watchdog: a hung operation ends the run (SIGALRM's default action)
  // well inside the 180 s a run may take.
  alarm(static_cast<unsigned>(std::min(170.0, 60.0 + 4.0 * args.seconds)));

  Result res;
  if (args.workload == "p2p_small") {
    res = perfbench::run_p2p_small(args);
  } else if (args.workload == "coll_mix") {
    res = perfbench::run_coll_mix(args);
  } else if (args.workload == "halo_overlap") {
    res = perfbench::run_halo_overlap(args);
  } else {
    usage("unknown workload");
  }
  if (res.attempted == 0) {
    std::fprintf(stderr, "mpx_perfbench: no operation completed\n");
    res.failed += 1;
  }
  for (auto& m : res.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "mpx_perfbench: metric %s is not finite\n", m.name.c_str());
      m.value = 0.0;
      res.failed += 1;
    }
  }

  std::printf("# workload %s seed %llu seconds %g trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  for (const auto& m : res.metrics) {
    std::printf("# %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& m : res.extra) {
    std::printf("# %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# %-36s %18.6f %s\n", "error_ratio",
              perfbench::ratio(static_cast<double>(res.failed),
                               static_cast<double>(res.attempted)),
              "ratio");
  print_json(res);
  std::fflush(stdout);
  return res.failed == 0 ? 0 : 1;
}
