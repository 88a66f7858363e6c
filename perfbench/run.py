#!/usr/bin/env python3
"""Build the mpx benchmark in the shipping configuration and run one workload.

    python3 perfbench/run.py --workload p2p_small --seed 1 --seconds 30 --trace 0

Workloads: p2p_small, coll_mix, halo_overlap (see perfbench/DESIGN.md).
The first call configures and builds `mpx_perfbench` together with the
library (Release, lock-rank validator off, no tests/benches/examples) under
.bench_build/perfbench at the repository root; later calls only rebuild what
changed. Build output goes to stderr. The program's last stdout line is the
JSON result; with --trace 1 its spans are written next to the build as
spans-<workload>.csv.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("p2p_small", "coll_mix", "halo_overlap")


def fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root: Path, build_dir: Path) -> Path:
    source = root / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(source), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", "mpx_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "mpx_perfbench"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    root = Path(__file__).resolve().parent.parent
    for need in ("CMakeLists.txt", "src/CMakeLists.txt", "include/mpx"):
        if not (root / need).exists():
            fail(f"{root} holds no mpx sources ({need} is missing)")
    build_dir = root / ".bench_build" / "perfbench"
    exe = build(root, build_dir)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out", str(build_dir / f"spans-{args.workload}.csv")]
    sys.stdout.flush()
    os.execv(str(exe), cmd)  # the program replaces this process


if __name__ == "__main__":
    main()
