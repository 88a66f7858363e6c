#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads p2p_small,coll_mix --seeds 1-10 --seconds 20

For every workload and metric prints the median of the runs and the
inter-quartile range (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json. Runs are sequential.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="p2p_small,coll_mix,halo_overlap")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", help="append every run's JSON result to this file")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    for wl in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0 or not last.startswith("{"):
                print(f"{wl} seed {seed}: exit {p.returncode}", file=sys.stderr)
                continue
            res = json.loads(last)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": wl, "seed": seed, **res}) + "\n")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {wl} ({len(next(iter(values.values()), []))} runs)")
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) >= 2 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {name:36s} median {med:14.4f}  iqr/median {spread:7.4f}"
                  f"  bound {bound}{flag}")


if __name__ == "__main__":
    main()
