"""Run the benchmark over several seeds and report how far its figures spread.

Usage, from the repository root:

    python3 benchmark/spread.py --seeds 1-10 [--workloads enumerate,queries] [--trace 0]

Runs ``BENCHMARK.json``'s command once per workload and seed, one run at a
time, and prints for each end-to-end metric its median, its quartiles and
their distance as a share of the median, next to the metric's bound.  A
spread at or above a third of the bound is flagged.  With ``--out FILE`` the
medians are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
              "seeds": args.seeds, "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"{name}: {len(args.seeds)} runs, {failed} failed operations")
        medians = {}
        for metric, vals in values.items():
            med = statistics.median(vals)
            medians[metric] = med
            if metric not in bounds:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if metric == "setup_s" or spread < bounds[metric] / 3 else "  <-- not steady"
            print(f"  {metric:16s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:6.1%}  bound {bounds[metric]:.0%}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in vals))
        report["workloads"][name] = medians
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
