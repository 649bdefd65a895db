"""Append one entry to the benchmark trajectory (``trajectory.json``).

Run from the repository root:

    python3 perfbench/record.py --label "<commit> <what changed>"

For every workload it makes one untraced run per seed (ten seeds by
default) and one traced run, in that order, one run at a time.  The entry
holds, per end-to-end metric, the ten values with their median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (quartile distance over
the median), and the per-layer metrics of the traced run.  It takes about
25 minutes at the default settings on a two-CPU host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "trajectory.json"


def _result(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=200)
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines
               if line.startswith("env "))
    return {"env": env, **json.loads(lines[-1])}


def _stats(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, nargs="+",
                    default=list(range(101, 111)))
    ap.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS),
                    choices=run.WORKLOADS)
    args = ap.parse_args(argv)

    seconds = bench["run_seconds"]
    entry = {"label": args.label,
             "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [_result(workload, seed, seconds, 0) for seed in args.seeds]
        traced = _result(workload, args.seeds[0], seconds, 1)
        entry["env"] = runs[0]["env"]
        entry["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **_stats(
                    [r["metrics"][m["name"]]["value"] for r in runs])}
                for m in bench["end_to_end"]},
            "per_layer": traced["metrics"],
        }
        for m in bench["end_to_end"]:
            s = entry["workloads"][workload]["end_to_end"][m["name"]]
            print(f"{workload} {m['name']}: median {s['median']:.6g} "
                  f"{m['unit']} spread {s['spread']:.4f} "
                  f"(bound {m['bound']})")
    trajectory = (json.loads(TRAJECTORY.read_text())
                  if TRAJECTORY.exists() else [])
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
