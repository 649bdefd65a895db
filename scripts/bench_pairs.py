"""Run the benchmark in alternating parent/change pairs and summarize them.

Pair i runs ``perfbench/run.py --workload W --seed S+i --seconds R
--trace 0`` once in the parent checkout and once in this one, each with its
own ``perfbench/run.py`` and from its own root.  The parent goes first in
even pairs and the change in odd ones.  R is ``run_seconds`` of
``BENCHMARK.json``.  Run it from the root of the changed checkout:

    python3 scripts/bench_pairs.py --workload small-many --pairs 10 \\
        --parent ../parent --seed0 3001

Each run's last stdout line is its JSON result.  Per end-to-end metric of
``BENCHMARK.json`` the script prints each side's median and quartiles
(inclusive method), the pairs the change won (ties count for neither), the
gap between the medians against the parent's quartile distance, and
whether both rules for claiming a gain hold: wins in at least nine tenths
of the pairs and a gap wider than that distance.  It also prints whether
every pass on each side was ``correct``, and how many runs of each side
gave no result, by the exception named on each one's last stderr line, so
that a benchmark race and a program fault can be told apart.  A last JSON
line holds every run's metrics.  It writes nothing; the runs write only
their own ``.perfbench/`` scratch directories.
"""

import argparse
import collections
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


#: The exception a traceback's last line names: ``ZeroDivisionError: ...``
#: or ``pkg.mod.Error``.
_EXCEPTION = re.compile(r"([A-Za-z_][\w.]*)(?::|$)")


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """The JSON result of one benchmark run in ``root``, or the reason it
    gave none as ``{"error": ..., "cause": ...}``: the cause is the
    exception named on the run's last stderr line, or that line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        tail = (res.stderr.strip().splitlines() or ["no output"])[-1]
        name = _EXCEPTION.match(tail.strip())
        return {"error": f"exit {res.returncode}: {tail}",
                "cause": name.group(1) if name else tail.strip()[:80]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"last line is not JSON: {lines[-1][:80]!r}",
                "cause": "no JSON result"}


def quartiles(values):
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs: list, metrics: list) -> list:
    """One row per metric from ``runs``, a list of ``{side: result}`` pairs.

    ``metrics`` are ``BENCHMARK.json`` end-to-end entries (name, better).
    A pair counts only where both sides gave the metric.
    """
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(r["parent"]["metrics"][name]["value"],
                  r["change"]["metrics"][name]["value"]) for r in runs
                 if all(name in r[s].get("metrics", {}) for s in SIDES)]
        if not pairs:
            rows.append({"metric": name, "pairs": 0})
            continue
        parent = quartiles([p for p, _ in pairs])
        change = quartiles([c for _, c in pairs])
        wins = sum(c < p if lower else c > p for p, c in pairs)
        gap = parent[1] - change[1] if lower else change[1] - parent[1]
        spread = parent[2] - parent[0]
        rows.append({
            "metric": name, "unit": m["unit"], "better": m["better"],
            "pairs": len(pairs), "parent": parent, "change": change,
            "wins": wins, "gap": gap, "parent_iqr": spread,
            "claim": wins >= 0.9 * len(pairs) and gap > spread,
        })
    return rows


def failures(runs: list) -> dict:
    """Per side, the runs that gave no result, counted by cause."""
    return {side: collections.Counter(r[side]["cause"] for r in runs
                                      if "error" in r[side])
            for side in SIDES}


def _fmt_side(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--parent", type=Path, required=True,
                    help="root of the parent checkout")
    ap.add_argument("--seed0", type=int, required=True,
                    help="seed of the first pair; pair i uses seed0 + i")
    args = ap.parse_args(argv)
    change_root = Path.cwd()
    roots = {"parent": args.parent.resolve(), "change": change_root}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            ap.error(f"{side} checkout {root} has no perfbench/run.py")
    if args.pairs < 1 or args.seed0 < 0:
        ap.error("--pairs must be >= 1 and --seed0 >= 0")
    bench = json.loads((change_root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    runs = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            start = time.monotonic()
            pair[side] = run_once(roots[side], args.workload, seed, seconds)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                  f"{pair[side].get('error', 'ok')} "
                  f"({time.monotonic() - start:.0f} s)", file=sys.stderr)
        runs.append(pair)

    print(f"workload {args.workload}: {args.pairs} pairs, seeds "
          f"{args.seed0}-{args.seed0 + args.pairs - 1}, {seconds} s per run")
    failed = failures(runs)
    for side in SIDES:
        results = [r[side] for r in runs]
        ok = sum(1 for r in results if r.get("correct") is True)
        causes = ", ".join(f"{cause} x{count}"
                           for cause, count in failed[side].items())
        print(f"{side}: {ok} of {len(results)} runs correct in every pass; "
              f"{sum(failed[side].values())} gave no result"
              + (f" ({causes})" if causes else ""))
    for row in summarize(runs, bench["end_to_end"]):
        if not row["pairs"]:
            print(f"{row['metric']}: no pair with both sides measured")
            continue
        print(f"{row['metric']} ({row['unit']}, {row['better']} is better): "
              f"parent {_fmt_side(row['parent'])}, change "
              f"{_fmt_side(row['change'])}, change won {row['wins']}/"
              f"{row['pairs']}, gap {row['gap']:.4g} vs parent IQR "
              f"{row['parent_iqr']:.4g}, claim rule "
              f"{'met' if row['claim'] else 'not met'}")
    print(json.dumps({"workload": args.workload, "seed0": args.seed0,
                      "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
