"""Self-test of the rmpoly benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that

1. every workload, untraced and traced, prints every metric that
   BENCHMARK.json names, with the unit it names, and passes its output
   checks;
2. corrupted copies of a result trip the output checks: one NaN point, one
   eigenvalue perturbed by a relative 1e-9, one root duplicated over
   another, one missing point, and a verification report with one violated
   margin;
3. a wrap target that no longer exists is reported as missing;
4. the self time of an entry-point span does not count as covered;
5. the speed reference reports a positive speed and is gone once closed;
6. in a directory holding only BENCHMARK.json and the benchmark, run.py
   exits with a code other than 0 and prints no result.

Exits 0 when all hold and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans

ROOT = Path.cwd()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=180)


def check_declared(bench) -> list:
    """BENCHMARK.json declares exactly the metrics the code reports."""
    failures = []
    declared = {"end_to_end": [(m["name"], m["unit"], m["better"])
                               for m in bench["end_to_end"]],
                "per_layer": [(m["name"], m["unit"], m["better"])
                              for m in bench["per_layer"]]}
    if declared["end_to_end"] != list(run.END_TO_END):
        failures.append("BENCHMARK.json end_to_end differs from run.py")
    if declared["per_layer"] != list(spans.PER_LAYER_METRICS):
        failures.append("BENCHMARK.json per_layer differs from spans.py")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.py")
    return failures


def check_printed(bench) -> list:
    """Each workload prints every declared metric by name and unit."""
    failures = []
    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = _run(["--workload", workload, "--seed", "5", "--seconds",
                         "1", "--trace", str(trace), "--size", "tiny"])
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if set(result) != RESULT_KEYS:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                failures.append(f"{label}: outputs failed their checks")
            if not any(line.startswith("error_rate = ") for line in lines):
                failures.append(f"{label}: no error_rate line")
            expected = {m["name"]: m["unit"] for m in bench[kind]}
            got = result["metrics"]
            if set(got) != set(expected):
                failures.append(f"{label}: metrics {sorted(set(got) ^ set(expected))} "
                                "missing or undeclared")
            for name, unit in expected.items():
                m = got.get(name, {})
                value = m.get("value")
                if (m.get("unit") != unit
                        or not isinstance(value, (int, float))
                        or not math.isfinite(value)):
                    failures.append(f"{label}: metric {name} = {m}")
                elif not any(line.startswith(f"metric {name} = ")
                             and line.endswith(f" {unit}") for line in lines):
                    failures.append(f"{label}: metric {name} not printed")
    return failures


def check_corruption() -> list:
    """Corrupted copies of real outputs trip the output checks."""
    import checks
    from rmpoly import ExperimentConfig, harness

    failures = []
    seed = 5
    cfg = ExperimentConfig(regime="grow-n", seed=seed,
                           **run.SIZES["tiny"]["grow-n"])
    merged = []
    with run.recording(harness, "merge", merged):
        result = harness.run_grow_n(cfg)
    cell, esd = result.cells[0], merged[0][1]
    args = ("grow-n cell 0", seed, 0, cell.n, cell.k, cell.trials,
            cell.n ** -0.5)
    clean = esd.points.copy()
    if checks.cell_problems(*args, clean):
        failures.append("clean grow-n cell fails its checks")
    nan = clean.copy()
    nan[3] = complex("nan")
    perturbed = clean.copy()
    perturbed[0] *= 1 + 1e-9
    duplicated = clean.copy()
    duplicated[1] = duplicated[0]
    for label, points in (("one NaN point", nan),
                          ("one perturbed eigenvalue", perturbed),
                          ("one root duplicated over another", duplicated),
                          ("one point missing", clean[1:])):
        if not checks.cell_problems(*args, points):
            failures.append(f"{label} passes the output checks")

    vcfg = ExperimentConfig(regime="grow-n", n_values=(16, 32, 64),
                            k_values=(3,), seed=seed)
    verification = harness.run_verification(vcfg,
                                            **run.SIZES["tiny"]["verify"])
    if checks.verification_problems(verification, run.VERIFY_IDS):
        failures.append("clean verification run fails its checks")
    first = verification.reports[0]
    broken = dataclasses.replace(
        first, per_trial_margins=(-1e-3,) + first.per_trial_margins[1:])
    corrupted = dataclasses.replace(
        verification, reports=(broken,) + verification.reports[1:])
    if not checks.verification_problems(corrupted, run.VERIFY_IDS):
        failures.append("a violated verification margin passes the checks")
    return failures


def check_missing_target() -> list:
    """Tracing a function that no longer exists lists it, not crashes."""
    tracer = spans.Tracer()
    site = "rmpoly.harness:no_such_function"
    tracer.install({"harness.no_such_function": ((site,), None)})
    tracer.uninstall()
    return [] if tracer.missing == [site] else [
        f"missing wrap target reported as {tracer.missing}"]


def check_coverage() -> list:
    """Self time of an entry point does not count as covered."""
    rows = [["harness.run_grow_n", 0.0, 10.0, -1, 0, None],
            ["linalg.eigenvalues", 1.0, 4.0, 0, 0, None],
            ["harness.write_points_csv", 5.0, 6.0, 0, 0, None]]
    covered = spans.summarize(rows)["covered_s"]
    return [] if covered == 4.0 else [f"covered_s {covered}, expected 4.0"]


def check_speed_reference() -> list:
    """The reference measures a speed and ends when closed."""
    import speed

    affinity = os.sched_getaffinity(0)
    reference = speed.SpeedReference()
    try:
        since = reference.read()
        sum(i * i for i in range(2_000_000))
        value = reference.speed(since, reference.read())
    finally:
        reference.close()
        os.sched_setaffinity(0, affinity)
    failures = [] if math.isfinite(value) and value > 0 else [
        f"speed reference measured {value}"]
    try:
        os.kill(reference.pid, 0)
        failures.append("speed reference still running after close")
    except ProcessLookupError:
        pass
    return failures


def check_bare_directory() -> list:
    """Without rmpoly's sources run.py fails and prints no result."""
    bare = run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(["--workload", run.WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["bare directory: run.py printed a result or exited 0"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = (check_declared(bench) + check_printed(bench)
                + check_corruption() + check_missing_target()
                + check_coverage() + check_speed_reference()
                + check_bare_directory())
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
