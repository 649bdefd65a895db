"""rmpoly benchmark: one workload, one closed-loop caller, one process.

Run from the repository root:

    python3 perfbench/run.py --workload grow-n --seed 1 --seconds 25 --trace 0

It imports rmpoly from ``src/`` with BLAS pinned to one thread.  An
untraced run pins itself to one CPU and forks a low-priority speed
reference onto it (``speed.py``).  Set-up time is measured first, in fresh
interpreters that import rmpoly and run one tiny solve.  Then this process
runs one untimed warm-up solve and whole workload passes back to back for
about ``--seconds`` (at least one pass), with ``workers=1``.  Each pass is
timed around rmpoly's public entry point only, in CPU seconds scaled by
the CPU's speed meanwhile (see ``README.md`` for why not wall seconds);
its outputs are checked afterwards, outside the timed phase.
``--trace 1`` runs one untraced and one traced pass instead and reports
per-layer metrics derived from the traced one.

Every metric is printed by name and unit; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is not 0, and no result is printed, when
rmpoly's sources are missing, no pass completed or the run overran.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: One thread per BLAS: the closed loop has a single caller.  OpenBLAS
#: reads these when it is loaded, so they are set before numpy is imported
#: (and are inherited by the set-up probes).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

ROOT = Path.cwd()
SRC = ROOT / "src"
if not (SRC / "rmpoly" / "__init__.py").is_file():
    sys.exit(f"error: no rmpoly sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import rmpoly  # noqa: E402
from rmpoly import cli, harness  # noqa: E402
from rmpoly.harness import ExperimentConfig  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from speed import cpu_seconds  # noqa: E402

WORKLOADS = ("grow-n", "grow-k", "small-many", "verify")

#: End-to-end metrics of an untraced run: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("norm_cpu_s", "s", "lower"),
    ("points_per_norm_cpu_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Fresh-interpreter set-ups per run; ``setup_s`` is the median of their
#: normalized CPU seconds.  One set-up takes about a second of CPU time.
SETUP_PROBES = 5

#: A run is stopped, without a result, this many seconds after its start.
RUN_LIMIT_S = 170

#: Scratch output and trace files, under the repository root.
WORK_DIR = ROOT / ".perfbench"

#: Workload inputs at full size, and at the tiny size the self-test uses.
SIZES = {
    "full": {
        "grow-n": {"n_values": (32, 64, 128), "k_values": (4,),
                   "target_points": 4096},
        "grow-k": {"n_values": (4,), "k_values": (32, 128, 512),
                   "target_points": 2048},
        "small-many": {"n_values": (4, 8, 16), "k_values": (2,),
                       "target_points": 100000},
        "verify": {"suite_trials": 200, "deterministic_instances": 1000,
                   "mc_trials": 100000},
    },
    "tiny": {
        "grow-n": {"n_values": (4, 8), "k_values": (3,),
                   "target_points": 96},
        "grow-k": {"n_values": (2,), "k_values": (4, 16),
                   "target_points": 64},
        "small-many": {"n_values": (4, 8), "k_values": (2,),
                       "target_points": 400},
        "verify": {"suite_trials": 4, "deterministic_instances": 20,
                   "mc_trials": 2000},
    },
}

#: Check families a verification run reports (``lemma_id`` values).
VERIFY_IDS = (
    "grow-n/sigma-min-companion-floor", "grow-n/sigma-min-lowrank-floor",
    "grow-n/spectral-norm-cap", "grow-n/tail-index-floor",
    "grow-k/top-sv-cap", "grow-k/block-sv-floor", "grow-k/sigma-min-floor",
    "grow-k/interlacing-chain", "lowrank-interlacing",
    "mirsky-sv-perturbation", "submatrix-interlacing", "woodbury-identity",
    "circulant-shift-sv-range", "pinv-tail-domination",
    "unit-vector-projection-beta", "gaussian-norm-tail",
)

_PROBE = """\
import sys
from pathlib import Path
import rmpoly
if not Path(rmpoly.__file__).resolve().is_relative_to(Path(sys.argv[1])):
    sys.exit(f"rmpoly imported from {rmpoly.__file__}")
rmpoly.finite_eigenvalues(rmpoly.sample_monic_gaussian(
    4, 2, rmpoly.RngStream(int(sys.argv[2]))))
"""


class OutOfTime(BaseException):
    """Raised by SIGALRM when a run reaches ``RUN_LIMIT_S``.  It derives
    from BaseException so that no pass counts it as its own failure."""


def _out_of_time(_signum, _frame):
    raise OutOfTime(f"run exceeded {RUN_LIMIT_S} s")


def pass_cpu_seconds() -> float:
    """CPU seconds of this process and its ended children: a pass that
    moved work into a worker pool is charged for it once the pool ends."""
    return cpu_seconds() + cpu_seconds(resource.RUSAGE_CHILDREN)


def measure_setup(seed: int, reference: speed.SpeedReference) -> list:
    """CPU seconds for a fresh interpreter to import rmpoly and solve
    once, and the CPU's speed meanwhile, per probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probes = []
    for _ in range(SETUP_PROBES):
        # Captured pipes make run() return at the probe's exit; waiting
        # with a timeout alone polls in steps of up to 50 ms.
        start, since = cpu_seconds(resource.RUSAGE_CHILDREN), reference.read()
        subprocess.run([sys.executable, "-c", _PROBE, str(SRC.resolve()),
                        str(seed)], env=env, capture_output=True, text=True,
                       check=True, timeout=60)
        probes.append((cpu_seconds(resource.RUSAGE_CHILDREN) - start,
                       reference.speed(since, reference.read())))
    return probes


@dataclass
class Outcome:
    """What a pass produced: ``points`` pooled by the compute call that
    took ``compute_s`` CPU seconds, the sha256 of the result document, and a check of
    the outputs that returns a list of problems."""

    compute_s: float
    points: int
    digest: str
    problems: Callable[[], list]


class Clock:
    """Times the timed phase of one pass in wall and CPU seconds, with the
    tracer installed around it when one is given, and the CPU's speed
    meanwhile when a speed reference is given."""

    def __init__(self, tracer: spans.Tracer | None = None,
                 reference: speed.SpeedReference | None = None):
        self.tracer = tracer
        self.reference = reference
        self.wall_s = None
        self.cpu_s = None
        self.speed = None

    @contextlib.contextmanager
    def timed(self):
        if self.tracer is not None:
            self.tracer.install()
        try:
            since = self.reference.read() if self.reference else None
            start, cpu = time.perf_counter(), pass_cpu_seconds()
            yield
            self.wall_s = time.perf_counter() - start
            self.cpu_s = pass_cpu_seconds() - cpu
            if self.reference:
                self.speed = self.reference.speed(since,
                                                  self.reference.read())
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()


@contextlib.contextmanager
def recording(owner, attr: str, sink: list):
    """Append ``(CPU seconds, return value)`` of every call to
    ``owner.attr``."""
    original = getattr(owner, attr)

    def record(*args, **kwargs):
        start = pass_cpu_seconds()
        out = original(*args, **kwargs)
        sink.append((pass_cpu_seconds() - start, out))
        return out

    setattr(owner, attr, record)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str)
                          else data).hexdigest()


def _scale(regime: str, n: int) -> float:
    return n ** -0.5 if regime == "grow-n" else 1.0


def _cell_header_problems(inputs: dict, cells) -> list:
    """Cells follow the swept axis, each with ceil(target / kn) trials."""
    expected = [(n, k, math.ceil(inputs["target_points"] / (k * n)))
                for n in inputs["n_values"] for k in inputs["k_values"]]
    got = [(c.n, c.k, c.trials) for c in cells]
    if got != expected:
        return [f"cells (n, k, trials) {got} differ from {expected}"]
    return []


def sweep_pass(regime: str, seed: int, size: str, clock: Clock) -> Outcome:
    """``run_grow_n`` / ``run_grow_k`` in memory, no files written."""
    inputs = SIZES[size][regime]
    cfg = ExperimentConfig(regime=regime, seed=seed, workers=1, **inputs)
    runner = "run_" + regime.replace("-", "_")
    merged = []
    with clock.timed(), recording(harness, "merge", merged):
        start = pass_cpu_seconds()
        result = getattr(harness, runner)(cfg)
        compute_s = pass_cpu_seconds() - start
    document = json.dumps(result.to_json_dict(), indent=2,
                          sort_keys=True) + "\n"

    def problems() -> list:
        found = _cell_header_problems(inputs, result.cells)
        if found or len(merged) != len(result.cells):
            return found + [f"{len(merged)} merged cells for "
                            f"{len(result.cells)} result cells"]
        for idx, (cell, (_s, esd)) in enumerate(zip(result.cells, merged)):
            label = f"{regime} n={cell.n} k={cell.k}"
            found += checks.report_problems(label, cell.report)
            found += checks.cell_problems(label, seed, idx, cell.n, cell.k,
                                          cell.trials,
                                          _scale(regime, cell.n), esd.points)
        return found

    points = sum(c.trials * c.n * c.k for c in result.cells)
    return Outcome(compute_s, points, _sha256(document), problems)


def _read_points(path: Path) -> np.ndarray:
    with path.open() as fh:
        if fh.readline().strip() != "re,im":
            raise ValueError(f"{path.name}: missing 're,im' header")
        xy = np.loadtxt(fh, delimiter=",", ndmin=2)
    return xy[:, 0] + 1j * xy[:, 1]


def small_many_pass(seed: int, size: str, clock: Clock) -> Outcome:
    """The CLI ``experiment`` command in-process: many tiny solves, then
    CSV write, CSV read and SVG render of every cell."""
    inputs = SIZES[size]["small-many"]
    out = WORK_DIR / "small-many"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["--quiet", "experiment", "--regime", "grow-n",
            "--k", str(inputs["k_values"][0])]
    for n in inputs["n_values"]:
        argv += ["--n", str(n)]
    argv += ["--target-points", str(inputs["target_points"]),
             "--seed", str(seed), "--workers", "1", "--format", "svg",
             "--out", str(out)]
    calls = []
    echoed = io.StringIO()
    with clock.timed(), recording(cli, "run_experiment", calls), \
            contextlib.redirect_stdout(echoed):
        try:
            cli.main.main(argv, standalone_mode=False)
        except SystemExit as exc:
            raise RuntimeError(f"rmpoly {' '.join(argv)} exited with "
                               f"code {exc.code}") from None
    compute_s, result = calls[0]
    summary = out / f"result_grow-n_seed{seed}.json"
    document = summary.read_bytes()

    def problems() -> list:
        svgs = [out / f"scatter_grow-n_n{c.n}_k{c.k}_seed{seed}.svg"
                for c in result.cells]
        found = _cell_header_problems(inputs, result.cells)
        expected = [str(p) for p in [summary, *svgs]]
        if echoed.getvalue().splitlines() != expected:
            found.append(f"echoed paths {echoed.getvalue().splitlines()} "
                         f"differ from {expected}")
        doc = json.loads(document)
        if [c["trials"] for c in doc["cells"]] != [c.trials
                                                    for c in result.cells]:
            found.append("summary JSON trials differ from the result")
        for idx, (cell, svg) in enumerate(zip(result.cells, svgs)):
            label = f"small-many n={cell.n} k={cell.k}"
            pts = _read_points(out / cell.points_file)
            found += checks.report_problems(label, cell.report)
            found += checks.cell_problems(label, seed, idx, cell.n, cell.k,
                                          cell.trials, _scale("grow-n", cell.n),
                                          pts)
            circles = svg.read_text().count("<circle ")
            if circles != pts.size + 1:
                found.append(f"{label}: SVG has {circles} circles for "
                             f"{pts.size} points plus the unit circle")
        return found

    points = sum(c.trials * c.n * c.k for c in result.cells)
    return Outcome(compute_s, points, _sha256(document), problems)


def verify_pass(seed: int, size: str, clock: Clock) -> Outcome:
    """``run_verification`` with the shifts and sizes ``rmpoly verify``
    uses; its "points" are the per-trial margins it checks."""
    cfg = ExperimentConfig(regime="grow-n", n_values=(16, 32, 64),
                           k_values=(3,), seed=seed)
    with clock.timed():
        start = pass_cpu_seconds()
        result = harness.run_verification(cfg, **SIZES[size]["verify"])
        compute_s = pass_cpu_seconds() - start
    points = sum(len(r.per_trial_margins) for r in result.reports)
    return Outcome(compute_s, points, _sha256(result.to_jsonl()),
                   lambda: checks.verification_problems(result, VERIFY_IDS))


PASSES = {
    "grow-n": lambda *a: sweep_pass("grow-n", *a),
    "grow-k": lambda *a: sweep_pass("grow-k", *a),
    "small-many": small_many_pass,
    "verify": verify_pass,
}


def run_pass(workload: str, seed: int, size: str,
             tracer: spans.Tracer | None = None,
             reference: speed.SpeedReference | None = None) -> dict:
    """One pass; any exception or output problem marks it not ok."""
    clock = Clock(tracer, reference)
    try:
        outcome = PASSES[workload](seed, size, clock)
    except Exception as exc:
        traceback.print_exc()
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    try:
        problems = outcome.problems()
    except Exception as exc:
        traceback.print_exc()
        problems = [f"output check raised {type(exc).__name__}: {exc}"]
    return {"ok": not problems, "wall_s": clock.wall_s,
            "cpu_s": clock.cpu_s, "speed": clock.speed,
            "compute_s": outcome.compute_s, "points": outcome.points,
            "sha256": outcome.digest, "problems": problems}


def _openblas_threads():
    """Thread count numpy's OpenBLAS reports, or None if not found."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_reported": _openblas_threads(),
        "seed": seed,
    }


def _print_pass(label: str, rec: dict) -> None:
    if "wall_s" not in rec:
        print(f"pass {label}: FAILED {rec['error']}")
        return
    status = "ok" if rec["ok"] else "FAILED " + "; ".join(rec["problems"])
    shown = f" speed={rec['speed']:.4f}" if rec["speed"] else ""
    print(f"pass {label}: wall_s={rec['wall_s']:.4f} "
          f"cpu_s={rec['cpu_s']:.4f}{shown} compute_s={rec['compute_s']:.4f} "
          f"points={rec['points']} result_sha256={rec['sha256']} {status}")


def _print_spans(summary: dict) -> None:
    rows = sorted(summary["names"].items(), key=lambda kv: -kv[1]["s"])
    print(f"{'span':<40} {'calls':>8} {'s':>10} {'self_s':>10}")
    for name, st in rows:
        print(f"{name:<40} {st['calls']:>8} {st['s']:>10.4f} "
              f"{st['self_s']:>10.4f}")


def traced_passes(workload: str, seed: int, size: str):
    """One untraced and one traced pass; the per-layer metrics, or None
    when a pass did not complete."""
    passes = [run_pass(workload, seed, size)]
    tracer = spans.Tracer()
    passes.append(run_pass(workload, seed, size, tracer))
    for site in tracer.missing:
        print(f"trace: wrap target {site} is missing")
    (WORK_DIR / f"trace_{workload}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed,
         "columns": ["name", "start", "end", "parent", "bytes", "error"],
         "missing": tracer.missing, "spans": tracer.spans}))
    if not all("wall_s" in p for p in passes):
        return passes, None
    summary = spans.summarize(tracer.spans)
    _print_spans(summary)
    return passes, spans.per_layer_metrics(
        summary, passes[1]["wall_s"], passes[0]["wall_s"],
        len(tracer.spans), tracer.missing)


def timed_passes(workload: str, seed: int, size: str, seconds: int,
                 reference: speed.SpeedReference):
    """Whole passes until the next one would end after ``seconds``, each
    with the CPU's speed meanwhile."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed, size, reference=reference))
        longest = max(p.get("wall_s") or 0.0 for p in passes)
        if (not passes[-1]["ok"]
                or time.perf_counter() - start + longest > seconds):
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="tiny inputs, for the self-test only")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not Path(rmpoly.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: rmpoly imported from {rmpoly.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_LIMIT_S)
    reference = None
    try:
        WORK_DIR.mkdir(exist_ok=True)
        env = environment(args.seed)
        print("env " + json.dumps(env, sort_keys=True))
        if not args.trace:
            reference = speed.SpeedReference()
        setup = measure_setup(args.seed, reference) if reference else []
        # Warm-up solve: lazy imports and LAPACK set-up happen before timing.
        rmpoly.finite_eigenvalues(rmpoly.sample_monic_gaussian(
            4, 2, rmpoly.RngStream(args.seed)))
        if args.trace:
            passes, per_layer = traced_passes(args.workload, args.seed,
                                              args.size)
        else:
            passes = timed_passes(args.workload, args.seed, args.size,
                                  args.seconds, reference)
    except (OutOfTime, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        if reference is not None:
            reference.close()

    digests = {p["sha256"] for p in passes if "sha256" in p}
    if len(digests) > 1:
        for p in passes:
            if "sha256" in p:
                p["ok"] = False
                p["problems"].append("result bytes differ between passes "
                                     "of one seed")
    for i, rec in enumerate(passes):
        _print_pass(str(i + 1) + ("/traced" if args.trace and i else ""), rec)
    timed = [p for p in passes if p.get("wall_s") is not None]
    if not timed:
        print("error: no pass completed", file=sys.stderr)
        return 1

    attempted = len(passes)
    failed = sum(1 for p in passes if not p["ok"])
    print(f"error_rate = {failed / attempted:.4f} ratio "
          f"({failed} of {attempted} passes failed)")
    if args.trace:
        if per_layer is None:
            print("error: traced pass did not complete", file=sys.stderr)
            return 1
        metrics = per_layer
    else:
        values = {
            "setup_s": statistics.median(t * v for t, v in setup),
            "norm_cpu_s": statistics.median(p["cpu_s"] * p["speed"]
                                            for p in timed),
            "points_per_norm_cpu_s": statistics.median(
                p["points"] / (p["compute_s"] * p["speed"]) for p in timed),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better in END_TO_END}
        print("setup probes (CPU s, speed): " + ", ".join(
            f"{t:.4f} {v:.4f}" for t, v in setup))
        print(f"cpu_s = {statistics.median(p['cpu_s'] for p in timed):.6g}"
              " s (median raw CPU time of a pass, for information)")
        print(f"wall_s = {statistics.median(p['wall_s'] for p in timed):.6g}"
              " s (median wall time of a pass, for information)")
        print(f"passes timed: {len(timed)}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
