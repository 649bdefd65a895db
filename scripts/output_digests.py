"""Print one sha256 digest per rmpoly output, at one BLAS thread.

Two checkouts that print the same lines write the same bytes, so a change
that must keep every output can be checked with ``diff``.  Run it from the
root of the checkout to digest: it imports rmpoly from ``./src``, so one
copy of the script digests any checkout.

    python3 scripts/output_digests.py --seed 7 > change.txt
    (cd ../parent && python3 ../repo/scripts/output_digests.py --seed 7) \\
        > parent.txt
    diff parent.txt change.txt

The outputs are the points CSV, scatter SVG and summary JSON of three
``experiment`` runs at the benchmark's sizes (grow-n, grow-k, small-many),
the ``esd`` stdout of a dense shape, an Ehrlich-Aberth shape, ``n = k = 1``
and a shape whose stdout spans three blocks of rows, the ``sample`` JSON
of two shapes, the ``plot --no-unit-circle`` SVG of the grow-n run's
first points file, and the ``verify``
JSON lines, one digest per check family (``<label>/<lemma_id>``), so a
``diff`` names the families that changed.  ``verify`` runs at default
sizes and once more at 15 suite trials, 50 instances and 2000 Monte Carlo
draws (``verify-small``), whose suite trials fall into other chunks: one
of 15 trials at (2, 8) and 14 + 1 at (16, 3).
The grow-n run, on the dense route, the grow-k run, on the Ehrlich-Aberth
route, and the small-many run, whose 172 chunks of tiny dense solves are
the most tasks a pool is handed, are each made once more at
``--workers 2`` (at most one worker per CPU), so that a ``diff`` also
covers what worker processes receive; their lines must carry the
one-worker digests, and the script fails otherwise.
A run takes 21-26 seconds of CPU time and 17-22 seconds of wall time per
seed on a 2-vCPU VM.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

# OpenBLAS reads these when it is loaded, so they are set before numpy.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
SRC = Path.cwd() / "src"
if not (SRC / "rmpoly" / "__init__.py").is_file():
    sys.exit(f"error: no rmpoly sources under {SRC}")
sys.path.insert(0, str(SRC))

from click.testing import CliRunner  # noqa: E402

from rmpoly.cli import main as rmpoly_main  # noqa: E402

#: ``experiment`` runs: (label, regime, n values, k values, target points,
#: workers).
EXPERIMENTS = (
    ("grow-n", "grow-n", (32, 64, 128), (4,), 4096, 1),
    ("grow-k", "grow-k", (4,), (32, 128, 512), 2048, 1),
    ("small-many", "grow-n", (4, 8, 16), (2,), 100000, 1),
    ("grow-n-workers-2", "grow-n", (32, 64, 128), (4,), 4096, 2),
    ("grow-k-workers-2", "grow-k", (4,), (32, 128, 512), 2048, 2),
    ("small-many-workers-2", "grow-n", (4, 8, 16), (2,), 100000, 2),
)

#: ``verify`` runs: (label, extra arguments).
VERIFY_RUNS = (
    ("verify", []),
    ("verify-small", ["--trials", "15", "--instances", "50",
                      "--mc-trials", "2000"]),
)

#: ``esd`` runs: (label, extra arguments).
ESD_RUNS = (
    ("esd-dense", ["--n", "4", "--k", "8", "--trials", "3"]),
    ("esd-aberth", ["--n", "2", "--k", "64", "--trials", "2",
                    "--regime", "grow-k"]),
    ("esd-n1-k1", ["--n", "1", "--k", "1"]),
    ("esd-blocks", ["--n", "4", "--k", "2", "--trials", "1100"]),
)

#: ``sample`` runs: (label, extra arguments).
SAMPLE_RUNS = (
    ("sample-n3-k4", ["--n", "3", "--k", "4"]),
    ("sample-n1-k1", ["--n", "1", "--k", "1"]),
)


def _run(argv) -> bytes:
    """Stdout of ``rmpoly argv``; a nonzero exit aborts the script."""
    res = CliRunner().invoke(rmpoly_main, ["--quiet", *argv])
    if res.exit_code != 0:
        sys.exit(f"error: rmpoly {' '.join(argv)} exited with "
                 f"{res.exit_code}: {res.stderr.strip() or res.exception!r}")
    return res.stdout_bytes


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    seed = str(args.seed)

    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, regime, ns, ks, target, workers in EXPERIMENTS:
            out = Path(tmp) / label
            cmd = ["experiment", "--regime", regime, "--target-points",
                   str(target), "--seed", seed, "--format", "svg",
                   "--workers", str(workers), "--out", str(out)]
            for n in ns:
                cmd += ["--n", str(n)]
            for k in ks:
                cmd += ["--k", str(k)]
            _run(cmd)
            files[label] = [(_digest(path.read_bytes()), path.name)
                            for path in sorted(out.iterdir())]
            for digest, name in files[label]:
                print(f"{digest}  {label}/{name}")
        # Without the overlay: the experiments' scatters all carry it.
        points = min((Path(tmp) / "grow-n").glob("points_*.csv"))
        svg = Path(tmp) / "plot.svg"
        _run(["plot", str(points), "--no-unit-circle", "--out", str(svg)])
        print(f"{_digest(svg.read_bytes())}  plot-no-unit-circle")
    for label, extra in ESD_RUNS:
        print(f"{_digest(_run(['esd', '--seed', seed, *extra]))}  {label}")
    for label, extra in SAMPLE_RUNS:
        print(f"{_digest(_run(['sample', '--seed', seed, *extra]))}  {label}")
    for label, extra in VERIFY_RUNS:
        lines = _run(["verify", "--seed", seed, *extra])
        for line in lines.splitlines(keepends=True):
            lemma_id = json.loads(line)["lemma_id"]
            print(f"{_digest(line)}  {label}/{lemma_id}")
    for label in ("grow-n", "grow-k", "small-many"):
        if files[f"{label}-workers-2"] != files[label]:
            sys.exit(f"error: the --workers 2 {label} run wrote other bytes "
                     "than the one-worker run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
