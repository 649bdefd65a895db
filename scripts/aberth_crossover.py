"""Time Ehrlich-Aberth against the dense companion route at one BLAS thread.

For each shape it draws a few monic Gaussian polynomials and measures, in
process CPU seconds, ``matpoly._aberth_eigenvalues`` against building the
companion matrix and running dense ``eigvals`` on it.  The Aberth time
and counts cover every start circle the solve tries, and a solve that
fails from both falls back to dense and is charged both times, as
``finite_eigenvalues`` would be.
One extra Aberth solve per draw counts its sweeps and its root
evaluations per root (points evaluated, over kn), by wrapping three
functions here: the first sweep from a start circle is a call of
``matpoly._circle_newton``, at all kn start points, which makes no pull;
every later sweep makes one float32 call of ``matpoly._aberth_pull`` (a
sweep that redoes its pull in float64 calls it once more) and passes its
points to ``matpoly._newton``.
``pull_share`` is the CPU share of that solve spent in ``_aberth_pull``;
``dist`` is the paired distance (``match_distance``) of its roots to the
dense spectrum.  ``peak_mb`` is
the traced peak (``tracemalloc``, 2**20 bytes) of one more untimed solve.
Its table is the measurement behind ``matpoly._ABERTH_MIN_KN`` and
``_ABERTH_MAX_N``.  Run it from the repository root; it imports rmpoly
from ``src/``:

    python3 scripts/aberth_crossover.py                # all shapes, 3 draws
    python3 scripts/aberth_crossover.py --skip-large   # without n=32, k=64

The ``n=32, k=64`` shape (kn = 2048) takes about a minute per draw.
"""

import argparse
import os
import sys
import time
import tracemalloc
from pathlib import Path

# OpenBLAS reads these when it is loaded, so they are set before numpy.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from rmpoly import matpoly  # noqa: E402
from rmpoly.linalg import eigenvalues, match_distance  # noqa: E402
from rmpoly.matpoly import (RngStream, _aberth_eigenvalues,  # noqa: E402
                            companion, sample_monic_gaussian)

#: Shapes with k >= 2n at kn in {32, 48, 64, 80, 96, 128, 256}.
SHAPES = [(1, 32), (2, 16),
          (1, 48), (2, 24), (4, 12),
          (1, 64), (2, 32), (4, 16),
          (1, 80), (2, 40), (4, 20),
          (1, 96), (2, 48), (4, 24),
          (1, 128), (2, 64), (4, 32), (8, 16),
          (1, 256), (2, 128), (4, 64), (8, 32)]

#: The k = 2n shape where the sweep count grows with n.
LARGE_SHAPE = (32, 64)

#: Small solves are repeated until they add up to this many CPU seconds,
#: and their mean is reported.
MIN_TOTAL_S = 0.2


def _cpu_seconds(fn):
    runs, start = 0, time.process_time()
    while True:
        out = fn()
        runs += 1
        total = time.process_time() - start
        if total >= MIN_TOTAL_S:
            return total / runs, out


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _counted_solve(coeffs):
    """Sweeps of one Aberth solve, the points it evaluated and the CPU
    share of its pulls."""
    counts = {"sweeps": 0, "points": 0, "pull_s": 0.0}
    pull, newton = matpoly._aberth_pull, matpoly._newton
    circle_newton = matpoly._circle_newton

    def counted_pull(x, idx, dtype=np.float64):
        counts["sweeps"] += dtype is np.float32
        start = time.process_time()
        out = pull(x, idx, dtype)
        counts["pull_s"] += time.process_time() - start
        return out

    def counted_newton(both, x):
        counts["points"] += x.size
        return newton(both, x)

    def counted_circle_newton(both, x, radius):
        counts["sweeps"] += 1
        counts["points"] += x.size
        return circle_newton(both, x, radius)

    matpoly._aberth_pull = counted_pull
    matpoly._newton = counted_newton
    matpoly._circle_newton = counted_circle_newton
    start = time.process_time()
    try:
        _aberth_eigenvalues(coeffs)
    finally:
        matpoly._aberth_pull = pull
        matpoly._newton = newton
        matpoly._circle_newton = circle_newton
    share = counts["pull_s"] / (time.process_time() - start)
    return counts["sweeps"], counts["points"], share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--draws", type=int, default=3,
                        help="polynomials drawn per shape (default 3)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed; draw d of shape (n, k) uses "
                             "RngStream(seed, (n, k, d))")
    parser.add_argument("--skip-large", action="store_true",
                        help="leave out the n=32, k=64 shape")
    args = parser.parse_args(argv)
    shapes = SHAPES if args.skip_large else SHAPES + [LARGE_SHAPE]
    print(f"{'n':>3} {'k':>4} {'kn':>5}  {'aberth_s':>9} {'dense_s':>9} "
          f"{'dense/aberth':>12} {'sweeps':>6} {'evals':>6} "
          f"{'pull_share':>10} {'dist':>8} {'peak_mb':>8}")
    for n, k in shapes:
        ratios = []
        for d in range(args.draws):
            p = sample_monic_gaussian(n, k, RngStream(args.seed, (n, k, d)))
            t_aberth, lam = _cpu_seconds(
                lambda: _aberth_eigenvalues(p.stack))
            t_dense, dense = _cpu_seconds(
                lambda: eigenvalues(companion(p)))
            sweeps, points, share = _counted_solve(p.stack)
            peak = _traced_peak_mb(lambda: _aberth_eigenvalues(p.stack))
            note, dist = "", "-"
            if lam is None:
                t_aberth += t_dense
                note = "  (fell back)"
            else:
                dist = f"{match_distance(lam, dense):.1e}"
            ratios.append(t_dense / t_aberth)
            print(f"{n:>3} {k:>4} {k * n:>5}  {t_aberth:>9.4f} "
                  f"{t_dense:>9.4f} {ratios[-1]:>12.2f} {sweeps:>6} "
                  f"{points / (k * n):>6.1f} {share:>10.2f} {dist:>8} "
                  f"{peak:>8.2f}{note}",
                  flush=True)
        print(f"{n:>3} {k:>4} {k * n:>5}  median dense/aberth "
              f"{np.median(ratios):.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
