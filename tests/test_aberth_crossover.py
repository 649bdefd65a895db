"""``scripts/aberth_crossover.py`` counts the sweeps and root evaluations
of a solve by wrapping solver functions: it must keep finding them."""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from rmpoly import matpoly
from rmpoly.matpoly import RngStream, sample_monic_gaussian

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "aberth_crossover.py"


@pytest.fixture(scope="module")
def crossover():
    # The script pins one BLAS thread for its own process; keep the
    # environment other tests start subprocesses with.
    environ = dict(os.environ)
    spec = importlib.util.spec_from_file_location("aberth_crossover", _PATH)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
    return module


def test_counted_solve_sees_every_sweep(crossover):
    n, k = 2, 40
    coeffs = sample_monic_gaussian(n, k, RngStream(0, (n, k, 0))).stack
    sweeps, points, share = crossover._counted_solve(coeffs)
    # The first sweep evaluates all kn start points; later sweeps pull and
    # evaluate the roots still moving.
    assert sweeps >= 2 and points > k * n
    assert 0.0 <= share <= 1.0


def test_counted_solve_sees_both_start_circles(crossover, monkeypatch):
    # With no pull, the solve of RngStream(40) at (2, 64) breaks the trace
    # identity from the first circle, so it runs from the second as well.
    # Every sweep after a circle's first evaluates by ``_newton``.
    monkeypatch.setattr(
        matpoly, "_aberth_pull",
        lambda x, idx, dtype=np.float64: np.zeros(idx.size, complex))
    circles, newtons = [], []
    for name, seen in (("_circle_newton", circles), ("_newton", newtons)):
        fn = getattr(matpoly, name)
        monkeypatch.setattr(
            matpoly, name,
            lambda both, x, *a, fn=fn, seen=seen: seen.append(x.size)
            or fn(both, x, *a))
    coeffs = sample_monic_gaussian(2, 64, RngStream(40)).stack
    sweeps, points, _ = crossover._counted_solve(coeffs)
    assert circles == [128, 128]
    assert sweeps == len(circles) + len(newtons)
    assert points == sum(circles) + sum(newtons)
