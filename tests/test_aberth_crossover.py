"""``scripts/aberth_crossover.py`` counts the sweeps and root evaluations
of a solve by wrapping solver functions: it must keep finding them."""

import importlib.util
import os
from pathlib import Path

import pytest

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
