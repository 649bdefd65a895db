"""The benchmark's output check, run on experiments' pooled points.

``perfbench/checks.py`` re-draws a fixed-stride sample of a cell's trials
from their own streams and checks the eigenvalues it finds at each trial's
place in the pooled points: the trace identity and the backward error.
Points out of trial order fail it, which the distance tests cannot see and
the worker-count tests see on both of their sides.  The module is loaded
by path, as the benchmark loads it, and records ``harness.merge`` as the
benchmark's sweep pass does.
"""

import importlib.util
from pathlib import Path

import pytest

from rmpoly import ExperimentConfig, harness

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("regime,n_values,k_values,target_points", [
    # Dense route: 300 trials in chunks of 128, 128 and 44.
    ("grow-n", (8,), (2,), 4800),
    # Ehrlich-Aberth route: k = 40 takes 7 trials in chunks of 5 and 2.
    ("grow-k", (2,), (40, 64), 512),
], ids=["grow-n-dense", "grow-k-aberth"])
def test_pooled_points_pass_the_benchmark_output_check(
        checks, monkeypatch, seed, regime, n_values, k_values,
        target_points):
    merged = []
    merge = harness.merge

    def record(*args, **kwargs):
        merged.append(merge(*args, **kwargs))
        return merged[-1]
    monkeypatch.setattr(harness, "merge", record)
    # ``run_experiment`` runs ``run_grow_n`` or ``run_grow_k``.
    result = harness.run_experiment(ExperimentConfig(
        regime=regime, n_values=n_values, k_values=k_values,
        target_points=target_points, seed=seed))
    assert len(merged) == len(result.cells)
    problems = []
    for idx, (cell, esd) in enumerate(zip(result.cells, merged)):
        label = f"{regime} n={cell.n} k={cell.k}"
        scale = cell.n ** -0.5 if regime == "grow-n" else 1.0
        problems += checks.report_problems(label, cell.report)
        problems += checks.cell_problems(label, seed, idx, cell.n, cell.k,
                                         cell.trials, scale, esd.points)
    assert problems == []
