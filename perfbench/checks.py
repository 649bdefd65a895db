"""Output checks for benchmark passes.

They run outside the timed phase; a pass whose outputs show any problem
counts as failed.  Each function returns a list of problem strings, empty
when the outputs are correct.
"""

from __future__ import annotations

import math

import numpy as np

from rmpoly import (RngStream, evaluate, sample_monic_gaussian,
                    singular_values, spectral_norm)

#: About this many trials per cell are re-derived: stride trials // 8.
CHECK_TRIALS = 8

#: Up to this n every eigenvalue of a re-derived trial is checked; above
#: it, about ``CHECK_POINTS`` per trial are.  One check is an n x n SVD, so
#: its cost grows as n**3.
FULL_CHECK_MAX_N = 8

#: About this many eigenvalues per re-derived trial are checked when n is
#: above ``FULL_CHECK_MAX_N``.
CHECK_POINTS = 16

#: Gate on the normwise backward error, as a multiple of ``kn * eps``.
#: Dense QR on the companion matrix is backward stable for the
#: linearization, not for P itself, so the polynomial backward error can
#: exceed ``kn * eps`` by a factor that grows with the coefficient norms.
#: The largest ratio seen on the benchmark workloads is below 0.6; a
#: perturbation of relative size 1e-9 already exceeds the gate.
BACKWARD_ERROR_FACTOR = 100.0

#: Gate on the trace identity of a monic P, ``sum(lam) = -tr(C_{k-1})``,
#: as a multiple of ``kn * eps * sum|lam|``.  It costs O(kn) per trial and
#: catches a duplicated or lost root, which keeps the point count and
#: moves the sum by about one root's size.  The largest ratio seen, over
#: every trial of the ``small-many`` cells for two seeds, is 1.1; on the
#: larger cells of ``grow-n`` and ``grow-k`` it is below 0.03.
TRACE_FACTOR = 100.0

_EPS = float(np.finfo(np.float64).eps)


def backward_error(p, lam: complex, weights) -> float:
    """Normwise backward error of ``lam`` as an eigenvalue of ``p``.

    ``sigma_min(P(lam)) / sum_j |lam|^j ||C_j||_2`` with ``C_k = I``
    [Tisseur, LAA 309 (2000) 339-361]; ``weights`` holds the norms
    ``||C_0||, ..., ||C_{k-1}||, 1``.  Non-finite input gives NaN.
    """
    r = abs(lam)
    denom = math.fsum(w * r ** j for j, w in enumerate(weights))
    if not (math.isfinite(denom) and denom > 0):
        return math.nan
    return float(singular_values(evaluate(p, lam))[-1]) / denom


def cell_problems(label: str, seed: int, cell: int, n: int, k: int,
                  trials: int, scale: float, points) -> list:
    """Check one cell's pooled points against the polynomials behind them.

    The cell must hold ``trials * k * n`` finite points, trial ``t`` at
    positions ``[t kn, (t+1) kn)``.  A fixed-stride subsample of trials is
    re-drawn from ``RngStream(seed).child(cell, t)``.  Its eigenvalues must
    satisfy the trace identity within ``TRACE_FACTOR * kn * eps * sum|lam|``,
    and the backward error of each of them (of a fixed-stride subsample
    when n is above ``FULL_CHECK_MAX_N``) must stay within
    ``BACKWARD_ERROR_FACTOR * kn * eps``.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    kn = k * n
    if pts.size != trials * kn:
        return [f"{label}: {pts.size} points, expected trials*k*n = "
                f"{trials * kn}"]
    problems = []
    bad = int(np.count_nonzero(~np.isfinite(pts)))
    if bad:
        problems.append(f"{label}: {bad} non-finite points")
    limit = BACKWARD_ERROR_FACTOR * kn * _EPS
    stride = 1 if n <= FULL_CHECK_MAX_N else max(1, kn // CHECK_POINTS)
    for t in range(0, trials, max(1, trials // CHECK_TRIALS)):
        p = sample_monic_gaussian(n, k, RngStream(seed).child(cell, t))
        lam = pts[t * kn:(t + 1) * kn] / scale
        trace_error = abs(lam.sum() + np.trace(p.coeffs[k - 1]))
        trace_limit = TRACE_FACTOR * kn * _EPS * float(np.abs(lam).sum())
        if not trace_error <= trace_limit:
            problems.append(
                f"{label}: trial {t} |sum(lam) + tr(C_k-1)| = "
                f"{trace_error:.3e} exceeds {TRACE_FACTOR:g} * kn * eps * "
                f"sum|lam| = {trace_limit:.3e}")
        weights = [spectral_norm(c) for c in p.coeffs] + [1.0]
        worst = max(backward_error(p, z, weights) for z in lam[::stride])
        if not worst <= limit:
            problems.append(
                f"{label}: trial {t} backward error {worst:.3e} exceeds "
                f"{BACKWARD_ERROR_FACTOR:g} * kn * eps = {limit:.3e}")
    return problems


def report_problems(label: str, report) -> list:
    """Every distance in a cell report must be finite and lie in [0, 1]."""
    values = report.to_json_dict()
    return [f"{label}: report {name} = {v!r} outside [0, 1]"
            for name, v in sorted(values.items())
            if not (isinstance(v, float) and 0.0 <= v <= 1.0)]


def verification_problems(result, expected_ids) -> list:
    """A verification run passes, carries every check family, and has
    finite margins."""
    problems = []
    ids = {r.lemma_id for r in result.reports}
    if ids != set(expected_ids):
        problems.append(f"verify: check families {sorted(ids)} differ from "
                        f"{sorted(expected_ids)}")
    for r in result.reports:
        if not r.per_trial_margins:
            problems.append(f"verify: {r.lemma_id} has no margins")
        elif not all(math.isfinite(m) for m in r.per_trial_margins):
            problems.append(f"verify: {r.lemma_id} has non-finite margins")
        if r.violations:
            problems.append(f"verify: {r.lemma_id} has {r.violations} "
                            "violations")
    if not result.passed:
        problems.append("verify: result.passed is false")
    return problems
