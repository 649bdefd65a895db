"""Numerical checks of the singular-value bounds behind the limit theorems.

Two kinds of check live here:

* deterministic theorem checks -- interlacing under low-rank perturbation
  (Thompson), singular value perturbation (Mirsky), submatrix interlacing,
  the Woodbury identity, and the singular-value range of a shifted block
  circulant.  These are exact statements; a check fails only beyond a
  relative slack of ``DETERMINISTIC_SLACK``.  Each ``sweep_*`` runs one of
  them on many random instances, each instance from its own stream.  All
  but the submatrix sweep, whose draws mix Gaussians with integers, take
  their instances' draws as one stack (``matpoly._trial_draws``).  The
  Mirsky, low-rank and circulant sweeps check their instances stacked and
  share the margin formula of the single check, with the same bits; the
  circulant stacks hold at most ``matpoly._CHUNK_ENTRIES`` entries each.
* probabilistic bound checks -- Monte Carlo sweeps confirming that sampled
  quantities respect high-probability bounds at pilot-calibrated constants:
  floors on the smallest singular values of shifted companion matrices,
  caps on their spectral norms, a floor on an intermediate singular value,
  and tail bounds for Gaussian matrix norms and smallest singular values of
  shifted rectangular Gaussians.

The log-determinant diagnostics of the replacement principle follow them.
Both work on the matrices they are given, with no scale of their own, and
divide by the dimension m: ``replacement_gap`` takes both log-determinants
from one LU factorization each (``linalg.log_abs_det``), and
``tail_log_sum`` sums the logs of the smallest singular values.  A caller
that means ``n**-0.5 * M`` passes that product.

The probabilistic suites walk their trials in the chunks an experiment
uses (``matpoly._map_companions``), shift each fresh companion stack in
place (``M - zI`` changes only the diagonal, and the entries are those of
``M - z * np.eye(kn)``), and take one stacked SVD per chunk.

Margins follow one sign convention: >= 0 passes.  For an upper bound the
margin is (bound - observed); for a lower bound it is (observed - bound).
Checks covering several inequalities per trial record the worst (smallest)
margin of the trial.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularUpdateError, ValidationError
from .esd import _ks_statistic
from .linalg import (_square, as_matrix, log_abs_det, singular_values,
                     woodbury_inverse)
from .matpoly import (RngStream, _chunks, _circulant_stack, _complex,
                      _count, _generator, _index, _is_number,
                      _map_companions, _sizes, _trial_draws,
                      _trial_generators, circulant_b_eigenvalues,
                      complex_gaussian)
from .tolerances import DETERMINISTIC_SLACK, KS_CRITICAL_1PCT, rank_cutoff

__all__ = [
    "LemmaCheckConfig",
    "LemmaReport",
    "check_lowrank_interlacing",
    "check_mirsky",
    "check_submatrix_interlacing",
    "check_woodbury_identity",
    "check_circulant_shift_bounds",
    "sweep_lowrank_interlacing",
    "sweep_mirsky",
    "sweep_submatrix_interlacing",
    "sweep_woodbury_identity",
    "sweep_circulant_shift_bounds",
    "pseudoinverse_tail_bound",
    "mc_pseudoinverse_tail",
    "check_pinv_tail_domination",
    "gaussian_norm_tail",
    "beta_projection_check",
    "replacement_gap",
    "tail_split_index",
    "tail_log_sum",
    "lemma_suite_grow_n",
    "lemma_suite_grow_k",
]


# ---------------------------------------------------------------------------
# Configuration and report types


#: Bound constants of the probabilistic suites, pilot-calibrated.  Floors
#: scale like ``n**-(EXPONENT_A + 2)`` and ``CONSTANT_T * k**-2``, the
#: spectral-norm cap is ``CONSTANT_D`` (dimension-grown suite) or
#: ``CONSTANT_R * sqrt(k) + 1 + |z|`` (degree-grown suite), and the
#: intermediate-index floor is ``CONSTANT_T * n**(EPSILON - 1/2)`` at split
#: index floor(kn - n**(1 - DELTA)).  The lemmas need
#: ``0 < DELTA < 1/2``, ``0 < EPSILON < 1/2 - DELTA`` and
#: ``0 < CONSTANT_T <= 1``.
DELTA = 0.3
EPSILON = 0.1
EXPONENT_A = 1.0
CONSTANT_T = 1e-3
CONSTANT_D = 6.0
CONSTANT_R = 3.0

#: Rank of the random low-rank updates in the interlacing and Woodbury
#: sweeps.
_UPDATE_RANK = 1

def _subtract_shift(m: np.ndarray, z) -> np.ndarray:
    """``m - zI`` in place and returned, for a square matrix or a stack of
    them and one shift or one per matrix.  Only the diagonal changes, so
    the entries are those of ``m - z * np.eye(...)``."""
    d = np.arange(m.shape[-1])
    m[..., d, d] -= np.asarray(z)[..., None]
    return m


def _size_pairs(sizes) -> tuple:
    """``sizes`` as a nonempty tuple of (n, k) pairs of Python ints >= 1."""
    if not (isinstance(sizes, (tuple, list)) and sizes):
        raise ValidationError(
            f"sizes must be a nonempty list of (n, k) pairs, got {sizes!r}")
    for size in sizes:
        if not (isinstance(size, (tuple, list)) and len(size) == 2):
            raise ValidationError(f"size {size!r} is not an (n, k) pair")
    return tuple(_sizes(*size) for size in sizes)


@dataclass(frozen=True)
class LemmaCheckConfig:
    """Sweep layout for the probabilistic lemma suites.

    ``sizes`` lists (n, k) cells, each run for ``trials`` trials; ``z`` is
    the spectral shift, any finite complex number type but bool.  They are
    stored as a tuple of int pairs, an int and a Python complex, so a
    config hashes.  The bound constants are the module constants above.
    """

    z: complex
    sizes: tuple
    trials: int = 200

    def __post_init__(self):
        object.__setattr__(self, "z", _complex(self.z, "shift z"))
        object.__setattr__(self, "trials", _count(self.trials, "trials"))
        object.__setattr__(self, "sizes", _size_pairs(self.sizes))


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one check family: margins per trial, >= 0 passes.

    ``violations`` is always the count of negative margins.
    ``fitted_exponent`` is a least-squares slope of log(median quantity)
    against log(size) when the sweep spans enough sizes, else None.
    """

    lemma_id: str
    per_trial_margins: tuple
    fitted_exponent: float | None = None
    violations: int = field(init=False, default=0)

    def __post_init__(self):
        margins = tuple(float(m) for m in self.per_trial_margins)
        object.__setattr__(self, "per_trial_margins", margins)
        object.__setattr__(self, "violations",
                           int(sum(1 for m in margins if m < 0)))

    @property
    def passed(self) -> bool:
        return self.violations == 0

    @property
    def min_margin(self) -> float:
        return min(self.per_trial_margins)

    def to_json_dict(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "trials": len(self.per_trial_margins),
            "violations": self.violations,
            "min_margin": self.min_margin,
            "fitted_exponent": self.fitted_exponent,
            "per_trial_margins": list(self.per_trial_margins),
        }


# ---------------------------------------------------------------------------
# Deterministic theorem checks (exact statements, slack-guarded)


def _lowrank_interlacing_margins(a, e):
    """Interlacing margins of ``a`` against ``a + e`` for stacks of pairs.

    ``a`` and ``e`` have shape ``(T, m, p)``.  Yields, once per numerical
    rank r of ``e`` in the stack, the indices of the pairs with that rank
    and their margins, one row per pair: ``alpha_i - beta_{i+r}`` and
    ``beta_i - alpha_{i+r}`` for i = 1 .. min(m, p) - r, interleaved, each
    plus the pair's slack.  A pair whose r saturates the dimension has no
    inequality; its one margin is its slack.
    """
    alpha = singular_values(a)
    beta = singular_values(a + e)
    se = singular_values(e)
    rank = np.sum(se > rank_cutoff(e.shape[-2:], se[:, :1]), axis=1)
    slack = DETERMINISTIC_SLACK * np.maximum(
        np.maximum(alpha[:, 0], beta[:, 0]), 1.0)
    d = alpha.shape[1]
    for r in np.unique(rank):
        idx = np.flatnonzero(rank == r)
        if r == d:  # the perturbation's rank saturates the dimension
            margins = np.zeros((idx.size, 1))
        else:
            margins = np.stack([alpha[idx, :d - r] - beta[idx, r:],
                                beta[idx, :d - r] - alpha[idx, r:]],
                               axis=-1).reshape(idx.size, -1)
        yield idx, margins + slack[idx, None]


def check_lowrank_interlacing(a, e) -> LemmaReport:
    """Interlacing under additive low-rank perturbation.

    With alpha = singular values of ``a``, beta = singular values of
    ``a + e`` and r = numerical rank of ``e``:
    ``alpha_i >= beta_{i+r}`` and ``beta_i >= alpha_{i+r}`` for all valid i.
    """
    aa, ee = as_matrix(a), as_matrix(e)
    if aa.shape != ee.shape:
        raise ValidationError(f"interlacing check needs equal shapes, got "
                              f"{aa.shape} vs {ee.shape}")
    [(_, margins)] = _lowrank_interlacing_margins(aa[None], ee[None])
    return LemmaReport("lowrank-interlacing", tuple(margins[0]))


def _mirsky_margins(a, b) -> np.ndarray:
    """Mirsky margin ``||a - b|| - max_i |sigma_i(a) - sigma_i(b)|`` plus
    slack, one per pair of the stacks ``a`` and ``b`` of shape
    ``(..., m, p)``."""
    aa = np.asarray(a, dtype=np.complex128)
    bb = np.asarray(b, dtype=np.complex128)
    if aa.shape != bb.shape:
        raise ValidationError("sv perturbation check needs equal shapes")
    sa = singular_values(aa)
    sb = singular_values(bb)
    gap = np.max(np.abs(sa - sb), axis=-1)
    norm = singular_values(aa - bb)[..., 0]
    slack = DETERMINISTIC_SLACK * np.maximum(
        np.maximum(sa[..., 0], sb[..., 0]), 1.0)
    return norm - gap + slack


def check_mirsky(a, b) -> LemmaReport:
    """Singular values move by at most the spectral norm of the difference:
    ``max_i |sigma_i(a) - sigma_i(b)| <= ||a - b||``."""
    return LemmaReport("mirsky-sv-perturbation", (_mirsky_margins(a, b),))


def _subset(indices, size: int, what: str) -> np.ndarray:
    """``indices`` as a nonempty integer array of distinct indices in
    ``[0, size)``."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size == 0:
        raise ValidationError(
            f"{what} subset must be a nonempty list, got {indices!r}")
    if idx.dtype.kind not in "iu":
        raise ValidationError(
            f"{what} indices must be integers, got {indices!r}")
    if idx.min() < 0 or idx.max() >= size:
        raise ValidationError(
            f"{what} indices must lie in [0, {size}), got {indices!r}")
    if len(set(idx.tolist())) != idx.size:
        raise ValidationError(
            f"{what} indices must be distinct, got {indices!r}")
    return idx


def check_submatrix_interlacing(a, rows, cols) -> LemmaReport:
    """A p x q submatrix has no larger top singular value and no smaller
    min(p, q)-th one: ``||a|| >= ||b||`` and ``sigma_{min(p,q)}(a) >=
    sigma_min(b)``.  ``rows`` and ``cols`` are distinct indices of ``a``."""
    aa = as_matrix(a)
    b = aa[np.ix_(_subset(rows, aa.shape[0], "row"),
                  _subset(cols, aa.shape[1], "column"))]
    sa = singular_values(aa)
    sb = singular_values(b)
    slack = DETERMINISTIC_SLACK * max(sa[0], 1.0)
    small = min(b.shape)
    return LemmaReport("submatrix-interlacing",
                       (sa[0] - sb[0] + slack,
                        sa[small - 1] - sb[-1] + slack))


def check_woodbury_identity(a, u, v) -> LemmaReport:
    """Low-rank update inverse agrees with a true inverse of ``a + u v``.

    Verified through both inverse residuals ``||(a+uv) w - I||_F`` and
    ``||w (a+uv) - I||_F``, each normalized by ``||a+uv||_F ||w||_F`` so the
    margin is conditioning-free.
    """
    aa = _square(a)
    w = woodbury_inverse(np.linalg.inv(aa), u, v)
    b = aa + np.asarray(u) @ np.asarray(v)
    scale = np.linalg.norm(b, "fro") * np.linalg.norm(w, "fro")
    eye = np.eye(b.shape[0])
    right = np.linalg.norm(b @ w - eye, "fro") / scale
    left = np.linalg.norm(w @ b - eye, "fro") / scale
    return LemmaReport("woodbury-identity", (DETERMINISTIC_SLACK - right,
                                             DETERMINISTIC_SLACK - left))


def _circulant_margins(s: np.ndarray, az) -> np.ndarray:
    """Margins ``s - |1 - |z||`` and ``1 + |z| - s``, each plus slack, of
    rows of singular values ``s``, shape ``(..., kn)``, of shifted block
    circulants; ``az`` holds |z| per row, shape ``(...)``."""
    az = np.asarray(az)[..., None]
    slack = DETERMINISTIC_SLACK * np.maximum(s[..., :1], 1.0)
    return np.concatenate([s - np.abs(1.0 - az) + slack,
                           1.0 + az - s + slack], axis=-1)


def check_circulant_shift_bounds(n: int, k: int, z: complex) -> LemmaReport:
    """Singular values of (block circulant - z I) stay in
    ``[|1 - |z||, 1 + |z|]``.

    The shifted block circulant is normal with eigenvalues (root of unity -
    z), so every singular value is the modulus of such an eigenvalue.
    """
    n, k = _sizes(n, k)
    z = _complex(z, "shift z")
    s = singular_values(
        _subtract_shift(_circulant_stack(n, k, 1), np.array([z]))[0])
    return LemmaReport("circulant-shift-sv-range",
                       tuple(_circulant_margins(s, abs(z))))


# ---------------------------------------------------------------------------
# Deterministic sweeps: many random instances, worst margin per instance


def _sweep(lemma_id: str, reports) -> LemmaReport:
    """Worst margin of each instance's report, in instance order."""
    return LemmaReport(lemma_id, tuple(min(r.per_trial_margins)
                                       for r in reports))


def _matrix_and_update(draws: np.ndarray, dim: int):
    """Views ``a``, ``u`` and ``v`` of flat rows of ``dim * (dim + 2 r)``
    draws, r the update rank: a ``dim x dim`` matrix, then the ``dim x r``
    and ``r x dim`` factors of its update, in the order the sweeps drew
    them one array at a time."""
    dd, r = dim * dim, _UPDATE_RANK
    lead = draws.shape[:-1]
    return (draws[..., :dd].reshape(*lead, dim, dim),
            draws[..., dd:dd + dim * r].reshape(*lead, dim, r),
            draws[..., dd + dim * r:].reshape(*lead, r, dim))


def sweep_lowrank_interlacing(dim: int, instances: int,
                              rng: RngStream) -> LemmaReport:
    instances = _count(instances, "instances")
    a, u, v = _matrix_and_update(_trial_draws(
        rng.child(0), 0, instances, (dim * (dim + 2 * _UPDATE_RANK),)), dim)
    worst = np.empty(instances)
    for idx, margins in _lowrank_interlacing_margins(a, u @ v):
        worst[idx] = margins.min(axis=1)
    return LemmaReport("lowrank-interlacing", tuple(worst))


def sweep_mirsky(dim: int, instances: int, rng: RngStream) -> LemmaReport:
    instances = _count(instances, "instances")
    pairs = _trial_draws(rng.child(1), 0, instances, (2, dim, dim))
    return LemmaReport("mirsky-sv-perturbation",
                       tuple(_mirsky_margins(pairs[:, 0], pairs[:, 1])))


def sweep_submatrix_interlacing(dim: int, instances: int,
                                rng: RngStream) -> LemmaReport:
    def check(gg):
        a = complex_gaussian(gg, (dim, dim))
        p = int(gg.integers(1, dim + 1))
        q = int(gg.integers(1, dim + 1))
        rows = gg.choice(dim, size=p, replace=False)
        cols = gg.choice(dim, size=q, replace=False)
        return check_submatrix_interlacing(a, rows, cols)
    gens = _trial_generators(rng.child(2), 0, _count(instances, "instances"))
    return _sweep("submatrix-interlacing", map(check, gens))


def sweep_woodbury_identity(dim: int, instances: int,
                            rng: RngStream) -> LemmaReport:
    """Attempt j of instance i draws from ``rng.child(3, i, j)``; the
    first attempts are one stack (``_trial_draws``)."""
    stream = rng.child(3)
    flat = (dim * (dim + 2 * _UPDATE_RANK),)

    def check(i, draw):
        for attempt in range(100):
            if attempt:
                draw = complex_gaussian(stream.child(i, attempt), flat)
            try:
                return check_woodbury_identity(*_matrix_and_update(draw, dim))
            except SingularUpdateError:
                continue  # precondition failed, redraw
        raise ValidationError(  # pragma: no cover - probability ~ 0
            "could not draw an invertible low-rank update in 100 tries")
    first = _trial_draws(stream, 0, _count(instances, "instances"), flat, 0)
    return _sweep("woodbury-identity",
                  (check(i, draw) for i, draw in enumerate(first)))


def sweep_circulant_shift_bounds(sizes, instances: int,
                                 rng: RngStream) -> LemmaReport:
    """Range check for random shifts z cycling over the given (n, k) sizes.

    Instance i has size ``sizes[i % len(sizes)]`` and draws z from
    ``rng.child(4, i)``, a complex Gaussian of ``E|z|^2 = 2``.  The
    instances of one size are checked in stacks of at most
    ``_CHUNK_ENTRIES`` entries (``_chunks``), one SVD call per stack, with
    the margins of ``check_circulant_shift_bounds``, bit for bit.
    """
    sizes = _size_pairs(sizes)
    z = _trial_draws(rng.child(4), 0, _count(instances, "instances"), (),
                     variance=2.0)
    # Python's complex abs: numpy's can differ in the last bit.
    az = np.array([abs(zi) for zi in z.tolist()])
    worst = np.empty(z.size)
    for first, (n, k) in enumerate(sizes):
        idx = np.arange(first, z.size, len(sizes))
        for part in (idx[lo:hi] for lo, hi in _chunks(idx.size, (k * n) ** 2)):
            s = singular_values(_subtract_shift(
                _circulant_stack(n, k, part.size), z[part]))
            worst[part] = _circulant_margins(s, az[part]).min(axis=-1)
    return LemmaReport("circulant-shift-sv-range", tuple(worst))


# ---------------------------------------------------------------------------
# Rectangular Gaussian tail bounds


def _rect_args(n, big_n, tau) -> tuple[int, int]:
    """``(n, N)`` as ints with 1 <= n <= N; ``tau`` must be real, >= 0."""
    n, big_n = _index(n, "n"), _index(big_n, "N")
    if n < 1 or big_n < n:
        raise ValidationError(f"need 1 <= n <= N, got n={n}, N={big_n}")
    if not (_is_number(tau) and tau >= 0):
        raise ValidationError(f"tau must be a real number >= 0, got {tau!r}")
    return n, big_n


def _tail_frequency(shape, variance: float, trials: int, rng, event) -> float:
    """Frequency of ``event``, which maps a ``(m, *shape)`` batch to m
    booleans, over i.i.d. complex Gaussian matrices drawn from one generator
    in the batches of ``_chunks``, filled in sequence: the draws do not
    depend on the batch size."""
    trials = _count(trials, "trials")
    g = _generator(rng)
    hits = sum(int(np.sum(event(complex_gaussian(g, (hi - lo, *shape),
                                                 variance))))
               for lo, hi in _chunks(trials, math.prod(shape)))
    return hits / trials


def pseudoinverse_tail_bound(n: int, big_n: int, tau: float) -> float:
    """Closed-form tail bound for the smallest singular value of a shifted
    rectangular Gaussian.

    For an n x N matrix ``R = R_D + G`` with deterministic ``R_D`` and i.i.d.
    complex Gaussian ``G`` of entry variance 1/n, with q = N - n + 1:

        P(sigma_n(R) <= tau) <= tau^(2q) / sqrt(2 pi) * (n N e^2)^q
                                 / q^(2q + 1/2).

    Evaluated in log space to avoid overflow for extreme parameters, and
    capped at 1 where the formula is vacuous.  The cap keeps the result a
    probability while preserving monotonicity in ``tau``.
    """
    n, big_n = _rect_args(n, big_n, tau)
    if tau == 0.0:
        return 0.0
    q = big_n - n + 1
    log_bound = (2 * q * math.log(tau)
                 - 0.5 * math.log(2.0 * math.pi)
                 + q * (math.log(n) + math.log(big_n) + 2.0)
                 - (2 * q + 0.5) * math.log(q))
    if log_bound >= 0.0:
        return 1.0
    return math.exp(log_bound)


def mc_pseudoinverse_tail(n: int, big_n: int, tau: float, r_deterministic,
                          trials: int, rng) -> float:
    """Empirical frequency of ``sigma_n(R_D + G) <= tau`` over i.i.d. draws.

    ``G`` has i.i.d. complex Gaussian entries of variance 1/n (matching the
    closed-form bound's convention).
    """
    n, big_n = _rect_args(n, big_n, tau)
    r_d = np.zeros((n, big_n), dtype=np.complex128) if r_deterministic is None \
        else np.asarray(r_deterministic, dtype=np.complex128)
    if r_d.shape != (n, big_n):
        raise ValidationError(
            f"r_deterministic has shape {r_d.shape}, expected ({n}, {big_n})")

    def event(batch):
        # The n singular values of an n x N draw are those of the n x n R
        # factor of its transpose, a smaller SVD.
        r = np.linalg.qr((batch + r_d).transpose(0, 2, 1), mode="r")
        return np.linalg.svd(r, compute_uv=False)[:, -1] <= tau
    return _tail_frequency((n, big_n), 1.0 / n, trials, rng, event)


def check_pinv_tail_domination(n: int, big_n: int, tau: float,
                               r_deterministic, trials: int,
                               rng) -> LemmaReport:
    """Monte Carlo frequency must not exceed the closed-form bound.

    The margin allows three binomial standard deviations of sampling slack
    on top of the bound.
    """
    bound = pseudoinverse_tail_bound(n, big_n, tau)
    freq = mc_pseudoinverse_tail(n, big_n, tau, r_deterministic, trials, rng)
    sd = math.sqrt(max(bound * (1.0 - min(bound, 1.0)), 1e-300) / trials)
    return LemmaReport("pinv-tail-domination", (bound + 3.0 * sd - freq,))


def gaussian_norm_tail(n: int, a_threshold: float, trials: int,
                       rng) -> float:
    """Frequency of ``||X|| > a_threshold * sqrt(n)`` for n x n standard
    complex Gaussian matrices (entry variance 1)."""
    n = _count(n, "n")
    if not (_is_number(a_threshold) and 0 <= a_threshold < math.inf):
        raise ValidationError(f"a_threshold must be a finite real number "
                              f">= 0, got {a_threshold!r}")
    thr = a_threshold * math.sqrt(n)
    return _tail_frequency(
        (n, n), 1.0, trials, rng,
        lambda batch: np.linalg.svd(batch, compute_uv=False)[:, 0] > thr)


def beta_projection_check(big_n: int, trials: int, rng) -> LemmaReport:
    """Squared modulus of one coordinate of a uniform unit vector in C^N
    follows ``P(|v_1|^2 <= lam) = 1 - (1 - lam)^(N-1)``.

    Checked by a one-sample KS test at twice the 1% critical value.
    """
    big_n, trials = _index(big_n, "N"), _count(trials, "trials")
    if big_n < 2:
        raise ValidationError("beta projection check needs N >= 2")
    g = _generator(rng)
    vecs = complex_gaussian(g, (trials, big_n), variance=1.0)
    lam = np.sort(np.abs(vecs[:, 0]) ** 2
                  / np.sum(np.abs(vecs) ** 2, axis=1))
    stat = _ks_statistic(1.0 - (1.0 - lam) ** (big_n - 1))
    threshold = 2.0 * KS_CRITICAL_1PCT / math.sqrt(trials)
    return LemmaReport("unit-vector-projection-beta", (threshold - stat,))


# ---------------------------------------------------------------------------
# Log-determinant diagnostics


def _shifted(x, z: complex) -> np.ndarray:
    """``x - zI`` as a new array; ``x`` must be square."""
    z = _complex(z, "shift z")
    return _subtract_shift(_square(x).copy(), z)


def replacement_gap(a, b, z: complex) -> float:
    """Normalized log-determinant gap of two m x m matrices:

        (1/m) * (log|det(a - zI)| - log|det(b - zI)|),

    each log-determinant from an LU factorization (``log_abs_det``), on the
    matrices as given: to study ``n**-0.5 * M``, pass that product.
    ``log_abs_det`` warns of an exactly singular shifted matrix and gives
    it ``-inf``, so the gap is ``-inf`` when only ``a - zI`` is singular,
    ``inf`` when only ``b - zI`` is, and ``nan`` when both are.
    """
    aa = np.asarray(a, dtype=np.complex128)
    bb = np.asarray(b, dtype=np.complex128)
    if aa.shape != bb.shape:
        raise ValidationError(
            f"replacement gap needs equal shapes, got {aa.shape} vs {bb.shape}")
    la = log_abs_det(_shifted(aa, z))
    lb = log_abs_det(_shifted(bb, z))
    return (la - lb) / aa.shape[0]


def tail_split_index(n: int, k: int) -> int:
    """Split index ``f = floor(kn - n**(1 - DELTA))`` for tail log sums.

    Requires ``f >= n``, which holds for all large n; too-small n is
    rejected rather than silently clamped.
    """
    n, k = _sizes(n, k)
    f = math.floor(k * n - n ** (1.0 - DELTA))
    if f < n:
        raise ValidationError(
            f"split index f = {f} < n = {n}; increase n (need kn - "
            f"n**(1 - DELTA) >= n)")
    return f


def tail_log_sum(x, z: complex, from_index: int) -> float:
    """Log sum over the smallest singular values of an m x m matrix,
    normalized by its dimension:

        (1/m) * sum_{i >= from_index} log sigma_i(x - zI),

    with singular values indexed from 1 in descending order, on ``x`` as
    given.  ``from_index = m + 1`` gives the empty sum (0.0).
    """
    a = _shifted(x, z)
    dim = a.shape[0]
    from_index = _index(from_index, "from_index")
    if not 1 <= from_index <= dim + 1:
        raise ValidationError(
            f"from_index must lie in [1, {dim + 1}], got {from_index}")
    if from_index == dim + 1:
        return 0.0
    tail = singular_values(a)[from_index - 1:]
    if tail[-1] <= 0.0:
        warnings.warn("tail_log_sum hit an exactly singular shifted matrix",
                      RuntimeWarning, stacklevel=2)
        return -math.inf
    return float(np.sum(np.log(tail)) / dim)


# ---------------------------------------------------------------------------
# Probabilistic lemma suites


def _top_row_shift_singular_values(c_t, scale: float,
                                   z: complex) -> np.ndarray:
    """Singular values, descending, of S_E = scale * E_1 c_t - zI from a
    2n x 2n core, one row per matrix of the ``(..., n, kn)`` stack ``c_t``.

    Each c_t has k >= 2.  S_E = [[X, Y], [0, -zI]] with
    X = scale * c_t[:, :n] - zI_n and Y = scale * c_t[:, n:].  If
    Y^* = QR (R n x n), S_E is unitarily equivalent to diag(K, -zI) with
    K = [[X, R^*], [0, -zI_n]], so kn - 2n of its singular values equal
    |z| and the other 2n are those of K.  On vectors supported on the last
    n coordinates K stretches by at least |z| and K^* by exactly |z|, so
    sigma_n(K) >= |z| >= sigma_{n+1}(K): the copies fill positions
    n+1 .. kn-n.
    """
    *lead, n, kn = c_t.shape
    core = np.zeros((*lead, 2 * n, 2 * n), dtype=np.complex128)
    core[..., :n, :n] = scale * c_t[..., :n] - z * np.eye(n)
    core[..., :n, n:] = np.linalg.qr(
        np.swapaxes(scale * c_t[..., n:], -1, -2).conj(),
        mode="r").swapaxes(-1, -2).conj()
    core[..., n:, n:] = -z * np.eye(n)
    merged = np.concatenate([singular_values(core),
                             np.full((*lead, kn - 2 * n), abs(z))], axis=-1)
    return np.sort(merged, axis=-1)[..., ::-1]


def _fit_exponent(sizes: list, values: np.ndarray) -> float | None:
    """Least-squares slope of log(median) against log(size), where ``values``
    holds an equal run of per-trial values for each size, in order."""
    medians = np.median(values.reshape(len(sizes), -1), axis=1)
    if len(set(sizes)) < 2 or np.any(medians <= 0):
        return None
    return float(np.polyfit(np.log(np.asarray(sizes, dtype=float)),
                            np.log(medians), 1)[0])


def _grow_n_preconditions(cfg: LemmaCheckConfig) -> None:
    """Reject a dimension-grown suite config before any trial is drawn."""
    if cfg.z == 0:
        raise ValidationError(
            "dimension-grown suite needs a nonzero shift z: the smallest "
            "singular value floor degenerates at z = 0")
    for n, k in cfg.sizes:
        if k < 2:
            raise ValidationError(
                f"dimension-grown suite needs degree k >= 2, got k={k}")
        tail_split_index(n, k)  # reject sizes with f(n) < n


def _grow_k_preconditions(cfg: LemmaCheckConfig) -> None:
    """Reject a degree-grown suite config before any trial is drawn."""
    if abs(cfg.z) in (0.0, 1.0):
        raise ValidationError(
            "degree-grown suite needs |z| distinct from 0 and 1: the "
            "shifted circulant floor |1 - |z|| vanishes on the unit circle "
            "and the origin is spectrally degenerate")
    for _, k in cfg.sizes:
        if k <= 2:
            raise ValidationError(
                f"degree-grown suite needs degree k > 2, got k={k}")


def lemma_suite_grow_n(cfg: LemmaCheckConfig, rng: RngStream) -> list:
    """Bound sweep for the dimension-growing regime.

    Per trial, with S_M = n**-0.5 * M - zI and S_E = n**-0.5 * (E_1 C^T) -
    zI (M the companion matrix of a sampled polynomial, E_1 C^T its top
    block row):

    * ``sigma-min-companion-floor``: sigma_kn(S_M) >= n**-(A+2)
    * ``sigma-min-lowrank-floor``:   sigma_kn(S_E) >= n**-(A+2)
    * ``spectral-norm-cap``:         max(sigma_1(S_M), sigma_1(S_E)) <= D
    * ``tail-index-floor``:          sigma_f(S_E) >= T * n**(EPSILON - 1/2)
      with f = floor(kn - n**(1 - DELTA)).

    A, D and T are ``EXPONENT_A``, ``CONSTANT_D`` and ``CONSTANT_T``.
    S_E is -zI plus a rank-n top block row, so kn - 2n of its singular
    values equal |z| and the other 2n are those of a 2n x 2n core
    (``_top_row_shift_singular_values``); S_M takes a full SVD.  A chunk
    of trials makes one stacked SVD call for each (``_map_companions``).

    Needs z != 0 and k >= 2 for every size.
    """
    _grow_n_preconditions(cfg)
    z = cfg.z
    chunks = []
    for s_idx, (n, k) in enumerate(cfg.sizes):
        f = tail_split_index(n, k)
        n_floor = n ** -(EXPONENT_A + 2.0)
        tail_floor = CONSTANT_T * n ** (EPSILON - 0.5)
        scale = n ** -0.5

        def margins(m):
            se = _top_row_shift_singular_values(m[:, :n], scale, z)
            m *= scale
            sm = singular_values(_subtract_shift(m, z))
            return np.stack([
                sm[:, -1] - n_floor, se[:, -1] - n_floor,
                np.minimum(CONSTANT_D - sm[:, 0], CONSTANT_D - se[:, 0]),
                se[:, f - 1] - tail_floor, sm[:, -1], se[:, -1]])
        chunks += _map_companions(margins, n, k, rng.child(s_idx), cfg.trials)
    floor_m, floor_e, cap, tail, min_m, min_e = np.concatenate(chunks, axis=1)
    ns = [n for n, _ in cfg.sizes]
    return [
        LemmaReport("grow-n/sigma-min-companion-floor", floor_m,
                    fitted_exponent=_fit_exponent(ns, min_m)),
        LemmaReport("grow-n/sigma-min-lowrank-floor", floor_e,
                    fitted_exponent=_fit_exponent(ns, min_e)),
        LemmaReport("grow-n/spectral-norm-cap", cap),
        LemmaReport("grow-n/tail-index-floor", tail),
    ]


def lemma_suite_grow_k(cfg: LemmaCheckConfig, rng: RngStream) -> list:
    """Bound sweep for the degree-growing regime.

    Per trial, with T = M - zI (companion matrix, unscaled):

    * ``top-sv-cap``:        sigma_1(T) <= R sqrt(k) + 1 + |z|
    * ``block-sv-floor``:    sigma_n(T) >= |1 - |z||            (deterministic)
    * ``sigma-min-floor``:   sigma_kn(T) >= CONSTANT_T * k**-2
    * ``interlacing-chain``: sigma_{i+n}(B - zI) <= sigma_i(T) <=
      sigma_{i-n}(B - zI) for n < i <= kn - n, against the analytic
      singular values of the shifted block circulant  (deterministic).

    R is ``CONSTANT_R``.  One stacked SVD call per chunk of trials
    (``_map_companions``).  Needs |z| not in {0, 1} and k > 2 everywhere.
    """
    _grow_k_preconditions(cfg)
    z, az = cfg.z, abs(cfg.z)
    chunks = []
    for s_idx, (n, k) in enumerate(cfg.sizes):
        idx = np.arange(n, k * n - n)  # 0-based i-1 for n < i <= kn - n
        sv_b = np.sort(np.abs(circulant_b_eigenvalues(n, k) - z))[::-1]
        cap_value = CONSTANT_R * math.sqrt(k) + 1.0 + az
        floor_value = CONSTANT_T / k ** 2

        def margins(m):
            s = singular_values(_subtract_shift(m, z))
            slack = DETERMINISTIC_SLACK * np.maximum(s[:, 0], 1.0)
            lower = np.min(s[:, idx] - sv_b[idx + n], axis=1)
            upper = np.min(sv_b[idx - n] - s[:, idx], axis=1)
            return np.stack([
                cap_value - s[:, 0], s[:, n - 1] - abs(1.0 - az) + slack,
                s[:, -1] - floor_value, np.minimum(lower, upper) + slack,
                s[:, -1]])
        chunks += _map_companions(margins, n, k, rng.child(s_idx), cfg.trials)
    cap, floor_block, floor_min, chain, mins = np.concatenate(chunks, axis=1)
    return [
        LemmaReport("grow-k/top-sv-cap", cap),
        LemmaReport("grow-k/block-sv-floor", floor_block),
        LemmaReport("grow-k/sigma-min-floor", floor_min,
                    fitted_exponent=_fit_exponent(
                        [k for _, k in cfg.sizes], mins)),
        LemmaReport("grow-k/interlacing-chain", chain),
    ]
