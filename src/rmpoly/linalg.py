"""Dense complex linear algebra kernel.

Conventions used throughout the package:

* Matrices are dense 2-D ``numpy.ndarray`` values, dtype ``complex128``,
  row-major layout.  Entries must be finite; NaN/Inf are rejected at the
  boundary.  ``singular_values`` and ``eigenvalues`` also accept a stack
  ``(..., m, p)`` and validate every matrix in it.
* Singular values are always reported in descending order.
* A "spectrum" is a 1-D complex array representing an unordered eigenvalue
  multiset.  No ordering is promised; compare spectra with
  ``match_distance``, never positionally.

The heavy factorizations (singular values, eigenvalues, and the LU
factorization behind the log-determinant) delegate to LAPACK through
numpy.  scipy is imported only by the ``gesvd`` fallback of
``singular_values`` and by ``match_distance``, which no pipeline reaches,
so an rmpoly process loads numpy and nothing heavier.  This module pins
the contracts, tolerances, and error behaviour on top of those kernels;
everything above it is pure Python.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ConvergenceError, SingularUpdateError, ValidationError
from .tolerances import rank_cutoff

__all__ = [
    "as_matrix",
    "spectral_norm",
    "singular_values",
    "eigenvalues",
    "woodbury_inverse",
    "log_abs_det",
    "match_distance",
]


def as_matrix(x) -> np.ndarray:
    """Coerce ``x`` to a finite, non-empty complex matrix.

    Raises ``ValidationError`` for wrong dimensionality, empty shapes, or
    non-finite entries.
    """
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise ValidationError(f"empty matrix of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains NaN or Inf entries")
    return a


def _square(x) -> np.ndarray:
    a = as_matrix(x)
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return a


def spectral_norm(x) -> float:
    """Largest singular value of a matrix."""
    return float(singular_values(as_matrix(x))[0])


def _stack(x) -> np.ndarray:
    """Coerce ``x`` to a finite, non-empty stack ``(..., m, p)`` of complex
    matrices; one check covers the whole stack."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim < 2:
        raise ValidationError(
            f"expected a matrix or a stack of them, got ndim={a.ndim}")
    # The stack's rows as one matrix: the checks of ``as_matrix`` cover it.
    as_matrix(a.reshape(math.prod(a.shape[:-1]), a.shape[-1]))
    return a


def singular_values(x) -> np.ndarray:
    """Singular values, descending; ``ConvergenceError`` if LAPACK fails.

    A stack of shape ``(..., m, p)`` gives one descending row per matrix,
    shape ``(..., min(m, p))``, with the same bits as each matrix on its
    own.
    """
    a = _stack(x)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:
        # numpy calls LAPACK's gesdd; the fallback is the slower but more
        # robust gesvd, since another gesdd call would fail the same way.
        # Imported here, as in match_distance: no workload gets here.
        import scipy.linalg
        try:
            rows = [scipy.linalg.svd(m, compute_uv=False,
                                     lapack_driver="gesvd")
                    for m in a.reshape((-1,) + a.shape[-2:])]
        except scipy.linalg.LinAlgError as exc:
            raise ConvergenceError("singular values did not converge") from exc
        return np.reshape(rows, a.shape[:-2] + (min(a.shape[-2:]),))


def eigenvalues(x) -> np.ndarray:
    """Spectrum of a square matrix as an unordered 1-D complex array.

    A stack of shape ``(..., m, m)`` gives one spectrum per matrix, shape
    ``(..., m)``, with the same bits as solving each matrix on its own.
    The returned ordering is whatever the QR iteration produced; treat each
    spectrum as a multiset.
    """
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValidationError(
            f"expected a square matrix or a stack of them, got shape {a.shape}")
    _stack(a)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigensolver did not converge for a {a.shape[-1]}x{a.shape[-1]} "
            "matrix") from exc


def woodbury_inverse(a_inverse, u, v) -> np.ndarray:
    """Inverse of ``A + U @ V`` given ``A^{-1}`` and the low-rank factors.

    Uses the identity
    ``(A + U V)^{-1} = A^{-1} - A^{-1} U (I + V A^{-1} U)^{-1} V A^{-1}``.
    The p x p capacitance matrix ``I + V A^{-1} U`` must be numerically
    invertible; otherwise ``SingularUpdateError`` reports its smallest
    singular value.
    """
    ai = _square(a_inverse)
    uu = as_matrix(u)
    vv = as_matrix(v)
    n = ai.shape[0]
    if uu.shape[0] != n or vv.shape[1] != n or uu.shape[1] != vv.shape[0]:
        raise ValidationError(
            f"nonconformal update: a_inverse {ai.shape}, u {uu.shape}, "
            f"v {vv.shape}")
    p = uu.shape[1]
    small = np.eye(p, dtype=np.complex128) + vv @ ai @ uu
    sv = np.linalg.svd(small, compute_uv=False)
    cutoff = rank_cutoff(small.shape, float(sv[0]))
    if sv[-1] <= cutoff:
        raise SingularUpdateError(
            "capacitance matrix I + V A^-1 U is numerically singular "
            f"(sigma_min = {sv[-1]:.3e}, cutoff = {cutoff:.3e})",
            sigma_min=float(sv[-1]))
    return ai - ai @ uu @ np.linalg.solve(small, vv @ ai)


def log_abs_det(x) -> float:
    """``log |det(x)|`` for a square matrix, from its LU factorization.

    An exactly singular input (a zero pivot) warns and returns ``-inf``
    rather than raising: downstream consumers flag infinite
    log-determinant gaps explicitly.
    """
    sign, logdet = np.linalg.slogdet(_square(x))
    if sign == 0:
        warnings.warn("log_abs_det of an exactly singular matrix; "
                      "returning -inf", RuntimeWarning, stacklevel=2)
        return float("-inf")
    return float(logdet)


def match_distance(a, b) -> float:
    """Distance between two spectra as unordered multisets.

    Pairs the points of ``a`` with those of ``b`` by a minimum-cost
    assignment on pairwise moduli of differences and returns the largest
    matched distance.  This is the order-insensitive way to compare two
    eigenvalue multisets of equal cardinality.
    """
    pa = np.asarray(a, dtype=np.complex128).ravel()
    pb = np.asarray(b, dtype=np.complex128).ravel()
    if pa.shape != pb.shape:
        raise ValidationError(
            f"spectra have different cardinality: {pa.size} vs {pb.size}")
    if pa.size == 0:
        return 0.0
    as_matrix((pa, pb))  # rejects NaN and Inf
    # Imported here: no pipeline calls this, and importing scipy.optimize
    # adds about 20 MB to the resident memory of every rmpoly process.
    from scipy.optimize import linear_sum_assignment
    cost = np.abs(pa[:, None] - pb[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
