"""Empirical spectral distributions and distances to their limit laws.

An ESD is the uniform probability measure on the (scaled) finite eigenvalues
of one or more sampled polynomials.  Two scalings matter downstream:

* degree fixed, dimension growing: eigenvalues scaled by ``n**-0.5``; the
  limit is ``DiscMixture(k)``, a point mass (k-1)/k at the origin plus mass
  1/k uniform on the closed unit disc;
* dimension fixed, degree growing: eigenvalues unscaled; the limit is
  ``UnitCircle``, the uniform (arc-length) measure on the unit circle.

The circular law, uniform on the unit disc, is ``DiscMixture(1)``.

Each law carries its radial CDF and sampler: ``atom`` (the mass at the
origin), ``cdf(r)`` (the right-continuous radial CDF) and its left limit
``cdf_left(r)``, and ``radii(g, count)`` (the moduli of ``count`` i.i.d.
draws from generator ``g``).  The functions below call these members and
never branch on the law's type.

Both laws are rotation invariant, so law masses factor into a radial
part times uniform angles; the distance diagnostics exploit that.  The
annulus/sector discrepancy is a binned diagnostic, not a metric with
distributional guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ValidationError
from .matpoly import (MatrixPolynomial, _count, _generator, _is_number,
                      _sizes, finite_eigenvalues)

__all__ = [
    "DiscMixture",
    "UnitCircle",
    "LimitLaw",
    "EmpiricalSpectralDistribution",
    "esd_of_polynomial",
    "merge",
    "radial_cdf",
    "radial_ks",
    "angular_ks",
    "annulus_sector_discrepancy",
    "atom_mass",
    "sample_points",
    "DistanceReport",
    "distance_report",
]


# ---------------------------------------------------------------------------
# Limit laws


@dataclass(frozen=True)
class DiscMixture:
    """Point mass (k-1)/k at 0 plus mass 1/k uniform on the unit disc."""

    k: int

    def __post_init__(self):
        _count(self.k, "DiscMixture k")

    @property
    def atom(self) -> float:
        return (self.k - 1) / self.k

    def cdf(self, r: np.ndarray) -> np.ndarray:
        return self.atom + np.minimum(r, 1.0) ** 2 / self.k

    def cdf_left(self, r: np.ndarray) -> np.ndarray:
        return np.where(r > 0.0, self.cdf(r), 0.0)

    def radii(self, g: np.random.Generator, count: int) -> np.ndarray:
        radius = np.sqrt(g.random(count))
        radius[g.random(count) < self.atom] = 0.0
        return radius


@dataclass(frozen=True)
class UnitCircle:
    """Uniform (arc-length) measure on the unit circle."""

    atom = 0.0

    def cdf(self, r: np.ndarray) -> np.ndarray:
        return (r >= 1.0).astype(np.float64)

    def cdf_left(self, r: np.ndarray) -> np.ndarray:
        return (r > 1.0).astype(np.float64)

    def radii(self, g: np.random.Generator, count: int) -> np.ndarray:
        return np.ones(count)


LimitLaw = Union[DiscMixture, UnitCircle]


def radial_cdf(law: LimitLaw, r):
    """CDF of the modulus under ``law``; accepts a real scalar or array
    ``r >= 0``.

    Right-continuous; for the mixture the origin atom is included at r = 0.
    """
    arr = np.asarray(r)
    if arr.dtype.kind not in "iuf" or not np.all(arr >= 0):
        raise ValidationError("radial_cdf needs real numbers r >= 0")
    out = law.cdf(arr.astype(np.float64, copy=False))
    return float(out) if np.isscalar(r) or arr.ndim == 0 else out


def sample_points(law: LimitLaw, count: int, rng) -> np.ndarray:
    """I.i.d. draws from a limit law (oracle sampling for calibration)."""
    count = _count(count, "count")
    g = _generator(rng)
    theta = 2.0 * np.pi * g.random(count)
    return law.radii(g, count) * np.exp(1j * theta)


# ---------------------------------------------------------------------------
# ESD container


@dataclass(frozen=True)
class EmpiricalSpectralDistribution:
    """Uniform measure on ``points``; carries provenance (n, k, trials).

    ``len(points)`` is always ``n * k * trials``; ``scale`` is the factor
    that was applied to the raw eigenvalues.  Sizes are stored as Python
    ints and the scale as a Python float.
    """

    points: np.ndarray
    scale: float
    n: int
    k: int
    trials: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128).ravel()
        if not np.all(np.isfinite(pts)):
            raise ValidationError("ESD points contain NaN or Inf")
        if not (_is_number(self.scale) and 0 < self.scale < np.inf):
            raise ValidationError(f"scale must be positive, got {self.scale}")
        n, k = _sizes(self.n, self.k)
        trials = _count(self.trials, "trials")
        if pts.size != n * k * trials:
            raise ValidationError(f"ESD has {pts.size} points, expected "
                                  f"n*k*trials = {n * k * trials}")
        pts.setflags(write=False)
        for name, value in (("points", pts), ("scale", float(self.scale)),
                            ("n", n), ("k", k), ("trials", trials)):
            object.__setattr__(self, name, value)


def esd_of_polynomial(p: MatrixPolynomial, scale: float
                      ) -> EmpiricalSpectralDistribution:
    """ESD of one polynomial: its kn finite eigenvalues times ``scale``."""
    if not (_is_number(scale) and 0 < scale < np.inf):
        raise ValidationError(f"scale must be positive, got {scale!r}")
    pts = scale * finite_eigenvalues(p)
    return EmpiricalSpectralDistribution(points=pts, scale=float(scale),
                                         n=p.n, k=p.k, trials=1)


def merge(esds: Sequence[EmpiricalSpectralDistribution]
          ) -> EmpiricalSpectralDistribution:
    """Pool trials with identical (scale, n, k) metadata.

    Point order follows the argument order, but every downstream distance
    treats the points as a multiset, so merge order is immaterial.
    """
    if not esds:
        raise ValidationError("merge needs at least one ESD")
    head = esds[0]
    for e in esds[1:]:
        if (e.scale, e.n, e.k) != (head.scale, head.n, head.k):
            raise ValidationError(
                "cannot merge ESDs with mismatched metadata: "
                f"(scale={e.scale}, n={e.n}, k={e.k}) vs "
                f"(scale={head.scale}, n={head.n}, k={head.k})")
    pts = np.concatenate([e.points for e in esds])
    return EmpiricalSpectralDistribution(
        points=pts, scale=head.scale, n=head.n, k=head.k,
        trials=sum(e.trials for e in esds))


# ---------------------------------------------------------------------------
# Distances


def _ks_statistic(sorted_cdf: np.ndarray,
                  sorted_cdf_left: np.ndarray | None = None) -> float:
    # One-sample KS for F evaluated at the sorted sample points.  For an F
    # with atoms, the lower deviation compares against the left limit.
    n = sorted_cdf.size
    if sorted_cdf_left is None:
        sorted_cdf_left = sorted_cdf
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - sorted_cdf)
    d_minus = np.max(sorted_cdf_left - (i - 1) / n)
    return float(max(d_plus, d_minus, 0.0))


def radial_ks(esd: EmpiricalSpectralDistribution, law: LimitLaw,
              atom_proxy: float = 0.2) -> float:
    """One-sample KS distance between point moduli and the law's radial CDF.

    When the law carries an origin atom (the mixture with k >= 2), finite
    samples never hit 0 exactly: the atom's eigenvalues sit at small positive
    moduli, so the literal KS statistic stays pinned near the atom weight no
    matter how far the ESD has converged.  Moduli at or below ``atom_proxy``
    are therefore counted as origin hits before the comparison -- the same
    proxy-radius convention as ``atom_mass``.  That leaves a floor, not 0:
    the disc's mass inside the proxy, ``atom_proxy**2 / k``, moves to the
    origin too, so exact draws from ``DiscMixture(k)`` read about 0.02 at
    k = 2 and 0.01 at k = 4.  Laws without an origin atom never use the
    proxy, so the statistic is the plain one-sample KS there; against
    ``UnitCircle``, whose CDF jumps at 1, it is the sample's mass on one
    side of the jump (about 0.24 on exact draws, whose moduli round below
    1, and 0.5 on grow-k spectra).
    """
    if not (_is_number(atom_proxy) and 0.0 < atom_proxy <= 1.0):
        raise ValidationError(
            f"atom_proxy must lie in (0, 1], got {atom_proxy!r}")
    radii = np.abs(esd.points)
    if law.atom > 0:
        radii = np.where(radii <= atom_proxy, 0.0, radii)
    radii.sort()
    return _ks_statistic(law.cdf(radii), law.cdf_left(radii))


def angular_ks(esd: EmpiricalSpectralDistribution,
               exclusion_radius: float = 0.0) -> float:
    """One-sample KS distance between point angles and the uniform law.

    Points with modulus <= ``exclusion_radius`` are dropped first (the
    origin cluster has no meaningful angle).  Angles are mapped to [0, 1) by
    arg/2pi.  As with any linear KS statistic on circular data, the value
    depends on the branch-cut origin; it is a convergence diagnostic, not a
    rotation-free test statistic.
    """
    if not (_is_number(exclusion_radius) and exclusion_radius >= 0):
        raise ValidationError("exclusion_radius must be >= 0")
    pts = esd.points[np.abs(esd.points) > exclusion_radius]
    if pts.size == 0:
        raise ValidationError(
            f"no points with modulus above {exclusion_radius}; "
            "angular KS undefined")
    u = np.sort(np.mod(np.angle(pts), 2.0 * np.pi) / (2.0 * np.pi))
    return _ks_statistic(u)


def annulus_sector_discrepancy(esd: EmpiricalSpectralDistribution,
                               law: LimitLaw, radial_bins: int = 8,
                               angular_bins: int = 16) -> float:
    """Max cell-mass deviation over an annulus x sector grid.

    The grid covers radii [0, max(1, max modulus)] with equal-width rings
    and equal sectors.  Law cell masses factor as (ring mass)/(sector
    count) by rotation invariance; an origin atom therefore spreads evenly
    over the first ring's sectors, and empirical points at exactly 0 are
    spread the same way for consistency.
    """
    radial_bins = _count(radial_bins, "radial_bins")
    angular_bins = _count(angular_bins, "angular_bins")
    radii = np.abs(esd.points)
    total = radii.size
    r_max = max(1.0, float(radii.max()))
    edges = np.linspace(0.0, r_max, radial_bins + 1)

    at_origin = radii == 0.0
    r_in = radii[~at_origin]
    theta = np.mod(np.angle(esd.points[~at_origin]), 2.0 * np.pi)
    ring = np.digitize(r_in, edges[1:-1], right=True)
    sector = np.minimum((theta / (2.0 * np.pi) * angular_bins).astype(int),
                        angular_bins - 1)
    counts = np.zeros((radial_bins, angular_bins))
    np.add.at(counts, (ring, sector), 1.0)
    counts[0, :] += np.count_nonzero(at_origin) / angular_bins
    empirical = counts / total

    cdf = radial_cdf(law, edges)
    ring_mass = np.diff(cdf)
    ring_mass[0] = cdf[1]  # first ring includes any atom at the origin
    law_cells = np.repeat(ring_mass[:, None] / angular_bins, angular_bins,
                          axis=1)
    return float(np.abs(empirical - law_cells).max())


def atom_mass(esd: EmpiricalSpectralDistribution, radius: float) -> float:
    """Fraction of points with modulus <= radius (origin-cluster proxy)."""
    if not (_is_number(radius) and radius > 0):
        raise ValidationError(
            f"atom radius must be a positive real number, got {radius!r}")
    return float(np.mean(np.abs(esd.points) <= radius))


# ---------------------------------------------------------------------------
# Report bundle


@dataclass(frozen=True)
class DistanceReport:
    """Distance diagnostics of one ESD against one law; all values in
    [0, 1].  ``angular_ks`` is None when no point has an angle to test."""

    radial_ks: float
    angular_ks: float | None
    discrepancy: float
    atom_mass_observed: float
    atom_radius: float

    def __post_init__(self):
        for name in ("radial_ks", "angular_ks", "discrepancy",
                     "atom_mass_observed", "atom_radius"):
            v = getattr(self, name)
            if v is None and name == "angular_ks":
                continue
            if not (np.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValidationError(f"{name} = {v} outside [0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "radial_ks": self.radial_ks,
            "angular_ks": self.angular_ks,
            "discrepancy": self.discrepancy,
            "atom_mass_observed": self.atom_mass_observed,
            "atom_radius": self.atom_radius,
        }


#: Points with modulus at or below this radius have no meaningful angle, so
#: ``distance_report`` leaves them out of ``angular_ks``.
ANGULAR_EXCLUSION = 0.5


def distance_report(esd: EmpiricalSpectralDistribution, law: LimitLaw,
                    atom_radius: float = 0.2) -> DistanceReport:
    """Bundle the four distance diagnostics for one ESD/law pair.

    The discrepancy uses the default 8 ring x 16 sector grid, and
    ``angular_ks`` drops moduli at or below ``ANGULAR_EXCLUSION``; with no
    point left it is None, so a small cell still gets its other distances.
    """
    angular = (angular_ks(esd, ANGULAR_EXCLUSION)
               if np.any(np.abs(esd.points) > ANGULAR_EXCLUSION) else None)
    return DistanceReport(
        radial_ks=radial_ks(esd, law, atom_proxy=atom_radius),
        angular_ks=angular,
        discrepancy=annulus_sector_discrepancy(esd, law),
        atom_mass_observed=atom_mass(esd, atom_radius),
        atom_radius=float(atom_radius),
    )
