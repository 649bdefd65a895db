"""Tests for ESD containers, limit laws, and distance diagnostics."""

import json

import numpy as np
import pytest

from rmpoly import (
    DiscMixture,
    DistanceReport,
    EmpiricalSpectralDistribution,
    MatrixPolynomial,
    RngStream,
    UnitCircle,
    ValidationError,
    angular_ks,
    annulus_sector_discrepancy,
    atom_mass,
    distance_report,
    esd_of_polynomial,
    merge,
    radial_cdf,
    radial_ks,
    sample_monic_gaussian,
    sample_points,
)

ALL_LAWS = [DiscMixture(4), DiscMixture(1), DiscMixture(2), UnitCircle()]


def _mixture_cdf(r, k=4):
    return (k - 1) / k + np.minimum(r, 1.0) ** 2 / k


def _mixture_cdf_left(r, k=4):
    return np.where(r > 0.0, _mixture_cdf(r, k), 0.0)


def _mixture_radii(g, count, k=4):
    radius = np.sqrt(g.random(count))
    radius[g.random(count) < (k - 1) / k] = 0.0
    return radius


def _esd_from_points(points):
    pts = np.asarray(points, dtype=np.complex128)
    return EmpiricalSpectralDistribution(points=pts, scale=1.0, n=1, k=1,
                                         trials=pts.size)


# ---------------------------------------------------------------------------
# Laws


class TestRadialCdf:
    def test_mixture_atom_at_origin(self):
        assert radial_cdf(DiscMixture(4), 0.0) == pytest.approx(0.75)

    def test_mixture_half_radius(self):
        assert radial_cdf(DiscMixture(4), 0.5) == pytest.approx(0.8125)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_saturates_at_one(self, law):
        assert radial_cdf(law, 1.0) == 1.0
        assert radial_cdf(law, 7.5) == 1.0

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_monotone_on_grid(self, law):
        r = np.linspace(0.0, 2.0, 1000)
        vals = radial_cdf(law, r)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert vals[-1] == 1.0

    @pytest.mark.parametrize("law,reference", [
        # The circular law: CDF r**2, radius sqrt(U).
        (DiscMixture(1), (lambda r: np.minimum(r, 1.0) ** 2,
                          lambda r: np.minimum(r, 1.0) ** 2,
                          lambda g, m: np.sqrt(g.random(m)))),
        (DiscMixture(4), (_mixture_cdf, _mixture_cdf_left, _mixture_radii)),
        (UnitCircle(), (lambda r: (r >= 1.0).astype(np.float64),
                        lambda r: (r > 1.0).astype(np.float64),
                        lambda g, m: np.ones(m))),
    ], ids=["disc", "mixture", "circle"])
    def test_law_matches_reference_formulas(self, law, reference):
        # Bit for bit: the CDF and its left limit on a grid, and draws
        # that take theta first, then the radius.
        cdf, cdf_left, radii = reference
        r = np.linspace(0.0, 2.0, 1000)
        np.testing.assert_array_equal(radial_cdf(law, r), cdf(r))
        np.testing.assert_array_equal(law.cdf_left(r), cdf_left(r))
        assert law.atom == radial_cdf(law, 0.0) - law.cdf_left(np.zeros(1))[0]
        pts = sample_points(law, 1000, RngStream(42))
        g = RngStream(42).generator()
        theta = 2.0 * np.pi * g.random(1000)
        expected = radii(g, 1000) * np.exp(1j * theta)
        assert np.array_equal(pts.view(np.float64), expected.view(np.float64))

    def test_circle_is_a_step_at_one(self):
        assert radial_cdf(UnitCircle(), 0.999) == 0.0
        assert radial_cdf(UnitCircle(), 1.0) == 1.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            radial_cdf(DiscMixture(1), -0.1)

    def test_mixture_needs_positive_degree(self):
        with pytest.raises(ValidationError):
            DiscMixture(0)


class TestSamplePoints:
    def test_circle_samples_on_circle(self):
        pts = sample_points(UnitCircle(), 100, RngStream(40))
        np.testing.assert_allclose(np.abs(pts), 1.0, atol=1e-12)

    def test_mixture_atom_fraction(self):
        pts = sample_points(DiscMixture(4), 10_000, RngStream(41))
        assert np.mean(pts == 0.0) == pytest.approx(0.75, abs=0.02)

    def test_count_validated(self):
        with pytest.raises(ValidationError):
            sample_points(DiscMixture(1), 0, RngStream(1))


# ---------------------------------------------------------------------------
# ESD container


class TestEsdContainer:
    def test_esd_of_scalar_quadratic(self):
        p = MatrixPolynomial(1, 2, (np.array([[-1.0]]), np.array([[0.0]])))
        esd = esd_of_polynomial(p, 1.0)
        assert sorted(esd.points.real) == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert esd.n == 1 and esd.k == 2 and esd.trials == 1

    def test_scale_doubles_points(self):
        p = sample_monic_gaussian(2, 2, RngStream(42))
        one = esd_of_polynomial(p, 1.0)
        two = esd_of_polynomial(p, 2.0)
        np.testing.assert_array_equal(np.sort_complex(two.points),
                                      np.sort_complex(2.0 * one.points))

    def test_circle_law_spectral_radius(self):
        p = sample_monic_gaussian(200, 1, RngStream(43))
        esd = esd_of_polynomial(p, 200 ** -0.5)
        assert np.abs(esd.points).max() <= 1.3

    def test_nonpositive_scale_rejected(self):
        p = sample_monic_gaussian(1, 1, RngStream(44))
        with pytest.raises(ValidationError):
            esd_of_polynomial(p, 0.0)
        with pytest.raises(ValidationError, match="scale"):
            esd_of_polynomial(p, "x")

    def test_point_count_enforced(self):
        with pytest.raises(ValidationError):
            EmpiricalSpectralDistribution(points=np.zeros(3), scale=1.0,
                                          n=2, k=2, trials=1)

    def test_nonfinite_points_rejected(self):
        with pytest.raises(ValidationError):
            EmpiricalSpectralDistribution(points=np.array([np.nan + 0j]),
                                          scale=1.0, n=1, k=1, trials=1)

    def test_numpy_sizes_and_scale_stored_as_python_numbers(self):
        esd = EmpiricalSpectralDistribution(
            points=[1, 2], scale=np.float32(0.5), n=np.int64(2), k=1,
            trials=np.uint8(1))
        assert [type(v) for v in (esd.scale, esd.n, esd.k, esd.trials)] == \
            [float, int, int, int]


class TestMerge:
    def _pair(self):
        p1 = sample_monic_gaussian(2, 2, RngStream(45, (0,)))
        p2 = sample_monic_gaussian(2, 2, RngStream(45, (1,)))
        return esd_of_polynomial(p1, 1.0), esd_of_polynomial(p2, 1.0)

    def test_single_merge_is_identity(self):
        a, _ = self._pair()
        merged = merge([a])
        np.testing.assert_array_equal(merged.points, a.points)
        assert merged.trials == a.trials

    def test_two_esds_concatenate(self):
        a, b = self._pair()
        merged = merge([a, b])
        assert merged.points.size == 8
        assert merged.trials == 2

    def test_merge_commutes_as_multiset(self):
        a, b = self._pair()
        ab = np.sort_complex(merge([a, b]).points)
        ba = np.sort_complex(merge([b, a]).points)
        np.testing.assert_array_equal(ab, ba)

    def test_mismatched_metadata_rejected(self):
        a, _ = self._pair()
        other = esd_of_polynomial(sample_monic_gaussian(2, 2, RngStream(46)),
                                  2.0)
        with pytest.raises(ValidationError):
            merge([a, other])

    def test_empty_merge_rejected(self):
        with pytest.raises(ValidationError):
            merge([])

    def test_merge_then_distance_matches_concatenation(self):
        a, b = self._pair()
        merged = merge([a, b])
        concat = _esd_from_points(np.concatenate([a.points, b.points]))
        disc = DiscMixture(1)
        assert radial_ks(merged, disc) == radial_ks(concat, disc)


# ---------------------------------------------------------------------------
# Radial distances


class TestRadialDistances:
    def test_ks_null_calibration(self):
        law = DiscMixture(4)
        esd = _esd_from_points(sample_points(law, 10_000, RngStream(47)))
        assert radial_ks(esd, law) <= 0.03

    @pytest.mark.parametrize("k", [2, 4])
    def test_ks_of_exact_mixture_draws_sits_at_proxy_floor(self, k):
        # The proxy moves the disc's mass inside 0.2, 0.2**2 / k, to the
        # atom as well, so exact draws read that, not 0 (0.0185 at k = 2,
        # 0.0084 at k = 4 here).
        law = DiscMixture(k)
        esd = _esd_from_points(sample_points(law, 100_000,
                                             RngStream(51, (k,))))
        assert radial_ks(esd, law) == pytest.approx(0.04 / k, abs=0.005)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_ks_in_unit_interval(self, law):
        esd = _esd_from_points(sample_points(DiscMixture(1), 100,
                                             RngStream(48)))
        assert 0.0 <= radial_ks(esd, law) <= 1.0

    def test_ks_counts_proxy_radius_points_as_atom_hits(self):
        # Eight points at modulus 0.1: under the mixture's origin-atom proxy
        # they are origin hits, so the only deviation is the full empirical
        # mass 1 against the law CDF at 0, i.e. 1 - 0.75.
        pts = 0.1 * np.exp(2j * np.pi * np.arange(8) / 8)
        esd = _esd_from_points(pts)
        assert radial_ks(esd, DiscMixture(4)) == pytest.approx(0.25)

    def test_ks_ignores_proxy_for_atomless_laws(self):
        pts = 0.1 * np.exp(2j * np.pi * np.arange(8) / 8)
        esd = _esd_from_points(pts)
        # Plain KS: all mass at 0.1 where the disc law has CDF 0.01.
        assert radial_ks(esd, DiscMixture(1)) == pytest.approx(0.99)

    def test_ks_proxy_radius_is_adjustable(self):
        pts = 0.3 * np.exp(2j * np.pi * np.arange(8) / 8)
        esd = _esd_from_points(pts)
        # Outside the default proxy the atom pins the statistic: the law has
        # CDF 0.75 + 0.09/4 just below the cluster, the sample has none.
        assert radial_ks(esd, DiscMixture(4)) == pytest.approx(0.7725)
        # A wider proxy absorbs the cluster into the atom.
        assert radial_ks(esd, DiscMixture(4), atom_proxy=0.35) == \
            pytest.approx(0.25)

    @pytest.mark.parametrize("proxy", [0.0, -0.1, 1.5, "x"])
    def test_ks_rejects_bad_proxy_radius(self, proxy):
        esd = _esd_from_points([0.5])
        with pytest.raises(ValidationError, match="atom_proxy"):
            radial_ks(esd, DiscMixture(4), atom_proxy=proxy)
        with pytest.raises(ValidationError, match="atom_proxy"):
            radial_ks(esd, UnitCircle(), atom_proxy=proxy)

    def test_exact_rotation_invariance(self):
        # Multiplication by i and by -1 permutes float components exactly.
        law = DiscMixture(3)
        pts = sample_points(law, 512, RngStream(49))
        base = radial_ks(_esd_from_points(pts), law)
        assert radial_ks(_esd_from_points(pts * 1j), law) == base
        assert radial_ks(_esd_from_points(-pts), law) == base

    def test_generic_rotation_invariance(self):
        law = DiscMixture(1)
        pts = sample_points(law, 512, RngStream(50))
        base = radial_ks(_esd_from_points(pts), law)
        rot = radial_ks(_esd_from_points(pts * np.exp(0.7j)), law)
        assert rot == pytest.approx(base, abs=1e-12)


class TestAngularKs:
    def test_roots_of_unity_nearly_uniform(self):
        pts = np.exp(2j * np.pi * np.arange(8) / 8)
        assert angular_ks(_esd_from_points(pts), 0.5) <= 1.0 / 8.0

    def test_single_point_degenerate_value(self):
        # One point at angle pi/2: position 0.25, statistic 1 - 0.25.
        assert angular_ks(_esd_from_points([1.0j])) == pytest.approx(0.75)

    def test_uniform_null_calibration(self):
        g = RngStream(51).generator()
        pts = np.exp(2j * np.pi * g.random(10_000))
        assert angular_ks(_esd_from_points(pts), 0.5) <= 0.03

    def test_exclusion_drops_origin_cluster(self):
        pts = np.concatenate([np.zeros(10), [1.0j]])
        assert angular_ks(_esd_from_points(pts), 0.5) == pytest.approx(0.75)

    def test_all_points_excluded_rejected(self):
        with pytest.raises(ValidationError):
            angular_ks(_esd_from_points([0.1, 0.2]), 0.5)

    def test_negative_exclusion_rejected(self):
        with pytest.raises(ValidationError):
            angular_ks(_esd_from_points([1.0]), -1.0)
        with pytest.raises(ValidationError, match="exclusion_radius"):
            angular_ks(_esd_from_points([1.0]), "x")


# ---------------------------------------------------------------------------
# Binned discrepancy and atom mass


class TestDiscrepancy:
    def test_circle_mass_splits_evenly_over_sectors(self):
        # Equal point mass at each sector center of the unit circle matches
        # the law cells exactly: 1/angular_bins in every last-ring sector.
        bins = 16
        theta = 2.0 * np.pi * (np.arange(bins) + 0.5) / bins
        esd = _esd_from_points(np.exp(1j * theta) / np.abs(np.exp(1j * theta)))
        val = annulus_sector_discrepancy(esd, UnitCircle(), radial_bins=4,
                                         angular_bins=bins)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_law_sample_calibration(self):
        esd = _esd_from_points(sample_points(DiscMixture(1), 10_000,
                                             RngStream(52)))
        val = annulus_sector_discrepancy(esd, DiscMixture(1), radial_bins=8,
                                         angular_bins=8)
        assert val <= 0.02

    def test_trivial_grid(self):
        esd = _esd_from_points(sample_points(DiscMixture(1), 100,
                                             RngStream(53)))
        assert annulus_sector_discrepancy(esd, DiscMixture(1), 1, 1) == \
            pytest.approx(0.0, abs=1e-12)

    def test_mixture_law_sample_calibration(self):
        law = DiscMixture(4)
        esd = _esd_from_points(sample_points(law, 10_000, RngStream(54)))
        val = annulus_sector_discrepancy(esd, law, radial_bins=8,
                                         angular_bins=8)
        assert val <= 0.02

    def test_bad_bins_rejected(self):
        esd = _esd_from_points([1.0])
        with pytest.raises(ValidationError):
            annulus_sector_discrepancy(esd, DiscMixture(1), 0, 4)


class TestAtomMass:
    def test_all_points_at_origin(self):
        esd = _esd_from_points(np.zeros(4))
        assert atom_mass(esd, 0.2) == 1.0

    def test_circle_law_origin_mass(self):
        esd = _esd_from_points(sample_points(DiscMixture(1), 10_000,
                                             RngStream(55)))
        assert atom_mass(esd, 0.2) == pytest.approx(0.04, abs=0.02)

    def test_radius_covering_all_points(self):
        esd = _esd_from_points([0.5, 1.0j, -0.25])
        assert atom_mass(esd, 2.0) == 1.0

    def test_nonpositive_radius_rejected(self):
        esd = _esd_from_points([1.0])
        with pytest.raises(ValidationError):
            atom_mass(esd, 0.0)


class TestDistanceReport:
    def test_bundle_matches_components(self):
        law = DiscMixture(4)
        esd = _esd_from_points(sample_points(law, 2000, RngStream(56)))
        rep = distance_report(esd, law)
        assert rep.radial_ks == radial_ks(esd, law)
        assert rep.angular_ks == angular_ks(esd, 0.5)
        assert rep.discrepancy == annulus_sector_discrepancy(esd, law, 8, 16)
        assert rep.atom_mass_observed == atom_mass(esd, 0.2)
        assert rep.atom_radius == 0.2

    def test_numpy_atom_radius_serializes(self):
        law = DiscMixture(4)
        esd = _esd_from_points(sample_points(law, 200, RngStream(56)))
        rep = distance_report(esd, law, atom_radius=np.float32(0.5))
        assert type(rep.atom_radius) is float
        assert json.loads(json.dumps(rep.to_json_dict()))["atom_radius"] \
            == 0.5

    def test_json_dict_round_trip_keys(self):
        rep = DistanceReport(0.1, 0.2, 0.3, 0.4, 0.2)
        doc = rep.to_json_dict()
        assert set(doc) == {"radial_ks", "angular_ks", "discrepancy",
                            "atom_mass_observed", "atom_radius"}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            DistanceReport(1.5, 0.0, 0.0, 0.0, 0.2)
