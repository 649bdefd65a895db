"""Tests for the deterministic theorem checks and probabilistic bound suites."""

import math
import warnings

import numpy as np
import pytest

from rmpoly import (
    DiscMixture,
    EmpiricalSpectralDistribution,
    LemmaCheckConfig,
    LemmaReport,
    MatrixPolynomial,
    RngStream,
    ValidationError,
    atom_mass,
    beta_projection_check,
    check_circulant_shift_bounds,
    check_lowrank_interlacing,
    check_mirsky,
    check_pinv_tail_domination,
    check_submatrix_interlacing,
    check_woodbury_identity,
    circulant_b_eigenvalues,
    circulant_matrix,
    companion,
    complex_gaussian,
    evaluate,
    gaussian_norm_tail,
    lemma_suite_grow_k,
    lemma_suite_grow_n,
    match_distance,
    mc_pseudoinverse_tail,
    pseudoinverse_tail_bound,
    radial_cdf,
    replacement_gap,
    sample_monic_gaussian,
    sample_points,
    singular_values,
    sweep_circulant_shift_bounds,
    sweep_lowrank_interlacing,
    sweep_mirsky,
    sweep_submatrix_interlacing,
    sweep_woodbury_identity,
    tail_log_sum,
    tail_split_index,
)
from rmpoly import matpoly, verify
from rmpoly.errors import SingularUpdateError
from rmpoly.harness import pooled_esd
from rmpoly.tolerances import DETERMINISTIC_SLACK as SLACK
from rmpoly.verify import (CONSTANT_D, CONSTANT_R, CONSTANT_T, DELTA,
                           EPSILON, EXPONENT_A)


def _lowrank_companion_pair(n, k, seed):
    """Companion matrix of a sampled polynomial plus its top-row-only form."""
    m = companion(sample_monic_gaussian(n, k, RngStream(seed)))
    e1ct = np.zeros((k * n, k * n), dtype=np.complex128)
    e1ct[:n, :] = m[:n]
    return m, e1ct


# ---------------------------------------------------------------------------
# Config and report plumbing


class TestLemmaCheckConfig:
    def test_defaults_accepted(self):
        cfg = LemmaCheckConfig(z=0.5, sizes=((2, 8),))
        assert cfg.trials == 200

    def test_sizes_validated(self):
        with pytest.raises(ValidationError):
            LemmaCheckConfig(z=0.5, sizes=())
        with pytest.raises(ValidationError):
            LemmaCheckConfig(z=0.5, sizes=((0, 3),))

    @pytest.mark.parametrize("sizes", [((2.5, 8),), ((2, True),), ((2,),),
                                       (8,)])
    def test_non_integer_sizes_rejected(self, sizes):
        with pytest.raises(ValidationError):
            LemmaCheckConfig(z=0.5, sizes=sizes)

    @pytest.mark.parametrize("z", ["0.5", True, np.True_, None, math.nan,
                                   math.inf, complex(0.5, math.nan)],
                             ids=["str", "bool", "numpy-bool", "none", "nan",
                                  "inf", "nan-imag"])
    def test_non_complex_shift_rejected(self, z):
        with pytest.raises(ValidationError, match="shift z"):
            LemmaCheckConfig(z=z, sizes=((2, 8),))

    def test_numpy_shift_becomes_python_complex(self):
        cfg = LemmaCheckConfig(z=np.complex64(0.25j), sizes=((2, 8),))
        assert type(cfg.z) is complex and cfg.z == 0.25j
        assert LemmaCheckConfig(z=np.int64(2), sizes=((2, 8),)).z == 2

    def test_stores_python_values_and_hashes(self):
        cfg = LemmaCheckConfig(z=0.5, sizes=[[2, 8]], trials=np.int64(3))
        assert cfg.sizes == ((2, 8),) and type(cfg.trials) is int
        assert hash(cfg) == hash(LemmaCheckConfig(z=0.5, sizes=((2, 8),),
                                                  trials=3))

    @pytest.mark.parametrize("trials", [2.5, "200", True])
    def test_non_integer_trials_rejected(self, trials):
        with pytest.raises(ValidationError):
            LemmaCheckConfig(z=0.5, sizes=((2, 8),), trials=trials)

    def test_bound_constants_in_range(self):
        assert 0.0 < DELTA < 0.5
        assert 0.0 < EPSILON < 0.5 - DELTA
        assert 0.0 < CONSTANT_T <= 1.0
        assert CONSTANT_D > 0 and CONSTANT_R > 0 and EXPONENT_A > 0


class TestLemmaReport:
    def test_violations_count_negative_margins(self):
        rep = LemmaReport("demo", (1.0, -0.5, 0.0, -0.1))
        assert rep.violations == 2
        assert not rep.passed

    def test_zero_violations_passes(self):
        rep = LemmaReport("demo", (0.0, 0.25))
        assert rep.violations == 0
        assert rep.passed

    def test_json_dict_contents(self):
        rep = LemmaReport("demo", (0.5, 1.5), fitted_exponent=-1.25)
        doc = rep.to_json_dict()
        assert doc["lemma_id"] == "demo"
        assert doc["trials"] == 2
        assert doc["violations"] == 0
        assert doc["min_margin"] == 0.5
        assert doc["fitted_exponent"] == -1.25


# ---------------------------------------------------------------------------
# Deterministic theorem checks


class TestLowrankInterlacing:
    def test_zero_perturbation_margins_equal_slack(self):
        a = complex_gaussian(RngStream(70), (5, 5))
        rep = check_lowrank_interlacing(a, np.zeros((5, 5)))
        assert rep.passed
        slack = SLACK * max(np.linalg.svd(a, compute_uv=False)[0], 1.0)
        np.testing.assert_allclose(rep.per_trial_margins, slack, rtol=1e-6)

    def test_large_rank_one_perturbation(self):
        a = np.diag([3.0, 2.0, 1.0]).astype(np.complex128)
        e = np.zeros((3, 3), dtype=np.complex128)
        e[0, 0] = 10.0
        assert check_lowrank_interlacing(a, e).passed

    def test_full_rank_perturbation_saturates(self):
        # rank(e) = dim leaves no index pairs; the check passes vacuously.
        a = np.eye(3, dtype=np.complex128)
        rep = check_lowrank_interlacing(a, 2.0 * np.eye(3))
        assert rep.passed

    def test_sweep_has_zero_violations(self):
        rep = sweep_lowrank_interlacing(8, 300, RngStream(71))
        assert rep.violations == 0
        assert len(rep.per_trial_margins) == 300

    def test_sweep_matches_per_instance_checks(self):
        rng = RngStream(75)
        expected = []
        for i in range(40):
            gg = rng.child(i).generator()
            a = complex_gaussian(gg, (6, 6))
            u = complex_gaussian(gg, (6, 1))
            v = complex_gaussian(gg, (1, 6))
            expected.append(min(
                check_lowrank_interlacing(a, u @ v).per_trial_margins))
        rep = sweep_lowrank_interlacing(6, 40, rng)
        assert rep.per_trial_margins == tuple(expected)

    def test_stack_of_mixed_ranks_matches_single_checks(self):
        # Ranks 0, 1, 2 and the saturating 3 in one stack, out of order.
        g = RngStream(76).generator()
        a = complex_gaussian(g, (5, 3, 3))
        e = np.zeros((5, 3, 3), dtype=np.complex128)
        for i, rank in enumerate((2, 0, 3, 1, 2)):
            e[i] = (complex_gaussian(g, (3, rank))
                    @ complex_gaussian(g, (rank, 3)))
        seen = []
        for idx, margins in verify._lowrank_interlacing_margins(a, e):
            for row, i in zip(margins, idx):
                single = check_lowrank_interlacing(a[i], e[i])
                assert tuple(row) == single.per_trial_margins
                seen.append(int(i))
        assert sorted(seen) == [0, 1, 2, 3, 4]


class TestMirsky:
    def test_identical_matrices(self):
        a = complex_gaussian(RngStream(72), (4, 4))
        rep = check_mirsky(a, a)
        assert rep.passed

    def test_scalar_shift_moves_by_its_norm(self):
        a = complex_gaussian(RngStream(73), (4, 4))
        b = a + 1e-3 * np.eye(4)
        sa = np.linalg.svd(a, compute_uv=False)
        sb = np.linalg.svd(b, compute_uv=False)
        assert np.max(np.abs(sa - sb)) <= 1e-3 + 1e-12
        assert check_mirsky(a, b).passed

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            check_mirsky(np.eye(2), np.eye(3))

    def test_sweep_has_zero_violations(self):
        rep = sweep_mirsky(8, 300, RngStream(74))
        assert rep.violations == 0

    def test_sweep_matches_per_instance_checks(self):
        rng = RngStream(77)
        expected = []
        for i in range(40):
            gg = rng.child(i).generator()
            a = complex_gaussian(gg, (6, 6))
            b = complex_gaussian(gg, (6, 6))
            expected.append(check_mirsky(a, b).per_trial_margins[0])
        assert sweep_mirsky(6, 40, rng).per_trial_margins == tuple(expected)

    @pytest.mark.parametrize("sweep", [sweep_mirsky,
                                       sweep_lowrank_interlacing])
    @pytest.mark.parametrize("instances", [0, -1, 2.0])
    def test_sweep_rejects_bad_instance_counts(self, sweep, instances):
        with pytest.raises(ValidationError, match="instances"):
            sweep(4, instances, RngStream(78))


class TestSubmatrixInterlacing:
    def test_full_subset_is_equality(self):
        a = complex_gaussian(RngStream(75), (4, 4))
        rep = check_submatrix_interlacing(a, range(4), range(4))
        assert rep.passed
        slack = SLACK * max(np.linalg.svd(a, compute_uv=False)[0], 1.0)
        np.testing.assert_allclose(rep.per_trial_margins, slack, rtol=1e-6)

    def test_single_max_entry(self):
        a = complex_gaussian(RngStream(76), (5, 5))
        i, j = np.unravel_index(np.argmax(np.abs(a)), a.shape)
        rep = check_submatrix_interlacing(a, [i], [j])
        assert rep.passed

    def test_empty_subset_rejected(self):
        with pytest.raises(ValidationError):
            check_submatrix_interlacing(np.eye(3), [], [0])

    @pytest.mark.parametrize("rows,cols,match", [
        ([0] * 5, [0, 1], "distinct"),
        ([0, 1], [1, 1], "distinct"),
        ([5], [0], r"\[0, 4\)"),
        ([0], [4], r"\[0, 4\)"),
        ([-1], [0], r"\[0, 4\)"),
        ([0.5], [0], "integers"),
        ([0], [True], "integers"),
        ([[0, 1]], [0], "nonempty list"),
    ], ids=["duplicate-rows", "duplicate-cols", "row-past-end",
            "col-past-end", "negative", "float", "bool", "nested"])
    def test_bad_indices_rejected_before_any_svd(self, rows, cols, match,
                                                 monkeypatch):
        # Each of these once gave a false margin, an IndexError or a
        # silently truncated index.
        monkeypatch.setattr(verify, "singular_values", None)
        with pytest.raises(ValidationError, match=match):
            check_submatrix_interlacing(np.eye(4), rows, cols)

    def test_numpy_and_range_indices_accepted(self):
        a = complex_gaussian(RngStream(79), (4, 3))
        want = check_submatrix_interlacing(a, [2, 0], [1])
        for rows in (range(2, -1, -2), np.array([2, 0], dtype=np.uint8)):
            assert check_submatrix_interlacing(a, rows, np.int64(1) + [0]) \
                == want

    def test_sweep_has_zero_violations(self):
        rep = sweep_submatrix_interlacing(8, 300, RngStream(77))
        assert rep.violations == 0


class TestWoodburyCheck:
    def test_well_conditioned_update(self):
        g = RngStream(78).generator()
        a = complex_gaussian(g, (5, 5)) + 3.0 * np.eye(5)
        u = complex_gaussian(g, (5, 2))
        v = complex_gaussian(g, (2, 5))
        assert check_woodbury_identity(a, u, v).passed

    def test_sweep_has_zero_violations(self):
        rep = sweep_woodbury_identity(8, 200, RngStream(79))
        assert rep.violations == 0
        assert len(rep.per_trial_margins) == 200

    def test_sweep_matches_per_instance_checks_with_a_redraw(
            self, monkeypatch):
        # Attempt j of instance i draws from rng.child(i, j); the first
        # check of instance 2 is made to fail, so it takes attempt 1.
        rng = RngStream(84)

        def draw(i, attempt):
            gg = rng.child(i, attempt).generator()
            return (complex_gaussian(gg, (5, 5)), complex_gaussian(gg, (5, 1)),
                    complex_gaussian(gg, (1, 5)))
        expected = [min(check_woodbury_identity(*draw(i, 0 if i != 2 else 1))
                        .per_trial_margins) for i in range(6)]
        calls = []

        def flaky(a, u, v):
            calls.append(None)
            if len(calls) == 3:
                raise SingularUpdateError("forced", sigma_min=0.0)
            return check_woodbury_identity(a, u, v)
        monkeypatch.setattr(verify, "check_woodbury_identity", flaky)
        rep = sweep_woodbury_identity(5, 6, rng)
        assert len(calls) == 7
        assert rep.per_trial_margins == tuple(expected)

    @pytest.mark.parametrize("a,u,v", [
        (np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 3))),
        (np.eye(3), np.ones((2, 1)), np.ones((1, 3))),
        (np.eye(3), np.ones((3, 1)), np.ones((2, 3))),
    ], ids=["wide-a", "short-u", "tall-v"])
    def test_bad_shapes_rejected(self, a, u, v):
        with pytest.raises(ValidationError):
            check_woodbury_identity(a, u, v)


class TestCirculantShiftBounds:
    @pytest.mark.parametrize("z", [0.5, 0.7 + 0.3j, 2.0, 1e-3j])
    def test_single_shift(self, z):
        rep = check_circulant_shift_bounds(2, 8, z)
        assert rep.passed
        assert len(rep.per_trial_margins) == 2 * 16

    def test_sweep_has_zero_violations(self):
        rep = sweep_circulant_shift_bounds(((2, 8), (3, 5), (4, 16)), 150,
                                           RngStream(80))
        assert rep.violations == 0

    @pytest.mark.parametrize("n,k", [(2, 8), (3, 5), (1, 1), (3, 1)])
    @pytest.mark.parametrize("z", [0.5, 0.7 + 0.3j, -1.3 - 0.2j])
    def test_margins_match_dense_shift_bitwise(self, n, k, z):
        # B - z * eye(kn) with Python's abs of z: the formula the check
        # had before it shifted the diagonal in place.
        kn = k * n
        s = singular_values(circulant_matrix(n, k) - z * np.eye(kn))
        slack = SLACK * max(s[0], 1.0)
        want = np.concatenate([s - abs(1.0 - abs(z)) + slack,
                               1.0 + abs(z) - s + slack])
        got = check_circulant_shift_bounds(n, k, z).per_trial_margins
        assert got == tuple(want.tolist())

    def test_sweep_matches_per_instance_checks(self):
        # 41 instances over four sizes: the (4, 16) class spans two stacks.
        sizes = ((2, 8), (3, 5), (4, 16), (1, 1))
        rng = RngStream(85)
        expected = []
        for i in range(41):
            gg = rng.child(i).generator()
            z = complex(gg.standard_normal(), gg.standard_normal())
            expected.append(min(check_circulant_shift_bounds(
                *sizes[i % 4], z).per_trial_margins))
        rep = sweep_circulant_shift_bounds(sizes, 41, rng)
        assert rep.per_trial_margins == tuple(expected)

    def test_sweep_makes_one_svd_call_per_stack(self, monkeypatch):
        sizes = ((2, 8), (3, 5), (4, 16))
        shapes = []

        def counted(x):
            shapes.append(x.shape)
            return singular_values(x)
        monkeypatch.setattr(verify, "singular_values", counted)
        sweep_circulant_shift_bounds(sizes, 1000, RngStream(86))
        # 334 + 333 + 333 instances; stacks of 128, 145 and 8 matrices.
        stacks = [math.ceil(count / (matpoly._CHUNK_ENTRIES // kn ** 2))
                  for count, kn in ((334, 16), (333, 15), (333, 64))]
        assert len(shapes) == sum(stacks) == 48
        assert all(len(shape) == 3 and shape[0] * shape[1] * shape[2]
                   <= matpoly._CHUNK_ENTRIES for shape in shapes)

    def test_sweep_peak_is_one_matrix_past_the_stack_budget(self,
                                                            traced_peak):
        # At kn = 256 a stack holds one 1 MiB matrix, shifted in place: no
        # eye, no z * eye, no difference.  Those took the peak to 2.6 MiB.
        peak = traced_peak(sweep_circulant_shift_bounds, ((4, 64),), 3,
                           RngStream(87))
        assert peak < 1.5 * 2 ** 20

    @pytest.mark.parametrize("sizes", [(), ((2,),), ((0, 3),), ((2, 2.5),),
                                       (8,), "28"],
                             ids=["empty", "single", "zero", "float",
                                  "not-a-pair", "string"])
    def test_sweep_rejects_bad_sizes(self, sizes):
        with pytest.raises(ValidationError):
            sweep_circulant_shift_bounds(sizes, 4, RngStream(88))


# ---------------------------------------------------------------------------
# Shift and shape validation


@pytest.mark.parametrize("call", [
    lambda z: check_circulant_shift_bounds(2, 3, z),
    lambda z: replacement_gap(np.eye(3), np.eye(3), z),
    lambda z: tail_log_sum(np.eye(3), z, 1),
    lambda z: LemmaCheckConfig(z=z, sizes=((16, 3),)),
], ids=["circulant", "replacement_gap", "tail_log_sum", "config"])
@pytest.mark.parametrize("z", ["x", True, np.bool_(False), None,
                               complex(math.nan, 0.0), math.inf,
                               np.complex128(1j * math.inf)],
                         ids=["str", "bool", "numpy-bool", "none", "nan",
                              "inf", "numpy-inf"])
def test_bad_shift_rejected_before_any_lapack_call(call, z, monkeypatch):
    for name in ("singular_values", "log_abs_det"):
        monkeypatch.setattr(verify, name, None)
    with pytest.raises(ValidationError, match="shift z"):
        call(z)


def test_interlacing_needs_equal_shapes():
    with pytest.raises(ValidationError, match="equal shapes"):
        check_lowrank_interlacing(np.eye(3), np.eye(4))


# ---------------------------------------------------------------------------
# Rectangular Gaussian tails


class TestPseudoinverseTailBound:
    def test_zero_tau(self):
        assert pseudoinverse_tail_bound(2, 6, 0.0) == 0.0

    def test_reference_value_against_extended_precision(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            q = 6 - 2 + 1
            tau = mpmath.mpf("0.1")
            exact = (tau ** (2 * q) / mpmath.sqrt(2 * mpmath.pi)
                     * (2 * 6 * mpmath.e ** 2) ** q
                     / mpmath.mpf(q) ** (2 * q + mpmath.mpf("0.5")))
            exact = float(exact)
        got = pseudoinverse_tail_bound(2, 6, 0.1)
        assert got == pytest.approx(exact, rel=1e-12)
        assert got == pytest.approx(1.0e-8, rel=0.05)

    def test_monotone_in_tau(self):
        taus = np.linspace(0.01, 5.0, 40)
        vals = [pseudoinverse_tail_bound(2, 6, float(t)) for t in taus]
        assert np.all(np.diff(vals) >= 0.0)

    def test_capped_at_one(self):
        assert pseudoinverse_tail_bound(2, 6, 1e3) == 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            pseudoinverse_tail_bound(3, 2, 0.1)
        with pytest.raises(ValidationError):
            pseudoinverse_tail_bound(2, 6, -0.1)


class TestMcPseudoinverseTail:
    def test_huge_tau_gives_frequency_one(self):
        freq = mc_pseudoinverse_tail(2, 6, 1e3, None, 100, RngStream(81))
        assert freq == 1.0

    def test_no_events_at_small_tau(self):
        freq = mc_pseudoinverse_tail(2, 6, 0.1, None, 2000, RngStream(82))
        assert freq == 0.0

    def test_deterministic_part_shape_checked(self):
        with pytest.raises(ValidationError):
            mc_pseudoinverse_tail(2, 6, 0.1, np.zeros((3, 3)), 10,
                                  RngStream(83))

    def test_wide_shape_required(self):
        # An n x N draw with N < n has N singular values, not n.
        with pytest.raises(ValidationError, match="n <= N"):
            mc_pseudoinverse_tail(3, 2, 0.1, None, 1000, RngStream(1))

    @pytest.mark.parametrize("chunk", [1, 50, 2 ** 30])
    def test_frequency_independent_of_chunk(self, monkeypatch, chunk):
        # Batches of 1, 4 (50 entries of 2 x 6) and all 3000 matrices.
        ref = mc_pseudoinverse_tail(2, 6, 1.0, None, 3000, RngStream(84))
        monkeypatch.setattr(matpoly, "_CHUNK_ENTRIES", chunk)
        got = mc_pseudoinverse_tail(2, 6, 1.0, None, 3000, RngStream(84))
        assert 0.0 < got < 1.0
        assert got == ref

    def test_domination_check_passes(self):
        rep = check_pinv_tail_domination(2, 6, 0.1, None, 2000, RngStream(84))
        assert rep.passed
        assert rep.lemma_id == "pinv-tail-domination"


class TestGaussianNormTail:
    def test_no_events_at_threshold_three(self):
        assert gaussian_norm_tail(32, 3.0, 1000, RngStream(85)) == 0.0

    def test_tiny_threshold_gives_frequency_one(self):
        assert gaussian_norm_tail(8, 0.01, 100, RngStream(86)) == 1.0

    @pytest.mark.parametrize("chunk", [1, 200, 2 ** 30])
    def test_frequency_independent_of_chunk(self, monkeypatch, chunk):
        ref = gaussian_norm_tail(8, 1.9, 500, RngStream(87))
        monkeypatch.setattr(matpoly, "_CHUNK_ENTRIES", chunk)
        got = gaussian_norm_tail(8, 1.9, 500, RngStream(87))
        assert 0.0 < got < 1.0
        assert got == ref

    def test_nonincreasing_in_threshold(self):
        # Same stream per call, so the events are exactly nested.
        freqs = [gaussian_norm_tail(16, a, 200, RngStream(87))
                 for a in (1.5, 2.0, 2.5, 3.0)]
        assert all(x >= y for x, y in zip(freqs, freqs[1:]))


class TestBetaProjection:
    def test_passes_for_plane_and_larger(self):
        assert beta_projection_check(2, 10_000, RngStream(88)).passed
        assert beta_projection_check(6, 10_000, RngStream(89)).passed

    def test_plane_case_is_uniform(self):
        # N = 2: |v_1|^2 is uniform on [0, 1]; its CDF at 0.3 is 0.3.
        assert 1.0 - (1.0 - 0.3) ** (2 - 1) == pytest.approx(0.3)
        g = RngStream(90).generator()
        vecs = complex_gaussian(g, (20_000, 2))
        lam = np.abs(vecs[:, 0]) ** 2 / np.sum(np.abs(vecs) ** 2, axis=1)
        assert np.mean(lam <= 0.3) == pytest.approx(0.3, abs=0.02)

    def test_dimension_floor(self):
        with pytest.raises(ValidationError):
            beta_projection_check(1, 100, RngStream(91))


# ---------------------------------------------------------------------------
# Log-determinant diagnostics


class TestReplacementGap:
    def test_identical_matrices_gap_zero(self):
        a = complex_gaussian(RngStream(92), (6, 6))
        assert replacement_gap(a, a, 0.5) == 0.0

    def test_zero_matrices_gap_zero(self):
        z0 = np.zeros((4, 4))
        assert replacement_gap(z0, z0, 1.0) == 0.0

    def test_singular_shift_flagged_infinite(self):
        # The gap keeps the side of the singular matrix: log|det| of a
        # singular a - zI is -inf, and with both singular it is undefined.
        zero, one = np.zeros((3, 3)), np.eye(3)
        with pytest.warns(RuntimeWarning):
            assert replacement_gap(zero, one, 0.0) == -math.inf
        with pytest.warns(RuntimeWarning):
            assert replacement_gap(one, zero, 0.0) == math.inf
        with pytest.warns(RuntimeWarning):
            assert math.isnan(replacement_gap(zero, zero, 0.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            replacement_gap(np.eye(2), np.eye(3), 0.5)

    def test_degree_grown_pair_is_small(self):
        # Unscaled companion vs block circulant at n=2, k=256, z=0.5.
        p = sample_monic_gaussian(2, 256, RngStream(93))
        assert abs(replacement_gap(companion(p), circulant_matrix(2, 256),
                                   0.5)) <= 0.05

    def test_spectrum_off_the_circle_is_a_large_gap(self):
        # Halving the companion moves its spectrum onto |x| = 1/2, the
        # circle of the shift: against the block circulant the gap is
        # 0.687 at acceptance 04's first k = 512 trial.  A hidden scale
        # that moves both spectra deep inside |z| = 0.5 would hide it.
        p = sample_monic_gaussian(2, 512, RngStream(7, (96, 2, 0)))
        assert abs(replacement_gap(0.5 * companion(p),
                                   circulant_matrix(2, 512), 0.5)) >= 0.5

    def test_inputs_are_left_unchanged(self):
        a = complex_gaussian(RngStream(94), (4, 4))
        b = a.copy()
        replacement_gap(a, np.eye(4), 0.5)
        tail_log_sum(a, 0.5, 1)
        assert np.array_equal(a, b)

    def test_dimension_grown_medians_decrease(self):
        # Companion vs its top-row form, scaled by n**-0.5, at fixed z.
        z = 0.7 + 0.3j
        medians = []
        for n in (16, 32, 64):
            gaps = []
            for t in range(15):
                p = sample_monic_gaussian(n, 3, RngStream(7, (97, n, t)))
                m = companion(p)
                e1ct = np.zeros((3 * n, 3 * n), dtype=np.complex128)
                e1ct[:n, :] = m[:n]
                s = n ** -0.5
                gaps.append(abs(replacement_gap(s * m, s * e1ct, z)))
            medians.append(float(np.median(gaps)))
        assert medians[0] > medians[1] > medians[2]


class TestTailSplitIndex:
    def test_reference_value(self):
        # floor(3*16 - 16**0.7) = floor(48 - 6.9644) = 41.
        assert tail_split_index(16, 3) == 41

    def test_too_small_dimension_rejected(self):
        with pytest.raises(ValidationError):
            tail_split_index(4, 1)


class TestTailLogSum:
    def test_empty_range_is_zero(self):
        x = complex_gaussian(RngStream(96), (6, 6))
        assert tail_log_sum(x, 0.5, 7) == 0.0

    def test_unit_singular_values_sum_to_zero(self):
        # x = 0, z = 1: every singular value of -I is 1.
        assert tail_log_sum(np.zeros((6, 6)), 1.0, 3) == \
            pytest.approx(0.0, abs=1e-14)

    def test_reference_magnitude(self):
        # Scaled companion at n=64, k=3, z=0.7, tail from f(n)+1; normalized
        # by its dimension kn.
        n, k = 64, 3
        f = tail_split_index(n, k)
        m, _ = _lowrank_companion_pair(n, k, 97)
        val = tail_log_sum(n ** -0.5 * m, 0.7, f + 1)
        assert abs(val) <= 0.5

    def test_exactly_singular_tail_flagged(self):
        with pytest.warns(RuntimeWarning):
            val = tail_log_sum(np.diag([1.0, 0.0]), 0.0, 1)
        assert val == -math.inf

    def test_bad_from_index_rejected(self):
        with pytest.raises(ValidationError):
            tail_log_sum(np.eye(3), 0.5, 0)
        with pytest.raises(ValidationError):
            tail_log_sum(np.eye(3), 0.5, 5)
        for index in (1.5, "2", True):
            with pytest.raises(ValidationError, match="from_index"):
                tail_log_sum(np.eye(3), 0.5, index)


# ---------------------------------------------------------------------------
# Probabilistic lemma suites


def _full_svd_grow_n(cfg, rng):
    """``lemma_suite_grow_n``'s margins with a full SVD of S_E."""
    z = cfg.z
    floor_m, floor_e, cap, tail = [], [], [], []
    for s_idx, (n, k) in enumerate(cfg.sizes):
        kn = k * n
        f = tail_split_index(n, k)
        for t in range(cfg.trials):
            p = sample_monic_gaussian(n, k, rng.child(s_idx, t))
            m, e1ct = companion(p), np.zeros((kn, kn), dtype=np.complex128)
            e1ct[:n] = m[:n]
            sm = np.linalg.svd(n ** -0.5 * m - z * np.eye(kn),
                               compute_uv=False)
            se = np.linalg.svd(n ** -0.5 * e1ct - z * np.eye(kn),
                               compute_uv=False)
            floor_m.append(sm[-1] - n ** -(EXPONENT_A + 2.0))
            floor_e.append(se[-1] - n ** -(EXPONENT_A + 2.0))
            cap.append(min(CONSTANT_D - sm[0], CONSTANT_D - se[0]))
            tail.append(se[f - 1] - CONSTANT_T * n ** (EPSILON - 0.5))
    return [floor_m, floor_e, cap, tail]


def _reference_grow_k(cfg, rng):
    """``lemma_suite_grow_k``'s margins, one polynomial at a time through
    ``sample_monic_gaussian`` and ``companion``."""
    z, az = cfg.z, abs(cfg.z)
    cap, floor_block, floor_min, chain = [], [], [], []
    for s_idx, (n, k) in enumerate(cfg.sizes):
        kn = k * n
        sv_b = np.sort(np.abs(circulant_b_eigenvalues(n, k) - z))[::-1]
        i = np.arange(n, kn - n)
        for t in range(cfg.trials):
            p = sample_monic_gaussian(n, k, rng.child(s_idx, t))
            s = singular_values(companion(p) - z * np.eye(kn))
            slack = SLACK * max(s[0], 1.0)
            cap.append(CONSTANT_R * math.sqrt(k) + 1.0 + az - s[0])
            floor_block.append(s[n - 1] - abs(1.0 - az) + slack)
            floor_min.append(s[-1] - CONSTANT_T / k ** 2)
            chain.append(min(np.min(s[i] - sv_b[i + n]),
                             np.min(sv_b[i - n] - s[i])) + slack)
    return [cap, floor_block, floor_min, chain]


def _count_svd_calls(monkeypatch) -> list:
    """Shapes of the suites' ``singular_values`` calls, in call order."""
    shapes = []

    def counted(x):
        shapes.append(x.shape)
        return singular_values(x)
    monkeypatch.setattr(verify, "singular_values", counted)
    return shapes


class TestTopRowShiftCore:
    """S_E = s E_1 c_t - zI from its 2n x 2n core against a full SVD."""

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (5, 3), (3, 5),
                                     (16, 3)])
    @pytest.mark.parametrize("z", [1e-3, 0.7 + 0.3j, -40.0j])
    def test_core_matches_full_svd(self, n, k, z):
        # k = 2 has no copies of |z|; 1e-3 and 40 put |z| far below and
        # far above the typical singular value of the top block row.
        p = sample_monic_gaussian(n, k, RngStream(80, (n, k)))
        c_t = companion(p)[:n]
        kn = k * n
        e1ct = np.zeros((kn, kn), dtype=np.complex128)
        e1ct[:n] = c_t
        s = n ** -0.5
        full = singular_values(s * e1ct - z * np.eye(kn))
        got = verify._top_row_shift_singular_values(c_t, s, z)
        assert got.shape == (kn,)
        assert np.all(np.diff(got) <= 0.0)
        np.testing.assert_allclose(got, full, rtol=0, atol=1e-13 * full[0])

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    def test_shift_copies_sit_between_the_core_halves(self, scale):
        # The core has n singular values >= |z| and n <= |z|, so the
        # kn - 2n copies of |z| fill positions n + 1 .. kn - n, whether
        # |z| is small or large against the entries of c_t.
        n, k, z = 4, 5, 0.3 - 0.4j
        c_t = companion(sample_monic_gaussian(n, k, RngStream(81)))[:n]
        got = verify._top_row_shift_singular_values(c_t, scale, z)
        tol = 1e-13 * got[0]
        assert np.all(got[n:k * n - n] == abs(z))
        assert got[n - 1] >= abs(z) - tol and got[k * n - n] <= abs(z) + tol


class TestGrowNSuite:
    def test_zero_shift_rejected(self):
        cfg = LemmaCheckConfig(z=0.0, sizes=((16, 3),))
        with pytest.raises(ValidationError, match="nonzero shift"):
            lemma_suite_grow_n(cfg, RngStream(1))

    def test_degree_one_rejected(self):
        cfg = LemmaCheckConfig(z=0.5, sizes=((16, 1),))
        with pytest.raises(ValidationError, match="k >= 2"):
            lemma_suite_grow_n(cfg, RngStream(1))

    def test_single_size_reference_run(self):
        # n=16, k=3, z=0.7+0.3i, exponent a=1, 200 trials: the floor
        # sigma_kn >= n**-3 holds without violations.
        cfg = LemmaCheckConfig(z=0.7 + 0.3j, sizes=((16, 3),), trials=200)
        reports = {r.lemma_id: r for r in lemma_suite_grow_n(cfg, RngStream(98))}
        floor = reports["grow-n/sigma-min-companion-floor"]
        assert floor.violations == 0
        assert len(floor.per_trial_margins) == 200
        assert floor.fitted_exponent is None  # one size, no regression
        assert reports["grow-n/sigma-min-lowrank-floor"].violations == 0
        assert reports["grow-n/spectral-norm-cap"].violations == 0
        assert reports["grow-n/tail-index-floor"].violations == 0

    def test_margins_match_full_svd_reference(self):
        cfg = LemmaCheckConfig(z=0.7 + 0.3j, sizes=((4, 2), (8, 3), (6, 5)),
                               trials=6)
        reports = lemma_suite_grow_n(cfg, RngStream(82))
        reference = _full_svd_grow_n(cfg, RngStream(82))
        for rep, ref in zip(reports, reference):
            np.testing.assert_allclose(rep.per_trial_margins, ref,
                                       rtol=0, atol=1e-13)

    @pytest.mark.parametrize("chunk", [1, 2 ** 30])
    def test_margins_match_full_svd_reference_at_any_chunk_budget(
            self, monkeypatch, chunk):
        # One trial per chunk, and every size's trials in one chunk.
        monkeypatch.setattr(matpoly, "_CHUNK_ENTRIES", chunk)
        cfg = LemmaCheckConfig(z=0.7 + 0.3j, sizes=((4, 2), (8, 3), (6, 5)),
                               trials=6)
        reports = lemma_suite_grow_n(cfg, RngStream(82))
        reference = _full_svd_grow_n(cfg, RngStream(82))
        for rep, ref in zip(reports, reference):
            np.testing.assert_allclose(rep.per_trial_margins, ref,
                                       rtol=0, atol=1e-13)

    def test_two_svd_calls_per_chunk(self, monkeypatch):
        # Per chunk one call for S_M and one for the S_E cores.  (16, 3):
        # 14 trials per chunk, so 14 + 6; (32, 3): 3 per chunk, 7 chunks.
        shapes = _count_svd_calls(monkeypatch)
        cfg = LemmaCheckConfig(z=0.7 + 0.3j, sizes=((16, 3), (32, 3)),
                               trials=20)
        lemma_suite_grow_n(cfg, RngStream(85))
        chunks = [14, 6] + [3] * 6 + [2]
        kns = [48, 48] + [96] * 7
        n = [16, 16] + [32] * 7
        assert shapes[0::2] == [(t, 2 * m, 2 * m) for t, m in zip(chunks, n)]
        assert shapes[1::2] == [(t, kn, kn) for t, kn in zip(chunks, kns)]

    def test_multi_size_fits_exponent(self):
        cfg = LemmaCheckConfig(z=0.7 + 0.3j, sizes=((16, 3), (32, 3)),
                               trials=30)
        reports = {r.lemma_id: r for r in lemma_suite_grow_n(cfg, RngStream(99))}
        assert all(r.violations == 0 for r in reports.values())
        assert reports["grow-n/sigma-min-companion-floor"].fitted_exponent \
            is not None


class TestGrowKSuite:
    def test_unit_modulus_shift_rejected(self):
        cfg = LemmaCheckConfig(z=1.0, sizes=((2, 8),))
        with pytest.raises(ValidationError, match="distinct from 0 and 1"):
            lemma_suite_grow_k(cfg, RngStream(1))

    def test_zero_shift_rejected(self):
        cfg = LemmaCheckConfig(z=0.0, sizes=((2, 8),))
        with pytest.raises(ValidationError):
            lemma_suite_grow_k(cfg, RngStream(1))

    def test_low_degree_rejected(self):
        cfg = LemmaCheckConfig(z=0.5, sizes=((2, 2),))
        with pytest.raises(ValidationError, match="k > 2"):
            lemma_suite_grow_k(cfg, RngStream(1))

    def test_margins_match_single_polynomial_reference_bitwise(self):
        cfg = LemmaCheckConfig(z=0.5 + 0.2j, sizes=((2, 8), (3, 5), (1, 32)),
                               trials=5)
        reports = lemma_suite_grow_k(cfg, RngStream(83))
        reference = _reference_grow_k(cfg, RngStream(83))
        for rep, ref in zip(reports, reference):
            np.testing.assert_array_equal(rep.per_trial_margins, ref)

    @pytest.mark.parametrize("chunk", [1, 2 ** 30])
    def test_margins_match_reference_at_any_chunk_budget(self, monkeypatch,
                                                         chunk):
        # One trial per chunk, and every size's trials in one chunk.
        monkeypatch.setattr(matpoly, "_CHUNK_ENTRIES", chunk)
        cfg = LemmaCheckConfig(z=0.5 + 0.2j, sizes=((2, 8), (3, 5), (1, 32)),
                               trials=5)
        reports = lemma_suite_grow_k(cfg, RngStream(83))
        reference = _reference_grow_k(cfg, RngStream(83))
        for rep, ref in zip(reports, reference):
            np.testing.assert_array_equal(rep.per_trial_margins, ref)

    def test_one_svd_call_per_chunk(self, monkeypatch):
        # (2, 8): 128 trials per chunk, so one chunk of 20; (2, 32): 8 per
        # chunk, so 8 + 8 + 4.
        shapes = _count_svd_calls(monkeypatch)
        cfg = LemmaCheckConfig(z=0.5, sizes=((2, 8), (2, 32)), trials=20)
        lemma_suite_grow_k(cfg, RngStream(84))
        assert shapes == [(20, 16, 16), (8, 64, 64), (8, 64, 64),
                          (4, 64, 64)]

    def test_block_floor_reference_run(self):
        # n=2, k=64, z=0.5, 100 trials: sigma_n(M - zI) >= |1 - |z|| = 0.5
        # with zero violations, and the interlacing chain holds throughout.
        cfg = LemmaCheckConfig(z=0.5, sizes=((2, 64),), trials=100)
        reports = {r.lemma_id: r for r in lemma_suite_grow_k(cfg, RngStream(100))}
        assert reports["grow-k/block-sv-floor"].violations == 0
        assert reports["grow-k/interlacing-chain"].violations == 0
        assert len(reports["grow-k/interlacing-chain"].per_trial_margins) == 100

    def test_peak_holds_no_shifted_copy(self, traced_peak):
        # One kn = 256 cell: each trial's 1 MiB companion is shifted in
        # place, and dropped before the next one is built.  With
        # M - z * eye(kn) the peak was 4.2 MiB, and with the previous
        # companion alive during the next one's build 2.0 MiB.
        cfg = LemmaCheckConfig(z=0.5, sizes=((2, 128),), trials=3)
        peak = traced_peak(lemma_suite_grow_k, cfg, RngStream(102))
        assert peak < 1.5 * 2 ** 20

    def test_sigma_min_floor_across_degrees(self):
        # sigma_kn(M - zI) >= 1e-3 * k**-2 from k=8 up to k=256.
        cfg = LemmaCheckConfig(z=0.5, sizes=((2, 8), (2, 32), (2, 256)),
                               trials=20)
        reports = {r.lemma_id: r for r in lemma_suite_grow_k(cfg, RngStream(101))}
        floor = reports["grow-k/sigma-min-floor"]
        assert floor.violations == 0
        assert floor.fitted_exponent is not None
        assert reports["grow-k/top-sv-cap"].violations == 0


# ---------------------------------------------------------------------------
# Sizes and counts


@pytest.mark.parametrize("call", [
    lambda: pooled_esd("grow-n", 2.5, 2, RngStream(1), 1),
    lambda: gaussian_norm_tail(2.5, 3.0, 10, RngStream(1)),
    lambda: gaussian_norm_tail(2, 3.0, 2.5, RngStream(1)),
    lambda: mc_pseudoinverse_tail(2.5, 6, 0.1, None, 10, RngStream(1)),
    lambda: mc_pseudoinverse_tail(2, 6, 0.1, None, 2.5, RngStream(1)),
    lambda: beta_projection_check(6, 2.5, RngStream(1)),
    lambda: sample_points(DiscMixture(2), 2.5, RngStream(1)),
    lambda: tail_split_index(40.5, 3),
    lambda: pseudoinverse_tail_bound(1.5, 6, 0.1),
    lambda: DiscMixture(2.5),
    lambda: MatrixPolynomial(2.0, 1, (np.eye(2),)),
    lambda: MatrixPolynomial(2, 1.0, (np.eye(2),)),
    lambda: MatrixPolynomial(2.0, True, (np.eye(2),)),
    lambda: MatrixPolynomial(2, True, (np.eye(2),)),
    lambda: EmpiricalSpectralDistribution([1, 2], 1.0, 2.0, 1, 1),
    lambda: EmpiricalSpectralDistribution([1, 2], 1.0, 2, 1, 1.0),
], ids=["pooled_esd-n", "norm_tail-n", "norm_tail-trials", "pinv_tail-n",
        "pinv_tail-trials", "beta-trials", "sample_points-count",
        "tail_split-n", "pinv_bound-n", "disc_mixture-k", "polynomial-n",
        "polynomial-k", "polynomial-n-k-bool", "polynomial-k-bool",
        "esd-n", "esd-trials"])
def test_non_integer_sizes_and_counts_rejected(call):
    with pytest.raises(ValidationError, match="must be an integer"):
        call()


@pytest.mark.parametrize("call", [
    lambda: complex_gaussian(RngStream(1), (2, 2), variance=math.nan),
    lambda: complex_gaussian(RngStream(1), (2, 2), variance="1"),
    lambda: pseudoinverse_tail_bound(2, 6, math.nan),
    lambda: mc_pseudoinverse_tail(2, 6, math.nan, None, 10, RngStream(1)),
    lambda: atom_mass(pooled_esd("grow-n", 2, 2, RngStream(1), 1), math.nan),
    lambda: radial_cdf(DiscMixture(2), math.nan),
    lambda: gaussian_norm_tail(4, math.nan, 10, RngStream(1)),
    lambda: gaussian_norm_tail(4, math.inf, 10, RngStream(1)),
    lambda: gaussian_norm_tail(4, "3", 10, RngStream(1)),
    lambda: radial_cdf(DiscMixture(2), "0.5"),
    lambda: radial_cdf(DiscMixture(2), ["0.5", "1"]),
    lambda: pseudoinverse_tail_bound(2, 6, "0.1"),
    lambda: mc_pseudoinverse_tail(2, 6, "0.1", None, 10, RngStream(1)),
    lambda: atom_mass(pooled_esd("grow-n", 2, 2, RngStream(1), 1), "0.1"),
    lambda: tail_log_sum(np.eye(3), 0.5, 1.5),
    lambda: tail_log_sum(np.eye(3), 0.5, "2"),
    lambda: tail_log_sum(np.eye(3), 0.5, True),
    lambda: evaluate(sample_monic_gaussian(2, 2, RngStream(1)), "x"),
    lambda: evaluate(sample_monic_gaussian(2, 2, RngStream(1)), math.inf),
    lambda: match_distance([math.nan], [1.0]),
    lambda: replacement_gap(np.full((2, 2), math.nan), np.eye(2), 0.5),
    lambda: EmpiricalSpectralDistribution([1, 2], True, 2, 1, 1),
    lambda: EmpiricalSpectralDistribution([1, 2], "1", 2, 1, 1),
], ids=["variance-nan", "variance-str", "pinv_bound-tau", "pinv_tail-tau",
        "atom_mass-radius", "radial_cdf-r",
        "norm_tail-nan", "norm_tail-inf", "norm_tail-str", "radial_cdf-str",
        "radial_cdf-str-array", "pinv_bound-str", "pinv_tail-str",
        "atom_mass-str", "tail_log_sum-index-float",
        "tail_log_sum-index-str", "tail_log_sum-index-bool",
        "evaluate-str", "evaluate-inf",
        "match_distance-nan", "replacement_gap-nan", "esd-scale-bool",
        "esd-scale-str"])
def test_nan_and_mistyped_thresholds_rejected(call):
    # NaN compares false both ways, so each guard is stated positively.
    with pytest.raises(ValidationError):
        call()
