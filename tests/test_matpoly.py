"""Tests for polynomial sampling, evaluation, and the companion splittings."""

import itertools
import json
import math

import numpy as np
import pytest

from rmpoly import (
    MatrixPolynomial,
    NumericalError,
    RngStream,
    ValidationError,
    backward_error,
    circulant_b_eigenvalues,
    circulant_matrix,
    companion,
    complex_gaussian,
    eigenvalues,
    evaluate,
    finite_eigenvalues,
    match_distance,
    polynomial_from_json,
    polynomial_to_json,
    sample_monic_gaussian,
    singular_values,
    trace_error,
)
from rmpoly import matpoly
from rmpoly.tolerances import EPS


def _scalar_poly(*coeffs):
    """Monic scalar polynomial with the given (c_0, c_1, ...) coefficients."""
    return MatrixPolynomial(1, len(coeffs),
                            tuple(np.array([[c]]) for c in coeffs))


# ---------------------------------------------------------------------------
# Random streams


class TestRngStream:
    def test_same_address_reproduces_draws(self):
        a = RngStream(11, (1, 2)).generator().standard_normal(5)
        b = RngStream(11, (1, 2)).generator().standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_children_are_distinct(self):
        root = RngStream(11)
        a = root.child(0).generator().standard_normal(5)
        b = root.child(1).generator().standard_normal(5)
        assert not np.array_equal(a, b)

    def test_child_path_extends_key(self):
        assert RngStream(3).child(4, 5).key == (4, 5)
        assert RngStream(3, (1,)).child(2).key == (1, 2)

    def test_negative_addresses_rejected(self):
        with pytest.raises(ValidationError):
            RngStream(-1)
        with pytest.raises(ValidationError):
            RngStream(0, (-2,))

    @pytest.mark.parametrize("seed", [1.5, True, "1", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValidationError):
            RngStream(seed)

    @pytest.mark.parametrize("index", [1.5, False, np.bool_(True), "1"])
    def test_non_integer_child_index_rejected(self, index):
        # int() used to turn child(1.5) into child(1) silently.
        with pytest.raises(ValidationError):
            RngStream(1).child(index)

    def test_numpy_integers_become_python_ints(self):
        s = RngStream(np.int64(3)).child(np.int32(4), np.uint8(5))
        assert s == RngStream(3, (4, 5))
        assert type(s.seed) is int and all(type(i) is int for i in s.key)
        np.testing.assert_array_equal(
            s.generator().standard_normal(4),
            RngStream(3, (4, 5)).generator().standard_normal(4))


class TestComplexGaussian:
    def test_variance_convention(self):
        # E|X|^2 = variance, split evenly between the parts.
        g = complex_gaussian(RngStream(12), (200, 200), variance=1.0)
        assert np.mean(np.abs(g) ** 2) == pytest.approx(1.0, abs=0.02)
        assert np.var(g.real) == pytest.approx(0.5, abs=0.02)
        assert np.var(g.imag) == pytest.approx(0.5, abs=0.02)

    def test_scaled_variance(self):
        g = complex_gaussian(RngStream(13), (300, 300), variance=0.25)
        assert np.mean(np.abs(g) ** 2) == pytest.approx(0.25, abs=0.01)

    def test_bad_variance_rejected(self):
        with pytest.raises(ValidationError):
            complex_gaussian(RngStream(1), (2, 2), variance=0.0)

    def test_bad_rng_rejected(self):
        with pytest.raises(ValidationError):
            complex_gaussian(object(), (2, 2))

    @pytest.mark.parametrize("shape", [(-1, 2), (2, -3), (2.0, 2), (True,),
                                       ("2",), 4, None])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ValidationError, match="shape"):
            complex_gaussian(RngStream(1), shape)

    @pytest.mark.parametrize("variance", [1.0, 0.25])
    def test_bits_match_one_draw_of_pairs(self, variance):
        # The reference is the formula of one (..., 2) draw viewed as
        # complex and multiplied by the scale in complex arithmetic.
        got = complex_gaussian(RngStream(20, (1,)), (3, 4), variance)
        parts = RngStream(20, (1,)).generator().standard_normal((3, 4, 2))
        ref = parts.view(np.complex128)[..., 0] * np.sqrt(variance / 2.0)
        assert got.shape == (3, 4)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_empty_shape_draws_nothing(self):
        assert complex_gaussian(RngStream(1), (0, 3)).shape == (0, 3)


# ---------------------------------------------------------------------------
# Sampling


class TestSampleMonicGaussian:
    def test_entry_statistics(self):
        # >= 1e5 entries: CLT puts |mean| well under 0.02 and E|X|^2
        # within 0.02 of 1.
        p = sample_monic_gaussian(100, 10, RngStream(14))
        entries = np.concatenate([c.ravel() for c in p.coeffs])
        assert entries.size == 100_000
        assert abs(entries.mean()) <= 0.02
        assert np.mean(np.abs(entries) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_determinism(self):
        a = sample_monic_gaussian(3, 4, RngStream(15, (2,)))
        b = sample_monic_gaussian(3, 4, RngStream(15, (2,)))
        assert a == b

    def test_distinct_streams_differ(self):
        a = sample_monic_gaussian(3, 4, RngStream(15, (0,)))
        b = sample_monic_gaussian(3, 4, RngStream(15, (1,)))
        assert a != b
        assert a != (a.n, a.k, a.coeffs)  # not a polynomial: never equal

    def test_shapes_and_seed(self):
        p = sample_monic_gaussian(2, 3, RngStream(16))
        assert p.n == 2 and p.k == 3
        assert len(p.coeffs) == 3
        assert all(c.shape == (2, 2) for c in p.coeffs)
        assert p.seed == 16

    def test_child_stream_records_no_seed(self):
        # The root seed alone does not identify a child stream's draw.
        p = sample_monic_gaussian(2, 2, RngStream(7).child(0, 3))
        assert p != sample_monic_gaussian(2, 2, RngStream(7))
        assert p.seed is None
        assert json.loads(polynomial_to_json(p))["seed"] is None

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValidationError):
            sample_monic_gaussian(0, 2, RngStream(1))
        with pytest.raises(ValidationError):
            sample_monic_gaussian(2, 0, RngStream(1))

    @pytest.mark.parametrize("n,k", [(2.5, 2), (2, 3.0), (True, 2)])
    def test_non_integer_sizes_rejected(self, n, k):
        with pytest.raises(ValidationError):
            sample_monic_gaussian(n, k, RngStream(1))

    def test_coefficients_are_write_locked(self):
        p = sample_monic_gaussian(2, 2, RngStream(17))
        with pytest.raises(ValueError):
            p.coeffs[0][0, 0] = 0.0


class TestTrialCoefficients:
    """``_trial_draws``: a trial's coefficients, or any other flat draw per
    trial stream."""

    @pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (16, 2), (2, 40)])
    def test_bits_match_one_draw_per_stream(self, n, k):
        # Trials of a root, a one-level and a two-level cell stream, over a
        # range that does not start at 0, with and without a tail key, at
        # variance 1 and 2, for a trial's coefficients and for one value
        # per trial: the buffer must keep every bit of one
        # ``complex_gaussian`` draw per trial stream.
        for rng, tail, variance, shape in itertools.product(
                (RngStream(21), RngStream(21, (3,)),
                 RngStream(21).child(0, 5)),
                ((), (0,), (4, 1)), (1.0, 2.0), ((k, n, n), ())):
            got = matpoly._trial_draws(rng, 5, 9, shape, *tail,
                                       variance=variance)
            ref = np.stack([complex_gaussian(rng.child(t, *tail), shape,
                                             variance)
                            for t in range(5, 9)])
            assert got.shape == (4, *shape) and got.dtype == np.complex128
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        # At variance 2 the scale is 1.0: the parts are the raw normals.
        g = RngStream(21, (5,)).generator()
        (z,) = matpoly._trial_draws(RngStream(21), 5, 6, (), variance=2.0)
        assert z == complex(g.standard_normal(), g.standard_normal())

    @pytest.mark.parametrize("lo,hi", [(2 ** 32 - 1, 2 ** 32 + 1), (-1, 2),
                                       (3, 2), (0.0, 2), (0, "2"), (True, 2)])
    def test_bad_trial_range_rejected(self, lo, hi):
        # Trial 2**32 would need a second key word: never a silent wrap.
        with pytest.raises(ValidationError):
            matpoly._trial_draws(RngStream(1), lo, hi, (1, 1, 1))

    def test_last_trial_index_is_one_32_bit_word(self):
        # Trial 2**32 - 1 still seeds from one key word.
        top = 2 ** 32 - 1
        got = matpoly._trial_draws(RngStream(1), top, top + 1, (1, 1, 1))
        ref = complex_gaussian(RngStream(1, (top,)), (1, 1, 1))
        assert np.array_equal(got[0].view(np.uint64), ref.view(np.uint64))

    def test_no_streams_give_an_empty_stack(self):
        got = matpoly._trial_draws(RngStream(1), 4, 4, (3, 2, 2))
        assert got.shape == (0, 3, 2, 2)


def _blockwise_companion(coeffs):
    """Companion matrix of ``(k, n, n)`` coefficients, block by block."""
    k, n = coeffs.shape[:2]
    ref = np.zeros((k * n, k * n), dtype=np.complex128)
    for j in range(k):
        ref[:n, j * n:(j + 1) * n] = -coeffs[k - 1 - j]
    for i in range(1, k):
        ref[i * n:(i + 1) * n, (i - 1) * n:i * n] = np.eye(n)
    return ref


class TestCompanionStack:
    @pytest.mark.parametrize("n,k", [(1, 1), (3, 1), (4, 2), (2, 5)])
    def test_bits_match_blockwise_reference(self, n, k):
        coeffs = matpoly._trial_draws(RngStream(22, (n, k)), 0, 3, (k, n, n))
        ref = np.stack([_blockwise_companion(c) for c in coeffs])
        got = matpoly._companion_stack(coeffs)
        assert got.shape == (3, k * n, k * n)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestMatrixPolynomial:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_coefficient_is_named(self, bad):
        coeffs = [np.zeros((2, 2), dtype=np.complex128) for _ in range(4)]
        coeffs[2][1, 0] = bad
        with pytest.raises(ValidationError, match="coefficient 2 has non-"):
            MatrixPolynomial(2, 4, tuple(coeffs))

    def test_misshapen_coefficient_is_named(self):
        coeffs = (np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValidationError, match=r"coefficient 1 has shape"):
            MatrixPolynomial(2, 3, coeffs)
        with pytest.raises(ValidationError, match=r"coefficient 0 has shape"):
            MatrixPolynomial(2, 1, (np.zeros((3, 3)),))
        with pytest.raises(ValidationError, match=r"k=3 does not match 2"):
            MatrixPolynomial(2, 3, coeffs[:2])

    def test_coefficients_are_read_only_views_of_one_copy(self):
        given = complex_gaussian(RngStream(18), (3, 2, 2))
        p = MatrixPolynomial(2, 3, tuple(given))
        assert p.stack.shape == (3, 2, 2)
        assert not p.stack.flags.writeable
        for j, c in enumerate(p.coeffs):
            assert c.base is p.stack
            assert not c.flags.writeable
            assert np.array_equal(c, given[j])
        with pytest.raises(ValueError):
            p.coeffs[1][0, 0] = 0.0
        given[0, 0, 0] = 5.0  # the caller's array stays its own
        assert given.flags.writeable and p.coeffs[0][0, 0] != 5.0

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (3, 1), (2, 3), (4, 5)])
    def test_companion_bits_match_blockwise_reference(self, n, k):
        p = sample_monic_gaussian(n, k, RngStream(19, (n, k)))
        ref = _blockwise_companion(p.stack)
        m = companion(p)
        assert np.array_equal(m.view(np.float64), ref.view(np.float64))
        assert np.array_equal(m[:n].view(np.float64),
                              ref[:n].view(np.float64))
        assert not m.flags.writeable


# ---------------------------------------------------------------------------
# Evaluation


class TestEvaluate:
    def test_at_zero_gives_constant_term(self):
        p = sample_monic_gaussian(3, 3, RngStream(18))
        np.testing.assert_array_equal(evaluate(p, 0.0), p.coeffs[0])

    def test_scalar_quadratic_root(self):
        p = _scalar_poly(-1.0, 0.0)  # x^2 - 1
        assert evaluate(p, 1.0)[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert evaluate(p, -1.0)[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_monic_leading_term(self):
        p = _scalar_poly(0.0, 0.0)  # x^2
        assert evaluate(p, 2.0j)[0, 0] == pytest.approx(-4.0, abs=1e-14)

    def test_singular_exactly_near_eigenvalues(self):
        # sigma_min(P(x)) is tiny iff x sits near a finite eigenvalue.
        p = sample_monic_gaussian(2, 3, RngStream(19))
        lams = finite_eigenvalues(p)
        coeff_norm = np.linalg.norm(np.hstack(p.coeffs))
        for lam in lams:
            assert singular_values(evaluate(p, lam))[-1] <= 1e-6 * coeff_norm
        g = RngStream(19, (1,)).generator()
        probes = complex_gaussian(g, (20,))
        for x in probes:
            dist = np.min(np.abs(lams - x))
            if dist > 0.05:
                assert singular_values(evaluate(p, x))[-1] > 1e-8


# ---------------------------------------------------------------------------
# Companion linearization and its low-rank splittings


class TestCompanion:
    def test_scalar_quadratic_layout(self):
        m = companion(_scalar_poly(2.0, 3.0))  # c_0 = 2, c_1 = 3
        np.testing.assert_array_equal(m, [[-3.0, -2.0], [1.0, 0.0]])

    def test_scalar_linear_layout(self):
        m = companion(_scalar_poly(5.0))
        np.testing.assert_array_equal(m, [[-5.0]])

    def test_block_quadratic_spectrum(self):
        # C_1 = 0, C_0 = -I: det P(x) = (x^2 - 1)^2, roots {1, 1, -1, -1}.
        p = MatrixPolynomial(2, 2, (-np.eye(2), np.zeros((2, 2))))
        lams = eigenvalues(companion(p))
        assert match_distance(lams, [1.0, 1.0, -1.0, -1.0]) <= 1e-10

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (3, 1), (2, 3), (4, 5)])
    def test_split_is_entrywise_exact(self, n, k):
        p = sample_monic_gaussian(n, k, RngStream(20, (n, k)))
        m = companion(p)
        kn = k * n
        z_shift = np.eye(kn, k=-n, dtype=np.complex128)
        e1 = np.eye(kn, n, dtype=np.complex128)
        assert m.shape == (kn, kn)
        assert m[:n].shape == (n, kn)
        assert np.array_equal(m, z_shift + e1 @ m[:n])

    def test_top_row_holds_negated_coefficients(self):
        p = sample_monic_gaussian(2, 3, RngStream(21))
        c_t = companion(p)[:2]
        np.testing.assert_array_equal(c_t[:, 4:6], -p.coeffs[0])
        np.testing.assert_array_equal(c_t[:, 2:4], -p.coeffs[1])
        np.testing.assert_array_equal(c_t[:, 0:2], -p.coeffs[2])


class TestCirculantSplit:
    """M = B + (M - B) with B = ``circulant_matrix(n, k)``."""

    def test_scalar_quadratic_zero_coefficients(self):
        m = companion(_scalar_poly(0.0, 0.0))
        b = circulant_matrix(1, 2)
        np.testing.assert_array_equal(b, [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(m - b, [[0.0, -1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 1), (1, 4), (2, 5), (4, 3)])
    def test_matches_block_loop_reference(self, n, k):
        kn = k * n
        ref = np.zeros((kn, kn), dtype=np.complex128)
        for i in range(1, k):
            ref[i * n:(i + 1) * n, (i - 1) * n:i * n] = np.eye(n)
        ref[:n, (k - 1) * n:] = np.eye(n)
        b = circulant_matrix(n, k)
        assert b.dtype == np.complex128 and b.flags.c_contiguous
        assert np.array_equal(b.view(np.uint64), ref.view(np.uint64))

    def test_subtraction_direction_is_bitwise(self):
        # M - B is exactly the top block row of M with I_n taken off its
        # corner block: the float subtraction rounds like the formula.
        for seed in range(10):
            p = sample_monic_gaussian(2, 5, RngStream(23, (seed,)))
            m = companion(p)
            top = m[:2].copy()
            top[:, 8:10] -= np.eye(2)
            a = np.zeros_like(m)
            a[:2, :] = top
            assert np.array_equal(m - circulant_matrix(2, 5), a)

    def test_a_is_top_block_row_of_rank_at_most_n(self):
        p = sample_monic_gaussian(3, 4, RngStream(25))
        a = companion(p) - circulant_matrix(3, 4)
        assert np.all(a[3:, :] == 0.0)
        s = singular_values(a)
        assert s[3] == 0.0

    def test_corner_block_shifted_by_identity(self):
        p = sample_monic_gaussian(2, 3, RngStream(27))
        a = companion(p) - circulant_matrix(2, 3)
        np.testing.assert_array_equal(a[:2, 4:6], -p.coeffs[0] - np.eye(2))


class TestCirculantEigenvalues:
    def test_fourth_roots_of_unity(self):
        lams = circulant_b_eigenvalues(1, 4)
        assert match_distance(lams, [1.0, 1.0j, -1.0, -1.0j]) <= 1e-15

    def test_degree_one_all_ones(self):
        np.testing.assert_array_equal(circulant_b_eigenvalues(3, 1),
                                      np.ones(3, dtype=np.complex128))

    def test_matches_numerical_spectrum(self):
        got = eigenvalues(circulant_matrix(2, 8))
        assert match_distance(got, circulant_b_eigenvalues(2, 8)) <= 1e-10

    @pytest.mark.parametrize("n,k,z", [(1, 4, 0.5), (2, 6, 0.7 + 0.3j),
                                       (3, 5, 2.0j)])
    def test_shifted_circulant_singular_value_range(self, n, k, z):
        # All singular values of B - zI lie in [|1 - |z||, 1 + |z|].
        s = singular_values(circulant_matrix(n, k) - z * np.eye(n * k))
        assert s[0] <= 1.0 + abs(z) + 1e-12
        assert s[-1] >= abs(1.0 - abs(z)) - 1e-12


# ---------------------------------------------------------------------------
# Finite eigenvalues


class TestFiniteEigenvalues:
    def test_scalar_quadratic(self):
        lams = finite_eigenvalues(_scalar_poly(-1.0, 0.0))
        assert match_distance(lams, [1.0, -1.0]) <= 1e-12

    def test_linear_block_case(self):
        p = MatrixPolynomial(2, 1, (-np.diag([2.0, 3.0 + 1.0j]),))
        assert match_distance(finite_eigenvalues(p),
                              [2.0, 3.0 + 1.0j]) <= 1e-12

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 3), (3, 2), (4, 4)])
    def test_cardinality_is_kn(self, n, k):
        p = sample_monic_gaussian(n, k, RngStream(28, (n, k)))
        assert finite_eigenvalues(p).shape == (k * n,)

    def test_eigenvalue_residuals(self):
        for seed in range(5):
            p = sample_monic_gaussian(2, 3, RngStream(29, (seed,)))
            coeff_norm = np.linalg.norm(np.hstack(p.coeffs))
            for lam in finite_eigenvalues(p):
                smin = singular_values(evaluate(p, lam))[-1]
                assert smin <= 1e-6 * coeff_norm

    @staticmethod
    def _count_dense_calls(monkeypatch):
        calls = []

        def counted(m):
            calls.append(m.shape)
            return eigenvalues(m)

        monkeypatch.setattr(matpoly, "eigenvalues", counted)
        return calls

    @pytest.mark.parametrize("n,k,dense", [
        (4, 32, False), (1, 128, False), (8, 16, False), (2, 40, False),
        (1, 79, True), (1, 64, True), (9, 16, True), (17, 34, True)])
    def test_shape_dispatch(self, monkeypatch, n, k, dense):
        # Degree-dominated shapes (k >= 2n, n <= 16, kn >= 80) are solved
        # without the companion matrix; every other shape is dense.
        p = sample_monic_gaussian(n, k, RngStream(30, (n, k)))
        calls = self._count_dense_calls(monkeypatch)
        lams = finite_eigenvalues(p)
        assert calls == ([(1, k * n, k * n)] if dense else [])
        assert lams.shape == (k * n,)

    def test_root_at_origin_converges(self):
        # A zero column in C_0 puts a simple root at 0, where only the
        # absolute part of the convergence test can end the iteration.
        sampled = sample_monic_gaussian(2, 64, RngStream(31))
        c0 = sampled.coeffs[0].copy()
        c0[:, 0] = 0.0
        p = MatrixPolynomial(2, 64, (c0,) + sampled.coeffs[1:])
        lams = matpoly._aberth_eigenvalues(p.stack)
        assert lams is not None
        assert np.min(np.abs(lams)) <= 1e-12
        assert match_distance(lams, eigenvalues(companion(p))) <= 1e-10

    def test_unfinished_iteration_falls_back_to_dense(self, monkeypatch):
        # P(x) = I x^k: every root is 0 with multiplicity kn, where
        # Ehrlich-Aberth converges only linearly and runs out of sweeps.
        n, k = 2, 64
        p = MatrixPolynomial(n, k, (np.zeros((n, n)),) * k)
        assert matpoly._aberth_eigenvalues(p.stack) is None
        calls = self._count_dense_calls(monkeypatch)
        lams = finite_eigenvalues(p)
        assert calls == [(1, k * n, k * n)]
        np.testing.assert_array_equal(lams, eigenvalues(companion(p)))

    def test_broken_trace_identity_falls_back_to_dense(self, monkeypatch):
        # With no pull, every sweep after the exact first one is plain
        # Newton, and here two roots converge onto one: each step is
        # finite and the iteration ends, but the roots' sum is off by
        # about one root, so the trace identity rejects them.
        monkeypatch.setattr(
            matpoly, "_aberth_pull",
            lambda x, idx, dtype=np.float64: np.zeros(idx.size, complex))
        gap = matpoly._trace_gap
        checked = []

        def spy(coeffs, lam):
            checked.append((gap(coeffs, lam),
                            100.0 * lam.size * EPS * np.abs(lam).sum()))
            return checked[-1][0]

        monkeypatch.setattr(matpoly, "_trace_gap", spy)
        p = sample_monic_gaussian(2, 64, RngStream(40))
        assert matpoly._aberth_eigenvalues(p.stack) is None
        [(found, limit)] = checked
        assert found > 1e6 * limit  # 0.60 against 3.4e-10
        calls = self._count_dense_calls(monkeypatch)
        lams = finite_eigenvalues(p)
        assert 128 <= matpoly._FALLBACK_MAX_KN and calls == [(1, 128, 128)]
        np.testing.assert_array_equal(lams, eigenvalues(companion(p)))

    @pytest.mark.parametrize("fails,limit,dense", [
        (1, 2048, []),                # the rotated circle solves it
        (2, 2048, [(1, 128, 128)]),   # both fail: one dense solve
        (2, 64, None)],               # both fail above the limit: raises
        ids=["rotated-circle", "dense", "raises"])
    def test_failure_policy(self, monkeypatch, fails, limit, dense):
        # The first ``fails`` start circles of a kn = 128 trial are made to
        # fail.  Every trial tries phase 0.25, then 0.75, then dense QR up
        # to ``_FALLBACK_MAX_KN``; past it the trial raises.
        p = sample_monic_gaussian(2, 64, RngStream(42))
        solve = matpoly._aberth_from_circle
        phases = []

        def failing(coeffs, both, radius, phase):
            phases.append(phase)
            return (None if len(phases) <= fails
                    else solve(coeffs, both, radius, phase))

        monkeypatch.setattr(matpoly, "_aberth_from_circle", failing)
        monkeypatch.setattr(matpoly, "_FALLBACK_MAX_KN", limit)
        calls = self._count_dense_calls(monkeypatch)
        if dense is None:
            with pytest.raises(NumericalError, match=r"trial 0 .*n=2, k=64"):
                matpoly.trial_eigenvalues(p.stack[None])
            assert phases == [0.25, 0.75] and calls == []
            return
        lams = finite_eigenvalues(p)
        assert phases == [0.25, 0.75] and calls == dense
        assert match_distance(lams, eigenvalues(companion(p))) <= 1e-10


class TestCircleLogDerivative:
    """The first Ehrlich-Aberth sweep, in closed form at the start points:
    ``_circle_newton`` and the pull ``(kn - 1) / 2x``."""

    @staticmethod
    def _start(coeffs, phase=0.25):
        """Operand, start points and radius as ``_aberth_eigenvalues``
        and ``_aberth_from_circle`` form them."""
        k, n = coeffs.shape[:2]
        both = matpoly._value_slope_operand(
            np.concatenate((coeffs, np.eye(n)[None])))
        radius = float(np.exp(np.linalg.slogdet(coeffs[0])[1] / (k * n)))
        x = radius * np.exp(2j * np.pi * (np.arange(k * n) + phase) / (k * n))
        return both, x, radius

    @pytest.mark.parametrize("n,k,scale,phase", [
        (1, 128, 1.0, 0.25),   # one class: row k folds onto row 0
        (4, 512, 1.0, 0.25),
        (16, 32, 1.0, 0.75),
        (4, 64, 1e-3, 0.75),   # radius below 1 at n > 1
        (4, 32, 1e3, 0.25),    # radius above 1: the rows reversed
        (1, 96, 1e3, 0.75)])
    def test_matches_log_derivative_at_start_points(self, n, k, scale,
                                                    phase):
        # Both evaluate P and P' to a few roundings of the largest term;
        # the solve scales that by the conditioning of P at each point.
        # Over 8 draws per shape the worst point was 50 kn eps.
        coeffs = sample_monic_gaussian(n, k, RngStream(43, (n, k))).stack
        coeffs = coeffs * np.r_[scale, np.ones(k - 1)][:, None, None]
        both, x, radius = self._start(coeffs, phase)
        if scale != 1.0:
            assert (radius > 1.0) == (scale > 1.0)
        newton = matpoly._circle_newton(both, x, radius)
        ref = matpoly._newton(both, x)
        assert np.all(np.abs(newton - ref) <= 100 * k * n * EPS * np.abs(ref))

    @pytest.mark.parametrize("n,k,scale", [(4, 512, 1.0), (1, 96, 1e3)])
    def test_closed_form_pull_matches_pairwise_sum(self, n, k, scale):
        coeffs = sample_monic_gaussian(n, k, RngStream(44, (n, k))).stack
        coeffs = coeffs * np.r_[scale, np.ones(k - 1)][:, None, None]
        # Within the float32 pull's own error bound of the exact sum.
        x = self._start(coeffs)[1]
        idx = np.arange(k * n)
        closed = (k * n - 1) / (2.0 * x)
        bound = TestAberthPull._float32_bound(x, idx)
        for dtype in (np.float64, np.float32):
            pull = matpoly._aberth_pull(x, idx, dtype)
            assert np.all(np.abs(pull - closed) <= bound)

    def test_first_sweep_makes_no_pull_and_no_log_derivative(self,
                                                             monkeypatch):
        calls = []
        names = ("_circle_newton", "_newton", "_aberth_pull")
        for name in names:
            fn = getattr(matpoly, name)
            monkeypatch.setattr(
                matpoly, name,
                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        p = sample_monic_gaussian(2, 64, RngStream(45))
        lams = matpoly._aberth_eigenvalues(p.stack)
        assert match_distance(lams, eigenvalues(companion(p))) <= 1e-10
        # Each later sweep evaluates before it pulls, so no pull came
        # before the second sweep.
        assert calls[0] == names[0] and calls.count(names[0]) == 1
        assert calls.index(names[1]) < calls.index(names[2])


class TestLogDerivative:
    """The Newton correction ``1 / tr(P^{-1} P')`` of ``det P``, the
    reciprocal of its log derivative, by ``_newton``."""

    @staticmethod
    def _stack(p):
        return np.stack(p.coeffs + (np.eye(p.n),))

    def test_matches_reference_on_both_sides_of_the_circle(self):
        # 600 points, inside and outside |x| = 1 in turn: each side spans
        # one full block of 256 and a partial one, and every block holds
        # points of both sides.
        p = sample_monic_gaussian(3, 20, RngStream(32))
        g = np.random.default_rng(0)
        x = 0.8 * np.sqrt(g.random(600)) * np.exp(2j * np.pi * g.random(600))
        x[1::2] = 1.0 / x[1::2]
        stack = self._stack(p)
        newton = matpoly._newton(matpoly._value_slope_operand(stack), x)
        for xi, t in zip(x, newton):
            ref = 1.0 / np.trace(np.linalg.solve(evaluate(p, xi), sum(
                j * stack[j] * xi ** (j - 1) for j in range(1, p.k + 1))))
            assert abs(t - ref) <= 1e-12 * abs(ref)

    def test_exactly_singular_point_takes_zero_correction(self):
        # A zero column in C_0 makes P(0) exactly singular.
        sampled = sample_monic_gaussian(2, 8, RngStream(34))
        c0 = sampled.coeffs[0].copy()
        c0[:, 1] = 0.0
        stack = np.stack((c0,) + sampled.coeffs[1:] + (np.eye(2),))
        newton = matpoly._newton(matpoly._value_slope_operand(stack),
                                 np.array([0.5, 0.0, 0.25j, 2.0]))
        assert newton[1] == 0.0
        assert np.all(np.isfinite(newton)) and np.all(newton[[0, 2, 3]] != 0)

    def test_partial_block_shape_matches_dense(self):
        # kn = 300: the first sweep evaluates one block of 256 roots and a
        # partial block of 44.
        p = sample_monic_gaussian(3, 100, RngStream(35))
        lam = matpoly._aberth_eigenvalues(p.stack)
        assert lam is not None
        assert match_distance(lam, eigenvalues(companion(p))) <= 1e-10
        kn_eps = p.k * p.n * np.finfo(float).eps
        assert backward_error(p, lam).max() <= 100.0 * kn_eps

    @pytest.mark.parametrize("k", [1, 2, 31, 512])
    def test_blocked_powers_match_sequential(self, k):
        # 0 <= |x| <= 1, with the nonzero moduli at least 1/2 so that no
        # power of degree <= 512 leaves the normal range.
        g = np.random.default_rng(k)
        x = np.concatenate(([0.0, 1.0, -1.0, 1j], (0.5 + 0.5 * g.random(296))
                            * np.exp(2j * np.pi * g.random(296))))
        ref = np.empty((x.size, k + 1), dtype=np.complex128)
        ref[:, 0] = 1.0
        ref[:, 1:] = x[:, None]
        np.cumprod(ref[:, 1:], axis=1, out=ref[:, 1:])
        got = matpoly._powers(x, k)
        assert got.shape == (x.size, k + 1)
        assert np.all(np.abs(got - ref) <= (k + 1) * EPS * np.abs(ref))


#: ``(kn, active)`` shapes of the pull; the comments say how float64 tiles
#: of 128 rows split them.
_PULL_SHAPES = [
    (300, 300),   # all active, a partial tile of 44 rows
    (257, 257),   # a last tile of one row
    (130, 129),   # all but one
    (700, 40),    # mostly frozen: 40 rows span two column tiles
    (300, 1)]     # one active root


class TestAberthPull:
    @staticmethod
    def _brute_force(x, idx):
        out = np.empty(idx.size, dtype=np.complex128)
        for row, i in enumerate(idx):
            out[row] = np.sum(1.0 / (x[i] - np.delete(x, i)))
        return out

    @staticmethod
    def _float32_bound(x, idx):
        """Twice the error bound of each root's float32 pull (see
        ``test_float32_terms_match_brute_force``)."""
        u = 2.0 ** -24
        size = np.abs(x[idx, None]) + np.abs(x)
        with np.errstate(divide="ignore"):
            dist = 1.0 / np.abs(x[idx, None] - x)
        dist[np.arange(idx.size), idx] = 0.0
        return 2.0 * np.sum(np.sqrt(2.0) * u * size * dist ** 2
                            + 6.0 * u * dist, axis=1)

    @pytest.mark.parametrize("kn,active", _PULL_SHAPES)
    def test_matches_brute_force(self, kn, active):
        g = np.random.default_rng(kn + active)
        x = np.sqrt(g.random(kn)) * np.exp(2j * np.pi * g.random(kn))
        idx = np.sort(g.choice(kn, active, replace=False))
        ref = self._brute_force(x, idx)
        got = matpoly._aberth_pull(x, idx)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    @pytest.mark.parametrize("kn,active", _PULL_SHAPES + [
        (182, 182),   # float32 tiles of 181 rows: a last tile of one row
        (1500, 40)])  # 40 float32 rows span two column tiles
    def test_float32_terms_match_brute_force(self, kn, active):
        # Each term's error comes from rounding x_i, x_j to float32, at most
        # sqrt(2) u (|x_i| + |x_j|) in d, and from the few float32
        # operations that form conj(d) / |d|^2, at most 6 u relative.  A
        # tile's row and column sums are float32 too, and add a summation
        # error of a few u times the sum of the terms' moduli (under 3 u at
        # kn = 2048, below): the bound doubles both term errors, and the
        # second 6 u covers it.
        g = np.random.default_rng(kn + active)
        x = np.sqrt(g.random(kn)) * np.exp(2j * np.pi * g.random(kn))
        idx = np.sort(g.choice(kn, active, replace=False))
        ref = self._brute_force(x, idx)
        got = matpoly._aberth_pull(x, idx, np.float32)
        assert np.all(np.abs(got - ref) <= self._float32_bound(x, idx))

    @pytest.mark.parametrize("active", [2048, 512])
    def test_float32_sums_near_the_unit_circle(self, active):
        # The grow-k spectra: kn = 2048 roots within 1% of the unit circle,
        # so each pull sums the most terms, of like sizes and signs mixed.
        kn = 2048
        g = np.random.default_rng(active)
        x = ((1.0 + 0.01 * (g.random(kn) - 0.5))
             * np.exp(2j * np.pi * g.random(kn)))
        idx = np.sort(g.choice(kn, active, replace=False))
        ref = self._brute_force(x, idx)
        got = matpoly._aberth_pull(x, idx, np.float32)
        assert np.all(np.abs(got - ref) <= self._float32_bound(x, idx))

    def test_roots_equal_in_float32_give_non_finite_float32_pull(self):
        # 1 + 1e-9 rounds to 1 in float32, not in float64.
        x = np.array([1.0, 1.0 + 1e-9, 1j, -1.0, -1j])
        with np.errstate(all="ignore"):
            pull32 = matpoly._aberth_pull(x, np.arange(5), np.float32)
        pull = matpoly._aberth_pull(x, np.arange(5))
        assert not np.isfinite(pull32[:2]).any()
        assert np.isfinite(pull32[2:]).all()
        assert np.isfinite(pull).all()

    def test_non_finite_float32_pull_is_redone_in_float64(self, monkeypatch):
        # Every float32 pull has one root moved 1e-9 from the first active
        # root, so it is non-finite; each sweep redoes it in float64 from
        # the true roots, and the solve stays on the Ehrlich-Aberth route.
        pull = matpoly._aberth_pull
        dtypes = []

        def collided32(x, idx, dtype=np.float64):
            dtypes.append(dtype)
            if dtype is np.float32:
                x = x.copy()
                x[(idx[0] + 1) % x.size] = x[idx[0]] + 1e-9
            return pull(x, idx, dtype)

        p = sample_monic_gaussian(2, 64, RngStream(40))
        monkeypatch.setattr(matpoly, "_aberth_pull", collided32)
        calls = TestFiniteEigenvalues._count_dense_calls(monkeypatch)
        lams = finite_eigenvalues(p)
        assert calls == []
        assert dtypes and dtypes == [np.float32, np.float64] * (
            len(dtypes) // 2)
        assert match_distance(lams, eigenvalues(companion(p))) <= 1e-10

    def test_roots_closer_than_underflow_give_non_finite_pull(self):
        x = np.array([0.0, 1e-170, 1.0, 1j])
        with np.errstate(all="ignore"):
            pull = matpoly._aberth_pull(x, np.arange(4))
        assert not np.isfinite(pull[:2]).any()
        assert np.isfinite(pull[2:]).all()

    def test_non_finite_pull_falls_back_to_dense(self, monkeypatch):
        # Two roots pushed 1e-170 apart make |x_0 - x_1|^2 underflow: the
        # step is non-finite, so the solve returns None and the trial is
        # solved dense.
        pull = matpoly._aberth_pull

        def collided(x, idx, dtype=np.float64):
            y = x.copy()
            y[1] = y[0] + 1e-170
            return pull(y, idx, dtype)

        p = sample_monic_gaussian(2, 64, RngStream(40))
        monkeypatch.setattr(matpoly, "_aberth_pull", collided)
        assert matpoly._aberth_eigenvalues(p.stack) is None
        calls = TestFiniteEigenvalues._count_dense_calls(monkeypatch)
        finite_eigenvalues(p)
        assert calls == [(1, 128, 128)]


class TestAberthWorkingSet:
    """The pull works in fixed tiles, so the working set does not grow
    with kn; a solve is repeatable to the bit, and the tile size moves the
    roots, as a set, only at rounding level."""

    @pytest.mark.parametrize("n,k", [(4, 512), (16, 32), (2, 64)])
    @pytest.mark.parametrize("entries", [1, 2 ** 30])
    def test_roots_independent_of_pull_budget(self, monkeypatch, n, k,
                                              entries):
        # Tiles of one row, and one tile of all kn rows.  The tiles group
        # the float32 sums of the pull, so the roots move at rounding level,
        # and a start point may reach another root: compare as multisets.
        p = sample_monic_gaussian(n, k, RngStream(38, (n, k)))
        ref = matpoly._aberth_eigenvalues(p.stack)
        monkeypatch.setattr(matpoly, "_ABERTH_TILE", math.isqrt(entries))
        got = matpoly._aberth_eigenvalues(p.stack)
        assert ref is not None and got is not None
        assert match_distance(got, ref) <= k * n * EPS * np.abs(ref).max()

    @pytest.mark.parametrize("n,k", [(4, 512), (16, 32), (2, 64)])
    def test_solve_is_repeatable_and_accurate(self, n, k):
        p = sample_monic_gaussian(n, k, RngStream(38, (n, k)))
        ref = matpoly._aberth_eigenvalues(p.stack)
        got = matpoly._aberth_eigenvalues(p.stack)
        assert ref is not None
        assert np.array_equal(got.view(np.float64), ref.view(np.float64))
        assert backward_error(p, ref).max() <= 100.0 * k * n * EPS
        if k * n <= 512:
            # Dense QR at kn = 2048 takes about 18 s; the backward error
            # above is the check there.
            assert match_distance(ref, eigenvalues(companion(p))) <= 1e-10

    @pytest.mark.parametrize("n,k,mib", [(4, 512, 6), (16, 32, 5)])
    def test_traced_peak_of_one_solve(self, traced_peak, n, k, mib):
        # One solve peaks at about 3.2 MiB (n=4, k=512) and 4.6 MiB
        # (n=16, k=32): a pull tile, a power table and a block of P, P'.
        p = sample_monic_gaussian(n, k, RngStream(39, (n, k)))
        peak = traced_peak(matpoly._aberth_eigenvalues, p.stack)
        assert peak <= mib * 2 ** 20


class TestAccuracyChecks:
    def test_trace_error_of_exact_roots_is_zero(self):
        p = _scalar_poly(2.0, -3.0)  # (x - 1)(x - 2)
        assert trace_error(p, np.array([1.0, 2.0])) == 0.0

    def test_trace_error_sees_a_duplicated_root(self):
        p = _scalar_poly(2.0, -3.0)
        assert trace_error(p, np.array([1.0, 1.0])) == 1.0

    def test_backward_error_values(self):
        # x^2 - 1: exact at +-1; at 0, sigma_min(P(0)) = 1 over weights
        # ||C_0|| = 1, |x| ||C_1|| = 0, |x|^2 = 0.
        p = _scalar_poly(-1.0, 0.0)
        np.testing.assert_array_equal(
            backward_error(p, np.array([1.0, -1.0, 0.0])), [0.0, 0.0, 1.0])

    def test_backward_error_of_dense_spectrum_is_small(self):
        p = sample_monic_gaussian(3, 4, RngStream(36))
        ratios = backward_error(p, eigenvalues(companion(p)))
        assert ratios.shape == (12,)
        assert ratios.max() <= 100 * 12 * np.finfo(float).eps


class TestTrialEigenvalues:
    @pytest.mark.parametrize("n,k", [(4, 2), (8, 2), (16, 2), (32, 4),
                                     (2, 64), (4, 32)])
    def test_rows_match_per_trial_oracle(self, n, k):
        # (2, 64) and (4, 32) take the Ehrlich-Aberth route, the rest the
        # stacked dense solve; both must keep every bit of the per-trial path.
        rng = RngStream(32, (n, k))
        streams = [rng.child(t) for t in range(3)]
        got = matpoly.trial_eigenvalues(
            matpoly._trial_draws(rng, 0, 3, (k, n, n)))
        assert got.shape == (3, k * n)
        for row, stream in zip(got, streams):
            ref = finite_eigenvalues(sample_monic_gaussian(n, k, stream))
            assert np.array_equal(row.view(np.float64), ref.view(np.float64))

    @pytest.mark.parametrize("n,k,stacks", [(4, 2, [(5, 8, 8)]),
                                            (2, 64, [])])
    def test_dense_shapes_solve_one_stack(self, monkeypatch, n, k, stacks):
        calls = []

        def counted(m):
            calls.append(m.shape)
            return eigenvalues(m)

        monkeypatch.setattr(matpoly, "eigenvalues", counted)
        matpoly.trial_eigenvalues(
            matpoly._trial_draws(RngStream(33), 0, 5, (k, n, n)))
        assert calls == stacks

    def test_one_trial_falls_back_inside_a_stack(self, monkeypatch):
        # Trial 1 of an Ehrlich-Aberth stack fails its self-check: it alone
        # takes the dense route, with the bits of a one-trial dense solve,
        # and never through ``companion``; its neighbours keep their bits.
        n, k = 2, 64
        coeffs = matpoly._trial_draws(RngStream(37), 0, 3, (k, n, n))
        solve = matpoly._aberth_eigenvalues
        want = [solve(coeffs[0]),
                eigenvalues(matpoly._companion_stack(coeffs[1:2]))[0],
                solve(coeffs[2])]
        seen = []

        def failing_second(c):
            seen.append(c)
            return None if len(seen) == 2 else solve(c)

        def no_companion(p):
            raise AssertionError("the pipeline must not call companion()")

        monkeypatch.setattr(matpoly, "_aberth_eigenvalues", failing_second)
        monkeypatch.setattr(matpoly, "companion", no_companion)
        got = matpoly.trial_eigenvalues(coeffs)
        assert len(seen) == 3
        for row, ref in zip(got, want):
            assert np.array_equal(row.view(np.float64), ref.view(np.float64))

    def test_invalid_sizes_rejected(self):
        # n = 0 draws an empty stack, which the dense route rejects.
        with pytest.raises(ValidationError):
            matpoly.trial_eigenvalues(
                matpoly._trial_draws(RngStream(34), 0, 1, (2, 0, 0)))

    @pytest.mark.parametrize("shape", [(0, 2, 4, 4), (0, 40, 2, 2),
                                       (3, 40, 0, 0), (40, 2, 2)])
    def test_empty_or_misshapen_stack_rejected_on_both_routes(self, shape):
        # (0, 40, 2, 2) is an Ehrlich-Aberth shape, (0, 2, 4, 4) a dense one.
        with pytest.raises(ValidationError, match="stack"):
            matpoly.trial_eigenvalues(np.zeros(shape, dtype=np.complex128))


# ---------------------------------------------------------------------------
# Serialization


class TestPolynomialJson:
    def test_round_trip_exact(self):
        p = sample_monic_gaussian(3, 2, RngStream(30))
        q = polynomial_from_json(polynomial_to_json(p))
        assert q == p
        assert q.seed == p.seed

    def test_round_trip_without_seed(self):
        p = MatrixPolynomial(1, 2, (np.array([[1.0 + 2.0j]]),
                                    np.array([[-0.5]])))
        q = polynomial_from_json(polynomial_to_json(p))
        assert q == p
        assert q.seed is None

    def test_malformed_json_rejected(self):
        with pytest.raises(ValidationError):
            polynomial_from_json("{not json")
        with pytest.raises(ValidationError, match="must be an object"):
            polynomial_from_json('[2, 1, [[[0, 0]]]]')

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError):
            polynomial_from_json('{"n": 2, "coeffs": []}')

    def test_wrong_coefficient_count_rejected(self):
        with pytest.raises(ValidationError):
            polynomial_from_json('{"n": 1, "k": 2, "coeffs": [[[0, 0]]]}')

    def test_wrong_entry_count_rejected(self):
        doc = '{"n": 2, "k": 1, "coeffs": [[[0, 0]]]}'
        with pytest.raises(ValidationError):
            polynomial_from_json(doc)

    @pytest.mark.parametrize("field,value", [
        ("n", 1.9), ("n", "1"), ("n", True), ("k", "1"), ("k", 1.0),
        ("seed", 2.5), ("seed", "2"),
    ])
    def test_mistyped_size_or_seed_rejected(self, field, value):
        doc = {"n": 1, "k": 1, "seed": 2, "coeffs": [[[1, 0]]]}
        doc[field] = value
        with pytest.raises(ValidationError, match=f"'{field}' must be"):
            polynomial_from_json(json.dumps(doc))

    @pytest.mark.parametrize("entry", [[1, 0, 3], [1], [1, "0"], 1,
                                       [True, 0], None])
    def test_malformed_coefficient_entry_rejected(self, entry):
        doc = {"n": 1, "k": 1, "seed": None, "coeffs": [[entry]]}
        with pytest.raises(ValidationError, match=r"\[re, im\]"):
            polynomial_from_json(json.dumps(doc))
