"""Unit and property tests for the dense linear algebra kernel."""

import math

import numpy as np
import pytest
import scipy.linalg

from rmpoly import (
    ConvergenceError,
    RngStream,
    ValidationError,
    SingularUpdateError,
    complex_gaussian,
    eigenvalues,
    log_abs_det,
    match_distance,
    singular_values,
    spectral_norm,
    woodbury_inverse,
)


def _gaussian(seed, m, n):
    return complex_gaussian(RngStream(seed, (90,)), (m, n))


# ---------------------------------------------------------------------------
# Norms


class TestNorms:
    def test_frobenius_matches_singular_value_l2(self):
        g = _gaussian(101, 3, 3)
        s = singular_values(g)
        assert np.linalg.norm(g, "fro") == pytest.approx(
            math.sqrt(float(np.sum(s ** 2))), abs=1e-12)

    def test_spectral_norm_diagonal(self):
        assert spectral_norm(np.diag([2.0, 3.0])) == pytest.approx(
            3.0, abs=1e-14)

    def test_spectral_norm_is_top_singular_value(self):
        g = _gaussian(102, 4, 2)
        top = np.linalg.svd(g, compute_uv=False)[0]
        assert spectral_norm(g) == float(top)

    def test_norm_inequalities_sweep(self):
        # ||X|| <= ||X||_F and ||X|| <= sqrt(||X||_1 ||X||_inf), with
        # 1e-12 relative slack, over >= 1000 random rectangular instances.
        rng = RngStream(7, (90, 1)).generator()
        for _ in range(1000):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            g = complex_gaussian(rng, (m, n))
            top = spectral_norm(g)
            slack = 1e-12 * max(top, 1.0)
            assert top <= np.linalg.norm(g, "fro") + slack
            assert top <= math.sqrt(np.linalg.norm(g, 1)
                                    * np.linalg.norm(g, np.inf)) + slack

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            spectral_norm([[1.0, float("nan")]])
        with pytest.raises(ValidationError):
            singular_values([[np.inf, 0.0]])

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValidationError):
            spectral_norm([1.0, 2.0])


# ---------------------------------------------------------------------------
# Singular values


class TestSvd:
    def test_sorted_diagonal(self):
        np.testing.assert_allclose(singular_values(np.diag([1.0, 2.0])),
                                   [2.0, 1.0], atol=1e-14)

    def test_zero_matrix(self):
        assert np.all(singular_values(np.zeros((3, 2))) == 0.0)

    def test_nilpotent_jordan_block(self):
        np.testing.assert_allclose(singular_values([[0.0, 1.0], [0.0, 0.0]]),
                                   [1.0, 0.0], atol=1e-14)

    def test_singular_values_agree_with_full_svd(self):
        g = _gaussian(203, 6, 4)
        np.testing.assert_allclose(singular_values(g),
                                   np.linalg.svd(g, compute_uv=False),
                                   atol=1e-12)


    @pytest.mark.parametrize("shape", [(4, 6, 3), (2, 3, 5, 5)])
    def test_stack_matches_per_matrix_bits(self, shape):
        stack = complex_gaussian(RngStream(204, (90,)), shape)
        got = singular_values(stack)
        assert got.shape == shape[:-2] + (min(shape[-2:]),)
        flat = got.reshape(-1, got.shape[-1])
        for row, m in zip(flat, stack.reshape((-1,) + shape[-2:])):
            assert np.array_equal(row, singular_values(m))

    def test_nan_in_one_stacked_matrix_rejected(self):
        stack = complex_gaussian(RngStream(205, (90,)), (3, 4, 2))
        stack[2, 1, 0] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            singular_values(stack)

    @pytest.mark.parametrize("shape", [(0, 3, 3), (3, 0, 4), (2, 3, 0)])
    def test_empty_stack_rejected(self, shape):
        with pytest.raises(ValidationError, match="empty"):
            singular_values(np.ones(shape))

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_fewer_than_two_axes_rejected(self, shape):
        with pytest.raises(ValidationError, match="ndim"):
            singular_values(np.ones(shape))

    @staticmethod
    def _no_convergence(*_args, **_kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    def test_fallback_uses_gesvd_and_matches_numpy(self, monkeypatch):
        stack = complex_gaussian(RngStream(206, (90,)), (3, 6, 4))
        expected = np.linalg.svd(stack, compute_uv=False)
        drivers = []
        scipy_svd = scipy.linalg.svd

        def spy(m, **kwargs):
            drivers.append(kwargs.get("lapack_driver"))
            return scipy_svd(m, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", self._no_convergence)
        monkeypatch.setattr(scipy.linalg, "svd", spy)
        got = singular_values(stack)
        # Another gesdd call would fail the same way numpy's did.
        assert drivers == ["gesvd"] * 3
        assert got.shape == expected.shape
        for row, ref in zip(got, expected):
            assert np.max(np.abs(row - ref)) <= 1e-13 * ref[0]

    def test_fallback_failure_is_a_convergence_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", self._no_convergence)
        monkeypatch.setattr(scipy.linalg, "svd", self._no_convergence)
        with pytest.raises(ConvergenceError, match="did not converge"):
            singular_values(_gaussian(207, 4, 4))


# ---------------------------------------------------------------------------
# Eigenvalues


class TestEigenvalues:
    def test_diagonal(self):
        spec = eigenvalues(np.diag([1.0 + 1.0j, 2.0]))
        assert match_distance(spec, [1.0 + 1.0j, 2.0]) <= 1e-14

    def test_scalar_quadratic_companion(self):
        # Companion matrix of x^2 - 1 has spectrum {1, -1}.
        comp = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert match_distance(eigenvalues(comp), [1.0, -1.0]) <= 1e-12

    def test_quarter_turn_rotation(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert match_distance(eigenvalues(rot), [1.0j, -1.0j]) <= 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            eigenvalues(np.zeros((2, 3)))

    def test_lapack_failure_is_a_convergence_error(self, monkeypatch):
        def no_convergence(_a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        with pytest.raises(ConvergenceError, match="3x3 matrix"):
            eigenvalues(np.eye(3))

    def test_stack_matches_per_matrix_bits(self):
        stack = complex_gaussian(RngStream(35, (90,)), (4, 6, 6))
        got = eigenvalues(stack)
        assert got.shape == (4, 6)
        for row, m in zip(got, stack):
            assert np.array_equal(row.view(np.float64),
                                  eigenvalues(m).view(np.float64))

    def test_nan_in_one_stacked_matrix_rejected(self):
        stack = complex_gaussian(RngStream(36, (90,)), (3, 4, 4))
        stack[1, 2, 3] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            eigenvalues(stack)

    @pytest.mark.parametrize("shape", [(3, 2, 3), (2, 2, 4, 3), (3,)])
    def test_non_square_stack_rejected(self, shape):
        with pytest.raises(ValidationError, match="square"):
            eigenvalues(np.ones(shape))

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 4, 4)])
    def test_empty_stack_rejected(self, shape):
        with pytest.raises(ValidationError, match="empty"):
            eigenvalues(np.ones(shape))

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_scalar_companion_matches_root_finder(self, degree):
        # Scalar monic polynomials of degree <= 4: the companion spectrum
        # must match an independent root finder within 1e-8 after pairing.
        rng = RngStream(8, (90, 2, degree)).generator()
        for _ in range(25):
            coeffs = complex_gaussian(rng, (degree,))
            comp = np.zeros((degree, degree), dtype=np.complex128)
            comp[0, :] = -coeffs[::-1]
            if degree > 1:
                comp[np.arange(1, degree), np.arange(degree - 1)] = 1.0
            # np.roots takes [1, c_{k-1}, ..., c_0] for the monic polynomial.
            roots = np.roots(np.concatenate(([1.0], coeffs[::-1])))
            assert match_distance(eigenvalues(comp), roots) <= 1e-8

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_abs_det_three_ways(self, dim):
        # |det X| = prod sigma_i = prod |lambda_i| within 1e-8 relative.
        g = _gaussian(300 + dim, dim, dim)
        log_sv = float(np.sum(np.log(singular_values(g))))
        log_ev = float(np.sum(np.log(np.abs(eigenvalues(g)))))
        log_lu = log_abs_det(g)
        assert log_sv == pytest.approx(log_ev, abs=1e-8 * max(1, abs(log_sv)))
        assert log_sv == pytest.approx(log_lu, abs=1e-8 * max(1, abs(log_sv)))


# ---------------------------------------------------------------------------
# Woodbury inversion


class TestWoodburyInverse:
    def test_zero_update_returns_a_inverse(self):
        ai = np.linalg.inv(_gaussian(500, 3, 3))
        u = np.zeros((3, 1))
        v = np.zeros((1, 3))
        np.testing.assert_allclose(woodbury_inverse(ai, u, v), ai, atol=1e-14)

    def test_rank_one_update_matches_dense_inverse(self):
        a = _gaussian(501, 3, 3) + 3.0 * np.eye(3)
        u = _gaussian(502, 3, 1)
        v = _gaussian(503, 1, 3)
        got = woodbury_inverse(np.linalg.inv(a), u, v)
        np.testing.assert_allclose(got, np.linalg.inv(a + u @ v), atol=1e-10)

    def test_identity_update(self):
        eye = np.eye(4, dtype=np.complex128)
        np.testing.assert_allclose(woodbury_inverse(eye, eye, eye), eye / 2.0,
                                   atol=1e-14)

    def test_singular_capacitance_reported(self):
        # A = I, U = V = I, but with V = -I: I + V A^-1 U = 0.
        eye = np.eye(2, dtype=np.complex128)
        with pytest.raises(SingularUpdateError) as err:
            woodbury_inverse(eye, eye, -eye)
        assert err.value.sigma_min == pytest.approx(0.0, abs=1e-12)

    def test_nonconformal_rejected(self):
        with pytest.raises(ValidationError):
            woodbury_inverse(np.eye(3), np.zeros((2, 1)), np.zeros((1, 3)))

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_random_low_rank_updates(self, p):
        rng = RngStream(9, (90, 3, p)).generator()
        for _ in range(50):
            a = complex_gaussian(rng, (6, 6)) + 4.0 * np.eye(6)
            u = complex_gaussian(rng, (6, p))
            v = complex_gaussian(rng, (p, 6))
            got = woodbury_inverse(np.linalg.inv(a), u, v)
            np.testing.assert_allclose(got, np.linalg.inv(a + u @ v),
                                       atol=1e-9)


# ---------------------------------------------------------------------------
# Log |det|


class TestLogAbsDet:
    def test_identity(self):
        assert log_abs_det(np.eye(5)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        assert log_abs_det(np.diag([2.0, 3.0])) == pytest.approx(
            math.log(6.0), abs=1e-13)

    def test_svd_route_matches_lu_route(self):
        g = _gaussian(600, 4, 4)
        log_sv = np.sum(np.log(np.linalg.svd(g, compute_uv=False)))
        assert log_abs_det(g) == pytest.approx(log_sv, abs=1e-8)

    def test_singular_input_warns_and_returns_minus_inf(self):
        with pytest.warns(RuntimeWarning):
            assert log_abs_det(np.zeros((2, 2))) == float("-inf")


# ---------------------------------------------------------------------------
# Multiset distance


class TestMatchDistance:
    def test_identical(self):
        assert match_distance([1.0, 2.0j], [1.0, 2.0j]) == 0.0
        assert match_distance([], np.empty((0, 2))) == 0.0

    def test_permutation_invariant(self):
        a = np.array([1.0, 2.0, 3.0j])
        assert match_distance(a, a[::-1]) == 0.0

    def test_uniform_shift(self):
        a = np.array([0.0, 1.0, 1.0j])
        assert match_distance(a, a + 1e-3) == pytest.approx(1e-3, rel=1e-9)

    def test_cardinality_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            match_distance([1.0], [1.0, 2.0])

    def test_prefers_optimal_pairing(self):
        # Positional comparison would report 2; optimal pairing reports 0.
        assert match_distance([1.0, -1.0], [-1.0, 1.0]) == 0.0
