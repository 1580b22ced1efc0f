import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnprox.errors import ConvergenceError, NumericsError
from qnprox.linear_solver import (KrylovBasis, ShiftedOperator,
                                  conjugate_residual)
from qnprox.selftest import conjugate_residual_violation
from conftest import random_psd
from helpers import CountingMatrix


def allocating_conjugate_residual(apply_A, b, alpha):
    """The conjugate residual recurrence, with fresh vectors per update and
    two norms per iteration: the reference the Lanczos-based solver must
    agree with, since CR and MINRES give the same iterates in exact
    arithmetic."""
    s, r = np.zeros_like(b), b.copy()
    p = Ar = Ap = None
    iterations = matvecs = 0
    history = [float(np.linalg.norm(r))]
    while float(np.linalg.norm(r)) > alpha * float(np.linalg.norm(s)):
        if p is None:
            p, Ar = r.copy(), apply_A(r)
            Ap = Ar.copy()
            matvecs += 1
        r_Ar = float(r @ Ar)
        step = r_Ar / float(Ap @ Ap)
        s = s + step * p
        r = r - step * Ap
        Ar_next = apply_A(r)
        matvecs += 1
        beta = float(r @ Ar_next) / r_Ar
        p = r + beta * p
        Ap = Ar_next + beta * Ap
        Ar = Ar_next
        iterations += 1
        history.append(float(np.linalg.norm(r)))
    return s, iterations, matvecs, tuple(history)


class TestContract:
    def test_identity_single_step(self):
        b = np.zeros(4)
        b[0] = 1.0
        result = conjugate_residual(lambda v: v.copy(), b, alpha=0.5)
        assert result.iterations == 1
        assert np.allclose(result.s, b)
        assert result.residual_history[-1] == 0.0

    def test_zero_rhs_returns_immediately(self):
        A = np.eye(5).view(CountingMatrix)
        result = conjugate_residual(lambda v: A @ v, np.zeros(5), alpha=0.3)
        assert result.iterations == 0
        assert np.array_equal(result.s, np.zeros(5))
        assert result.matvecs == A.products == 0

    def test_random_shifted_operator_matches_dense_solve(self):
        rng = np.random.default_rng(42)
        d, eta, alpha = 10, 5.0, 0.1
        for _ in range(20):
            B = random_psd(rng, d, top=1.0)
            A = np.eye(d) + eta * B
            b = rng.standard_normal(d)
            result = conjugate_residual(lambda v: A @ v, b, alpha)
            res = np.linalg.norm(A @ result.s - b)
            assert res <= alpha * np.linalg.norm(result.s) + 1e-14
            # A >= I makes ||s - s*|| <= ||A(s - s*)|| = ||As - b||
            s_star = np.linalg.solve(A, b)
            assert (np.linalg.norm(result.s - s_star)
                    <= alpha * np.linalg.norm(result.s) + 1e-12)

    def test_alpha_validation(self):
        for alpha in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                conjugate_residual(lambda v: v, np.ones(3), alpha)


class TestConvergenceLemmas:
    def test_residual_bound_every_iteration_100_seeds(self):
        # ||r_k|| <= lambda_max(A) ||s*|| / (k + 1)^2 for all k
        alpha = 0.05
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(5, 51))
            A = np.eye(d) + rng.uniform(0.1, 10.0) * random_psd(rng, d)
            b = rng.standard_normal(d)
            result = conjugate_residual(lambda v: A @ v, b, alpha)
            assert conjugate_residual_violation(result, A, b, alpha) is None

    def test_termination_count_bound(self):
        alpha = 0.1
        for seed in range(50):
            rng = np.random.default_rng(seed + 1000)
            d = 20
            A = np.eye(d) + rng.uniform(0.1, 10.0) * random_psd(rng, d)
            b = rng.standard_normal(d)
            result = conjugate_residual(lambda v: A @ v, b, alpha)
            assert conjugate_residual_violation(result, A, b, alpha) is None

    def test_one_step_termination_for_small_eta(self):
        # eta <= alpha / (2 L1) forces acceptance after a single iteration
        rng = np.random.default_rng(3)
        d, L1, alpha = 12, 3.0, 0.25
        for _ in range(20):
            B = random_psd(rng, d, top=L1)
            eta = alpha / (2.0 * L1)
            A = np.eye(d) + eta * B
            b = rng.standard_normal(d)
            result = conjugate_residual(lambda v: A @ v, b, alpha)
            assert result.iterations <= 1


class TestAccountingAndErrors:
    def test_one_fresh_matvec_per_iteration(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = 15
            A = (np.eye(d) + 3.0 * random_psd(rng, d)).view(CountingMatrix)
            b = rng.standard_normal(d)
            result = conjugate_residual(lambda v: A @ v, b, alpha=0.05)
            assert result.iterations >= 1
            assert A.products == result.iterations == result.matvecs

    def test_max_iters_exceeded_carries_best_iterate(self):
        rng = np.random.default_rng(9)
        d = 30
        A = np.eye(d) + 10.0 * random_psd(rng, d)
        b = rng.standard_normal(d)
        with pytest.raises(ConvergenceError) as exc_info:
            conjugate_residual(lambda v: A @ v, b, alpha=1e-12, max_iters=2)
        best = exc_info.value.best
        assert best is not None and best.shape == (d,)

    def test_non_finite_operator_raises_numerics_error(self):
        B = np.full((4, 4), np.nan)
        with pytest.raises(NumericsError, match="nan"):
            conjugate_residual(lambda v: B @ v, np.ones(4), alpha=0.1)

    def test_breakdown_raises_numerics_error(self):
        # an operator that annihilates everything never passes the test and
        # gives the QR a zero pivot at once
        b = np.ones(3)
        with pytest.raises(NumericsError):
            conjugate_residual(lambda v: np.zeros(3), b, alpha=0.5)


class TestSharedBasis:
    @settings(max_examples=80)
    @given(d=st.integers(2, 30), seed=st.integers(0, 2 ** 32 - 1),
           alpha=st.floats(0.01, 0.5), top=st.floats(0.1, 10.0),
           reach=st.floats(1e-3, 8.0), beta=st.floats(0.2, 0.9),
           trials=st.integers(1, 8))
    def test_trials_on_one_basis_match_fresh_conjugate_residual(
            self, d, seed, alpha, top, reach, beta, trials):
        # a line search's trials: one B and g, falling eta0 beta^j.  eta0
        # ||B|| <= 8 keeps cond(I + eta B) <= 9, where the recurrence CR
        # is accurate enough to serve as the reference
        rng = np.random.default_rng(seed)
        B = random_psd(rng, d, top=top).view(CountingMatrix)
        g = rng.standard_normal(d)
        basis = KrylovBasis(lambda v: B @ v, g)
        dimensions, matvecs = [], 0
        for j in range(trials):
            eta = reach / top * beta ** j
            A = np.eye(d) + eta * np.asarray(B)
            b = -eta * g
            result = conjugate_residual(ShiftedOperator(basis, eta), b,
                                        alpha)
            assert (np.linalg.norm(A @ result.s - b)
                    <= alpha * np.linalg.norm(result.s) + 1e-14)
            s, iterations, _, _ = allocating_conjugate_residual(
                lambda v: A @ v, b, alpha)
            assert result.iterations == iterations
            assert (np.linalg.norm(result.s - s)
                    <= 1e-10 * np.linalg.norm(s))
            dimensions.append(result.iterations)
            matvecs += result.matvecs
        assert matvecs == B.products == max(dimensions) == basis.size

    def test_refuses_a_right_hand_side_off_the_start(self):
        rng = np.random.default_rng(4)
        B = random_psd(rng, 6)
        g = rng.standard_normal(6)
        basis = KrylovBasis(lambda v: B @ v, g)
        with pytest.raises(ValueError, match="start vector"):
            conjugate_residual(ShiftedOperator(basis, 1.0),
                               rng.standard_normal(6), 0.1)
        assert basis.size == 0

    def test_buffer_grows_only_with_the_basis(self):
        d = 200
        B = np.diag(np.linspace(1.0, 100.0, d))
        basis = KrylovBasis(lambda v: B @ v, np.ones(d))
        for size in range(1, 41):
            basis.extend()
            assert basis.size == size
            assert size < basis.vectors.shape[0] <= max(8, 2 * size)
            Q = basis.vectors[:size + 1]
            assert np.allclose(Q @ Q.T, np.eye(size + 1), atol=1e-12)


class TestImage:
    """``KrylovBasis.image(c)`` is M (c @ Q_k), read off the Lanczos relation
    with no product with M."""

    @staticmethod
    def counted_basis(M, start):
        M = M.view(CountingMatrix)
        return KrylovBasis(lambda v: M @ v, start), M

    @staticmethod
    def assert_image(basis, M, c):
        products = M.products
        image = basis.image(c)
        assert M.products == products
        expected = np.asarray(M) @ (c @ basis.vectors[:c.shape[0]])
        assert (np.linalg.norm(image - expected)
                <= 1e-12 * np.linalg.norm(expected))

    @pytest.mark.parametrize("d", [1, 2, 7, 30])
    def test_matches_the_product_at_every_dimension(self, d):
        # every dimension 1..d on one basis, the last one k = d, where the
        # basis is invariant and holds no row d; at d = 30 the buffer grew
        # past INITIAL_ROWS.  Earlier dimensions are read again once the
        # basis has grown past them
        rng = np.random.default_rng(d)
        basis, M = self.counted_basis(random_psd(rng, d, top=3.0),
                                      rng.standard_normal(d))
        for k in range(1, d + 1):
            basis.extend()
            assert basis.size == k
            self.assert_image(basis, M, rng.standard_normal(k))
            j = int(rng.integers(1, k + 1))
            self.assert_image(basis, M, rng.standard_normal(j))
        assert basis.invariant and basis.betas[-1] == 0.0
        assert basis.vectors.shape[0] == d
        assert M.products == d

    def test_rank_deficient_operator_reads_only_the_set_rows(self):
        # a rank-5 M in d = 20: the basis is invariant at a dimension k < d
        # with betas[k-1] = 0, and its row k is unset, here filled with NaN
        rng = np.random.default_rng(11)
        d, rank = 20, 5
        U, _ = np.linalg.qr(rng.standard_normal((d, d)))
        spectrum = np.zeros(d)
        spectrum[:rank] = rng.uniform(0.5, 2.0, rank)
        basis, M = self.counted_basis((U * spectrum) @ U.T,
                                      rng.standard_normal(d))
        while not basis.invariant:
            basis.extend()
        k = basis.size
        assert k < d and basis.betas[-1] == 0.0
        basis.vectors[k:] = np.nan
        for j in range(1, k + 1):
            self.assert_image(basis, M, rng.standard_normal(j))

    def test_solve_coefficients_give_the_iterate_and_its_product(self):
        # the line search's read-out: trials on one basis keep their
        # coordinates, s is their combination of the basis, and the image
        # is B s
        rng = np.random.default_rng(12)
        d = 40
        basis, B = self.counted_basis(random_psd(rng, d, top=5.0),
                                      rng.standard_normal(d))
        g = basis.vectors[0] * basis.start_norm
        for eta in (4.0, 1.0, 0.25):
            result = conjugate_residual(ShiftedOperator(basis, eta),
                                        -eta * g, 0.1)
            k = result.iterations
            assert result.coefficients.shape == (k,)
            assert np.array_equal(result.s,
                                  result.coefficients @ basis.vectors[:k])
            self.assert_image(basis, B, result.coefficients)
