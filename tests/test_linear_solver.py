import numpy as np
import pytest

from qnprox.errors import ConvergenceError, NumericsError
from qnprox.linear_solver import conjugate_residual
from qnprox.selftest import conjugate_residual_violation
from conftest import random_psd
from helpers import CountingMatrix


def allocating_conjugate_residual(apply_A, b, alpha):
    """The loop with fresh vectors per update and two norms per iteration,
    kept to check that the in-place loop does the same arithmetic."""
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

    def test_same_arithmetic_as_allocating_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            d = int(rng.integers(2, 40))
            A = np.eye(d) + rng.uniform(0.1, 50.0) * random_psd(rng, d)
            b = rng.standard_normal(d)
            alpha = rng.uniform(0.01, 0.5)
            result = conjugate_residual(lambda v: A @ v, b, alpha)
            s, iterations, matvecs, history = allocating_conjugate_residual(
                lambda v: A @ v, b, alpha)
            assert np.array_equal(result.s, s)
            assert result.iterations == iterations
            assert result.matvecs == matvecs
            assert result.residual_history == history

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
    def test_one_fresh_matvec_per_iteration_plus_start(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = 15
            A = (np.eye(d) + 3.0 * random_psd(rng, d)).view(CountingMatrix)
            b = rng.standard_normal(d)
            result = conjugate_residual(lambda v: A @ v, b, alpha=0.05)
            assert result.iterations >= 1
            assert A.products == result.iterations + 1
            assert A.products == result.matvecs

    def test_max_iters_exceeded_carries_best_iterate(self):
        rng = np.random.default_rng(9)
        d = 30
        A = np.eye(d) + 10.0 * random_psd(rng, d)
        b = rng.standard_normal(d)
        with pytest.raises(ConvergenceError) as exc_info:
            conjugate_residual(lambda v: A @ v, b, alpha=1e-12, max_iters=2)
        best = exc_info.value.best
        assert best is not None and best.shape == (d,)

    def test_breakdown_raises_numerics_error(self):
        # an operator that annihilates everything never passes the test and
        # immediately hits the <Ap, Ap> floor
        b = np.ones(3)
        with pytest.raises(NumericsError):
            conjugate_residual(lambda v: np.zeros(3), b, alpha=0.5)
