import numpy as np
import pytest

from qnprox import CountingOracle, NumericsError
from qnprox.selftest import symmetrize
from helpers import CountingMatrix, QuadraticObjective


class TestMatvec:
    """The counted product that audits each stage's reported matvecs: a
    ``CountingMatrix`` view multiplies exactly like the plain matrix, keeps
    numpy's shape errors, and counts every product."""

    def test_identity(self):
        M = np.eye(3).view(CountingMatrix)
        v = np.array([1.0, 2.0, 3.0])
        out = M @ v
        assert np.array_equal(out, v)
        assert type(out) is np.ndarray
        assert M.products == 1

    def test_zero_matrix(self):
        out = np.zeros((4, 4)).view(CountingMatrix) @ np.array(
            [1.0, -2.0, 3.0, 4.0])
        assert np.array_equal(out, np.zeros(4))

    def test_matches_naive_double_loop_exactly(self):
        # integer-valued entries keep every summation order exact, so the
        # comparison against the naive oracle is bitwise
        rng = np.random.default_rng(5)
        M = rng.integers(-8, 9, size=(5, 5)).astype(float)
        M = symmetrize(M + M.T)
        v = rng.integers(-8, 9, size=5).astype(float)
        expected = np.empty(5)
        for i in range(5):
            acc = 0.0
            for j in range(5):
                acc += M[i, j] * v[j]
            expected[i] = acc
        assert np.array_equal(M.view(CountingMatrix) @ v, expected)

    def test_float_case_close(self):
        rng = np.random.default_rng(6)
        M = symmetrize(rng.standard_normal((5, 5)))
        v = rng.standard_normal(5)
        naive = np.array([sum(M[i, j] * v[j] for j in range(5))
                          for i in range(5)])
        counted = M.view(CountingMatrix) @ v
        assert np.array_equal(counted, M @ v)
        assert np.allclose(counted, naive, rtol=1e-14, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            np.eye(3).view(CountingMatrix) @ np.ones(4)
        with pytest.raises(ValueError):
            np.ones((3, 4)).view(CountingMatrix) @ np.ones(3)


class TestSymmetrize:
    def test_bit_exact_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            M = symmetrize(rng.standard_normal((7, 7)))
            assert np.max(np.abs(M - M.T)) == 0.0


class TestCountingOracle:
    def test_gradient_counting_and_monotonicity(self):
        oracle = CountingOracle(QuadraticObjective(np.eye(3)))
        seen = []
        for _ in range(5):
            oracle.gradient(np.ones(3))
            seen.append(oracle.counters.gradient_queries)
        assert seen == [1, 2, 3, 4, 5]
        oracle.value(np.ones(3))
        assert oracle.counters.gradient_queries == 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_raises(self, bad):
        # and a non-finite value, through the same parametrization
        class Broken:
            dimension = 3

            def value(self, x):
                return bad

            def gradient(self, x):
                return np.array([0.0, bad, 0.0])

        with pytest.raises(NumericsError, match="gradient"):
            CountingOracle(Broken()).gradient(np.ones(3))
        with pytest.raises(NumericsError, match="value"):
            CountingOracle(Broken()).value(np.ones(3))

    def test_counts_reproducible_across_seeded_runs(self, small_logistic):
        from qnprox import SolverConfig, solve

        counts = []
        for _ in range(2):
            record = solve(small_logistic, np.zeros(small_logistic.dimension),
                           config=SolverConfig(max_iters=30, seed=3))
            counts.append((record.rows[-1].grad_queries,
                           record.rows[-1].matvecs))
        assert counts[0] == counts[1]
