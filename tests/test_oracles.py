import numpy as np
import pytest

from qnprox import CountingOracle, NumericsError, SolverConfig, solve
from qnprox.oracles import (PROBE_ACCURACY, PROBE_FAILURE, PROBES,
                            estimate_smoothness)
from qnprox.separation import lanczos_steps
from qnprox.selftest import symmetrize
from conftest import make_logistic
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


class GradientCounter:
    """An objective with a ``gradient`` and no ``hessian``, counting its
    gradient calls."""

    def __init__(self, dimension, gradient):
        self.dimension = dimension
        self.inner = gradient
        self.calls = 0

    def gradient(self, x):
        self.calls += 1
        return self.inner(x)


class TestEstimateSmoothness:
    def test_isotropic_quadratic(self):
        estimate = estimate_smoothness(QuadraticObjective(np.eye(6)),
                                       np.zeros(6), seed=0)
        assert 1.0 <= estimate <= 1.1 + 1e-12

    def test_diagonal_quadratic(self):
        estimate = estimate_smoothness(QuadraticObjective(np.diag([1.0, 4.0])),
                                       np.zeros(2), seed=0)
        assert 4.0 <= estimate <= 4.4 + 1e-12

    def test_near_degenerate_top_pair_is_exact(self):
        # eigenvalues 1 and 0.995 on top: 100 power steps from a random
        # start stop well below 1, a dense eigensolve does not
        rng = np.random.default_rng(4)
        V, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        Q = (V * np.array([1.0, 0.995, 0.7, 0.5, 0.3, 0.2, 0.1, 0.0])) @ V.T
        objective = QuadraticObjective(Q)
        estimate = estimate_smoothness(objective, np.zeros(8), seed=0)
        want = 1.1 * objective.smoothness
        assert abs(estimate - want) <= 1e-12 * want

    def test_logistic_matches_dense_eig_at_probe_points(self):
        objective = make_logistic(200, 20, seed=11)
        seed = 123
        x0 = np.zeros(objective.dimension)
        estimate = estimate_smoothness(objective, x0, seed=seed)
        # dense-eigendecomposition oracle at the same probe points (the
        # estimator draws them up front from the seed) and at x0
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((PROBES, objective.dimension))
        dense = max(float(np.linalg.eigvalsh(objective.hessian(x))[-1])
                    for x in (*points, x0))
        assert abs(estimate - dense) <= 0.1 * dense * (1.0 + 1e-9)

    def test_gradient_only_fallback(self):
        class GradientOnly:
            dimension = 3

            def value(self, x):
                return 0.5 * float(x @ (np.diag([1.0, 2.0, 5.0]) @ x))

            def gradient(self, x):
                return np.diag([1.0, 2.0, 5.0]) @ x

        estimate = estimate_smoothness(GradientOnly(), np.zeros(3), seed=1)
        assert 4.9 <= estimate <= 5.5 + 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_only_probe_is_exact(self, seed):
        # the top pair 1, 0.995 that stalls power iteration, as above: the
        # Lanczos read-out on gradient differences is as exact as a Hessian's
        rng = np.random.default_rng(4)
        V, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        Q = (V * np.array([1.0, 0.995, 0.7, 0.5, 0.3, 0.2, 0.1, 0.0])) @ V.T
        estimate = estimate_smoothness(GradientCounter(8, lambda x: Q @ x),
                                       np.zeros(8), seed=seed)
        want = 1.1 * float(np.linalg.eigvalsh(Q)[-1])
        assert abs(estimate - want) <= 1e-9 * want

    def test_probe_cost(self):
        # at most d products of two gradients each per point, and none with
        # a hessian
        d = 3
        quadratic = QuadraticObjective(np.diag([1.0, 2.0, 5.0]))
        objective = GradientCounter(d, quadratic.gradient)
        estimate_smoothness(objective, np.zeros(d), seed=0)
        assert objective.calls <= 2 * d * (PROBES + 1)

        counted = GradientCounter(d, quadratic.gradient)
        counted.hessian = quadratic.hessian
        estimate_smoothness(counted, np.zeros(d), seed=0)
        assert counted.calls == 0

    def test_gradient_only_probe_takes_the_random_start_count(self):
        # each point's basis stops at the Kuczynski-Wozniakowski count k,
        # below d = 300: at most k products of two gradient calls a point
        d = 300
        k = lanczos_steps(d, PROBE_FAILURE, PROBE_ACCURACY)
        assert k < d
        diagonal = np.linspace(0.0, 2.0, d)
        objective = GradientCounter(d, lambda x: diagonal * x)
        estimate = estimate_smoothness(objective, np.zeros(d), seed=0)
        assert objective.calls <= 2 * k * (PROBES + 1)
        assert 2.0 <= estimate <= 2.2 + 1e-9

    def test_non_finite_probe_point_raises(self):
        # gradient 3 x inside the unit ball and NaN outside: the random probe
        # points lie outside, and must not be dropped in favour of x0's 3.3
        def gradient(x):
            if np.linalg.norm(x) > 1.0:
                return np.full_like(x, np.nan)
            return 3.0 * x

        with pytest.raises(NumericsError, match="curvature estimate at "
                                                "probe point 2:"):
            estimate_smoothness(GradientCounter(4, gradient), np.zeros(4),
                                seed=0)
        # so solve() stops before iteration 0 instead of running on L1 = 3.3
        reports = []
        with pytest.raises(NumericsError, match="curvature estimate"):
            solve(GradientCounter(4, gradient), np.zeros(4),
                  config=SolverConfig(max_iters=5), observer=reports.append)
        assert reports == []

    def test_probe_gradient_of_wrong_shape_stops_before_iteration_0(self):
        # a 7-entry gradient for d = 6 gets the counting oracle's named
        # error, not numpy's
        reports = []
        with pytest.raises(ValueError, match=r"gradient oracle returned "
                                             r"shape \(7,\), expected "
                                             r"\(6,\)"):
            solve(GradientCounter(6, lambda x: np.zeros(7)), np.zeros(6),
                  config=SolverConfig(max_iters=5), observer=reports.append)
        assert reports == []

    def test_probe_nan_gradient_names_the_probe_point(self):
        with pytest.raises(NumericsError, match="curvature estimate at probe "
                           "point 1: gradient oracle returned a non-finite "
                           "entry"):
            solve(GradientCounter(6, lambda x: np.full(6, np.nan)),
                  np.zeros(6), config=SolverConfig(max_iters=5))

    def test_probe_queries_are_not_counted(self):
        # the probe's gradients reach the objective but not the counters,
        # so the trace counts the solve's queries alone
        quadratic = QuadraticObjective(np.diag([1.0, 2.0, 5.0]))
        objective = GradientCounter(3, quadratic.gradient)
        objective.value = quadratic.value
        oracle = CountingOracle(objective)
        record = solve(oracle, np.ones(3), config=SolverConfig(max_iters=5))
        probe_calls = objective.calls - oracle.counters.gradient_queries
        assert 0 < probe_calls <= 2 * 3 * (PROBES + 1)
        assert record.rows[-1].grad_queries == oracle.counters.gradient_queries
