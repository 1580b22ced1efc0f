import math
import tracemalloc

import numpy as np
import pytest

import qnprox.line_search
from qnprox import CountingOracle
from qnprox.errors import ConfigurationError
from qnprox.line_search import ALPHA1, ALPHA2, BETA, backtracking_search
from qnprox.selftest import backtrack_violation
from conftest import make_logistic, random_psd
from helpers import CountingMatrix, QuadraticObjective


def conditions_hold(outcome, y, g, B, eta_hat):
    lhs_solver = np.linalg.norm(
        outcome.x_hat - y + eta_hat * (g + B @ (outcome.x_hat - y)))
    lhs_prox = np.linalg.norm(
        outcome.x_hat - y + eta_hat * outcome.grad_at_x_hat)
    disp = np.linalg.norm(outcome.x_hat - y)
    return (lhs_solver <= ALPHA1 * disp + 1e-14
            and lhs_prox <= (ALPHA1 + ALPHA2) * disp + 1e-14)


class TestAcceptance:
    def test_stationary_anchor_accepts_immediately(self):
        oracle = CountingOracle(QuadraticObjective(np.eye(4)))
        y = np.zeros(4)
        g = oracle.inner.gradient(y)
        assert np.linalg.norm(g) == 0.0
        outcome = backtracking_search(y, g, np.eye(4), 7.0, oracle)
        assert outcome.backtracks == 0
        assert outcome.eta_hat == 7.0
        assert np.array_equal(outcome.x_hat, y)
        assert outcome.rejected is None

    def test_exact_curvature_accepts_any_initial_step(self):
        # with B equal to the true Hessian of a quadratic the model error
        # vanishes and the first trial always passes
        rng = np.random.default_rng(0)
        Q = random_psd(rng, 6, top=4.0)
        oracle = CountingOracle(QuadraticObjective(Q))
        y = rng.standard_normal(6)
        g = oracle.inner.gradient(y)
        for eta_init in (1e-3, 1.0, 1e4):
            outcome = backtracking_search(y, g, Q.copy(), eta_init, oracle)
            assert outcome.backtracks == 0
            assert outcome.eta_hat == eta_init

    def test_zero_curvature_backtrack_count(self):
        objective = make_logistic(150, 20, seed=3)
        oracle = CountingOracle(objective)
        L1 = objective.smoothness
        rng = np.random.default_rng(1)
        y = rng.standard_normal(20)
        g = oracle.gradient(y)
        eta_init = 1e6 / L1
        outcome = backtracking_search(y, g, np.zeros((20, 20)), eta_init,
                                      oracle)
        cap = math.ceil(math.log(eta_init * L1 / ALPHA2)
                        / math.log(1.0 / BETA)) + 1
        assert outcome.backtracks <= cap
        assert conditions_hold(outcome, y, g, np.zeros((20, 20)),
                               outcome.eta_hat)


@pytest.fixture(scope="module")
def backtracked():
    objective = make_logistic(150, 20, seed=3)
    oracle = CountingOracle(objective)
    rng = np.random.default_rng(2)
    runs = []
    for _ in range(10):
        y = rng.standard_normal(20)
        g = oracle.gradient(y)
        B = random_psd(rng, 20, top=objective.smoothness)
        before = oracle.counters.gradient_queries
        outcome = backtracking_search(y, g, B, 256.0 / objective.smoothness,
                                      oracle)
        spent = oracle.counters.gradient_queries - before
        runs.append((y, g, B, outcome, spent, objective))
    return runs


class TestInvariants:
    def test_gradient_accounting_one_per_trial(self, backtracked):
        for _, _, _, outcome, spent, _ in backtracked:
            assert spent == outcome.backtracks + 1

    def test_matvecs_are_the_products_taken(self):
        # every trial's CR solve multiplies by B; the outcome reports them all
        objective = make_logistic(150, 20, seed=3)
        oracle = CountingOracle(objective)
        rng = np.random.default_rng(2)
        backtracks = 0
        for _ in range(10):
            y = rng.standard_normal(20)
            g = oracle.gradient(y)
            B = random_psd(rng, 20, top=objective.smoothness)
            B = B.view(CountingMatrix)
            outcome = backtracking_search(
                y, g, B, 256.0 / objective.smoothness, oracle)
            assert outcome.matvecs == B.products > 0
            backtracks += outcome.backtracks
        assert backtracks > 0

    def test_matvecs_are_the_largest_krylov_dimension(self, monkeypatch):
        # the trials share one basis, so a search pays for its largest
        # Krylov dimension once, not for every trial's solve
        original = qnprox.line_search.conjugate_residual
        dimensions = []

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            dimensions.append(result.iterations)
            return result

        monkeypatch.setattr(qnprox.line_search, "conjugate_residual",
                            recording)
        objective = make_logistic(150, 20, seed=3)
        oracle = CountingOracle(objective)
        rng = np.random.default_rng(2)
        reused = 0
        for _ in range(10):
            y = rng.standard_normal(20)
            g = oracle.gradient(y)
            B = random_psd(rng, 20, top=objective.smoothness)
            dimensions.clear()
            outcome = backtracking_search(
                y, g, B, 256.0 / objective.smoothness, oracle)
            assert len(dimensions) == outcome.backtracks + 1
            assert outcome.matvecs == max(dimensions)
            reused += outcome.matvecs < sum(dimensions)
        assert reused > 0

    def test_step_size_lower_bound(self, backtracked):
        # eta_hat >= alpha2 beta ||x~ - y|| / ||grad(x~) - g - B s||, from
        # the rejected trial x~ = y + s
        assert any(outcome.backtracks for _, _, _, outcome, _, _ in backtracked)
        for y, _, _, outcome, _, _ in backtracked:
            rejected = outcome.rejected
            if rejected is None:
                continue
            bound = (ALPHA2 * BETA * np.linalg.norm(rejected.s)
                     / np.linalg.norm(rejected.w - rejected.Bs))
            assert outcome.eta_hat >= bound * (1.0 - 1e-10)
            assert backtrack_violation(outcome, y) is None

    def test_displacement_relation(self, backtracked):
        # ||x~ - y|| <= (1 + alpha1) / (beta (1 - alpha1)) ||x_hat - y||
        assert any(outcome.backtracks for _, _, _, outcome, _, _ in backtracked)
        ratio = (1.0 + ALPHA1) / (BETA * (1.0 - ALPHA1))
        for y, _, _, outcome, _, _ in backtracked:
            rejected = outcome.rejected
            if rejected is None:
                continue
            assert (np.linalg.norm(rejected.s)
                    <= ratio * np.linalg.norm(outcome.x_hat - y)
                    * (1.0 + 1e-10))
            assert backtrack_violation(outcome, y) is None

    def test_accepted_pair_satisfies_both_conditions(self, backtracked):
        for y, g, B, outcome, _, _ in backtracked:
            assert conditions_hold(outcome, y, g, B, outcome.eta_hat)

    def test_step_size_floor_when_backtracked(self, backtracked):
        # acceptance is guaranteed below alpha2 / (L1 + ||B||_op), so the
        # accepted step can undershoot that threshold by at most one beta
        for y, g, B, outcome, _, objective in backtracked:
            if outcome.backtracks == 0:
                continue
            op = float(np.abs(np.linalg.eigvalsh(B)).max())
            floor = ALPHA2 * BETA / (objective.smoothness + op)
            assert outcome.eta_hat >= floor * (1.0 - 1e-10)

    def test_cached_gradients_match_oracle(self, backtracked):
        for y, g, B, outcome, _, objective in backtracked:
            assert np.array_equal(outcome.grad_at_x_hat,
                                  objective.gradient(outcome.x_hat))
            rejected = outcome.rejected
            if rejected is not None:
                assert np.array_equal(
                    rejected.w, objective.gradient(y + rejected.s) - g)
                product = B @ rejected.s
                assert (np.linalg.norm(rejected.Bs - product)
                        <= 1e-12 * np.linalg.norm(product))


def test_search_allocates_no_d_by_d_array():
    d = 300
    objective = make_logistic(600, d, seed=5)
    oracle = CountingOracle(objective)
    rng = np.random.default_rng(6)
    y = rng.standard_normal(d)
    g = oracle.gradient(y)
    B = random_psd(rng, d, top=objective.smoothness)
    tracemalloc.start()
    try:
        outcome = backtracking_search(y, g, B, 64.0 / objective.smoothness,
                                      oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.backtracks >= 1 and outcome.matvecs > 1
    assert peak < d * d * np.dtype(float).itemsize


class FlippingOracle:
    """Adversarially nonsmooth: the gradient flips sign away from the anchor,
    so no step size can satisfy the proximal condition."""

    dimension = 3

    def __init__(self, anchor, pull):
        self.anchor = anchor
        self.pull = pull

    def value(self, x):
        return 0.0

    def gradient(self, x):
        if np.array_equal(x, self.anchor):
            return self.pull.copy()
        return -self.pull.copy()


class TestErrors:
    def test_underflow_raises_configuration_error(self):
        anchor = np.zeros(3)
        pull = np.array([1.0, 0.0, 0.0])
        oracle = CountingOracle(FlippingOracle(anchor, pull))
        with pytest.raises(ConfigurationError):
            backtracking_search(anchor, pull, np.zeros((3, 3)), 1.0, oracle)
