import math
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

import qnprox.learner
import qnprox.solver
from qnprox import CountingOracle, SolverConfig, solve, write_trace_csv
from qnprox.learner import init_learner
from qnprox.solver import damped_iterate, momentum_weights
from qnprox.errors import NumericsError, SolverError
from qnprox.selftest import (certificate_violation, fed_loss_violation,
                             gradient_query_violation, make_logistic,
                             momentum_violation, potential_violation,
                             weight_growth_violation)
from qnprox.separation import separation_oracle
from conftest import reference_minimizer
from helpers import ProductCounter, QuadraticObjective


class TestMomentumWeights:
    def test_first_iteration(self):
        x = np.array([1.0, 2.0])
        z = np.array([-3.0, 4.0])
        a, y = momentum_weights(0.0, 5.0, x, z)
        assert a == 5.0
        assert np.array_equal(y, z)

    def test_exact_arithmetic_case(self):
        x = np.array([1.0, 0.0])
        z = np.array([0.0, 1.0])
        a, y = momentum_weights(2.0, 1.0, x, z)
        assert a == 2.0
        assert np.array_equal(y, (2.0 * x + 2.0 * z) / 4.0)

    def test_weight_identity_over_random_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            A = float(rng.uniform(0.0, 1e4))
            eta = float(rng.uniform(1e-8, 1e4))
            a, _ = momentum_weights(A, eta, np.zeros(1), np.zeros(1))
            assert momentum_violation(A, eta, a) is None


class TestStepUpdates:
    def test_damped_iterate_arithmetic(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4)
        x_hat = rng.standard_normal(4)
        out = damped_iterate(x, x_hat, A=2.0, a=2.0, gamma=0.5)
        assert np.allclose(out, (x + 2.0 * x_hat) / 3.0, rtol=1e-15)

    def test_first_iteration_case_one_substitution(self, small_logistic):
        # a tiny sigma0 accepts the first trial, so A1 = sigma0,
        # z1 = z0 - sigma0 * grad(x1), eta1 = sigma0 / beta
        sigma0 = 1e-3 / small_logistic.smoothness
        config = SolverConfig(max_iters=1, sigma0=sigma0, seed=0)
        reports = []
        z0 = np.zeros(small_logistic.dimension)
        solve(small_logistic, z0, z0.copy(), config,
              observer=reports.append)
        rep = reports[0]
        assert rep.case == "I"
        assert rep.A == sigma0
        assert rep.eta_hat == sigma0
        grad = small_logistic.gradient(rep.x)
        assert np.allclose(rep.z, z0 - sigma0 * grad, rtol=1e-12, atol=1e-15)

    def test_A1_equals_accepted_step_in_both_cases(self, small_logistic):
        z0 = np.zeros(small_logistic.dimension)
        for sigma0, expected_case in ((1e-3 / small_logistic.smoothness, "I"),
                                      (1e4 / small_logistic.smoothness, "II")):
            reports = []
            config = SolverConfig(max_iters=1, sigma0=sigma0, seed=0)
            solve(small_logistic, z0, z0.copy(), config,
                  observer=reports.append)
            rep = reports[0]
            assert rep.case == expected_case
            assert math.isclose(rep.A, rep.eta_hat, rel_tol=1e-15)

    def test_case_two_feeds_learner(self, small_logistic):
        config = SolverConfig(max_iters=40, seed=0)
        reports = []
        z0 = np.zeros(small_logistic.dimension)
        solve(small_logistic, z0, z0.copy(), config, observer=reports.append)
        damped = [r for r in reports if r.case == "II"]
        assert damped
        for rep in damped:
            assert rep.loss_fed is not None
            assert rep.gamma is not None and 0.0 < rep.gamma < 1.0
            assert rep.x_tilde is not None
        accepted = [r for r in reports if r.case == "I"]
        for rep in accepted:
            assert rep.loss_fed is None
            # curvature matrix untouched outside backtracked iterations
            assert rep.B.W is rep.B_used.W
            assert rep.B.kappa == rep.B_used.kappa


class TestSolveOnQuadratic:
    def test_certificate_on_shifted_quadratic(self):
        center = np.array([2.0, -1.0, 0.5, 3.0])
        objective = QuadraticObjective(np.eye(4), center=center)
        reports = []
        config = SolverConfig(max_iters=60, seed=0)
        x0 = np.zeros(4)
        solve(objective, x0, x0.copy(), config, observer=reports.append)
        assert certificate_violation(reports, objective, center, 0.0,
                                     x0) is None

    def test_stationary_start_stays_put(self):
        center = np.array([1.0, -2.0])
        objective = QuadraticObjective(np.diag([2.0, 3.0]), center=center)
        config = SolverConfig(max_iters=1, tolerance=0.0, seed=0)
        reports = []
        record = solve(objective, center, center.copy(), config,
                       observer=reports.append)
        assert len(record.rows) == 1
        assert np.array_equal(reports[0].x, center)
        assert reports[0].A > 0.0

    def test_tolerance_stops_early(self):
        objective = QuadraticObjective(np.eye(3), center=np.ones(3))
        config = SolverConfig(max_iters=500, tolerance=1e-9, seed=0)
        record = solve(objective, np.zeros(3), np.zeros(3), config)
        assert len(record.rows) < 500

    def test_precision_floor_stops_cleanly(self):
        # with tolerance 0 the iterates eventually sit at float resolution
        # of the optimum, where displacements round away; the run ends with
        # a marker instead of a step-size underflow error
        rng = np.random.default_rng(0)
        Q = np.diag(np.linspace(0.5, 6.0, 20))
        objective = QuadraticObjective(Q, center=rng.standard_normal(20))
        record = solve(objective, np.zeros(20),
                       config=SolverConfig(max_iters=1000, sigma0=100.0,
                                           seed=0))
        assert record.metadata.get("stopped") == "precision_floor"
        assert len(record.rows) < 1000
        assert record.rows[-1].f_value <= 1e-25


@pytest.fixture(scope="module")
def observed_run(small_logistic):
    reports = []
    config = SolverConfig(max_iters=200, seed=0)
    z0 = np.zeros(small_logistic.dimension)
    record = solve(small_logistic, z0, z0.copy(), config,
                   observer=reports.append)
    x_star = reference_minimizer(small_logistic, z0)
    return record, reports, config, x_star


class TestSolveInvariants:
    def test_potential_non_increasing(self, observed_run, small_logistic):
        record, reports, config, x_star = observed_run
        f_star = small_logistic.value(x_star)
        assert potential_violation(reports, small_logistic, x_star, f_star,
                                   np.zeros_like(x_star)) is None

    def test_certificate_inequality(self, observed_run, small_logistic):
        record, reports, config, x_star = observed_run
        f_star = small_logistic.value(x_star)
        assert certificate_violation(reports, small_logistic, x_star, f_star,
                                     np.zeros_like(x_star)) is None

    def test_weight_growth_bound(self, observed_run):
        record, reports, config, _ = observed_run
        assert weight_growth_violation(reports, config.beta) is None

    def test_iterate_boundedness(self, observed_run, small_logistic):
        record, reports, config, x_star = observed_run
        sigma = config.alpha1 + config.alpha2
        dist = float(np.linalg.norm(x_star))
        for rep in reports:
            assert np.linalg.norm(rep.z - x_star) <= dist * (1.0 + 1e-10)
            assert (np.linalg.norm(rep.x - x_star)
                    <= math.sqrt(2.0 / (1.0 - sigma ** 2)) * dist
                    * (1.0 + 1e-10))

    def test_weighted_displacement_sum(self, observed_run, small_logistic):
        record, reports, config, x_star = observed_run
        sigma = config.alpha1 + config.alpha2
        total = sum((rep.a / rep.eta) ** 2
                    * float((rep.x_hat - rep.y) @ (rep.x_hat - rep.y))
                    for rep in reports)
        bound = float(x_star @ x_star) / (1.0 - sigma ** 2)
        assert total <= bound * (1.0 + 1e-10)

    def test_fed_losses_bounded(self, observed_run, small_logistic):
        record, reports, _, _ = observed_run
        L1 = small_logistic.smoothness
        fed = [rep.loss_fed for rep in reports if rep.loss_fed is not None]
        assert fed
        assert fed_loss_violation(fed, L1) is None

    def test_step_size_square_sum_bound(self, observed_run, small_logistic):
        record, reports, config, _ = observed_run
        beta, alpha2 = config.beta, config.alpha2
        sigma0 = config.alpha2 / small_logistic.smoothness
        lhs = sum(1.0 / rep.eta_hat ** 2 for rep in reports)
        fed = sum(rep.loss_fed for rep in reports if rep.loss_fed is not None)
        rhs = ((2.0 - beta ** 2) / ((1.0 - beta ** 2) * sigma0 ** 2)
               + (2.0 - beta ** 2)
               / ((1.0 - beta ** 2) * alpha2 ** 2 * beta ** 2) * fed)
        assert lhs <= rhs * (1.0 + 1e-10)

    def test_gradient_query_accounting(self, observed_run):
        record, _, _, _ = observed_run
        assert gradient_query_violation(record) is None

    def test_matvec_conservation(self, small_logistic, monkeypatch):
        # the trace's count equals the products the run takes with W, all
        # through the one product routine: every curvature product B v (all
        # in the line search) and every Lanczos product.  rho = 1/16 makes
        # oracle calls, some separating
        counter = ProductCounter(monkeypatch)
        oracle_products, results = [], []

        def oracle(*args):
            before = counter.products
            results.append(separation_oracle(*args))
            oracle_products.append(counter.products - before)
            return results[-1]

        monkeypatch.setattr(qnprox.learner, "separation_oracle", oracle)
        x0 = np.zeros(small_logistic.dimension)
        record = solve(small_logistic, x0,
                       config=SolverConfig(max_iters=200, rho=1.0 / 16.0,
                                           seed=0))
        assert oracle_products and all(n > 0 for n in oracle_products)
        assert any(result.separated for result in results)
        assert record.rows[-1].matvecs == counter.products

    def test_weights_non_decreasing(self, observed_run):
        record, reports, _, _ = observed_run
        weights = [rep.A for rep in reports]
        assert all(b >= a for a, b in zip(weights, weights[1:]))


class TestConfigValidation:
    def test_alpha_sum_must_be_contractive(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha1=0.5, alpha2=0.5)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            SolverConfig(beta=1.0)

    def test_partial_trace_attached_on_failure(self, small_logistic):
        # an absurdly tight linear-solver cap forces a convergence error
        # (at iteration 32 on this instance; a cap of 0 is rejected up front)
        config = SolverConfig(max_iters=50, seed=0, max_cr_iters=1)
        with pytest.raises(SolverError) as exc_info:
            solve(small_logistic, np.zeros(small_logistic.dimension),
                  config=config)
        assert exc_info.value.trace is not None


    @pytest.mark.parametrize("field, value", [
        ("L1", -1.0), ("L1", 0.0), ("L1", math.nan), ("L1", math.inf),
        ("rho", -1.0), ("rho", 0.0), ("rho", math.nan), ("rho", math.inf),
        ("tolerance", -1.0), ("tolerance", math.nan),
        ("max_cr_iters", 0), ("max_iters", 0), ("seed", -1),
        ("max_cr_iters", 3.0), ("max_iters", 2.5), ("seed", 1.5),
        ("seed", "1"),
        ("sigma0", math.nan), ("sigma0", math.inf), ("sigma0", 0.0),
    ])
    def test_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_replace_cannot_make_an_invalid_config(self):
        with pytest.raises(ValueError, match="rho"):
            replace(SolverConfig(), rho=-1.0)


class TestResolvedL1:
    """An L1 that solve() reads from the oracle or estimates is checked
    before iteration 0, as a given one is when the config is made."""

    @pytest.mark.parametrize("smoothness", [0.0, math.nan, -1.0, math.inf])
    def test_bad_oracle_smoothness(self, smoothness):
        objective = QuadraticObjective(np.eye(3))
        objective.smoothness = smoothness
        oracle = CountingOracle(objective)
        with pytest.raises(ValueError,
                           match="L1 from the oracle's smoothness"):
            solve(oracle, np.ones(3), config=SolverConfig(max_iters=5))
        assert oracle.counters.gradient_queries == 0

    def test_linear_objective_estimates_zero(self):
        class Linear:
            dimension = 3

            def value(self, x):
                return float(x.sum())

            def gradient(self, x):
                return np.ones(3)

        with pytest.raises(ValueError, match="L1 from the curvature estimate"):
            solve(Linear(), np.ones(3), config=SolverConfig(max_iters=5))


class TestInputValidation:
    """solve() rejects bad inputs before iteration 0, naming the input."""

    @staticmethod
    def rejects(name, x0, z0=None, B0=None):
        oracle = CountingOracle(QuadraticObjective(np.eye(4)))
        with pytest.raises(ValueError, match=name):
            solve(oracle, x0, z0, SolverConfig(max_iters=5), B0=B0)
        assert oracle.counters.gradient_queries == 0

    def test_x0_of_wrong_length(self):
        self.rejects("x0", np.zeros(5))

    def test_x0_not_one_dimensional(self):
        self.rejects("x0", np.zeros((4, 1)))

    def test_x0_not_finite(self):
        self.rejects("x0", np.array([0.0, np.nan, 0.0, 0.0]))

    def test_z0_of_wrong_length(self):
        self.rejects("z0", np.zeros(4), z0=np.zeros(3))

    def test_z0_not_finite(self):
        self.rejects("z0", np.zeros(4), z0=np.full(4, np.inf))

    def test_B0_of_wrong_shape(self):
        self.rejects("B0", np.zeros(4), B0=np.eye(3))

    def test_B0_not_finite(self):
        B0 = np.eye(4)
        B0[1, 2] = np.nan
        self.rejects("B0", np.zeros(4), B0=B0)

    def test_B0_below_the_band(self):
        self.rejects("B0", np.zeros(4), B0=-5.0 * np.eye(4))

    def test_B0_above_the_band(self):
        # the oracle's smoothness is 1, so 100 I is far above L1 I
        self.rejects("B0", np.zeros(4), B0=100.0 * np.eye(4))


class NanAfter:
    """Quadratic whose gradient turns NaN after ``good`` calls."""

    dimension = 4
    smoothness = 1.0

    def __init__(self, good):
        self.good = good

    def value(self, x):
        return 0.5 * float(x @ x)

    def gradient(self, x):
        self.good -= 1
        return x.copy() if self.good >= 0 else np.full(4, np.nan)


class NanValue:
    """Quadratic gradient with a NaN value."""

    dimension = 4
    smoothness = 1.0

    def value(self, x):
        return math.nan

    def gradient(self, x):
        return x.copy()


class TestBadOracle:
    def test_non_finite_gradient_names_stage_and_iteration(self):
        with pytest.raises(SolverError,
                           match=r"iteration \d+: gradient oracle") as info:
            solve(NanAfter(good=5), np.ones(4),
                  config=SolverConfig(max_iters=50))
        assert isinstance(info.value.__cause__, NumericsError)
        assert len(info.value.trace.rows) >= 1

    def test_non_finite_value_names_stage_and_iteration(self):
        with pytest.raises(SolverError,
                           match=r"iteration \d+: value oracle") as info:
            solve(NanValue(), np.ones(4),
                  config=SolverConfig(max_iters=5))
        assert isinstance(info.value.__cause__, NumericsError)


class BareQuadratic:
    """Quadratic oracle exposing no smoothness constant, so the solver has
    to estimate one by curvature probing."""

    dimension = 4

    def value(self, x):
        return 0.5 * float(x @ x) * 3.0

    def gradient(self, x):
        return 3.0 * x

    def hessian(self, x):
        return 3.0 * np.eye(4)


class TestSmoothnessFallback:
    def test_solver_estimates_missing_constant(self):
        record = solve(BareQuadratic(), np.ones(4), np.ones(4),
                       SolverConfig(max_iters=30, seed=0))
        L1 = float(record.metadata["L1"])
        assert 3.0 <= L1 <= 3.3 + 1e-9
        assert record.rows[-1].f_value < 1e-8

    def test_estimate_covers_the_curvature_at_x0(self):
        # a logistic Hessian is largest at x = 0, where every margin is 0;
        # random probes alone put L1 at 0.60 of lambda_max(hessian(0)) here
        class HiddenSmoothness:
            def __init__(self, inner):
                self.inner = inner
                self.dimension = inner.dimension

            def value(self, x):
                return self.inner.value(x)

            def gradient(self, x):
                return self.inner.gradient(x)

            def hessian(self, x):
                return self.inner.hessian(x)

        objective = make_logistic(120, 12, seed=0)
        x0 = np.zeros(objective.dimension)
        record = solve(HiddenSmoothness(objective), x0,
                       config=SolverConfig(max_iters=1))
        top = float(np.linalg.eigvalsh(objective.hessian(x0))[-1])
        assert float(record.metadata["L1"]) >= top


class TestCustomInitialMatrix:
    def test_exact_curvature_start_never_backtracks(self):
        rng = np.random.default_rng(2)
        Q = np.diag([0.5, 1.5, 3.0])
        objective = QuadraticObjective(Q, center=rng.standard_normal(3))
        reports = []
        record = solve(objective, np.zeros(3), np.zeros(3),
                       SolverConfig(max_iters=25, tolerance=1e-10, seed=0),
                       B0=Q.copy(), observer=reports.append)
        # the model error vanishes, so every trial is accepted outright
        assert all(rep.case == "I" for rep in reports)
        assert record.rows[-1].f_value < 1e-10


class TestMemory:
    @pytest.mark.parametrize("given_B0", [False, True])
    def test_peak_stays_under_three_dense_matrices(self, monkeypatch,
                                                   given_B0):
        # an unobserved solve holds one d x d array, W, updated in place,
        # plus the Lanczos basis and vectors (1.55 d^2 measured); this
        # d = 200 run calls the separation oracle and one call separates, so
        # both curvature scales occur.  A B0 given as a list is converted to
        # a new array, and its one symmetric copy must not live through the
        # run: the setup copies of B0 set that peak (2.22 d^2 measured)
        separated = []

        def recorded(*args):
            result = separation_oracle(*args)
            separated.append(result.separated)
            return result

        monkeypatch.setattr(qnprox.learner, "separation_oracle", recorded)
        d = 200
        objective = make_logistic(1000, d, seed=0, sigma=3.0)
        config = SolverConfig(max_iters=150, rho=1.0 / 16.0, seed=3)
        B0 = ((objective.smoothness / 2.0) * np.eye(d)).tolist()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            solve(objective, np.zeros(d), config=config,
                  B0=B0 if given_B0 else None)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            if started:
                tracemalloc.stop()
        assert True in separated and False in separated
        assert peak <= (2.5 if given_B0 else 2.0) * d * d * 8

    def test_kept_reports_keep_their_matrices(self, small_logistic):
        # solve holds no report across a step, but one the observer keeps is
        # never written into: each B_used is the previous report's B
        reports, copies = [], []

        def keep(report):
            reports.append(report)
            copies.append((report.B_used.dense(), report.B.dense()))

        x0 = np.zeros(small_logistic.dimension)
        solve(small_logistic, x0, config=SolverConfig(max_iters=60, seed=0),
              observer=keep)
        assert any(report.B.W is not report.B_used.W for report in reports)
        for previous, report in zip(reports, reports[1:]):
            assert report.B_used.W is previous.B.W
            assert report.B_used.kappa == previous.B.kappa
        for report, (B_used, B) in zip(reports, copies):
            assert np.array_equal(report.B_used.dense(), B_used)
            assert np.array_equal(report.B.dense(), B)


class TestTriangleStorage:
    def test_stale_upper_triangle_is_never_read(self, monkeypatch, tmp_path):
        # W keeps only its lower triangle; with the strict upper triangle
        # NaN from the start, a read of the full array anywhere in a solve
        # that separates would change the trace or the counts
        separated = []

        def recorded(*args):
            result = separation_oracle(*args)
            separated.append(result.separated)
            return result

        def poisoned(*args, **kwargs):
            state = init_learner(*args, **kwargs)
            state.W[np.triu_indices(state.W.shape[0], 1)] = np.nan
            return state

        monkeypatch.setattr(qnprox.learner, "separation_oracle", recorded)
        d = 40
        objective = make_logistic(400, d, seed=1, sigma=3.0)
        config = SolverConfig(max_iters=150, rho=1.0 / 16.0, seed=2)
        runs = []
        for start in (init_learner, poisoned):
            monkeypatch.setattr(qnprox.solver, "init_learner", start)
            oracle = CountingOracle(objective)
            record = solve(oracle, np.zeros(d), config=config)
            path = tmp_path / f"{start.__name__}.csv"
            write_trace_csv(record, path)
            runs.append((path.read_bytes(), oracle.counters))
        assert True in separated
        assert runs[0] == runs[1]


class TestDeterminism:
    def test_same_seed_same_trace(self, small_logistic):
        config = SolverConfig(max_iters=40, seed=5)
        x0 = np.zeros(small_logistic.dimension)
        first = solve(small_logistic, x0, x0.copy(), config)
        second = solve(small_logistic, x0, x0.copy(), config)
        assert first.rows == second.rows
        assert first.metadata == second.metadata


def test_skips_change_only_the_matvec_column(criterion_run, logistic_instance,
                                             monkeypatch):
    # with the norm bound disabled every learner step calls the oracle; the
    # acceptance run's columns iter to grad_queries must not notice, and its
    # matvecs may only be lower
    record, _, config = criterion_run
    monkeypatch.setattr(qnprox.learner, "next_op_norm_bound",
                        lambda *args: math.inf)
    x0 = np.zeros(logistic_instance.dimension)
    always_called = solve(logistic_instance, x0, x0.copy(), config)
    assert len(always_called.rows) == len(record.rows)
    lower = 0
    for row, full in zip(record.rows, always_called.rows):
        assert astuple(row)[:6] == astuple(full)[:6]
        assert row.matvecs <= full.matvecs
        lower += row.matvecs < full.matvecs
    assert lower > 0


def test_fed_samples_carry_the_product_with_the_matrix_used(
        logistic_instance, monkeypatch):
    # the learner takes B s from the line search's basis, not by a product:
    # on every fed sample it must be the product with the matrix the line
    # search used, and s the rejected trial's displacement x_tilde - y.
    # rho = 1/16 makes separating calls, so some samples meet a scaled W
    fed = []

    def recording(state, sample, seed):
        fed.append((sample, state.B @ sample.s, state.certificate))
        return qnprox.learner.learner_step(state, sample, seed)

    monkeypatch.setattr(qnprox.solver, "learner_step", recording)
    reports = []
    x0 = np.zeros(logistic_instance.dimension)
    solve(logistic_instance, x0, config=SolverConfig(max_iters=300,
                                                     rho=1.0 / 16.0, seed=0),
          observer=reports.append)
    backtracked = [rep for rep in reports if rep.x_tilde is not None]
    assert len(fed) == len(backtracked) > 0
    assert any(certificate is not None for _, _, certificate in fed)
    eps = np.finfo(float).eps
    for (sample, product, _), rep in zip(fed, backtracked):
        assert (np.linalg.norm(sample.Bs - product)
                <= 1e-12 * np.linalg.norm(product))
        assert (np.linalg.norm(sample.s - (rep.x_tilde - rep.y))
                <= 4.0 * eps * np.linalg.norm(rep.y))
