import math
import weakref
from dataclasses import astuple, fields, is_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

import qnprox.learner
import qnprox.solver
from qnprox import CountingOracle, OracleCounters, SolverConfig, solve
from qnprox.learner import learner_step
from qnprox.line_search import ALPHA1, ALPHA2, BETA, backtracking_search
from qnprox.solver import damped_iterate, momentum_weights
from qnprox.errors import ConfigurationError, NumericsError, SolverError
from qnprox.selftest import (certificate_violation, fed_loss_violation,
                             gradient_query_violation, make_logistic,
                             momentum_violation, potential_violation,
                             weight_growth_violation)
from qnprox.separation import PackedSymmetric, separation_oracle
from conftest import reference_minimizer
from helpers import (FaultAfter, ProductCounter, QuadraticObjective,
                     VectorValue, traced_allocation_peak)


def stated(objective, scale):
    """``objective`` with its L1 stated ``scale`` times its own."""
    return SimpleNamespace(dimension=objective.dimension,
                           value=objective.value, gradient=objective.gradient,
                           smoothness=scale * objective.smoothness)


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
        # an L1 stated 1e3 times too large gives a tiny sigma0 = alpha2 / L1,
        # which accepts the first trial, so A1 = sigma0,
        # z1 = z0 - sigma0 * grad(x1), eta1 = sigma0 / beta
        objective = stated(small_logistic, 1e3)
        sigma0 = ALPHA2 / objective.smoothness
        reports = []
        z0 = np.zeros(small_logistic.dimension)
        solve(objective, z0, z0.copy(), SolverConfig(max_iters=1, seed=0),
              observer=reports.append)
        rep = reports[0]
        assert rep.case == "I"
        assert rep.A == sigma0
        assert rep.search.eta_hat == sigma0
        grad = small_logistic.gradient(rep.x)
        assert np.allclose(rep.z, z0 - sigma0 * grad, rtol=1e-12, atol=1e-15)

    def test_A1_equals_accepted_step_in_both_cases(self, small_logistic):
        # the stated L1 sets sigma0 = alpha2 / L1: 1e-4 times the true L1
        # makes the first search backtrack
        z0 = np.zeros(small_logistic.dimension)
        for scale, expected_case in ((1e3, "I"), (1e-4, "II")):
            reports = []
            solve(stated(small_logistic, scale), z0, z0.copy(),
                  SolverConfig(max_iters=1, seed=0), observer=reports.append)
            rep = reports[0]
            assert rep.case == expected_case
            assert math.isclose(rep.A, rep.search.eta_hat, rel_tol=1e-15)

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
            assert rep.search.rejected is not None
        accepted = [r for r in reports if r.case == "I"]
        for rep in accepted:
            assert rep.loss_fed is None


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
                       config=SolverConfig(max_iters=1000, seed=0))
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
        record, reports, _, _ = observed_run
        assert weight_growth_violation(reports) is None

    def test_iterate_boundedness(self, observed_run, small_logistic):
        record, reports, config, x_star = observed_run
        sigma = ALPHA1 + ALPHA2
        dist = float(np.linalg.norm(x_star))
        for rep in reports:
            assert np.linalg.norm(rep.z - x_star) <= dist * (1.0 + 1e-10)
            assert (np.linalg.norm(rep.x - x_star)
                    <= math.sqrt(2.0 / (1.0 - sigma ** 2)) * dist
                    * (1.0 + 1e-10))

    def test_weighted_displacement_sum(self, observed_run, small_logistic):
        record, reports, config, x_star = observed_run
        sigma = ALPHA1 + ALPHA2
        total = sum((rep.a / rep.eta) ** 2
                    * float((rep.search.x_hat - rep.y)
                            @ (rep.search.x_hat - rep.y))
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
        beta, alpha2 = BETA, ALPHA2
        sigma0 = ALPHA2 / small_logistic.smoothness
        lhs = sum(1.0 / rep.search.eta_hat ** 2 for rep in reports)
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
        assert 0.0 < ALPHA1 and 0.0 < ALPHA2 and ALPHA1 + ALPHA2 < 1.0
        assert 0.0 < BETA < 1.0

    @pytest.mark.parametrize("field, value", [
        ("rho", -1.0), ("rho", 0.0), ("rho", math.nan), ("rho", math.inf),
        ("tolerance", -1.0), ("tolerance", math.nan),
        ("max_iters", 0), ("seed", -1),
        ("max_iters", 2.5), ("seed", 1.5),
        ("seed", "1"),
    ])
    def test_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_replace_cannot_make_an_invalid_config(self):
        with pytest.raises(ValueError, match="rho"):
            replace(SolverConfig(), rho=-1.0)


class TestResolvedL1:
    """The L1 that solve() reads from the oracle's smoothness is checked
    before iteration 0, and nothing stands in for a missing one."""

    @pytest.mark.parametrize("smoothness",
                             [0.0, math.nan, -1.0, math.inf, None])
    def test_bad_oracle_smoothness(self, smoothness):
        objective = QuadraticObjective(np.eye(3))
        objective.smoothness = smoothness
        oracle = CountingOracle(objective)
        with pytest.raises(ValueError,
                           match="L1 from the oracle's smoothness"):
            solve(oracle, np.ones(3), config=SolverConfig(max_iters=5))
        assert oracle.counters.gradient_queries == 0

    def test_missing_smoothness_is_rejected(self):
        class Linear:
            dimension = 3

            def value(self, x):
                return float(x.sum())

            def gradient(self, x):
                return np.ones(3)

        oracle = CountingOracle(Linear())
        with pytest.raises(ValueError, match=r"L1 from the oracle's "
                                             r"smoothness .* got None"):
            solve(oracle, np.ones(3), config=SolverConfig(max_iters=5))
        assert oracle.counters.gradient_queries == 0


class TestInputValidation:
    """solve() rejects bad inputs before iteration 0, naming the input."""

    @staticmethod
    def rejects(name, x0, z0=None):
        oracle = CountingOracle(QuadraticObjective(np.eye(4)))
        with pytest.raises(ValueError, match=name):
            solve(oracle, x0, z0, SolverConfig(max_iters=5))
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

    def test_gradient_of_wrong_shape_names_both_shapes(self):
        # a 13-entry gradient for d = 12 after 5 good ones is rejected by the
        # counting oracle, not by numpy broadcasting
        objective = make_logistic(48, 12, seed=0)
        broken = FaultAfter(objective, 5,
                            fault=lambda g: np.append(g, 0.0))
        with pytest.raises(SolverError, match=r"iteration \d+: gradient "
                           r"oracle returned shape \(13,\), expected "
                           r"\(12,\)") as info:
            solve(broken, np.zeros(12), config=SolverConfig(max_iters=40))
        assert isinstance(info.value.__cause__, ValueError)
        assert len(info.value.trace.rows) >= 1

    def test_value_of_wrong_shape_names_it(self):
        # a 2-entry value is rejected by the counting oracle, not by float()
        objective = make_logistic(48, 12, seed=0)
        with pytest.raises(SolverError, match=r"iteration \d+: value oracle "
                           r"returned shape \(2,\), expected a "
                           r"scalar") as info:
            solve(VectorValue(objective), np.zeros(12),
                  config=SolverConfig(max_iters=5))
        assert isinstance(info.value.__cause__, ValueError)

    def test_error_carries_the_counters_at_the_failure(self):
        # with the fault at gradient query 7 the copied counters read 7,
        # while the partial trace's last row, written before the failing
        # iteration, reads fewer
        oracle = CountingOracle(FaultAfter(
            make_logistic(48, 12, seed=0), 6))
        with pytest.raises(SolverError) as info:
            solve(oracle, np.zeros(12), config=SolverConfig(max_iters=40))
        counters = info.value.counters
        assert isinstance(counters, OracleCounters)
        assert counters is not oracle.counters and counters == oracle.counters
        assert counters.gradient_queries == 7
        assert info.value.trace.rows[-1].grad_queries < 7

    def test_non_finite_value_names_stage_and_iteration(self):
        with pytest.raises(SolverError,
                           match=r"iteration \d+: value oracle") as info:
            solve(NanValue(), np.ones(4),
                  config=SolverConfig(max_iters=5))
        assert isinstance(info.value.__cause__, NumericsError)

    def test_understated_smoothness_aborts_with_the_search_error(self):
        # L1 = 1e-20 for 1/2 ||x||^2: the first search rejects every trial
        # at an anchor gradient far above the precision floor, so step
        # re-raises the search's error instead of stopping the run
        objective = QuadraticObjective(np.eye(4))
        objective.smoothness = 1e-20
        with pytest.raises(SolverError, match=r"solver aborted at iteration "
                           r"0: line search step size underflowed") as info:
            solve(objective, np.ones(4), config=SolverConfig(max_iters=10))
        assert isinstance(info.value.__cause__, ConfigurationError)
        assert len(info.value.trace.rows) == 0
        # the anchor gradient and 54 rejected trials
        assert info.value.counters.gradient_queries == 55


class TestCustomInitialMatrix:
    def test_exact_curvature_start_never_backtracks(self):
        # Q = c I with the valid upper bound L1 = 2 c: the learner's start,
        # the center (L1 / 2) I, is the exact Hessian
        rng = np.random.default_rng(2)
        c = 1.5
        objective = QuadraticObjective(c * np.eye(3),
                                       center=rng.standard_normal(3))
        objective.smoothness = 2.0 * c
        reports = []
        record = solve(objective, np.zeros(3), np.zeros(3),
                       SolverConfig(max_iters=25, tolerance=1e-10, seed=0),
                       observer=reports.append)
        # the model error vanishes, so every trial is accepted outright
        assert all(rep.case == "I" for rep in reports)
        assert record.rows[-1].f_value < 1e-10


def report_arrays(record):
    """Every array an iteration report reaches, through its nested records:
    y, x, z, grad_at_y, the search's x_hat and grad_at_x_hat, and on a
    backtracked iteration the rejected sample's w, s and Bs."""
    arrays = []
    for field in fields(record):
        value = getattr(record, field.name)
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif is_dataclass(value):
            arrays += report_arrays(value)
    return arrays


class TestMemory:
    def test_peak_stays_under_three_dense_matrices(self, monkeypatch):
        # an unobserved solve holds W, packed into half a d x d array and
        # updated in place, plus the Lanczos basis and vectors (0.84 d^2
        # doubles measured, 1.35 when W was a full square); this
        # d = 200 run calls the separation oracle and one call separates, so
        # both curvature scales occur
        separated = []

        def recorded(*args):
            result = separation_oracle(*args)
            separated.append(result.separated)
            return result

        monkeypatch.setattr(qnprox.learner, "separation_oracle", recorded)
        d = 200
        objective = make_logistic(1000, d, seed=0, sigma=3.0)
        config = SolverConfig(max_iters=150, rho=1.0 / 16.0, seed=3)
        peak = traced_allocation_peak(
            lambda: solve(objective, np.zeros(d), config=config))
        assert True in separated and False in separated
        assert peak <= 2.0 * d * d * 8

    def test_peak_stays_under_six_tenths_of_a_dense_matrix(self,
                                                          monkeypatch):
        # the packed W is half a d x d array; with the vectors of the
        # solve, the peak at d = 300 is 0.59 d^2 doubles (1.11 when W was a
        # full square).  This run feeds the learner without an oracle call,
        # whose Lanczos basis would add up to d rows
        fed = []

        def stepped(*args):
            result = learner_step(*args)
            fed.append(result[1].matvecs)
            return result

        monkeypatch.setattr(qnprox.solver, "learner_step", stepped)
        d = 300
        objective = make_logistic(600, d, seed=0)
        peak = traced_allocation_peak(lambda: solve(
            objective, np.zeros(d),
            config=SolverConfig(max_iters=30, rho=1.0 / 16.0, seed=0)))
        assert fed and not any(fed)
        assert peak < 0.6 * d * d * 8

    def test_kept_reports_are_never_written(self, logistic_instance):
        # solve holds no report across a step, and no later step writes into
        # one the observer keeps: every array a report reaches reads, after
        # the solve, as it did when observed.  rho = 1/16 makes separating
        # learner calls
        reports, copies = [], []

        def keep(report):
            reports.append(report)
            copies.append([array.copy() for array in report_arrays(report)])

        x0 = np.zeros(logistic_instance.dimension)
        solve(logistic_instance, x0, config=SolverConfig(
            max_iters=200, rho=1.0 / 16.0, seed=0), observer=keep)
        assert any(report.search.rejected is not None for report in reports)
        for report, copied in zip(reports, copies):
            arrays = report_arrays(report)
            assert len(arrays) == (6 if report.search.rejected is None else 9)
            assert len(arrays) == len(copied)
            assert all(np.array_equal(array, copy)
                       for array, copy in zip(arrays, copied))

    def test_the_next_search_holds_no_finished_iteration(
            self, monkeypatch, logistic_instance):
        # an observer that keeps no report leaves nothing of a finished
        # iteration alive into the next line search: not its outcome, which
        # holds the rejected trial's vectors, nor its anchor y and gradient
        finished, held = [], []

        def watch(report):
            finished.extend(weakref.ref(item) for item in (
                report.search, report.y, report.grad_at_y))

        def searched(*args):
            held.append(sum(ref() is not None for ref in finished))
            return backtracking_search(*args)

        monkeypatch.setattr(qnprox.solver, "backtracking_search", searched)
        run = solve(logistic_instance, np.zeros(logistic_instance.dimension),
                    config=SolverConfig(max_iters=60, rho=1.0 / 16.0, seed=0),
                    observer=watch)
        assert {row.case for row in run.rows} == {"I", "II"}
        assert len(held) == 60 and not any(held)


class TestPackedStorage:
    def test_solve_steps_one_packed_W_and_never_forms_it(self, monkeypatch):
        # an unobserved solve that separates keeps W in the one packed
        # vector of d (d + 1) / 2 entries that init_learner allocates: every
        # learner step writes into it in place, and nothing builds the
        # dense W
        separated, steps = [], []

        def recorded(*args):
            result = separation_oracle(*args)
            separated.append(result.separated)
            return result

        def stepped(state, sample, seed):
            new, report = learner_step(state, sample, seed)
            steps.append((state.W, new.W, new.W.packed))
            return new, report

        def no_dense(self, dtype=None, copy=None):
            raise AssertionError("the solve formed the dense W")

        monkeypatch.setattr(qnprox.learner, "separation_oracle", recorded)
        monkeypatch.setattr(qnprox.solver, "learner_step", stepped)
        monkeypatch.setattr(PackedSymmetric, "__array__", no_dense)
        d = 40
        objective = make_logistic(400, d, seed=1, sigma=3.0)
        solve(objective, np.zeros(d),
              config=SolverConfig(max_iters=150, rho=1.0 / 16.0, seed=2))
        assert True in separated
        vector = steps[0][2]
        assert vector.shape == (d * (d + 1) // 2,)
        assert all(old is new and packed is vector
                   for old, new, packed in steps)


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
    # search used, and s the rejected trial's displacement (y + s) - y.
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
    backtracked = [rep for rep in reports if rep.search.rejected is not None]
    assert len(fed) == len(backtracked) > 0
    assert any(certificate is not None for _, _, certificate in fed)
    eps = np.finfo(float).eps
    for (sample, product, _), rep in zip(fed, backtracked):
        assert (np.linalg.norm(sample.Bs - product)
                <= 1e-12 * np.linalg.norm(product))
        assert (np.linalg.norm(sample.s
                               - ((rep.y + rep.search.rejected.s) - rep.y))
                <= 4.0 * eps * np.linalg.norm(rep.y))


def test_learner_is_fed_the_search_sample_itself(logistic_instance,
                                                 monkeypatch):
    # step builds no sample: on every backtracked iteration the learner
    # receives the line search's report.search.rejected as it is, and the
    # search holds a sample exactly when it backtracked (case II)
    fed = []

    def recording(state, sample, seed):
        fed.append(sample)
        return qnprox.learner.learner_step(state, sample, seed)

    monkeypatch.setattr(qnprox.solver, "learner_step", recording)
    reports = []
    x0 = np.zeros(logistic_instance.dimension)
    solve(logistic_instance, x0, config=SolverConfig(max_iters=200, seed=0),
          observer=reports.append)
    for rep in reports:
        assert (rep.search.rejected is None) == (rep.case == "I")
        assert (rep.search.rejected is None) == (rep.search.backtracks == 0)
    damped = [rep.search.rejected for rep in reports if rep.case == "II"]
    assert len(fed) == len(damped) > 0
    assert any(rep.case == "I" for rep in reports)
    assert all(sample is rejected for sample, rejected in zip(fed, damped))
