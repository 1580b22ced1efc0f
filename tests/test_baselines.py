import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnprox.baselines
from qnprox import (BaselineConfig, CountingOracle, OracleCounters,
                    RunRecord, TraceRow, bfgs_solve, nag_solve,
                    write_trace_csv)
from qnprox.baselines import (NAG_BETA, NAG_ETA0, WOLFE_C1, WOLFE_C2,
                              bfgs_inverse_update)
from qnprox.errors import ConvergenceError, NumericsError, SolverError
from conftest import make_logistic, random_psd
from helpers import (FaultAfter, QuadraticObjective, VectorValue,
                     bfgs_inverse_product_form, packed,
                     traced_allocation_peak)


class CountingValues:
    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.values = 0

    def value(self, x):
        self.values += 1
        return self.inner.value(x)

    def gradient(self, x):
        return self.inner.gradient(x)


def nag_reference(objective, x0, config):
    """Monotone NAG as first written: f(u) is evaluated once more after the
    backtracking loop accepts u.  Kept as the reference for the trace."""
    oracle = CountingOracle(objective)
    x = np.asarray(x0, dtype=float).copy()
    y = x.copy()
    fx = float(oracle.value(x))
    eta = NAG_ETA0
    t_momentum = 1.0
    record = RunRecord(method="nag", metadata={
        "eta0": format(NAG_ETA0, ".17g"),
        "beta": format(NAG_BETA, ".17g"),
        "max_iters": str(config.max_iters),
        "tolerance": format(config.tolerance, ".17g"),
    })
    for k in range(config.max_iters):
        g = oracle.gradient(y)
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= config.tolerance:
            break
        fy = float(oracle.value(y))
        g_sq = grad_norm * grad_norm
        backtracks = 0
        while True:
            u = y - eta * g
            if float(oracle.value(u)) <= fy - 0.5 * eta * g_sq:
                break
            eta *= NAG_BETA
            backtracks += 1
        fu = float(oracle.value(u))
        if fu <= fx:
            x_next, fx_next = u, fu
        else:
            x_next, fx_next = x, fx
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_momentum * t_momentum)) / 2.0
        y = (x_next + (t_momentum / t_next) * (u - x_next)
             + ((t_momentum - 1.0) / t_next) * (x_next - x))
        x, fx = x_next, fx_next
        t_momentum = t_next
        record.append(TraceRow(
            iteration=k + 1, f_value=fx, eta_hat=eta, case="-",
            backtracks=backtracks,
            grad_queries=oracle.counters.gradient_queries,
            matvecs=oracle.counters.matvecs))
    return record


def read_columns(path) -> dict:
    """A trace CSV's columns, by name, as lists of the written strings."""
    header, *rows = [line for line in path.read_text().splitlines()
                     if not line.startswith("#")]
    return dict(zip(header.split(","),
                    map(list, zip(*(row.split(",") for row in rows)))))


class TestNag:
    def test_monotone_on_isotropic_quadratic(self):
        objective = QuadraticObjective(np.eye(5))
        x0 = np.zeros(5)
        x0[0] = 1.0
        record = nag_solve(objective, x0, BaselineConfig(max_iters=100))
        values = [row.f_value for row in record.rows]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] <= 1e-12

    def test_quadratic_rate_envelope(self):
        rng = np.random.default_rng(0)
        Q = random_psd(rng, 8, top=5.0) + 0.1 * np.eye(8)
        center = rng.standard_normal(8)
        objective = QuadraticObjective(Q, center=center)
        x0 = np.zeros(8)
        record = nag_solve(objective, x0, BaselineConfig(max_iters=300))
        L1 = objective.smoothness
        dist_sq = float(center @ center)
        for row in record.rows:
            envelope = 2.0 * L1 * dist_sq / (row.iteration + 1) ** 2
            assert row.f_value <= envelope * (1.0 + 1e-9)

    def test_one_gradient_per_iteration(self):
        objective = make_logistic(500, 50, seed=0)
        record = nag_solve(objective, np.zeros(50),
                           BaselineConfig(max_iters=60))
        assert record.grad_query_deltas() == [1] * len(record.rows)

    def test_trace_matches_reference_with_one_value_query_less(
            self, logistic_instance, tmp_path):
        config = BaselineConfig(max_iters=300)
        x0 = np.zeros(logistic_instance.dimension)
        objective = CountingValues(logistic_instance)
        record = nag_solve(objective, x0, config)
        write_trace_csv(record, tmp_path / "nag.csv")
        write_trace_csv(nag_reference(logistic_instance, x0, config),
                        tmp_path / "reference.csv")
        assert ((tmp_path / "nag.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())
        # f(x0), then per iteration f(y) and one f(u) per trial step
        trials = sum(row.backtracks + 1 for row in record.rows)
        assert objective.values == 1 + len(record.rows) + trials

    def test_non_finite_value_raises(self):
        class NanValue(QuadraticObjective):
            def value(self, x):
                return math.nan

        with pytest.raises(NumericsError, match="value oracle"):
            nag_solve(NanValue(np.eye(3)), np.ones(3),
                      BaselineConfig(max_iters=5))

    def test_step_size_underflow_aborts_with_the_trace(self):
        # a flat value never shows the sufficient decrease the nonzero
        # gradient x predicts, so eta shrinks below 1e-300 in the first
        # iteration, before any row is written
        class FlatValue:
            dimension = 3

            def value(self, x):
                return 0.0

            def gradient(self, x):
                return x.copy()

        with pytest.raises(SolverError, match="NAG step size underflowed"
                           ) as info:
            nag_solve(FlatValue(), np.ones(3), BaselineConfig(max_iters=10))
        assert len(info.value.trace.rows) == 0

    def test_monotone_choice_never_increases(self):
        objective = make_logistic(120, 12, seed=7)
        record = nag_solve(objective, np.zeros(12),
                           BaselineConfig(max_iters=200))
        values = [row.f_value for row in record.rows]
        assert all(b <= a for a, b in zip(values, values[1:]))


def record_inverse_updates(monkeypatch, formed, pairs=None):
    """Patch ``bfgs_inverse_update`` so that each call appends the dense
    form of the updated H to ``formed`` (and its (s, y) to ``pairs``),
    after checking that the update wrote into H's one packed vector of
    d (d + 1) / 2 entries."""
    original = qnprox.baselines.bfgs_inverse_update

    def recording(H, s, y):
        vector = H.packed
        original(H, s, y)
        assert H.packed is vector
        assert vector.shape == (H.dimension * (H.dimension + 1) // 2,)
        formed.append(np.array(H))
        if pairs is not None:
            pairs.append((s.copy(), y.copy()))

    monkeypatch.setattr(qnprox.baselines, "bfgs_inverse_update", recording)


@pytest.fixture
def bfgs_inverses(monkeypatch):
    """The dense form of each inverse-Hessian approximation ``bfgs_solve``
    forms, in order: every BFGS update is one ``bfgs_inverse_update``, and
    each must write into H's packed vector in place."""
    formed = []
    record_inverse_updates(monkeypatch, formed)
    return formed


class DenseMatrix:
    """H as it was held before it was packed: a full d x d array with dense
    products, in place of the library's packed matrix."""

    def __init__(self, d, name):
        self.full = np.zeros((d, d))

    def set_identity(self):
        self.full[...] = np.eye(self.full.shape[0])

    def matvec(self, v, alpha=1.0):
        return alpha * (self.full @ v)


def dense_inverse_update(H, s, y):
    """The update of a :class:`DenseMatrix` H with dense outer products
    (Nocedal & Wright eq. 6.17)."""
    sy = float(s @ y)
    Hy = H.full @ y
    H.full += ((sy + float(y @ Hy)) / (sy * sy)) * np.outer(s, s)
    H.full -= (np.outer(Hy, s) + np.outer(s, Hy)) / sy


class TestBfgs:
    def test_quadratic_termination_recovers_inverse(self):
        # exact line searches on a quadratic, t = -g^T p / p^T Q p: after d
        # updates the inverse approximation satisfies H Q = I
        rng = np.random.default_rng(0)
        d = 5
        Q = random_psd(rng, d, top=3.0) + 0.5 * np.eye(d)
        Q = (Q + Q.T) / 2.0
        x = rng.standard_normal(d)
        g = Q @ x
        H = packed(np.eye(d))
        for _ in range(d):
            p = -(np.array(H) @ g)
            t = -float(g @ p) / float(p @ (Q @ p))
            s = t * p
            x = x + s
            g_next = Q @ x
            bfgs_inverse_update(H, s, g_next - g)
            g = g_next
        H = np.array(H)
        assert np.max(np.abs(H @ Q - np.eye(d))) <= 1e-6

    def test_immediate_termination_at_optimum(self):
        objective = QuadraticObjective(np.eye(4), center=np.ones(4))
        oracle = CountingOracle(objective)
        record = bfgs_solve(oracle, np.ones(4),
                            BaselineConfig(max_iters=50, tolerance=1e-12))
        assert len(record.rows) == 0
        assert oracle.counters.gradient_queries == 1

    def test_inverse_approximation_stays_spd(self, bfgs_inverses):
        rng = np.random.default_rng(1)
        for d in (5, 12, 20):
            objective = make_logistic(200, d, seed=int(rng.integers(100)))
            bfgs_inverses.clear()
            bfgs_solve(objective, np.zeros(d), BaselineConfig(max_iters=30))
            H = bfgs_inverses[-1]
            assert np.linalg.eigvalsh(H)[0] > 0.0

    def test_matvecs_count_each_product_with_H(self, bfgs_inverses):
        # one H g per iteration and one H y per update
        objective = make_logistic(200, 12, seed=3)
        record = bfgs_solve(objective, np.zeros(12),
                            BaselineConfig(max_iters=30))
        assert len(record.rows) == 30 and bfgs_inverses
        assert record.rows[-1].matvecs == len(record.rows) + len(bfgs_inverses)

    def test_peak_stays_under_four_dense_matrices(self):
        # H is one packed vector updated in place, so the peak is H plus
        # d-vectors (0.57 d^2 measured, 1.08 with H a full square held by
        # its lower triangle; the dense update reached 3.47)
        d = 200
        objective = make_logistic(1000, d, seed=0, sigma=3.0)
        peak = traced_allocation_peak(lambda: bfgs_solve(
            objective, np.zeros(d), BaselineConfig(max_iters=30)))
        assert peak <= 1.25 * d * d * 8

    def test_peak_stays_under_six_tenths_of_a_dense_matrix(self):
        # the packed H is half a d x d array: 0.55 d^2 doubles measured at
        # d = 300, against 1.04 with H a full square
        d = 300
        objective = make_logistic(1500, d, seed=0, sigma=3.0)
        peak = traced_allocation_peak(lambda: bfgs_solve(
            objective, np.zeros(d), BaselineConfig(max_iters=30)))
        assert peak < 0.6 * d * d * 8

    def test_one_update_allocates_less_than_one_matrix(self):
        d = 300
        rng = np.random.default_rng(4)
        H = packed(np.eye(d))
        s, y = rng.standard_normal((2, d))
        if s @ y < 0.0:
            y = -y
        peak = traced_allocation_peak(lambda: bfgs_inverse_update(H, s, y))
        assert peak < d * d * 8

    def test_update_refuses_an_H_that_BLAS_would_copy(self):
        # a strided packed vector reaches BLAS as a copy, and the update
        # would be lost without a word
        H = packed(np.eye(4), qnprox.baselines.H_NAME)
        H.packed = np.repeat(H.packed, 2)[::2]
        with pytest.raises(ValueError, match="the BFGS inverse Hessian H "
                                             "must be a contiguous float64"):
            bfgs_inverse_update(H, np.ones(4), 2.0 * np.ones(4))

    @settings(max_examples=200)
    @given(d=st.integers(2, 30), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_inverse_update_matches_product_form(self, d, seed, data):
        # H = U diag(e^u) U^T with u in [-4, 4], and a pair with <s, y> > 0;
        # only H's packed lower triangle is passed, and updated in place
        u = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=d,
                                        max_size=d), label="u"))
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.standard_normal((d, d)))
        H = (U * np.exp(u)) @ U.T
        H = (H + H.T) / 2.0
        s, y = rng.standard_normal((2, d))
        if s @ y < 0.0:
            y = -y
        want = bfgs_inverse_product_form(H, s, y)
        H = packed(H)
        vector = H.packed
        bfgs_inverse_update(H, s, y)
        assert H.packed is vector
        got = np.array(H)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @settings(max_examples=40)
    @given(d=st.integers(2, 30), ratio=st.integers(2, 20),
           seed=st.integers(0, 2 ** 16), sigma=st.floats(0.3, 3.0))
    def test_every_update_keeps_the_secant_equation_and_spd(self, d, ratio,
                                                            seed, sigma):
        formed, pairs = [], []
        objective = make_logistic(ratio * d, d, seed=seed, sigma=sigma)
        with pytest.MonkeyPatch.context() as patch:
            record_inverse_updates(patch, formed, pairs)
            bfgs_solve(objective, np.zeros(d),
                       BaselineConfig(max_iters=3 * d, tolerance=1e-8))
        assert formed
        for H, (s, y) in zip(formed, pairs):
            assert np.linalg.norm(H @ y - s) <= 1e-10 * np.linalg.norm(s)
            np.linalg.cholesky(H)

    def test_trace_matches_the_dense_update(self, logistic_instance,
                                            monkeypatch, tmp_path):
        # the same solve with a full H, dense products and the dense
        # outer-product update: the counted columns are byte-equal, and f
        # and eta_hat move by rounding only
        config = BaselineConfig(max_iters=500, tolerance=1e-8)
        x0 = np.zeros(logistic_instance.dimension)
        write_trace_csv(bfgs_solve(logistic_instance, x0, config),
                        tmp_path / "packed.csv")
        monkeypatch.setattr(qnprox.baselines, "bfgs_inverse_update",
                            dense_inverse_update)
        monkeypatch.setattr(qnprox.baselines, "PackedSymmetric", DenseMatrix)
        write_trace_csv(bfgs_solve(logistic_instance, x0, config),
                        tmp_path / "dense.csv")
        packed_run, dense = (read_columns(tmp_path / name)
                             for name in ("packed.csv", "dense.csv"))
        assert len(packed_run["iter"]) > 10
        for name in ("iter", "case", "backtracks", "grad_queries",
                     "matvecs"):
            assert packed_run[name] == dense[name], name
        for name in ("f", "eta_hat"):
            got = np.array(packed_run[name], dtype=float)
            want = np.array(dense[name], dtype=float)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), name

    def test_faster_than_nag_on_logistic(self):
        objective = make_logistic(500, 50, seed=0)
        x0 = np.zeros(50)
        bfgs = bfgs_solve(objective, x0,
                          BaselineConfig(max_iters=500, tolerance=1e-8))
        assert np.linalg.norm(objective.gradient(bfgs.final_x)) <= 1e-8
        nag = nag_solve(objective, x0,
                        BaselineConfig(max_iters=2000, tolerance=1e-8))
        # NAG exhausts a budget more than 4x larger without reaching the
        # tolerance, so BFGS needed strictly fewer iterations
        assert len(nag.rows) == 2000
        assert len(bfgs.rows) < len(nag.rows)

    def test_precision_floor_stops_cleanly(self):
        # once the predicted decrease drops below float resolution the run
        # ends with a marker instead of an error
        objective = make_logistic(500, 50, seed=1)
        record = bfgs_solve(objective, np.zeros(50),
                            BaselineConfig(max_iters=2000, tolerance=0.0))
        assert record.metadata.get("stopped") == "precision_floor"
        assert len(record.rows) < 2000
        assert np.linalg.norm(objective.gradient(record.final_x)) <= 1e-6

    def test_genuine_line_search_failure_raises_with_trace(self):
        class Linear:
            """Unbounded below: the curvature condition never holds, and the
            predicted decrease stays far above the float floor."""

            dimension = 3

            def value(self, x):
                return float(np.sum(x))

            def gradient(self, x):
                return np.ones(3)

        with pytest.raises(ConvergenceError) as exc_info:
            bfgs_solve(Linear(), np.ones(3),
                       BaselineConfig(max_iters=10, tolerance=1e-12))
        err = exc_info.value
        assert err.best is not None
        assert err.trace is not None


@pytest.mark.parametrize("solver", [nag_solve, bfgs_solve])
class TestBothBaselines:
    @pytest.mark.parametrize("x0", [np.zeros(5),
                                    np.array([0.0, np.nan, 0.0, 0.0])],
                             ids=["wrong length", "nan"])
    def test_bad_x0_raises_naming_it(self, solver, x0):
        oracle = CountingOracle(QuadraticObjective(np.eye(4)))
        with pytest.raises(ValueError, match="x0"):
            solver(oracle, x0, BaselineConfig(max_iters=5))
        assert oracle.counters.gradient_queries == 0

    def test_gradient_of_wrong_shape_raises_naming_it(self, solver):
        # a 13-entry gradient for d = 12 after 5 good ones is rejected by the
        # counting oracle, not by numpy broadcasting, and keeps the trace
        objective = make_logistic(48, 12, seed=0)
        broken = FaultAfter(objective, 5,
                            fault=lambda g: np.append(g, 0.0))
        with pytest.raises(ValueError, match=r"gradient oracle returned "
                           r"shape \(13,\), expected \(12,\)") as info:
            solver(broken, np.zeros(12), BaselineConfig(max_iters=40))
        assert 1 <= len(info.value.trace.rows) <= 5
        # the rejected sixth query is counted
        assert info.value.counters.gradient_queries == 6

    def test_value_of_wrong_shape_raises_naming_it(self, solver):
        # a 2-entry value is rejected by the counting oracle, not by
        # float(), and the error keeps its type and carries the trace
        objective = make_logistic(48, 12, seed=0)
        with pytest.raises(ValueError, match=r"value oracle returned shape "
                           r"\(2,\), expected a scalar") as info:
            solver(VectorValue(objective), np.zeros(12),
                   BaselineConfig(max_iters=5))
        assert len(info.value.trace.rows) == 0
        # the value at x0 comes before any gradient
        assert info.value.counters == OracleCounters()


class TestConfig:
    def test_wolfe_constant_ordering(self):
        assert 0.0 < WOLFE_C1 < WOLFE_C2 < 1.0

    @pytest.mark.parametrize("field, value", [
        ("max_iters", 0), ("tolerance", -1.0), ("tolerance", math.nan),
        ("max_iters", 2.5), ("max_iters", "10"),
    ])
    def test_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            BaselineConfig(**{field: value})
