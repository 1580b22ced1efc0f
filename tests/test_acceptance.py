"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (run with -s or
check the captured output).  Criteria 1-7, 11 and 13 share the session-scoped
500-iteration run on the n=500, d=50, seed-0 logistic instance; criterion 11
solves it again to check each learner output as it is made.
"""

import functools
import time
from collections import Counter

import numpy as np

import qnprox.solver
from qnprox import (BaselineConfig, SolverConfig, bfgs_solve, nag_solve,
                    solve, write_trace_csv)
from qnprox.errors import ConvergenceError
from qnprox.learner import learner_step
from qnprox.linear_solver import KrylovBasis, conjugate_residual
from qnprox.separation import separation_oracle
from qnprox.selftest import (backtrack_violation, band_violation,
                             certificate_violation,
                             conjugate_residual_violation, fed_loss_violation,
                             gradient_query_violation, potential_violation,
                             separation_violation, weight_growth_violation)
from qnprox.solver import ALPHA1, ALPHA2
from conftest import (make_logistic, random_psd, random_unit_opnorm,
                      reference_minimizer)
from helpers import (hyperplane, iterations_to_gap, loss_sample,
                     matrix_loss_gradient, packed)
from test_learner import fd_symmetric_gradient


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] FAIL  {title}")
                raise
            print(f"[criterion {number:2d}] PASS  {title}")
        return inner
    return wrap


@criterion(1, "certificate inequality on the 500-iteration logistic run")
def test_c01_certificate_inequality(criterion_run, reference_optimum,
                                    logistic_instance):
    record, reports, _ = criterion_run
    x_star, f_star = reference_optimum
    assert len(reports) == 500
    z0 = np.zeros(logistic_instance.dimension)
    assert certificate_violation(reports, logistic_instance, x_star, f_star,
                                 z0) is None
    assert record.wall_time < 120.0


@criterion(2, "potential function non-increasing")
def test_c02_potential_monotonicity(criterion_run, reference_optimum,
                                    logistic_instance):
    _, reports, _ = criterion_run
    x_star, f_star = reference_optimum
    z0 = np.zeros(logistic_instance.dimension)
    assert potential_violation(reports, logistic_instance, x_star, f_star,
                               z0) is None


@criterion(3, "accumulated weight growth bound")
def test_c03_weight_growth(criterion_run):
    _, reports, config = criterion_run
    assert weight_growth_violation(reports, config.beta) is None


@criterion(4, "total gradient queries within 3N + log term")
def test_c04_gradient_accounting(criterion_run):
    record, _, _ = criterion_run
    assert gradient_query_violation(record) is None


@criterion(5, "average gradient queries below 3 with histogram mode in {2,3}")
def test_c05_average_queries(criterion_run):
    record, _, _ = criterion_run
    deltas = record.grad_query_deltas()
    assert sum(deltas) / len(deltas) < 3.0
    mode = Counter(deltas).most_common(1)[0][0]
    assert mode in (2, 3)


@criterion(6, "every fed loss bounded by the smoothness constant squared")
def test_c06_loss_bound(criterion_run, logistic_instance):
    _, reports, _ = criterion_run
    L1 = logistic_instance.smoothness
    fed = [rep.loss_fed for rep in reports if rep.loss_fed is not None]
    assert fed
    assert fed_loss_violation(fed, L1) is None


@criterion(7, "step-size lower bound and displacement relation when backtracked")
def test_c07_backtrack_relations(criterion_run):
    _, reports, config = criterion_run
    backtracked = [rep for rep in reports if rep.search.rejected is not None]
    assert backtracked
    for rep in backtracked:
        assert backtrack_violation(rep.search, rep.y, ALPHA1, ALPHA2,
                                   config.beta) is None


@criterion(8, "conjugate residual bounds on 100 random shifted operators")
def test_c08_conjugate_residual_bounds():
    start = time.perf_counter()
    alpha, d = 0.1, 20
    for seed in range(100):
        rng = np.random.default_rng(seed)
        B = random_psd(rng, d, top=float(rng.uniform(0.2, 1.0)))
        eta = float(rng.uniform(0.1, 10.0))
        A = np.eye(d) + eta * B
        b = rng.standard_normal(d)
        result = conjugate_residual(KrylovBasis(lambda v: B @ v, b), eta, b,
                                    alpha)
        assert conjugate_residual_violation(result, A, b, alpha) is None
        # one-step termination once eta <= alpha / (2 L1) with ||B||_op <= 1
        small = conjugate_residual(KrylovBasis(lambda v: B @ v, b),
                                   alpha / 2.0, b, alpha)
        assert small.iterations <= 1
    assert time.perf_counter() - start < 10.0


@criterion(9, "separation-oracle certificates over 200 seeded calls")
def test_c09_separation_certificates():
    start = time.perf_counter()
    d, q, delta = 30, 0.05, 0.05
    rng = np.random.default_rng(2718)
    targets = [0.3, 0.8, 1.2, 4.0]
    failures = 0
    branch_seen = {"coarse_inside": 0, "fine": 0, "coarse_separated": 0}
    runs = 200
    for seed in range(runs):
        target = targets[seed % len(targets)]
        W = random_unit_opnorm(rng, d) * target
        result = separation_oracle(packed(W), delta=delta, q=q, seed=seed)
        ok = separation_violation(result, W) is None
        s_norm = float(np.linalg.norm(hyperplane(result)))
        if result.separated and abs(s_norm - 3.0) <= 1e-9:
            branch_seen["coarse_separated"] += 1
        elif result.separated:
            branch_seen["fine"] += 1
        elif result.gamma <= 1.0 and target <= 0.4:
            branch_seen["coarse_inside"] += 1
        if result.separated:
            assert result.gamma > 1.0
            assert abs(s_norm - 1.0) <= 1e-9 or abs(s_norm - 3.0) <= 1e-9
            for _ in range(100):
                B_hat = random_unit_opnorm(rng, d)
                margin = float(np.sum(hyperplane(result) * (W - B_hat)))
                if margin < result.gamma - 1.0 - delta - 1e-9:
                    ok = False
        else:
            assert result.gamma <= 1.0
        if not ok:
            failures += 1
    assert all(count > 0 for count in branch_seen.values())
    assert failures <= q * runs
    assert time.perf_counter() - start < 30.0


@criterion(10, "loss gradient matches central finite differences")
def test_c10_loss_gradient_fd():
    rng = np.random.default_rng(31)
    d = 8
    for _ in range(50):
        B = random_psd(rng, d, top=float(rng.uniform(0.5, 3.0)))
        sample = loss_sample(B, rng.standard_normal(d),
                             rng.standard_normal(d))
        grad = matrix_loss_gradient(B, sample)
        fd = fd_symmetric_gradient(B, sample)
        assert (np.linalg.norm(fd - grad)
                <= 1e-6 * max(1.0, np.linalg.norm(grad)))


@criterion(11, "learner outputs stay inside the curvature band")
def test_c11_learner_feasibility(criterion_run, logistic_instance,
                                 monkeypatch):
    # the shared run again, with each learner output checked as it is made:
    # the next step writes into its W
    record, reports, config = criterion_run
    L1 = logistic_instance.smoothness
    outputs = []

    def checked(state, sample, seed):
        state, report = learner_step(state, sample, seed)
        outputs.append(band_violation(state.B.dense(), L1))
        return state, report

    monkeypatch.setattr(qnprox.solver, "learner_step", checked)
    x0 = np.zeros(logistic_instance.dimension)
    rerun = solve(logistic_instance, x0, x0.copy(), config)
    assert rerun.rows == record.rows
    assert len(outputs) == sum(rep.case == "II" for rep in reports) > 0
    assert outputs == [None] * len(outputs)


@criterion(12, "iteration ordering: BFGS < accelerated solver < NAG at gap 1e-8")
def test_c12_method_ordering():
    start = time.perf_counter()
    gap = 1e-8
    nag_budget = 6000
    for seed in (0, 1, 2):
        objective = make_logistic(500, 50, seed=seed)
        x0 = np.zeros(objective.dimension)
        x_star = reference_minimizer(objective, x0)
        f_star = float(objective.value(x_star))

        accelerated = solve(objective, x0, x0.copy(),
                            SolverConfig(max_iters=1500, seed=seed))
        nag = nag_solve(objective, x0, BaselineConfig(max_iters=nag_budget))
        try:
            bfgs = bfgs_solve(objective, x0,
                              BaselineConfig(max_iters=200, tolerance=1e-10))
        except ConvergenceError as exc:
            bfgs = exc.trace

        it_acc = iterations_to_gap(accelerated, f_star, gap)
        it_nag = iterations_to_gap(nag, f_star, gap)
        it_bfgs = iterations_to_gap(bfgs, f_star, gap)
        assert it_acc is not None and it_bfgs is not None
        # a NAG crossing beyond its budget still certifies "strictly more"
        assert it_nag is None or it_acc < it_nag
        if it_nag is None:
            assert it_acc < nag_budget
        assert it_bfgs < it_acc
    assert time.perf_counter() - start < 300.0


@criterion(13, "identical seeds produce byte-identical trace CSVs")
def test_c13_determinism(criterion_run, logistic_instance, tmp_path):
    record, _, config = criterion_run
    rerun = solve(logistic_instance, np.zeros(logistic_instance.dimension),
                  np.zeros(logistic_instance.dimension), config)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_trace_csv(record, first)
    write_trace_csv(rerun, second)
    assert first.read_bytes() == second.read_bytes()
