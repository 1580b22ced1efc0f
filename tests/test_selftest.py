"""Every shared invariant check holds on real data and reports a planted
violation, so no check in ``qnprox.selftest`` can pass vacuously."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qnprox import ConvergenceError, SolverConfig, solve
from qnprox.learner import init_learner
from qnprox.linear_solver import KrylovBasis, conjugate_residual
from qnprox.separation import separation_oracle
from qnprox.solver import momentum_weights
from qnprox.selftest import (backtrack_violation, band_violation,
                             certificate_violation,
                             conjugate_residual_violation, fed_loss_violation,
                             gradient_query_violation,
                             learner_bound_violation, momentum_violation,
                             potential_violation, separation_violation,
                             smoothness_violation, weight_growth_violation)
from conftest import make_logistic, random_psd, reference_minimizer
from helpers import packed, rescale_to_unit_ball


@pytest.fixture(scope="module")
def run(small_logistic):
    x0 = np.zeros(small_logistic.dimension)
    reports = []
    record = solve(small_logistic, x0,
                   config=SolverConfig(max_iters=60, seed=0),
                   observer=reports.append)
    x_star = reference_minimizer(small_logistic, x0)
    return SimpleNamespace(objective=small_logistic, x0=x0, record=record,
                           reports=reports, x_star=x_star,
                           f_star=float(small_logistic.value(x_star)))


def with_report(reports, k, **changes):
    return reports[:k] + [replace(reports[k], **changes)] + reports[k + 1:]


# each case returns (check, data on which it holds, data with a violation)

def momentum(run):
    A, eta = 3.0, 2.0
    a, _ = momentum_weights(A, eta, np.zeros(1), np.zeros(1))
    return lambda a: momentum_violation(A, eta, a), a, a * (1.0 + 1e-6)


def certificate(run):
    def check(reports):
        return certificate_violation(reports, run.objective, run.x_star,
                                     run.f_star, run.x0)
    A = run.reports[0].A
    return check, run.reports, with_report(run.reports, 0, A=1e12 * A)


def potential(run):
    def check(reports):
        return potential_violation(reports, run.objective, run.x_star,
                                   run.f_star, run.x0)
    z = run.reports[10].z
    return check, run.reports, with_report(run.reports, 10, z=z + 100.0)


def weight_growth(run):
    return (weight_growth_violation, run.reports,
            with_report(run.reports, 30, A=0.0))


def gradient_queries(run):
    rows = list(run.record.rows)
    rows[5] = replace(rows[5], backtracks=rows[5].backtracks + 1)
    return (gradient_query_violation, run.record,
            replace(run.record, rows=rows))


def fed_loss(run):
    L1 = run.objective.smoothness
    fed = [rep.loss_fed for rep in run.reports if rep.loss_fed is not None]
    return (lambda losses: fed_loss_violation(losses, L1), fed,
            fed[:-1] + [1.1 * L1 ** 2])


def backtracked_report(run):
    return next(rep for rep in run.reports
                if rep.search.rejected is not None)


def backtrack_check(run, rep):
    return lambda outcome: backtrack_violation(outcome, rep.y)


def backtrack_step(run):
    rep = backtracked_report(run)
    return (backtrack_check(run, rep), rep.search,
            replace(rep.search, eta_hat=0.0))


def backtrack_displacement(run):
    rep = backtracked_report(run)
    return (backtrack_check(run, rep), rep.search,
            replace(rep.search, x_hat=rep.y))


def conjugate_residual_cap(run):
    rng = np.random.default_rng(0)
    B = random_psd(rng, 10)
    A = np.eye(10) + 5.0 * B
    b = rng.standard_normal(10)
    result = conjugate_residual(KrylovBasis(lambda v: B @ v, b), 5.0, b, 0.1)
    return (lambda res: conjugate_residual_violation(res, A, b, 0.1), result,
            replace(result, iterations=result.iterations + 100))


def separation(run):
    W = np.zeros((10, 10))
    W[0, 0] = 4.0
    result = separation_oracle(packed(W), delta=0.1, q=0.05, seed=0)
    assert result.separated
    return lambda W: separation_violation(result, W), W, 10.0 * W


def separation_inside(run):
    # rank one 0.3 e e^T is certified inside with gamma = 0.6; a W with
    # ||W||_op = 0.75 still lies in the ball but above that gamma
    e = np.zeros(10)
    e[0] = 1.0
    W = 0.3 * np.outer(e, e)
    result = separation_oracle(packed(W), delta=0.1, q=0.05, seed=0)
    assert not result.separated and result.gamma < 0.75
    return lambda W: separation_violation(result, W), W, 2.5 * W


def learner_bound(run):
    # the bound ||W||_F holds; one below ||W||_op does not
    rng = np.random.default_rng(0)
    W = rescale_to_unit_ball(random_psd(rng, 6, top=2.0), 2.0)
    state = replace(init_learner(6, 2.0), W=packed(W),
                    op_bound=float(np.linalg.norm(W)))
    op = float(np.abs(np.linalg.eigvalsh(W)).max())
    return (learner_bound_violation, state,
            replace(state, op_bound=0.9 * op))


def smoothness(run):
    # at x = 0 the logistic Hessian reaches L1, so an L1 just below fails
    low = SimpleNamespace(hessian=run.objective.hessian,
                          smoothness=(1.0 - 1e-9) * run.objective.smoothness)
    x = np.zeros(run.objective.dimension)
    return (lambda objective: smoothness_violation(objective, x),
            run.objective, low)


def band(run):
    L1 = 2.0
    return (lambda B: band_violation(B, L1), 0.5 * L1 * np.eye(4),
            1.1 * L1 * np.eye(4))


@pytest.mark.parametrize("case", [
    momentum, certificate, potential, weight_growth, gradient_queries,
    fed_loss, backtrack_step, backtrack_displacement, conjugate_residual_cap,
    separation, separation_inside, learner_bound, smoothness, band,
], ids=lambda case: case.__name__)
def test_planted_violation_is_reported(case, run):
    check, holds, planted = case(run)
    assert check(holds) is None
    message = check(planted)
    assert isinstance(message, str) and message


@pytest.mark.parametrize("extra", [0, 1], ids=["3N", "3N+1"])
def test_gradient_query_bound_is_exactly_3n_at_the_default_sigma0(run, extra):
    # N iterations started at the paper's sigma0 = alpha2 / L1 may take 3 N
    # gradient queries, and no more
    rows = [replace(row, backtracks=1, grad_queries=3 * (i + 1))
            for i, row in enumerate(run.record.rows)]
    N = len(rows)
    rows[-1] = replace(rows[-1], backtracks=1 + extra,
                       grad_queries=3 * N + extra)
    message = gradient_query_violation(replace(run.record, rows=rows))
    assert (message is None) == (extra == 0)


@pytest.mark.parametrize("n, d", [(40, 5), (500, 50)])
def test_reference_minimizer_survives_separable_data(n, d):
    # on separable data f has no minimizer and the Newton system turns
    # singular: the polish returns a point at ||grad|| <= 1e-13 or raises
    # ConvergenceError with its best point, never LinAlgError, and that
    # point is no worse than the start
    objective = make_logistic(n, d, seed=0, sigma=0.0)
    x0 = np.zeros(d)
    try:
        x = reference_minimizer(objective, x0)
    except ConvergenceError as exc:
        assert exc.best is not None
        x = exc.best
    else:
        assert np.linalg.norm(objective.gradient(x)) <= 1e-13
    assert objective.value(x) <= objective.value(x0)
