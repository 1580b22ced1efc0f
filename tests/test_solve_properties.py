"""Whole-solve properties on drawn convex problems.

Hypothesis draws small quadratics with a spectrum in [0, L1] and synthetic
logistic instances, d from 2 to 30, with random rho, beta and seeds.  Every
iteration of the solve must keep each shared check of ``qnprox.selftest``:
the momentum identity, the certificate, the potential, weight growth,
gradient-query accounting, the fed-loss bound, the backtrack relations, and
the learner's chained bound ||W||_op <= op_bound, read from each learner
state the solve produces.  Solved with and without an observer, a drawn
instance must write the same trace bytes.

These are exact-arithmetic statements.  Near the solver's precision floor,
an anchor gradient of about 4096 eps L1 (1 + ||y||)
(``solver.precision_floor``), the displacements and gradient differences
are at rounding scale and the backtrack relations hold only to rounding.
So each drawn solve stops, by its gradient tolerance, FLOOR_MARGIN times
above that floor at the minimizer.  The first drawn instance that ran to the floor is kept as a
regression case: run to the floor, it may break a backtrack relation only
within twice the floor.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qnprox.solver
from qnprox import SolverConfig, solve, write_trace_csv
from qnprox.learner import learner_step
from qnprox.selftest import (backtrack_violation, certificate_violation,
                             fed_loss_violation, gradient_query_violation,
                             learner_bound_violation, make_logistic,
                             momentum_violation, potential_violation,
                             reference_minimizer, weight_growth_violation)
from qnprox.solver import precision_floor
from helpers import QuadraticObjective

MAX_ITERS = 40
FLOOR_MARGIN = 16.0
# the regression case runs to its floor stop (42 iterations when written),
# past MAX_ITERS
FLOOR_RUN_ITERS = 100


def quadratic(d, seed):
    """A random rotation of a spectrum drawn in [0, L1], with L1 and 0 both
    in it, and its minimizer (the center) and minimum 0."""
    rng = np.random.default_rng(seed)
    L1 = float(rng.uniform(0.1, 10.0))
    spectrum = L1 * rng.uniform(0.0, 1.0, d)
    spectrum[0], spectrum[-1] = 0.0, L1
    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
    center = rng.standard_normal(d)
    objective = QuadraticObjective((U * spectrum) @ U.T, center=center)
    return objective, center, 0.0


def logistic(d, seed):
    """A synthetic logistic instance with 30 samples a dimension, so the
    classes overlap and a minimizer exists, and that minimizer."""
    objective = make_logistic(30 * d, d, seed=seed)
    x_star = reference_minimizer(objective, np.zeros(d))
    return objective, x_star, float(objective.value(x_star))


def solve_recording_learner(objective, config):
    """Solve from x0 = z0 = 0, keeping every report and every learner state
    and fed loss the solve produces."""
    reports, states, losses = [], [], []

    def recording(state, sample, seed):
        state, report = learner_step(state, sample, seed)
        states.append(state)
        losses.append(report.loss_value)
        return state, report

    x0 = np.zeros(objective.dimension)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qnprox.solver, "learner_step", recording)
        record = solve(objective, x0, config=config, observer=reports.append)
    return record, reports, states, losses


def violations(objective, x_star, f_star, config, record, reports, states,
               losses):
    z0 = np.zeros(objective.dimension)
    previous_A = [0.0] + [rep.A for rep in reports[:-1]]
    yield from (momentum_violation(A, rep.eta, rep.a)
                for A, rep in zip(previous_A, reports))
    yield certificate_violation(reports, objective, x_star, f_star, z0)
    yield potential_violation(reports, objective, x_star, f_star, z0)
    yield weight_growth_violation(reports, config.beta)
    yield gradient_query_violation(record)
    yield fed_loss_violation(losses, float(record.metadata["L1"]))
    yield from (backtrack_violation(rep, rep.y, rep.grad_at_y, rep.B_used,
                                    config.alpha1, config.alpha2, config.beta)
                for rep in reports)
    yield from map(learner_bound_violation, states)


def drawn_problem(kind, d, data_seed, solver_seed, rho, beta):
    """The drawn objective, its minimizer and minimum, and a config that
    stops FLOOR_MARGIN times above the precision floor."""
    objective, x_star, f_star = {"quadratic": quadratic,
                                 "logistic": logistic}[kind](d, data_seed)
    tolerance = FLOOR_MARGIN * precision_floor(objective.smoothness, x_star)
    config = SolverConfig(max_iters=MAX_ITERS, rho=rho, beta=beta,
                          seed=solver_seed, tolerance=tolerance)
    return objective, x_star, f_star, config


def check_solve(kind, d, data_seed, solver_seed, rho, beta):
    objective, x_star, f_star, config = drawn_problem(
        kind, d, data_seed, solver_seed, rho, beta)
    record, reports, states, losses = solve_recording_learner(objective,
                                                              config)
    assert len(reports) == len(record.rows) > 0
    assert len(states) == len(losses) == sum(rep.loss_fed is not None
                                             for rep in reports)
    problems = [problem for problem in violations(
        objective, x_star, f_star, config, record, reports, states, losses)
        if problem is not None]
    assert not problems, problems


@settings(max_examples=150)
@given(kind=st.sampled_from(["quadratic", "logistic"]),
       d=st.integers(2, 30),
       data_seed=st.integers(0, 2 ** 32 - 1),
       solver_seed=st.integers(0, 2 ** 32 - 1),
       rho=st.floats(1.0 / 512.0, 0.5),
       beta=st.floats(0.1, 0.9))
# the regression case below, stopped above the floor
@example(kind="quadratic", d=2, data_seed=0, solver_seed=0, rho=0.25,
         beta=0.25)
def test_every_iteration_keeps_every_check(kind, d, data_seed, solver_seed,
                                           rho, beta):
    check_solve(kind, d, data_seed, solver_seed, rho, beta)


@settings(max_examples=8)
@given(kind=st.sampled_from(["quadratic", "logistic"]),
       d=st.integers(2, 30),
       data_seed=st.integers(0, 2 ** 32 - 1),
       solver_seed=st.integers(0, 2 ** 32 - 1),
       rho=st.floats(1.0 / 512.0, 0.5),
       beta=st.floats(0.1, 0.9))
def test_observed_and_unobserved_solves_are_one_run(kind, d, data_seed,
                                                    solver_seed, rho, beta):
    # an observed solve steps the learner on a copy of W, so the reports it
    # hands out are never written; the copy must not change the run
    objective, _, _, config = drawn_problem(kind, d, data_seed, solver_seed,
                                            rho, beta)
    x0 = np.zeros(d)
    reports = []
    traces = []
    with tempfile.TemporaryDirectory() as directory:
        for observer in (None, reports.append):
            path = Path(directory) / f"{len(traces)}.csv"
            write_trace_csv(solve(objective, x0, config=config,
                                  observer=observer), path)
            traces.append(path.read_bytes())
    assert any(rep.loss_fed is not None for rep in reports)
    assert traces[0] == traces[1]


def test_backtrack_relations_fail_only_at_the_precision_floor():
    # run to the floor (tolerance 0), this instance may break the step-size
    # bound to rounding at its last iterations; each such anchor gradient
    # must be within twice the floor, and every other check must hold
    objective, x_star, f_star = quadratic(2, 0)
    config = SolverConfig(max_iters=FLOOR_RUN_ITERS, rho=0.25, beta=0.25,
                          seed=0)
    record, reports, states, losses = solve_recording_learner(objective,
                                                              config)
    assert record.metadata["stopped"] == "precision_floor"
    near_floor = [rep for rep in reports if backtrack_violation(
        rep, rep.y, rep.grad_at_y, rep.B_used, config.alpha1, config.alpha2,
        config.beta)]
    for rep in near_floor:
        assert (np.linalg.norm(rep.grad_at_y)
                <= 2.0 * precision_floor(objective.smoothness, rep.y))
    problems = [problem for problem in violations(
        objective, x_star, f_star, config, record, reports, states, losses)
        if problem is not None]
    assert len(problems) == len(near_floor)
