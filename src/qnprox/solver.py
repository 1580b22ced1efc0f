"""Accelerated proximal-extragradient driver with learned curvature.

Each iteration runs four stages: momentum weights and the anchor point,
the backtracking line search for an inexact proximal step, the case-dependent
state update (plain acceleration when the first trial is accepted, momentum
damping when the search backtracks), and, on backtracked iterations only, one
round of the online curvature learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigurationError, SolverError, check_at_least,
                     check_integer, check_interval)
from .learner import (DEFAULT_STEP_SIZE, LearnerState, init_learner,
                      learner_step)
from .line_search import LineSearchOutcome, backtracking_search
from .oracles import CountingOracle, checked_input, estimate_smoothness
from .trace import (PRECISION_FLOOR, TOLERANCE, RunRecord, format_float,
                    record_run)

CASE_ACCEPTED = "I"
CASE_DAMPED = "II"
# the linear solve's accuracy and the proximal slack, alpha1 + alpha2 < 1
ALPHA1 = 0.1
ALPHA2 = 0.85


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the accelerated solver, checked when constructed: a field
    out of range raises :class:`ValueError` naming it.

    beta is the backtracking factor.  sigma0 defaults to ALPHA2 / L1, the
    choice under which the amortized gradient cost is below three queries
    per iteration.
    """

    beta: float = 0.5
    sigma0: Optional[float] = None
    max_iters: int = 100
    tolerance: float = 0.0
    rho: float = DEFAULT_STEP_SIZE
    seed: int = 0

    def __post_init__(self) -> None:
        check_interval("beta", self.beta, 0.0, 1.0)
        if self.sigma0 is not None:
            check_interval("sigma0", self.sigma0, 0.0, math.inf)
        check_integer("max_iters", self.max_iters, 1)
        check_at_least("tolerance", self.tolerance, 0.0)
        check_interval("rho", self.rho, 0.0, math.inf)
        check_integer("seed", self.seed, 0)


@dataclass
class SolverState:
    x: np.ndarray
    z: np.ndarray
    A: float
    eta: float
    learner: LearnerState
    k: int


@dataclass(frozen=True)
class IterationReport:
    """Internals of one iteration, for invariant checks and diagnostics:
    d-vectors and scalars, which no later step writes into.  ``search`` is
    the line search's outcome from ``y``; on case II the learner was fed
    ``search.rejected``."""

    k: int
    a: float
    eta: float
    case: str
    y: np.ndarray
    x: np.ndarray
    z: np.ndarray
    A: float
    grad_at_y: np.ndarray
    search: LineSearchOutcome
    loss_fed: Optional[float]
    gamma: Optional[float]


def momentum_weights(A: float, eta: float, x: np.ndarray, z: np.ndarray
                     ) -> tuple[float, np.ndarray]:
    """Momentum weight a and anchor y = (A x + a z) / (A + a).

    a solves a^2 = eta (A + a), so eta * (A + a) == a * a up to rounding.
    """
    a = (eta + math.sqrt(eta * eta + 4.0 * eta * A)) / 2.0
    y = (A * x + a * z) / (A + a)
    return a, y


def damped_iterate(x: np.ndarray, x_hat: np.ndarray, A: float, a: float,
                   gamma: float) -> np.ndarray:
    """Momentum-damped convex combination used when the search backtracks."""
    return ((1.0 - gamma) * A * x + gamma * (A + a) * x_hat) / (A + gamma * a)


def precision_floor(L1: float, y: np.ndarray) -> float:
    """4096 eps L1 (1 + ||y||): an anchor gradient at or below it is at
    float-noise scale, where displacements round away and no step size can
    satisfy the proximal test."""
    return (4096.0 * np.finfo(float).eps * L1
            * (1.0 + float(np.linalg.norm(y))))


def step(state: SolverState, oracle: CountingOracle, config: SolverConfig,
         rng: np.random.Generator
         ) -> Optional[tuple[SolverState, IterationReport]]:
    """Advance one iteration; feeds the learner only when backtracked, with
    the line search's sample of its rejected trial as it is, and books the
    iteration's reported matvecs on ``oracle.counters``.  Returns None when
    the gradient at the anchor is at the precision floor.  The learner
    step consumes ``state.learner``'s W."""
    a, y = momentum_weights(state.A, state.eta, state.x, state.z)
    grad_y = oracle.gradient(y)
    try:
        outcome = backtracking_search(
            y, grad_y, state.learner.B, state.eta, ALPHA1, ALPHA2,
            config.beta, oracle)
    except ConfigurationError:
        # a failed search with a gradient at the floor: converged
        floor = precision_floor(state.learner.L1, y)
        if float(np.linalg.norm(grad_y)) <= floor:
            return None
        raise

    learner_matvecs = 0
    if outcome.backtracks == 0:
        x_next = outcome.x_hat
        z_next = state.z - a * outcome.grad_at_x_hat
        A_next = state.A + a
        eta_next = outcome.eta_hat / config.beta
        learner = state.learner
        case = CASE_ACCEPTED
        loss_fed = None
        gamma = None
    else:
        gamma = outcome.eta_hat / state.eta
        x_next = damped_iterate(state.x, outcome.x_hat, state.A, a, gamma)
        z_next = state.z - gamma * a * outcome.grad_at_x_hat
        A_next = state.A + gamma * a
        eta_next = outcome.eta_hat
        learner, learner_report = learner_step(state.learner,
                                               outcome.rejected, rng)
        case = CASE_DAMPED
        loss_fed = learner_report.loss_value
        learner_matvecs = learner_report.matvecs
    oracle.counters.count_matvec(outcome.matvecs + learner_matvecs)

    next_state = SolverState(x=x_next, z=z_next, A=A_next, eta=eta_next,
                             learner=learner, k=state.k + 1)
    report = IterationReport(
        k=state.k, a=a, eta=state.eta, case=case, y=y, x=x_next, z=z_next,
        A=A_next, grad_at_y=grad_y, search=outcome, loss_fed=loss_fed,
        gamma=gamma)
    return next_state, report


def _iterations(state: SolverState, oracle, config: SolverConfig, observer):
    """:func:`solve`'s iterations for :func:`~qnprox.trace.record_run`.  The
    observer gets each report before its row is taken, and the tolerance
    test follows the row.  An error is raised as :class:`SolverError`."""
    rng = np.random.default_rng(config.seed)
    try:
        while True:
            advanced = step(state, oracle, config, rng)
            if advanced is None:
                return PRECISION_FLOOR
            state, report = advanced
            f = float(oracle.value(state.x))
            if observer is not None:
                observer(report)
            yield (f, report.search.eta_hat, report.case,
                   report.search.backtracks, state.x)
            if np.linalg.norm(report.search.grad_at_x_hat) <= config.tolerance:
                return TOLERANCE
            del advanced, report  # the next step holds no finished report
    except Exception as exc:
        raise SolverError(f"solver aborted at iteration {state.k}: {exc}"
                          ) from exc


def solve(oracle, x0: np.ndarray, z0: Optional[np.ndarray] = None,
          config: Optional[SolverConfig] = None,
          observer: Optional[Callable[[IterationReport], None]] = None
          ) -> RunRecord:
    """Minimize the oracle's objective from (x0, z0).

    Runs until ``config.max_iters`` or until the gradient norm at the
    accepted extragradient point drops to ``config.tolerance`` (that gradient
    is already paid for by the line search, so the stopping test adds no
    oracle queries).  Returns the per-iteration trace; an ``observer``
    receives the full :class:`IterationReport` each iteration.

    L1 is the oracle's ``smoothness`` attribute when it has one, else the
    Lanczos estimate of :func:`~qnprox.oracles.estimate_smoothness`, which
    raises :class:`NumericsError` at a non-finite Hessian product.

    The curvature learner starts at the center (L1 / 2) I of the band
    0 <= B <= L1 I (:func:`~qnprox.learner.init_learner`).

    Inputs are checked before iteration 0: ``x0`` and ``z0`` must match
    ``oracle.dimension`` and be finite, and the L1 must be finite and
    positive, else :class:`ValueError`.  An error during the run is raised
    as :class:`SolverError`, naming the iteration, from its cause.
    """
    config = config if config is not None else SolverConfig()

    def begin(oracle, x):
        z = x.copy() if z0 is None else checked_input("z0", z0, x.shape).copy()
        L1, source = oracle.smoothness, "the oracle's smoothness"
        if L1 is None:
            L1 = estimate_smoothness(oracle.inner, x, seed=config.seed)
            source = "the curvature estimate"
        check_interval(f"L1 from {source}", L1, 0.0, math.inf)
        sigma0 = config.sigma0 if config.sigma0 is not None else ALPHA2 / L1
        state = SolverState(x=x, z=z, A=0.0, eta=sigma0, k=0,
                            learner=init_learner(x.size, L1, rho=config.rho))
        metadata = {"alpha1": format_float(ALPHA1),
                    "alpha2": format_float(ALPHA2),
                    "beta": format_float(config.beta),
                    "sigma0": format_float(sigma0), "L1": format_float(L1),
                    "seed": str(config.seed)}
        return metadata, _iterations(state, oracle, config, observer)

    return record_run("aqnpe", oracle, x0, config, begin)
