"""Accelerated proximal-extragradient driver with learned curvature.

Each iteration runs four stages: momentum weights and the anchor point,
the backtracking line search for an inexact proximal step, the case-dependent
state update (plain acceleration when the first trial is accepted, momentum
damping when the search backtracks), and, on backtracked iterations only, one
round of the online curvature learner.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigurationError, SolverError, check_at_least,
                     check_integer, check_interval)
from .learner import (DEFAULT_FAILURE_BUDGET, DEFAULT_STEP_SIZE, Curvature,
                      LearnerState, LossSample, init_learner, learner_step)
from .line_search import backtracking_search
from .oracles import CountingOracle, checked_input, estimate_smoothness
from .trace import RunRecord, TraceRow, format_float

CASE_ACCEPTED = "I"
CASE_DAMPED = "II"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the accelerated solver, checked when constructed: a field
    out of range raises :class:`ValueError` naming it.

    alpha1 controls the linear-solve accuracy, alpha2 the proximal slack
    (alpha1 + alpha2 < 1), beta the backtracking factor.  sigma0 defaults to
    alpha2 / L1, the choice under which the amortized gradient cost is below
    three queries per iteration.  L1 may be omitted when the oracle carries a
    ``smoothness`` attribute; otherwise it is estimated by curvature probing.
    """

    alpha1: float = 0.1
    alpha2: float = 0.85
    beta: float = 0.5
    sigma0: Optional[float] = None
    L1: Optional[float] = None
    max_iters: int = 100
    tolerance: float = 0.0
    failure_budget: float = DEFAULT_FAILURE_BUDGET
    rho: float = DEFAULT_STEP_SIZE
    seed: int = 0
    max_cr_iters: Optional[int] = None

    def __post_init__(self) -> None:
        check_interval("alpha1", self.alpha1, 0.0, 1.0)
        check_interval("alpha2", self.alpha2, 0.0, 1.0)
        if self.alpha1 + self.alpha2 >= 1.0:
            raise ValueError(f"alpha1 + alpha2 must be < 1, got "
                             f"{self.alpha1!r} + {self.alpha2!r}")
        check_interval("beta", self.beta, 0.0, 1.0)
        for name in ("sigma0", "L1"):
            if getattr(self, name) is not None:
                check_interval(name, getattr(self, name), 0.0, math.inf)
        check_integer("max_iters", self.max_iters, 1)
        check_at_least("tolerance", self.tolerance, 0.0)
        check_interval("failure_budget", self.failure_budget, 0.0, 1.0)
        check_interval("rho", self.rho, 0.0, math.inf)
        check_integer("seed", self.seed, 0)
        if self.max_cr_iters is not None:
            check_integer("max_cr_iters", self.max_cr_iters, 1)


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
    """Internals of one iteration, for invariant checks and diagnostics."""

    k: int
    a: float
    eta: float
    eta_hat: float
    case: str
    backtracks: int
    y: np.ndarray
    x_hat: np.ndarray
    x: np.ndarray
    z: np.ndarray
    A: float
    grad_norm_at_x_hat: float
    x_tilde: Optional[np.ndarray]
    grad_at_y: np.ndarray
    grad_at_x_tilde: Optional[np.ndarray]
    loss_fed: Optional[float]
    B_used: Curvature
    B: Curvature
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
         rng: np.random.Generator, *, observed: bool
         ) -> Optional[tuple[SolverState, IterationReport]]:
    """Advance one iteration; feeds the learner only when backtracked and
    books the iteration's reported matvecs on ``oracle.counters``.  Returns
    None when the gradient at the anchor is at the precision floor.

    The learner step consumes ``state.learner``'s W.  When ``observed``, it
    steps on a copy instead, so the report's ``B_used`` is never written
    after it is reported.  Without it, the report's ``B_used`` shares its W
    with the returned state, so once ``step`` returns ``B_used`` no longer
    is the matrix the line search used, and no check may read it."""
    a, y = momentum_weights(state.A, state.eta, state.x, state.z)
    grad_y = oracle.gradient(y)
    try:
        outcome = backtracking_search(
            y, grad_y, state.learner.B, state.eta, config.alpha1,
            config.alpha2, config.beta, oracle,
            max_cr_iters=config.max_cr_iters)
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
        sample = LossSample(w=outcome.grad_at_x_tilde - grad_y,
                            s=outcome.s_tilde, Bs=outcome.Bs_tilde)
        learner = state.learner
        if observed:
            learner = replace(learner, W=learner.W.copy())
        learner, learner_report = learner_step(learner, sample, rng)
        case = CASE_DAMPED
        loss_fed = learner_report.loss_value
        learner_matvecs = learner_report.matvecs
    oracle.counters.count_matvec(outcome.matvecs + learner_matvecs)

    next_state = SolverState(x=x_next, z=z_next, A=A_next, eta=eta_next,
                             learner=learner, k=state.k + 1)
    report = IterationReport(
        k=state.k, a=a, eta=state.eta, eta_hat=outcome.eta_hat, case=case,
        backtracks=outcome.backtracks, y=y, x_hat=outcome.x_hat, x=x_next,
        z=z_next, A=A_next,
        grad_norm_at_x_hat=float(np.linalg.norm(outcome.grad_at_x_hat)),
        x_tilde=outcome.x_tilde, grad_at_y=grad_y,
        grad_at_x_tilde=outcome.grad_at_x_tilde, loss_fed=loss_fed,
        B_used=state.learner.B, B=learner.B, gamma=gamma)
    return next_state, report


def solve(oracle, x0: np.ndarray, z0: Optional[np.ndarray] = None,
          config: Optional[SolverConfig] = None,
          B0: Optional[np.ndarray] = None,
          observer: Optional[Callable[[IterationReport], None]] = None
          ) -> RunRecord:
    """Minimize the oracle's objective from (x0, z0).

    Runs until ``config.max_iters`` or until the gradient norm at the
    accepted extragradient point drops to ``config.tolerance`` (that gradient
    is already paid for by the line search, so the stopping test adds no
    oracle queries).  Returns the per-iteration trace; an ``observer``
    receives the full :class:`IterationReport` each iteration.

    Inputs are checked before iteration 0: ``x0``, ``z0`` and ``B0`` must
    match ``oracle.dimension`` and be finite, an L1 read from
    ``oracle.smoothness`` or estimated must be finite and positive, and the
    learner checks that B0 lies in the band, else :class:`ValueError`.  On
    failure during the run the partial trace is attached to the raised
    :class:`SolverError`.
    """
    config = config if config is not None else SolverConfig()
    if not isinstance(oracle, CountingOracle):
        oracle = CountingOracle(oracle)
    counters = oracle.counters
    d = oracle.dimension
    x = checked_input("x0", x0, (d,)).copy()
    z = x.copy() if z0 is None else checked_input("z0", z0, (d,)).copy()
    if B0 is not None:
        B0 = checked_input("B0", B0, (d, d))

    L1 = config.L1
    if L1 is None:
        # config.L1 is checked when the config is made; these sources are not
        L1, source = oracle.smoothness, "the oracle's smoothness"
        if L1 is None:
            L1 = estimate_smoothness(oracle.inner, x, seed=config.seed)
            source = "the curvature estimate"
        check_interval(f"L1 from {source}", L1, 0.0, math.inf)
    sigma0 = config.sigma0 if config.sigma0 is not None else config.alpha2 / L1

    # the default start, the center (L1 / 2) I of Z, minimizes the worst-case
    # distance to any Hessian
    state = SolverState(x=x, z=z, A=0.0, eta=sigma0, k=0, learner=init_learner(
        d, L1, B0, rho=config.rho, failure_budget=config.failure_budget))
    # the learner holds its own copy: release the checked B0 before the run
    del B0
    rng = np.random.default_rng(config.seed)

    record = RunRecord(method="aqnpe", metadata={
        "alpha1": format_float(config.alpha1),
        "alpha2": format_float(config.alpha2),
        "beta": format_float(config.beta),
        "sigma0": format_float(sigma0),
        "L1": format_float(L1),
        "seed": str(config.seed),
        "max_iters": str(config.max_iters),
        "tolerance": format_float(config.tolerance),
    })
    start = time.perf_counter()
    try:
        for _ in range(config.max_iters):
            advanced = step(state, oracle, config, rng,
                            observed=observer is not None)
            if advanced is None:
                record.metadata["stopped"] = "precision_floor"
                break
            state, report = advanced
            record.append(TraceRow(
                iteration=state.k,
                f_value=float(oracle.value(state.x)),
                eta_hat=report.eta_hat,
                case=report.case,
                backtracks=report.backtracks,
                grad_queries=counters.gradient_queries,
                matvecs=counters.matvecs,
            ))
            if observer is not None:
                observer(report)
            if report.grad_norm_at_x_hat <= config.tolerance:
                break
    except Exception as exc:
        raise SolverError(f"solver aborted at iteration {state.k}: {exc}",
                          trace=record.finish(start, state.x)) from exc
    return record.finish(start, state.x)
