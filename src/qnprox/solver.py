"""Accelerated proximal-extragradient driver with learned curvature.

Each iteration runs four stages: momentum weights and the anchor point,
the backtracking line search for an inexact proximal step, the case-dependent
state update (plain acceleration when the first trial is accepted, momentum
damping when the search backtracks), and, on backtracked iterations only, one
round of the online curvature learner.  The iterations are one generator,
driven by :func:`~qnprox.trace.record_run` as the baselines' are.
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
from .line_search import (ALPHA1, ALPHA2, BETA, LineSearchOutcome,
                          backtracking_search)
from .oracles import checked_input
from .trace import (FLOAT_NOISE, PRECISION_FLOOR, TOLERANCE, RunRecord,
                    format_float, record_run)

CASE_ACCEPTED = "I"
CASE_DAMPED = "II"


@dataclass(frozen=True)
class SolverConfig:
    """The accelerated solver's settings, checked when constructed: a field
    out of range raises :class:`ValueError` naming it.

    The paper's other inputs are the constants ALPHA1, ALPHA2 and BETA of
    ``qnprox.line_search``, and the first step size sigma0 = ALPHA2 / L1.
    """

    max_iters: int = 100
    tolerance: float = 0.0
    rho: float = DEFAULT_STEP_SIZE
    seed: int = 0

    def __post_init__(self) -> None:
        check_integer("max_iters", self.max_iters, 1)
        check_at_least("tolerance", self.tolerance, 0.0)
        check_interval("rho", self.rho, 0.0, math.inf)
        check_integer("seed", self.seed, 0)


@dataclass(frozen=True)
class IterationReport:
    """Internals of one iteration, for invariant checks and diagnostics:
    d-vectors and scalars, which no later iteration writes into.  ``k``
    counts from 0, so it is the number of trace rows before this one.
    ``search`` is the line search's outcome from ``y``; on case II the
    learner was fed ``search.rejected``."""

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
    """FLOAT_NOISE L1 (1 + ||y||): an anchor gradient at or below it is at
    float-noise scale, where displacements round away and no step size can
    satisfy the proximal test."""
    return FLOAT_NOISE * L1 * (1.0 + float(np.linalg.norm(y)))


def _iterations(oracle, x: np.ndarray, z: np.ndarray, sigma0: float,
                learner: LearnerState, config: SolverConfig, observer):
    """:func:`solve`'s iterations for :func:`~qnprox.trace.record_run`.

    Feeds the learner only when backtracked, with the line search's sample
    of its rejected trial as it is, and books each iteration's reported
    matvecs on ``oracle.counters``; the learner step consumes the learner's
    W.  Returns PRECISION_FLOOR when the gradient at the anchor is at the
    precision floor.  The observer gets each report before its row is taken,
    and the row carries the tolerance test.  Iteration k counts from 0, so
    it is the number of rows already written; an error is raised as
    :class:`SolverError` naming it.
    """
    rng = np.random.default_rng(config.seed)
    A, eta, k = 0.0, sigma0, 0
    try:
        while True:
            a, y = momentum_weights(A, eta, x, z)
            grad_y = oracle.gradient(y)
            try:
                outcome = backtracking_search(y, grad_y, learner.B, eta,
                                              oracle)
            except ConfigurationError:
                # a failed search with a gradient at the floor: converged
                if (float(np.linalg.norm(grad_y))
                        <= precision_floor(learner.L1, y)):
                    return PRECISION_FLOOR
                raise

            if outcome.backtracks == 0:
                case, gamma, loss_fed = CASE_ACCEPTED, None, None
                learner_matvecs = 0
                x = outcome.x_hat
                z = z - a * outcome.grad_at_x_hat
                A += a
                eta_next = outcome.eta_hat / BETA
            else:
                case = CASE_DAMPED
                gamma = outcome.eta_hat / eta
                x = damped_iterate(x, outcome.x_hat, A, a, gamma)
                z = z - gamma * a * outcome.grad_at_x_hat
                A += gamma * a
                eta_next = outcome.eta_hat
                learner, learned = learner_step(learner, outcome.rejected, rng)
                loss_fed, learner_matvecs = learned.loss_value, learned.matvecs
            oracle.counters.count_matvec(outcome.matvecs + learner_matvecs)

            f = float(oracle.value(x))
            if observer is not None:
                observer(IterationReport(
                    k=k, a=a, eta=eta, case=case, y=y, x=x, z=z, A=A,
                    grad_at_y=grad_y, search=outcome, loss_fed=loss_fed,
                    gamma=gamma))
            met = np.linalg.norm(outcome.grad_at_x_hat) <= config.tolerance
            yield (f, outcome.eta_hat, case, outcome.backtracks, x,
                   TOLERANCE if met else None)
            # the next search holds no finished iteration's vectors
            del outcome, y, grad_y
            eta, k = eta_next, k + 1
    except Exception as exc:
        raise SolverError(f"solver aborted at iteration {k}: {exc}") from exc


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

    L1, the Lipschitz constant of the gradient, is required: it is read
    from the oracle's ``smoothness`` attribute, and nothing estimates it.

    The curvature learner starts at the center (L1 / 2) I of the band
    0 <= B <= L1 I (:func:`~qnprox.learner.init_learner`).

    Inputs are checked before iteration 0: ``x0`` and ``z0`` must match
    ``oracle.dimension`` and be finite, and the L1 must be present, finite
    and positive, else :class:`ValueError`.  An error during the run is raised
    as :class:`SolverError`, naming the iteration, from its cause.
    """
    config = config if config is not None else SolverConfig()

    def begin(oracle, x):
        z = x.copy() if z0 is None else checked_input("z0", z0, x.shape).copy()
        L1 = oracle.smoothness
        check_interval("L1 from the oracle's smoothness", L1, 0.0, math.inf)
        sigma0 = ALPHA2 / L1
        metadata = {"alpha1": format_float(ALPHA1),
                    "alpha2": format_float(ALPHA2),
                    "beta": format_float(BETA),
                    "sigma0": format_float(sigma0), "L1": format_float(L1),
                    "seed": str(config.seed)}
        return metadata, _iterations(
            oracle, x, z, sigma0, init_learner(x.size, L1, rho=config.rho),
            config, observer)

    return record_run("aqnpe", oracle, x0, config, begin)
