"""Online-learning update of the curvature matrix fed by line-search losses.

The solver keeps a symmetric matrix B in the band Z = {0 <= B <= L1 I} and
uses it as model curvature in the proximal subproblem.  Every backtracked
iteration produces the loss

    loss(B) = ||w - B s||^2 / ||s||^2,

with w the gradient difference and s the displacement of the rejected trial
iterate.  B is updated by projection-free online gradient descent on the
rescaled variable B_hat = (2 / L1) (B - (L1 / 2) I), which lives in the unit
operator-norm ball: the auxiliary iterate W is projected onto the Frobenius
ball of radius sqrt(d) (cheap), while feasibility in the operator-norm ball is
maintained through the randomized separation oracle instead of a dense
eigendecomposition.

The learner's clock t counts fed losses only; iterations where the line
search accepts its first trial leave both B and the schedules untouched.
Schedules follow rho = 1/128, delta_t = 1 / (sqrt(t + 2) ln(t + 2)) and
q_t = p / (2.5 (t + 1) ln^2(t + 1)), which keeps the total separation-oracle
failure probability below the budget p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .oracles import OracleCounters, frobenius_inner, matvec, symmetrize
from .separation import separation_oracle

DEFAULT_STEP_SIZE = 1.0 / 128.0
DEFAULT_FAILURE_BUDGET = 0.01


@dataclass(frozen=True)
class LossSample:
    """One curvature observation: w = grad difference, s = displacement."""

    w: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        if float(np.linalg.norm(self.s)) == 0.0:
            raise ValueError("loss sample requires a nonzero displacement s")


@dataclass(frozen=True)
class LearnerState:
    """State of the online learner between backtracked iterations.

    ``W`` is the Frobenius-ball iterate, ``B`` the matrix currently in play
    (inside Z up to the separation oracle's failure probability), ``B_hat``
    its rescaled image in the unit operator-norm ball, and
    ``surrogate_direction`` the hyperplane from the separation call that
    produced ``B`` (None when that call certified containment, as for the
    initial matrix).
    """

    W: np.ndarray
    B: np.ndarray
    B_hat: np.ndarray
    surrogate_direction: Optional[np.ndarray]
    t: int
    rho: float
    L1: float
    failure_budget: float


@dataclass(frozen=True)
class LearnerStepReport:
    loss_value: float
    separated: bool
    gamma: float
    matvecs: int


def matrix_loss(B: np.ndarray, sample: LossSample,
                counters: Optional[OracleCounters] = None) -> float:
    """||w - B s||^2 / ||s||^2 (one counted matvec)."""
    residual = sample.w - matvec(B, sample.s, counters)
    return float(residual @ residual) / float(sample.s @ sample.s)


def matrix_loss_gradient(B: np.ndarray, sample: LossSample,
                         counters: Optional[OracleCounters] = None
                         ) -> np.ndarray:
    """Gradient of :func:`matrix_loss` over the space of symmetric matrices.

    Equals -(s r^T + r s^T) / ||s||^2 with r = w - B s; rank at most two and
    exactly symmetric.
    """
    residual = sample.w - matvec(B, sample.s, counters)
    s2 = float(sample.s @ sample.s)
    return -(np.outer(sample.s, residual) + np.outer(residual, sample.s)) / s2


def delta_schedule(t: int) -> float:
    return 1.0 / (math.sqrt(t + 2.0) * math.log(t + 2.0))


def q_schedule(t: int, failure_budget: float) -> float:
    if t < 1:
        raise ValueError("the q schedule starts at t = 1")
    return failure_budget / (2.5 * (t + 1.0) * math.log(t + 1.0) ** 2)


def rescale_to_unit_ball(B: np.ndarray, L1: float) -> np.ndarray:
    """B_hat = (2 / L1) (B - (L1 / 2) I); maps Z onto the unit op-norm ball."""
    B_hat = np.array(B, dtype=float)
    B_hat.flat[::B_hat.shape[0] + 1] -= L1 / 2.0
    B_hat *= 2.0 / L1
    return B_hat


def rescale_from_unit_ball(B_hat: np.ndarray, L1: float) -> np.ndarray:
    B = (L1 / 2.0) * B_hat
    B.flat[::B.shape[0] + 1] += L1 / 2.0
    return B


def project_frobenius_ball(M: np.ndarray, radius: float) -> np.ndarray:
    norm = float(np.linalg.norm(M))
    if norm <= radius:
        return M
    return (radius / norm) * M


def init_learner(B0: np.ndarray, L1: float,
                 rho: float = DEFAULT_STEP_SIZE,
                 failure_budget: float = DEFAULT_FAILURE_BUDGET) -> LearnerState:
    """Start the learner at a user-supplied B0 in Z (default: (L1/2) I)."""
    B0 = symmetrize(np.asarray(B0, dtype=float))
    B_hat = rescale_to_unit_ball(B0, L1)
    return LearnerState(W=B_hat.copy(), B=B0, B_hat=B_hat,
                        surrogate_direction=None, t=0, rho=rho, L1=L1,
                        failure_budget=failure_budget)


def default_initial_matrix(dimension: int, L1: float) -> np.ndarray:
    """Center of Z, which minimizes the worst-case distance to any Hessian."""
    return (L1 / 2.0) * np.eye(dimension)


def learner_step(state: LearnerState, sample: LossSample, seed,
                 counters: Optional[OracleCounters] = None
                 ) -> tuple[LearnerState, LearnerStepReport]:
    """Feed one loss and produce the matrix for the next backtracked round.

    The loss gradient is evaluated at the matrix the solver actually used
    (the action in play when the sample was generated), the Frobenius-ball
    iterate takes one projected gradient step on the surrogate, and the
    separation oracle then forms the next action from the updated iterate.
    The first fed loss uses B0 directly with no surrogate correction.
    """
    d = state.W.shape[0]
    L1 = state.L1
    before = counters.matvecs if counters is not None else 0

    residual = sample.w - matvec(state.B, sample.s, counters)
    s2 = float(sample.s @ sample.s)
    loss_value = float(residual @ residual) / s2
    grad = -(np.outer(sample.s, residual) + np.outer(residual, sample.s)) / s2
    G = (2.0 / L1) * grad
    if state.surrogate_direction is not None:
        coefficient = max(0.0, -frobenius_inner(G, state.B_hat))
        G_surrogate = G + coefficient * state.surrogate_direction
    else:
        G_surrogate = G

    W_next = project_frobenius_ball(state.W - state.rho * G_surrogate,
                                    math.sqrt(d))
    t_next = state.t + 1
    sep = separation_oracle(W_next, delta_schedule(t_next),
                            q_schedule(t_next, state.failure_budget),
                            seed, counters)
    if sep.separated:
        B_hat = W_next / sep.gamma
        direction = sep.hyperplane
    else:
        B_hat = W_next
        direction = None
    B_next = rescale_from_unit_ball(B_hat, L1)

    after = counters.matvecs if counters is not None else 1 + sep.matvecs
    new_state = replace(state, W=W_next, B=B_next, B_hat=B_hat,
                        surrogate_direction=direction, t=t_next)
    report = LearnerStepReport(loss_value=loss_value, separated=sep.separated,
                               gamma=sep.gamma, matvecs=after - before)
    return new_state, report


def project_to_curvature_band_dense(M: np.ndarray, L1: float) -> np.ndarray:
    """Nearest (Frobenius) matrix with eigenvalues in [0, L1].

    Closed form via a dense eigendecomposition with clamped eigenvalues.
    Reference implementation for tests only: the whole point of the
    separation-oracle route is to keep this O(d^3) step off the solve path.
    """
    M = symmetrize(np.asarray(M, dtype=float))
    vals, vecs = np.linalg.eigh(M)
    clamped = np.clip(vals, 0.0, L1)
    return symmetrize((vecs * clamped) @ vecs.T)
