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

After a separating call the next step descends the surrogate gradient
G + max(0, -<G, B_hat>) S, with S = weight * u u^T the oracle's rank-one
certificate.  G has rank two, so <G, B_hat> follows from the vectors s, B s
and r = w - B s that the loss already holds: the state keeps W, B and the
pair (u, weight), and neither B_hat nor S is ever stored.

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

from .oracles import OracleCounters, matvec, symmetrize
from .separation import SeparationResult, separation_oracle

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

    ``W`` is the Frobenius-ball iterate and ``B`` the matrix in play (inside
    Z up to the separation oracle's failure probability), the only d x d
    arrays.  ``certificate`` is the separation result that produced ``B``
    when that call separated, and None when it certified containment (as
    for the initial matrix).
    """

    W: np.ndarray
    B: np.ndarray
    certificate: Optional[SeparationResult]
    t: int
    rho: float
    L1: float
    failure_budget: float


@dataclass(frozen=True)
class LearnerStepReport:
    loss_value: float
    separated: bool
    scale: float  # the separation oracle's gamma for the new matrix
    matvecs: int


def _loss_gradient(s: np.ndarray, residual: np.ndarray, s2: float
                   ) -> np.ndarray:
    return -(np.outer(s, residual) + np.outer(residual, s)) / s2


def _surrogate_coefficient(s: np.ndarray, Bs: np.ndarray,
                           residual: np.ndarray, s2: float, L1: float
                           ) -> float:
    """max(0, -<G, B_hat>) for G = (2 / L1) grad and B_hat = (2 / L1) B - I:
    <G, B_hat> = -(4 / (L1 ||s||^2)) ((2 / L1) (B s) . r - s . r)."""
    inner = (-4.0 / (L1 * s2)) * ((2.0 / L1) * float(Bs @ residual)
                                  - float(s @ residual))
    return max(0.0, -inner)


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


def band_violation(B: np.ndarray, L1: float, rtol: float = 1e-8
                   ) -> Optional[str]:
    """None when 0 <= B <= L1 I, up to rtol * L1 on either side, else the
    first eigenvalue bound that fails (dense ``eigvalsh``)."""
    eigs = np.linalg.eigvalsh(B)
    if not eigs[0] >= -rtol * L1:
        return f"smallest eigenvalue {eigs[0]:.6e} is below 0"
    if not eigs[-1] <= (1.0 + rtol) * L1:
        return f"largest eigenvalue {eigs[-1]:.6e} is above L1 = {L1:.6e}"
    return None


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
    return LearnerState(W=rescale_to_unit_ball(B0, L1), B=B0,
                        certificate=None, t=0, rho=rho, L1=L1,
                        failure_budget=failure_budget)


def learner_step(state: LearnerState, sample: LossSample, seed,
                 counters: Optional[OracleCounters] = None
                 ) -> tuple[LearnerState, LearnerStepReport]:
    """Feed one loss and produce the matrix for the next backtracked round.

    The loss gradient is evaluated at the matrix the solver actually used
    (the action in play when the sample was generated), the Frobenius-ball
    iterate takes one projected gradient step on the surrogate, and the
    separation oracle then forms the next action from the updated iterate.
    The first fed loss uses B0 directly with no surrogate correction, as
    does every loss after a call that certified containment.
    """
    d = state.W.shape[0]
    L1 = state.L1
    Bs = matvec(state.B, sample.s, counters)
    residual = sample.w - Bs
    s2 = float(sample.s @ sample.s)
    loss_value = float(residual @ residual) / s2
    G = (2.0 / L1) * _loss_gradient(sample.s, residual, s2)
    cert = state.certificate
    if cert is not None:
        coefficient = _surrogate_coefficient(sample.s, Bs, residual, s2, L1)
        G += (coefficient * cert.weight) * np.outer(cert.u, cert.u)

    W_next = project_frobenius_ball(state.W - state.rho * G, math.sqrt(d))
    t_next = state.t + 1
    sep = separation_oracle(W_next, delta_schedule(t_next),
                            q_schedule(t_next, state.failure_budget),
                            seed, counters)
    B_hat = W_next / sep.gamma if sep.separated else W_next
    new_state = replace(state, W=W_next, B=rescale_from_unit_ball(B_hat, L1),
                        certificate=sep if sep.separated else None, t=t_next)
    report = LearnerStepReport(loss_value=loss_value, separated=sep.separated,
                               scale=sep.gamma, matvecs=1 + sep.matvecs)
    return new_state, report
