"""Online-learning update of the curvature matrix fed by line-search losses.

The solver uses a symmetric matrix B in the band Z = {0 <= B <= L1 I} as
model curvature in the proximal subproblem.  Every backtracked iteration
produces the loss

    loss(B) = ||w - B s||^2 / ||s||^2,

with w the gradient difference and s the displacement of the rejected trial
iterate.  The line search builds the sample (``qnprox.line_search``) and
reads its B s off its Krylov basis of B, so a step takes no product with B,
and its only products are the separation oracle's.  B is updated by
projection-free online gradient descent on the rescaled variable
B_hat = (2 / L1) (B - (L1 / 2) I), which lives in the unit operator-norm
ball: the auxiliary iterate W is projected onto the Frobenius ball of radius
sqrt(d) (cheap), while feasibility in the operator-norm ball is maintained
through the randomized separation oracle instead of a dense
eigendecomposition.  B_hat is W, or W / gamma after a call that separated, so
B = (L1 / 2) I + kappa W with kappa = L1 / 2 or (L1 / 2) / gamma: the state
keeps W and derives B as the operator :class:`Curvature`, whose product
B v = (L1 / 2) v + kappa (W v) costs one product with W.

After a separating call the next step descends the surrogate gradient
G + max(0, -<G, B_hat>) S, with S = weight * u u^T the oracle's rank-one
certificate.  G has rank two, so <G, B_hat> follows from the vectors s, B s
and r = w - B s that the loss already holds: the state keeps W and the pair
(u, weight), and neither B, B_hat nor S is ever stored.

Before each oracle call the learner bounds ||W_next||_op from norms it
already holds.  W_next = c (W_t - rho G), with c = min(1, sqrt(d) /
||W_t - rho G||_F) the projection scale, so ||W_next||_op is at most both
||W_next||_F = c ||W_t - rho G||_F and the Weyl bound c (U_t + rho ||G||_op),
where U_t bounds ||W_t||_op and ||G||_op is bounded in O(d): the loss term
s r^T + r s^T has eigenvalues s . r +/- ||s|| ||r||, and the surrogate term
adds |coefficient * weight|.  U_0 = 0, as W_0 = 0; afterwards U_t is the
oracle's gamma, which bounds ||W||_op on every branch on the event that backs
the oracle's claims, or the bound itself after a skip.  When the smaller bound,
inflated by a relative 1e-12 against rounding, is at most 1, W_next is
certified inside with no oracle call and no matvec.  A skip adds no failure
event (the Frobenius bound is deterministic, the Weyl bound rests on the last
call's event), and it still draws the oracle's Lanczos start vector, so
every later oracle call sees the random stream it would have seen.
An inside result sets B_hat = W_next whatever its gamma, so B and the solver's
iterates do not depend on whether the oracle ran.

W is a :class:`~qnprox.separation.PackedSymmetric`: its lower triangle,
row by row, in one vector of d (d + 1) / 2 entries.  Every product W v, in
B v and in the separation oracle's Lanczos steps, is one ``dspmv``.  The
step W - rho G = W + rho (2 / L1) (s r^T + r s^T) / ||s||^2
- rho coefficient weight u u^T is one ``dspr2`` with (s, r), plus one
``dspr`` with u when a certificate is held, both written in place;
||W - rho G||_F is read off the vector, and the projection scales it in
place.  So a step allocates no d x d array, and a solve holds W alone.

A step consumes its state: ``state.W`` becomes the new state's W, and the
old state and every :class:`Curvature` made from it see the new matrix.  A
caller that needs the old matrix reads it before the step; ``solve`` keeps
none, and its iteration reports hold no matrix.  The step writes into no
other array of the state, the certificate or the sample.

The learner's clock t counts fed losses only; iterations where the line
search accepts its first trial leave both B and the schedules untouched.
Schedules follow rho = 1/128 by default, delta_t = 1 / (sqrt(t + 2)
ln(t + 2)) and q_t = p / (2.5 (t + 1) ln^2(t + 1)), which keeps the total
separation-oracle failure probability below the budget p = FAILURE_BUDGET.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .separation import (PackedSymmetric, SeparationResult, lanczos_start,
                         separation_oracle)

DEFAULT_STEP_SIZE = 1.0 / 128.0
# the budget p on the separation oracle's total failure probability
FAILURE_BUDGET = 0.01
# relative inflation of the skip bound, so rounding cannot certify a W that
# lies just outside the unit operator-norm ball
BOUND_SLACK = 1.0 + 1e-12
W_NAME = "the learner's W"


@dataclass(frozen=True)
class LossSample:
    """One curvature observation: w = grad difference, s = displacement and
    Bs = B s for the matrix B in play when it was made.  Fields of different
    shapes, a Bs that is not finite or s = 0 raise :class:`ValueError`."""

    w: np.ndarray
    s: np.ndarray
    Bs: np.ndarray

    def __post_init__(self):
        for name in ("w", "Bs"):
            shape = np.shape(getattr(self, name))
            if shape != np.shape(self.s):
                raise ValueError(f"loss sample field {name} has shape "
                                 f"{shape}, but s has {np.shape(self.s)}")
        if not np.all(np.isfinite(self.Bs)):
            raise ValueError("loss sample field Bs is not finite")
        if float(np.linalg.norm(self.s)) == 0.0:
            raise ValueError("loss sample requires a nonzero displacement s")


@dataclass(frozen=True, eq=False)
class Curvature:
    """The model curvature B = (L1 / 2) I + kappa W, held as the packed W
    and scalars.

    ``B @ v`` is kappa W v + (L1 / 2) v, one ``dspmv`` with W.  ``dense()``
    builds the d x d matrix kappa W + (L1 / 2) I, for checks against dense
    eigenvalues; a solve never calls it.
    """

    W: PackedSymmetric
    kappa: float
    half_L1: float

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.W.matvec(v, self.kappa, self.half_L1, v)

    def dense(self) -> np.ndarray:
        B = np.array(self.W)
        B *= self.kappa
        B.flat[::B.shape[0] + 1] += self.half_L1
        return B


@dataclass(frozen=True)
class LearnerState:
    """State of the online learner between backtracked iterations.

    ``W`` is the Frobenius-ball iterate, the only matrix-sized state, held
    packed (module docstring).
    ``certificate`` is the separation result that produced the matrix in
    play when that call separated, and None when it certified containment
    (as for the initial matrix).  ``op_bound`` is an upper bound on
    ||W||_op: 0 at the start, then the oracle's gamma or the skip bound.
    """

    W: PackedSymmetric
    certificate: Optional[SeparationResult]
    op_bound: float
    t: int
    rho: float
    L1: float

    @property
    def B(self) -> Curvature:
        """The matrix in play (inside Z up to the separation oracle's failure
        probability): kappa = (L1 / 2) / gamma after a call that separated,
        with gamma = ``op_bound``, else L1 / 2."""
        half_L1 = self.L1 / 2.0
        if self.certificate is None:
            return Curvature(self.W, half_L1, half_L1)
        return Curvature(self.W, half_L1 / self.op_bound, half_L1)


@dataclass(frozen=True)
class LearnerStepReport:
    loss_value: float
    matvecs: int


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


def q_schedule(t: int) -> float:
    if t < 1:
        raise ValueError("the q schedule starts at t = 1")
    return FAILURE_BUDGET / (2.5 * (t + 1.0) * math.log(t + 1.0) ** 2)


def next_op_norm_bound(op_bound: float, step_op_norm: float, norm: float,
                       radius: float) -> float:
    """Upper bound on ||c M||_op for M = W - rho G with ||W||_op <= op_bound,
    ||rho G||_op <= step_op_norm, ||M||_F = norm and c the projection scale:
    c min(||M||_F, op_bound + step_op_norm), inflated by BOUND_SLACK."""
    scale = 1.0 if norm <= radius else radius / norm
    return BOUND_SLACK * scale * min(norm, op_bound + step_op_norm)


def init_learner(d: int, L1: float, rho: float = DEFAULT_STEP_SIZE
                 ) -> LearnerState:
    """Start the learner at the center (L1 / 2) I of Z, where W_0 = 0: the
    start that minimizes the worst-case distance to any Hessian in Z."""
    return LearnerState(W=PackedSymmetric(d, W_NAME), certificate=None,
                        op_bound=0.0, t=0, rho=rho, L1=L1)


def learner_step(state: LearnerState, sample: LossSample, seed
                 ) -> tuple[LearnerState, LearnerStepReport]:
    """Feed one loss and produce the matrix for the next backtracked round.

    The loss gradient is evaluated at the matrix the solver actually used
    (the action in play when the sample was generated), the Frobenius-ball
    iterate takes one projected gradient step on the surrogate, and the
    separation oracle then forms the next action from the updated iterate,
    unless the norm bound (module docstring) already certifies it inside.
    The first fed loss uses the center (L1 / 2) I directly with no
    surrogate correction, as does every loss after a call that certified
    containment.  The loss reads B s from ``sample.Bs``, which must be the
    product with ``state.B``; the step takes no product with B.  The report's
    ``matvecs`` is the oracle's products, 0 when the bound skipped it.
    The step consumes ``state``: its W is updated in place and becomes the
    new state's W.
    """
    W = state.W
    d = W.dimension
    L1 = state.L1
    s, Bs = sample.s, sample.Bs
    residual = sample.w - Bs
    s2 = float(s @ s)
    r2 = float(residual @ residual)
    loss_value = r2 / s2
    G_op = ((2.0 / L1) * (abs(float(s @ residual)) + math.sqrt(s2 * r2))
            / s2)
    W.rank_two(state.rho * (2.0 / L1) / s2, s, residual)
    cert = state.certificate
    if cert is not None:
        coefficient = _surrogate_coefficient(s, Bs, residual, s2, L1)
        G_op += abs(coefficient * cert.weight)
        W.rank_one(-state.rho * coefficient * cert.weight, cert.u)

    radius = math.sqrt(d)
    norm = W.frobenius_norm()
    bound = next_op_norm_bound(state.op_bound, state.rho * G_op, norm, radius)
    if norm > radius:
        W.packed *= radius / norm
    t_next = state.t + 1
    if bound <= 1.0:
        lanczos_start(d, seed)  # the oracle's draw, dropped
        op_bound, certificate, sep_matvecs = bound, None, 0
    else:
        sep = separation_oracle(W, delta_schedule(t_next),
                                q_schedule(t_next), seed)
        op_bound, sep_matvecs = sep.gamma, sep.matvecs
        certificate = sep if sep.separated else None
    new_state = replace(state, certificate=certificate, op_bound=op_bound,
                        t=t_next)
    report = LearnerStepReport(loss_value=loss_value,
                               matvecs=sep_matvecs)
    return new_state, report
