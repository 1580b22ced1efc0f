"""Backtracking line search pairing a trial step size with an inexact solve.

For a fixed anchor y with gradient g and model curvature B, each trial step
size eta produces a candidate

    x = y + s,    s ~ solution of (I + eta B) s = -eta g

through the minimum-residual solver at relative accuracy ALPHA1, and the
trial is accepted once

    ||x - y + eta grad_f(x)|| <= (ALPHA1 + ALPHA2) ||x - y||.

All trials of one search share B and g, so they share the Krylov space
K(B, g): the search builds one Lanczos basis of B from g and each trial's
solve reads its iterate off that basis, with eta entering only the
tridiagonal (``qnprox.linear_solver``).  The basis grows by one product B v
only when a trial needs a dimension no earlier trial reached, so a search
costs as many products as its largest Krylov dimension, not the sum over its
trials.  The iterates are the conjugate-residual iterates in exact
arithmetic, so each trial stops at the same dimension as a fresh solve.

Step sizes shrink geometrically by BETA until acceptance.  The last
rejected trial x~ = y + s is returned as the learner's loss sample
(:class:`~qnprox.learner.LossSample`): w = grad_f(x~) - g from the gradient
already paid for, s as solved, and B s read off the shared basis by the
Lanczos relation (``KrylovBasis.image``), so the sample costs no gradient
query and no product with B.  Acceptance is guaranteed once
eta < ALPHA2 / (L1 + ||B||_op), so with consistent inputs the loop is finite.
ALPHA1, ALPHA2 and BETA are the paper's constants, not arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .learner import LossSample
from .linear_solver import KrylovBasis, conjugate_residual

UNDERFLOW_RATIO = 1e-16
# the linear solve's accuracy ALPHA1, the proximal slack ALPHA2
# (ALPHA1 + ALPHA2 < 1) and the backtracking factor BETA
ALPHA1 = 0.1
ALPHA2 = 0.85
BETA = 0.5


@dataclass(frozen=True)
class LineSearchOutcome:
    """Accepted pair plus the loss sample of the last rejected trial.

    ``rejected`` is None iff the first trial was accepted.  Otherwise it is
    the trial at step size eta_hat / BETA: ``rejected.s`` its solved
    displacement (the trial point is y + s), ``rejected.w`` the gradient
    there minus g and ``rejected.Bs`` the product with B, read off the basis.
    """

    eta_hat: float
    x_hat: np.ndarray
    grad_at_x_hat: np.ndarray
    backtracks: int
    rejected: Optional[LossSample]
    matvecs: int


def backtracking_search(y: np.ndarray, g: np.ndarray, B, eta_init: float,
                        oracle) -> LineSearchOutcome:
    """Find (eta_hat, x_hat) satisfying the solve and proximal conditions.

    ``g`` must be the gradient at ``y`` (already computed by the caller, never
    re-queried here).  ``B`` is the model curvature, a symmetric positive
    semidefinite matrix or any operator with ``B @ v`` (the learner's
    :class:`~qnprox.learner.Curvature`).  Each trial costs one solve on
    the shared basis and one gradient query; ``matvecs`` is the basis's
    size, the products B v the solves added to it, which is the largest
    Krylov dimension any trial used.  The rejected trial's B s takes none.
    """
    sigma = ALPHA1 + ALPHA2
    eta_hat = float(eta_init)
    rejected = grad_rejected = None
    backtracks = 0
    basis = KrylovBasis(lambda v: B @ v, g)

    while True:
        if eta_hat < UNDERFLOW_RATIO * eta_init:
            raise ConfigurationError(
                "line search step size underflowed: no trial in "
                f"[{eta_hat:.3e}, {eta_init:.3e}] was accepted; the supplied "
                "smoothness constant is likely inconsistent with the oracle")

        solve = conjugate_residual(basis, eta_hat, -eta_hat * g, ALPHA1)
        x_hat = y + solve.s
        grad_hat = oracle.gradient(x_hat)

        displacement = float(np.linalg.norm(x_hat - y))
        proximal_residual = float(np.linalg.norm(
            x_hat - y + eta_hat * grad_hat))
        if proximal_residual <= sigma * displacement:
            sample = None
            if rejected is not None:
                sample = LossSample(w=grad_rejected - g, s=rejected.s,
                                    Bs=basis.image(rejected.coefficients))
            return LineSearchOutcome(
                eta_hat=eta_hat, x_hat=x_hat, grad_at_x_hat=grad_hat,
                backtracks=backtracks, rejected=sample,
                matvecs=basis.size)
        rejected, grad_rejected = solve, grad_hat
        eta_hat *= BETA
        backtracks += 1
