"""Backtracking line search pairing a trial step size with an inexact solve.

For a fixed anchor y with gradient g and model curvature B, each trial step
size eta produces a candidate

    x = y + s,    s ~ solution of (I + eta B) s = -eta g

through the minimum-residual solver at relative accuracy alpha1, and the
trial is accepted once

    ||x - y + eta grad_f(x)|| <= (alpha1 + alpha2) ||x - y||.

All trials of one search share B and g, so they share the Krylov space
K(B, g): the search builds one Lanczos basis of B from g and each trial's
solve reads its iterate off that basis, with eta entering only the
tridiagonal (``qnprox.linear_solver``).  The basis grows by one product B v
only when a trial needs a dimension no earlier trial reached, so a search
costs as many products as its largest Krylov dimension, not the sum over its
trials.  The iterates are the conjugate-residual iterates in exact
arithmetic, so each trial stops at the same dimension as a fresh solve.

Step sizes shrink geometrically by beta until acceptance; the last rejected
candidate (and its gradient, already paid for) is returned so the caller can
build a curvature loss sample without extra gradient queries.  Its
displacement s is returned as solved, with B s read off the shared basis by
the Lanczos relation (``KrylovBasis.image``): the loss sample costs no
gradient query and no product with B.  Acceptance is
guaranteed once eta < alpha2 / (L1 + ||B||_op), so with consistent inputs the
loop is finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .linear_solver import KrylovBasis, ShiftedOperator, conjugate_residual

UNDERFLOW_RATIO = 1e-16


@dataclass(frozen=True)
class LineSearchOutcome:
    """Accepted pair plus the cached rejected trial, if any.

    ``x_tilde``, ``grad_at_x_tilde``, ``s_tilde`` and ``Bs_tilde`` are
    present iff the search backtracked, and come from the trial at step size
    eta_hat / beta: ``s_tilde`` is its solved displacement (x_tilde is
    y + s_tilde) and ``Bs_tilde`` its product with B, read off the basis.
    """

    eta_hat: float
    x_hat: np.ndarray
    grad_at_x_hat: np.ndarray
    backtracks: int
    x_tilde: Optional[np.ndarray]
    grad_at_x_tilde: Optional[np.ndarray]
    s_tilde: Optional[np.ndarray]
    Bs_tilde: Optional[np.ndarray]
    matvecs: int


def backtracking_search(y: np.ndarray, g: np.ndarray, B,
                        eta_init: float, alpha1: float, alpha2: float,
                        beta: float, oracle,
                        max_cr_iters: Optional[int] = None
                        ) -> LineSearchOutcome:
    """Find (eta_hat, x_hat) satisfying the solve and proximal conditions.

    ``g`` must be the gradient at ``y`` (already computed by the caller, never
    re-queried here).  ``B`` is the model curvature, a symmetric positive
    semidefinite matrix or any operator with ``B @ v`` (the learner's
    :class:`~qnprox.learner.Curvature`).  Each trial costs one solve on
    the shared basis and one gradient query; ``matvecs`` totals the products
    B v the solves added to the basis, the largest Krylov dimension any
    trial used.  The rejected trial's B s takes none.
    """
    sigma = alpha1 + alpha2
    eta_hat = float(eta_init)
    x_tilde = None
    grad_tilde = None
    rejected = None
    backtracks = 0
    matvecs = 0
    basis = KrylovBasis(lambda v: B @ v, g)

    while True:
        if eta_hat < UNDERFLOW_RATIO * eta_init:
            raise ConfigurationError(
                "line search step size underflowed: no trial in "
                f"[{eta_hat:.3e}, {eta_init:.3e}] was accepted; the supplied "
                "smoothness constant is likely inconsistent with the oracle")

        solve = conjugate_residual(ShiftedOperator(basis, eta_hat),
                                   -eta_hat * g, alpha1,
                                   max_iters=max_cr_iters)
        matvecs += solve.matvecs
        x_hat = y + solve.s
        grad_hat = oracle.gradient(x_hat)

        displacement = float(np.linalg.norm(x_hat - y))
        proximal_residual = float(np.linalg.norm(
            x_hat - y + eta_hat * grad_hat))
        if proximal_residual <= sigma * displacement:
            s_tilde = Bs_tilde = None
            if rejected is not None:
                s_tilde = rejected.s
                Bs_tilde = basis.image(rejected.coefficients)
            return LineSearchOutcome(
                eta_hat=eta_hat, x_hat=x_hat, grad_at_x_hat=grad_hat,
                backtracks=backtracks, x_tilde=x_tilde,
                grad_at_x_tilde=grad_tilde, s_tilde=s_tilde,
                Bs_tilde=Bs_tilde, matvecs=matvecs)
        x_tilde = x_hat
        grad_tilde = grad_hat
        rejected = solve
        eta_hat *= beta
        backtracks += 1
