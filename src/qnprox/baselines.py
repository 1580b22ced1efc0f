"""First-order and quasi-Newton baselines: monotone NAG and BFGS.

Both run in the accelerated solver's driver loop
(:func:`qnprox.trace.record_run`), so gradient-query comparisons are like for
like and ``x0`` is checked alike.  An error raised during a run keeps its
type and carries the partial trace as ``trace`` and a copy of the counters
as ``counters``; the accelerated solver instead wraps it in
:class:`~qnprox.errors.SolverError`, naming the iteration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ConvergenceError, SolverError, check_at_least,
                     check_integer)
from .separation import PackedSymmetric
from .trace import (FLOAT_NOISE, PRECISION_FLOOR, TOLERANCE, RunRecord,
                    format_float, record_run)


# NAG's first step size and its backtracking factor
NAG_ETA0 = 1.0
NAG_BETA = 0.5
# zoom steps a BFGS strong Wolfe search may take
MAX_ZOOM = 50
# the strong Wolfe constants of BFGS's line search (0 < c1 < c2 < 1)
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9


@dataclass(frozen=True)
class BaselineConfig:
    """Settings of both baselines, checked when constructed: a field out of
    range raises :class:`ValueError` naming it."""

    max_iters: int = 1000
    tolerance: float = 0.0

    def __post_init__(self) -> None:
        check_integer("max_iters", self.max_iters, 1)
        check_at_least("tolerance", self.tolerance, 0.0)


def nag_solve(oracle, x0: np.ndarray,
              config: Optional[BaselineConfig] = None) -> RunRecord:
    """Monotone Nesterov accelerated gradient with backtracking.

    The candidate u = y - eta * grad f(y) is accepted once
    f(u) <= f(y) - (eta / 2) * ||grad f(y)||^2, shrinking eta by beta
    otherwise; the next iterate is whichever of {u, previous x} has the
    smaller value, which makes f(x_k) non-increasing.  Exactly one gradient
    query per iteration; the backtracking loop touches function values only.
    """
    config = config if config is not None else BaselineConfig()
    metadata = {"eta0": format_float(NAG_ETA0), "beta": format_float(NAG_BETA)}
    return record_run("nag", oracle, x0, config, lambda oracle, x: (
        metadata, _nag_iterations(oracle, x, config.tolerance)))


def _nag_iterations(oracle, x: np.ndarray, tolerance: float):
    """:func:`nag_solve`'s iterations for :func:`~qnprox.trace.record_run`;
    the tolerance test is on the gradient at y, before the row."""
    y = x.copy()
    eta = NAG_ETA0
    t_momentum = 1.0
    fx = float(oracle.value(x))
    while True:
        g = oracle.gradient(y)
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= tolerance:
            return TOLERANCE
        fy = float(oracle.value(y))
        g_sq = grad_norm * grad_norm
        backtracks = 0
        while True:
            u = y - eta * g
            fu = float(oracle.value(u))
            if fu <= fy - 0.5 * eta * g_sq:
                break
            eta *= NAG_BETA
            backtracks += 1
            if eta < 1e-300:
                raise SolverError("NAG step size underflowed")

        if fu <= fx:
            x_next, fx_next = u, fu
        else:
            x_next, fx_next = x, fx
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_momentum * t_momentum)) / 2.0
        y = (x_next + (t_momentum / t_next) * (u - x_next)
             + ((t_momentum - 1.0) / t_next) * (x_next - x))
        x, fx = x_next, fx_next
        t_momentum = t_next

        yield fx, eta, "-", backtracks, x


def _strong_wolfe(oracle, x, p, phi0, dphi0):
    """Strong Wolfe line search (bracket + zoom with secant steps), with
    the constants WOLFE_C1 and WOLFE_C2.

    Returns (t, f(x + t p), grad f(x + t p), evaluations).  Each trial costs
    a gradient query, then a value query that can reuse the gradient's work.
    """
    if dphi0 >= 0.0:
        raise ValueError("search direction is not a descent direction")

    def phi(t):
        point = x + t * p
        return oracle.gradient(point), float(oracle.value(point))

    def zoom(lo, phi_lo, dphi_lo, hi, phi_hi, dphi_hi, evals):
        for _ in range(MAX_ZOOM):
            width = hi - lo
            denom = dphi_hi - dphi_lo
            t = lo - dphi_lo * width / denom if denom != 0.0 else math.nan
            low, high = min(lo, hi), max(lo, hi)
            margin = 1e-3 * (high - low)
            if not math.isfinite(t) or t <= low + margin or t >= high - margin:
                t = 0.5 * (lo + hi)
            g_t, phi_t = phi(t)
            evals += 1
            dphi_t = float(g_t @ p)
            if phi_t > phi0 + WOLFE_C1 * t * dphi0 or phi_t >= phi_lo:
                hi, phi_hi, dphi_hi = t, phi_t, dphi_t
            else:
                if abs(dphi_t) <= -WOLFE_C2 * dphi0:
                    return t, phi_t, g_t, evals
                if dphi_t * (hi - lo) >= 0.0:
                    hi, phi_hi, dphi_hi = lo, phi_lo, dphi_lo
                lo, phi_lo, dphi_lo = t, phi_t, dphi_t
        raise ConvergenceError(
            f"strong Wolfe zoom failed after {MAX_ZOOM} steps")

    t_prev, phi_prev, dphi_prev = 0.0, phi0, dphi0
    t = 1.0
    evals = 0
    for i in range(25):
        g_t, phi_t = phi(t)
        evals += 1
        dphi_t = float(g_t @ p)
        if (phi_t > phi0 + WOLFE_C1 * t * dphi0
                or (i > 0 and phi_t >= phi_prev)):
            return zoom(t_prev, phi_prev, dphi_prev, t, phi_t, dphi_t, evals)
        if abs(dphi_t) <= -WOLFE_C2 * dphi0:
            return t, phi_t, g_t, evals
        if dphi_t >= 0.0:
            return zoom(t, phi_t, dphi_t, t_prev, phi_prev, dphi_prev, evals)
        t_prev, phi_prev, dphi_prev = t, phi_t, dphi_t
        t *= 2.0
    raise ConvergenceError("strong Wolfe bracketing failed to find a step")


CURVATURE_SKIP = 1e-12
H_NAME = "the BFGS inverse Hessian H"


def bfgs_inverse_update(H: PackedSymmetric, s: np.ndarray, y: np.ndarray
                        ) -> None:
    """The BFGS update of the inverse Hessian approximation, in place:

        H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T,  rho = 1 / <s, y>,

    expanded (Nocedal & Wright, eq. 6.17) into

        H + c s s^T - (H y s^T + s (H y)^T) / <s, y>,
        c = (<s, y> + y^T H y) / <s, y>^2,

    which is the one symmetric rank-two update s v^T + v s^T with
    v = (c / 2) s - H y / <s, y>.  H is packed, as the learner holds W
    (:class:`~qnprox.separation.PackedSymmetric`): H y is one ``dspmv`` and
    the update one ``dspr2`` written in place, so the update allocates no
    d x d array.
    """
    sy = float(s @ y)
    Hy = H.matvec(y)
    v = ((sy + float(y @ Hy)) / (2.0 * sy * sy)) * s
    v -= Hy / sy
    H.rank_two(1.0, s, v)


def bfgs_solve(oracle, x0: np.ndarray,
               config: Optional[BaselineConfig] = None) -> RunRecord:
    """Inverse-Hessian BFGS with a strong Wolfe line search.

    The curvature pair (s, y) is skipped whenever <s, y> <= 1e-12 ||s|| ||y||,
    which keeps the inverse approximation symmetric positive definite.  H is
    the solve's one matrix-sized array, held packed
    (:func:`bfgs_inverse_update`).  The product H g is one ``dspmv``, and a
    reset after a non-descent direction writes the identity into H in
    place.  Each iteration books the product H g as one matvec, and each
    update its H y.
    """
    config = config if config is not None else BaselineConfig()
    metadata = {"c1": format_float(WOLFE_C1), "c2": format_float(WOLFE_C2)}
    return record_run("bfgs", oracle, x0, config, lambda oracle, x: (
        metadata, _bfgs_iterations(oracle, x, config.tolerance)))


def _bfgs_iterations(oracle, x: np.ndarray, tolerance: float):
    """:func:`bfgs_solve`'s iterations for :func:`~qnprox.trace.record_run`;
    the tolerance test is on the gradient at x, before the row."""
    H = PackedSymmetric(x.shape[0], H_NAME)
    H.set_identity()
    f = float(oracle.value(x))
    g = oracle.gradient(x)
    for k in itertools.count():
        if float(np.linalg.norm(g)) <= tolerance:
            return TOLERANCE
        p = H.matvec(g, -1.0)
        oracle.counters.count_matvec()
        if float(g @ p) >= 0.0:
            H.set_identity()
            p = -g
        descent = float(g @ p)
        try:
            t, f_new, g_new, evals = _strong_wolfe(oracle, x, p, f, descent)
        except ConvergenceError as exc:
            if -descent <= FLOAT_NOISE * (1.0 + abs(f)):
                # the predicted decrease is below the float resolution of f,
                # so the Wolfe conditions were noise: converged to the floor
                return PRECISION_FLOOR
            raise ConvergenceError(
                f"BFGS line search failed at iteration {k} "
                f"(gradient norm {np.linalg.norm(g):.3e}): {exc}",
                best=x) from exc
        s = t * p
        y_vec = g_new - g
        x = x + s
        sy = float(s @ y_vec)
        if sy > CURVATURE_SKIP * float(np.linalg.norm(s)) * float(np.linalg.norm(y_vec)):
            bfgs_inverse_update(H, s, y_vec)
            oracle.counters.count_matvec()
        f, g = f_new, g_new

        yield f, t, "-", evals - 1, x
