"""First-order and quasi-Newton baselines: monotone NAG and BFGS.

Both record their traces through the same counting oracle as the accelerated
solver, so gradient-query comparisons are like for like.  ``x0`` is checked
like :func:`qnprox.solver.solve` checks it, and an error raised during a run
carries the partial trace as ``trace``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ConvergenceError, SolverError, check_at_least,
                     check_integer, check_interval)
from .oracles import CountingOracle, checked_input, symmetrize
from .trace import RunRecord, TraceRow, format_float


# NAG's first step size and its backtracking factor
NAG_ETA0 = 1.0
NAG_BETA = 0.5
# zoom steps a BFGS strong Wolfe search may take
MAX_ZOOM = 50


@dataclass(frozen=True)
class BaselineConfig:
    """Settings of both baselines, checked when constructed: a field out of
    range raises :class:`ValueError` naming it."""

    max_iters: int = 1000
    tolerance: float = 0.0
    # Wolfe constants for BFGS (0 < c1 < c2 < 1)
    c1: float = 1e-4
    c2: float = 0.9

    def __post_init__(self) -> None:
        check_integer("max_iters", self.max_iters, 1)
        check_at_least("tolerance", self.tolerance, 0.0)
        check_interval("c1", self.c1, 0.0, 1.0)
        check_interval("c2", self.c2, 0.0, 1.0)
        if not self.c1 < self.c2:
            raise ValueError(f"Wolfe constants must satisfy c1 < c2, got "
                             f"c1 = {self.c1!r}, c2 = {self.c2!r}")


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
    if not isinstance(oracle, CountingOracle):
        oracle = CountingOracle(oracle)
    counters = oracle.counters

    x = checked_input("x0", x0, (oracle.dimension,)).copy()
    y = x.copy()
    eta = NAG_ETA0
    t_momentum = 1.0

    record = RunRecord(method="nag", metadata={
        "eta0": format_float(NAG_ETA0),
        "beta": format_float(NAG_BETA),
        "max_iters": str(config.max_iters),
        "tolerance": format_float(config.tolerance),
    })
    start = time.perf_counter()
    try:
        fx = float(oracle.value(x))
        for k in range(config.max_iters):
            g = oracle.gradient(y)
            grad_norm = float(np.linalg.norm(g))
            if grad_norm <= config.tolerance:
                break
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

            record.append(TraceRow(
                iteration=k + 1, f_value=fx, eta_hat=eta, case="-",
                backtracks=backtracks, grad_queries=counters.gradient_queries,
                matvecs=counters.matvecs))
    except Exception as exc:
        exc.trace = record.finish(start, x)
        raise
    return record.finish(start, x)


def _strong_wolfe(oracle, x, p, phi0, dphi0, c1, c2):
    """Strong Wolfe line search (bracket + zoom with secant steps).

    Returns (t, f(x + t p), grad f(x + t p), evaluations).  Each trial costs
    one value and one gradient query.
    """
    if dphi0 >= 0.0:
        raise ValueError("search direction is not a descent direction")

    def phi(t):
        point = x + t * p
        return float(oracle.value(point)), oracle.gradient(point), point

    def zoom(lo, phi_lo, dphi_lo, hi, phi_hi, dphi_hi, evals):
        for _ in range(MAX_ZOOM):
            width = hi - lo
            denom = dphi_hi - dphi_lo
            t = lo - dphi_lo * width / denom if denom != 0.0 else math.nan
            low, high = min(lo, hi), max(lo, hi)
            margin = 1e-3 * (high - low)
            if not math.isfinite(t) or t <= low + margin or t >= high - margin:
                t = 0.5 * (lo + hi)
            phi_t, g_t, _ = phi(t)
            evals += 1
            dphi_t = float(g_t @ p)
            if phi_t > phi0 + c1 * t * dphi0 or phi_t >= phi_lo:
                hi, phi_hi, dphi_hi = t, phi_t, dphi_t
            else:
                if abs(dphi_t) <= -c2 * dphi0:
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
        phi_t, g_t, _ = phi(t)
        evals += 1
        dphi_t = float(g_t @ p)
        if phi_t > phi0 + c1 * t * dphi0 or (i > 0 and phi_t >= phi_prev):
            return zoom(t_prev, phi_prev, dphi_prev, t, phi_t, dphi_t, evals)
        if abs(dphi_t) <= -c2 * dphi0:
            return t, phi_t, g_t, evals
        if dphi_t >= 0.0:
            return zoom(t, phi_t, dphi_t, t_prev, phi_prev, dphi_prev, evals)
        t_prev, phi_prev, dphi_prev = t, phi_t, dphi_t
        t *= 2.0
    raise ConvergenceError("strong Wolfe bracketing failed to find a step")


CURVATURE_SKIP = 1e-12


def bfgs_solve(oracle, x0: np.ndarray,
               config: Optional[BaselineConfig] = None) -> RunRecord:
    """Inverse-Hessian BFGS with a strong Wolfe line search.

    The curvature pair (s, y) is skipped whenever <s, y> <= 1e-12 ||s|| ||y||,
    which keeps the inverse approximation symmetric positive definite.
    """
    config = config if config is not None else BaselineConfig()
    if not isinstance(oracle, CountingOracle):
        oracle = CountingOracle(oracle)
    counters = oracle.counters

    x = checked_input("x0", x0, (oracle.dimension,)).copy()
    identity = np.eye(x.shape[0])
    H = identity.copy()

    record = RunRecord(method="bfgs", metadata={
        "c1": format_float(config.c1),
        "c2": format_float(config.c2),
        "max_iters": str(config.max_iters),
        "tolerance": format_float(config.tolerance),
    })
    start = time.perf_counter()
    try:
        f = float(oracle.value(x))
        g = oracle.gradient(x)
        for k in range(config.max_iters):
            if float(np.linalg.norm(g)) <= config.tolerance:
                break
            p = -(H @ g)
            counters.count_matvec()
            if float(g @ p) >= 0.0:
                H = identity.copy()
                p = -g
            descent = float(g @ p)
            try:
                t, f_new, g_new, evals = _strong_wolfe(
                    oracle, x, p, f, descent, config.c1, config.c2)
            except ConvergenceError as exc:
                if -descent <= 4096.0 * np.finfo(float).eps * (1.0 + abs(f)):
                    # the predicted decrease is below the float resolution of
                    # f, so the Wolfe conditions were noise: converged to the
                    # floor
                    record.metadata["stopped"] = "precision_floor"
                    break
                raise ConvergenceError(
                    f"BFGS line search failed at iteration {k} "
                    f"(gradient norm {np.linalg.norm(g):.3e}): {exc}",
                    best=x) from exc
            s = t * p
            y_vec = g_new - g
            x = x + s
            sy = float(s @ y_vec)
            if sy > CURVATURE_SKIP * float(np.linalg.norm(s)) * float(np.linalg.norm(y_vec)):
                rho = 1.0 / sy
                V = identity - rho * np.outer(s, y_vec)
                H = V @ H @ V.T + rho * np.outer(s, s)
                H = symmetrize(H)
            f, g = f_new, g_new

            record.append(TraceRow(
                iteration=k + 1, f_value=f, eta_hat=t, case="-",
                backtracks=evals - 1, grad_queries=counters.gradient_queries,
                matvecs=counters.matvecs))
    except Exception as exc:
        exc.trace = record.finish(start, x)
        raise
    return record.finish(start, x)
