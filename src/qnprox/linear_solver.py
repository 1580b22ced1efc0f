"""Matrix-free conjugate residual solver with a relative-residual contract.

Solves A s = b for symmetric A with lambda_min(A) >= 1 (in this package A is
always I + eta * B with B positive semidefinite), stopping as soon as

    ||A s - b|| <= alpha * ||s||,

the inexactness contract the line search relies on.  Starting from s0 = 0 the
method keeps running recurrences for both A p and A r, so every iteration
costs exactly one fresh matrix-vector product, plus one for A r0 at the start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, NumericsError, check_interval

BREAKDOWN_FLOOR = 1e-300


@dataclass(frozen=True)
class LinearSolveResult:
    s: np.ndarray
    iterations: int
    matvecs: int
    residual_history: tuple


def conjugate_residual(apply_A: Callable[[np.ndarray], np.ndarray],
                       b: np.ndarray,
                       alpha: float,
                       max_iters: Optional[int] = None) -> LinearSolveResult:
    """Run conjugate residuals until ||A s - b|| <= alpha * ||s||.

    The termination test is evaluated before each iteration, so b = 0 returns
    s = 0 immediately with zero iterations and zero matvecs.

    Raises :class:`ConvergenceError` (carrying the best iterate) past
    ``max_iters`` (default 4 d), and :class:`NumericsError` on a <Ap, Ap>
    breakdown that occurs before the termination test passes.
    """
    check_interval("alpha", alpha, 0.0, 1.0)
    d = b.shape[0]
    if max_iters is None:
        max_iters = 4 * d

    s = np.zeros_like(b, dtype=float)
    r = np.array(b, dtype=float, copy=True)
    p = Ar = Ap = None
    matvecs = 0
    iterations = 0
    history = []

    while True:
        res_norm = math.sqrt(r @ r)
        history.append(res_norm)
        if res_norm <= alpha * math.sqrt(s @ s):
            return LinearSolveResult(s=s, iterations=iterations,
                                     matvecs=matvecs,
                                     residual_history=tuple(history))
        if iterations >= max_iters:
            raise ConvergenceError(
                f"conjugate residual did not satisfy ||As - b|| <= "
                f"{alpha} * ||s|| within {max_iters} iterations "
                f"(residual {res_norm:.3e})",
                best=s)
        if p is None:
            p = r.copy()
            Ar = apply_A(r)
            matvecs += 1
            Ap = Ar.copy()

        denom = float(Ap @ Ap)
        if denom < BREAKDOWN_FLOOR:
            raise NumericsError(
                f"conjugate residual breakdown: <Ap, Ap> = {denom:.3e}")
        r_Ar = float(r @ Ar)
        step = r_Ar / denom
        s += step * p
        r -= step * Ap
        Ar_next = apply_A(r)
        matvecs += 1
        beta = float(r @ Ar_next) / r_Ar
        p *= beta
        p += r
        Ap *= beta
        Ap += Ar_next
        Ar = Ar_next
        iterations += 1
