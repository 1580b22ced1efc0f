"""Objective oracles, dense symmetric-matrix helpers, and query accounting.

All vectors are 1-d ``numpy.float64`` arrays and all matrices are dense
``d x d`` arrays.  :class:`CountingOracle` counts gradient queries.  Each
stage returns the matrix-vector products it took as ``matvecs``, and
``solve`` or ``bfgs_solve`` books them on :class:`OracleCounters` once per
iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, check_integer


@dataclass
class OracleCounters:
    """Query totals of one run, as its trace reports them.

    Counters only ever increase.  :class:`CountingOracle` counts each
    gradient query; the driver books the matvecs its stages report, once per
    iteration, so the total is the sum of those reports.
    """

    gradient_queries: int = 0
    matvecs: int = 0

    def count_gradient(self) -> None:
        self.gradient_queries += 1

    def count_matvec(self, n: int = 1) -> None:
        self.matvecs += n


class CountingOracle:
    """Wraps an objective so every gradient call increments the counters.

    A non-finite value, or a gradient with a non-finite entry, raises
    :class:`NumericsError`, so a bad oracle stops the run where it happened
    instead of surfacing later as a linear-solver or step-size failure.
    """

    def __init__(self, inner):
        self.inner = inner
        self.counters = OracleCounters()

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    @property
    def smoothness(self):
        return getattr(self.inner, "smoothness", None)

    def value(self, x: np.ndarray) -> float:
        f = self.inner.value(x)
        if not math.isfinite(f):
            raise NumericsError("value oracle returned a non-finite value")
        return f

    def gradient(self, x: np.ndarray) -> np.ndarray:
        self.counters.count_gradient()
        g = self.inner.gradient(x)
        if not np.isfinite(g).all():
            raise NumericsError("gradient oracle returned a non-finite entry")
        return g


def checked_input(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float array of ``shape`` with finite entries, else
    :class:`ValueError` naming ``name``."""
    array = np.asarray(value, dtype=float)
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} has a non-finite entry")
    return array


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Exactly symmetric part (M + M^T) / 2.

    IEEE addition is commutative, so entries (i, j) and (j, i) of the result
    are bit-identical.  The halving is in place, so only the result is
    allocated.
    """
    result = matrix + matrix.T
    result /= 2.0
    return result


def power_iteration_extreme(apply_h, dimension: int, rng,
                            iterations: int = 100) -> float:
    """Largest-magnitude Rayleigh quotient of a symmetric operator.

    Plain power iteration from a Gaussian start; returns the final Rayleigh
    quotient, which never exceeds the true extreme eigenvalue in magnitude.
    """
    v = rng.standard_normal(dimension)
    v /= np.linalg.norm(v)
    rayleigh = 0.0
    for _ in range(iterations):
        hv = apply_h(v)
        norm = np.linalg.norm(hv)
        if norm == 0.0:
            return 0.0
        rayleigh = float(v @ hv)
        v = hv / norm
    return abs(rayleigh)


def estimate_smoothness(oracle, x0: np.ndarray, probes: int = 5,
                        seed: int = 0) -> float:
    """Estimate sup ||hessian(x)||_op from the Hessian at the start point
    and at random points.

    Draws ``probes`` standard-normal points (all up front, so tests can
    reproduce them from the seed), takes the largest-magnitude eigenvalue of
    the Hessian at each of them and at ``x0``, and inflates the largest by a
    1.1 safety factor.  Probing ``x0`` matters: a logistic Hessian is largest
    where the margins are small, near the usual start x0 = 0, and random
    points can miss that curvature by a factor of ten or more.
    With a ``hessian`` that eigenvalue is exact, from one ``eigvalsh``;
    without one it is the Rayleigh quotient of power iteration on
    central-difference Hessian-vector products, which can fall below it.
    """
    check_integer("probes", probes, 1)
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((probes, oracle.dimension))
    has_hessian = hasattr(oracle, "hessian")
    best = 0.0
    for x in (*points, x0):
        if has_hessian:
            eigenvalues = np.linalg.eigvalsh(oracle.hessian(x))
            extreme = float(np.abs(eigenvalues).max())
        else:
            step = 1e-6 * max(1.0, float(np.linalg.norm(x)))
            apply_h = lambda v, x=x, h=step: (
                oracle.gradient(x + h * v) - oracle.gradient(x - h * v)
            ) / (2.0 * h)
            extreme = power_iteration_extreme(apply_h, oracle.dimension, rng)
        best = max(best, extreme)
    estimate = 1.1 * best
    if not np.isfinite(estimate):
        raise NumericsError("curvature estimate is not finite")
    return estimate
