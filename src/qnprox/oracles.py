"""Objective oracles, the input check, the curvature estimate, and query
accounting.

All vectors are 1-d ``numpy.float64`` arrays.  The only dense ``d x d``
matrix is an objective's ``hessian(x)``: W and H are packed
(:class:`~qnprox.separation.PackedSymmetric`) and B is the learner's
:class:`~qnprox.learner.Curvature` operator.  :class:`CountingOracle`
counts gradient queries.  Each stage returns the matrix-vector products it
took as ``matvecs``, and ``solve`` or ``bfgs_solve`` books them on
:class:`OracleCounters` once per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .linear_solver import KrylovBasis
from .separation import lanczos_extreme, lanczos_start, lanczos_steps

PROBES = 5  # random points the curvature estimate probes besides x0
PROBE_ACCURACY = 0.01  # relative, on each point's largest eigenvalue
PROBE_FAILURE = 1e-6  # the probability that a point misses that accuracy


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
    :class:`NumericsError`, and a value that is not a scalar, or a gradient
    not of shape ``(dimension,)``, :class:`ValueError`: a bad oracle stops
    the run where it happened, not later in a linear solve or a step size.
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
        if np.ndim(f) != 0:
            raise ValueError(f"value oracle returned shape {np.shape(f)}, "
                             f"expected a scalar")
        if not math.isfinite(f):
            raise NumericsError("value oracle returned a non-finite value")
        return f

    def gradient(self, x: np.ndarray) -> np.ndarray:
        self.counters.count_gradient()
        return checked_gradient(self.inner.gradient(x), self.dimension)


def checked_gradient(g, d: int):
    """``g``, once it has shape (d,), else :class:`ValueError` naming both
    shapes, and finite entries, else :class:`NumericsError`."""
    if np.shape(g) != (d,):
        raise ValueError(f"gradient oracle returned shape {np.shape(g)}, "
                         f"expected {(d,)}")
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


def estimate_smoothness(oracle, x0: np.ndarray, seed: int = 0) -> float:
    """1.1 times the largest |eigenvalue| of the Hessian at ``x0``, near
    which a logistic Hessian peaks, and at PROBES normal points drawn up
    front from ``seed``.  Each is the dominant Ritz value max(lam_max,
    -lam_min) of a Lanczos run on ``hessian(x) @ v``, or else on central
    gradient differences, from a start drawn from the same generator, of k =
    lanczos_steps(d, q, eps) steps for eps = PROBE_ACCURACY and q =
    PROBE_FAILURE: at most 2 k gradient calls and k + 1 rows a point.  A
    convex f's Hessian H is semidefinite, so that max is the top Ritz value,
    and the Kuczynski-Wozniakowski bound for definite matrices (SIAM J.
    Matrix Anal. Appl. 13(4), 1992), on H + tau I as tau -> 0, puts it
    below (1 - eps) lam_max(H) with probability at most q.  Gradients pass
    :func:`checked_gradient`, uncounted; a non-finite product raises
    :class:`NumericsError` naming the point."""
    d = oracle.dimension
    g = lambda x: checked_gradient(oracle.gradient(x), d)
    steps = lanczos_steps(d, PROBE_FAILURE, PROBE_ACCURACY)
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((PROBES, d))
    best = 0.0
    for i, x in enumerate((*points, x0)):
        if hasattr(oracle, "hessian"):
            apply_h = lambda v, H=oracle.hessian(x): H @ v
        else:
            h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
            apply_h = lambda v, x=x, h=h: (
                g(x + h * v) - g(x - h * v)) / (2.0 * h)
        basis = KrylovBasis(apply_h, lanczos_start(d, rng), steps + 1)
        try:
            extremes = lanczos_extreme(basis, steps)
        except NumericsError as exc:
            where = "x0" if i == PROBES else f"probe point {i + 1}"
            raise NumericsError(
                f"curvature estimate at {where}: {exc}") from exc
        best = max(best, extremes.dominant[0])
    estimate = 1.1 * best
    if not np.isfinite(estimate):
        raise NumericsError("curvature estimate is not finite")
    return estimate
