"""Objective oracles, the input check, and query accounting.

All vectors are 1-d ``numpy.float64`` arrays.  No solve forms a dense
``d x d`` matrix or calls an objective's ``hessian``: W and H are packed
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
