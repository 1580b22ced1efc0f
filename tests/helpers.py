"""Reference code the tests share and the library does not need: a quadratic
objective, the learner's loss and its gradient as dense formulas, the dense
separation hyperplane, and the first iteration to reach an objective gap."""

from __future__ import annotations

from typing import Optional

import numpy as np

from qnprox.learner import LossSample, _loss_gradient
from qnprox.oracles import OracleCounters, matvec, symmetrize
from qnprox.trace import RunRecord


class QuadraticObjective:
    """f(x) = 1/2 (x - c)^T Q (x - c) for symmetric PSD Q.

    Mostly a test fixture; ``smoothness`` is the largest eigenvalue of Q.
    """

    def __init__(self, Q: np.ndarray, center: Optional[np.ndarray] = None):
        self.Q = symmetrize(np.asarray(Q, dtype=float))
        self.dimension = self.Q.shape[0]
        self.center = (np.zeros(self.dimension) if center is None
                       else np.asarray(center, dtype=float))
        self.smoothness = float(np.linalg.eigvalsh(self.Q)[-1])

    def value(self, x: np.ndarray) -> float:
        r = x - self.center
        return 0.5 * float(r @ (self.Q @ r))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.Q @ (x - self.center)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return self.Q.copy()


def matrix_loss(B: np.ndarray, sample: LossSample,
                counters: Optional[OracleCounters] = None) -> float:
    """||w - B s||^2 / ||s||^2 (one counted matvec)."""
    residual = sample.w - matvec(B, sample.s, counters)
    return float(residual @ residual) / float(sample.s @ sample.s)


def matrix_loss_gradient(B: np.ndarray, sample: LossSample,
                         counters: Optional[OracleCounters] = None
                         ) -> np.ndarray:
    """Gradient of :func:`matrix_loss` over the space of symmetric matrices.

    Equals -(s r^T + r s^T) / ||s||^2 with r = w - B s; rank at most two and
    exactly symmetric.
    """
    residual = sample.w - matvec(B, sample.s, counters)
    s2 = float(sample.s @ sample.s)
    return _loss_gradient(sample.s, residual, s2)


def hyperplane(result) -> np.ndarray:
    """The dense d x d certificate S = weight * u u^T of a separation
    result (zero when it certified containment)."""
    return result.weight * np.outer(result.u, result.u)


def iterations_to_gap(record: RunRecord, f_star: float, gap: float
                      ) -> Optional[int]:
    """First iteration whose objective gap drops to ``gap`` (None if never)."""
    for row in record.rows:
        if row.f_value - f_star <= gap:
            return row.iteration
    return None
