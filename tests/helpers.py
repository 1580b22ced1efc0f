"""Reference code the tests share and the library does not need: a quadratic
objective, a matrix that counts its products, a counter of the library's
products with W, the separation oracle's Krylov basis of W, the map of the
band onto the unit ball, a loss sample observed at a given matrix, the
learner's loss and its gradient as dense formulas, the dense learner step they define, the dense separation
hyperplane, the BFGS inverse update in product form, and the first
iteration to reach an objective gap."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

import qnprox.learner
import qnprox.separation
from qnprox.learner import (LearnerState, LearnerStepReport, LossSample,
                            _surrogate_coefficient, delta_schedule,
                            next_op_norm_bound, q_schedule,
                            symmetric_completion)
from qnprox.linear_solver import KrylovBasis
from qnprox.oracles import symmetrize
from qnprox.separation import separation_oracle
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


class CountingMatrix(np.ndarray):
    """A matrix that counts the products taken with it.

    ``M.view(CountingMatrix)`` shares M's data; every ``np.matmul`` with the
    view as an operand adds one to ``products`` and runs on plain arrays, so
    the results are those of M.
    """

    def __array_finalize__(self, obj):
        self.products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.products += 1
        plain = [np.asarray(x) if isinstance(x, CountingMatrix) else x
                 for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


class ProductCounter:
    """Counts the products with W that the library takes, all of them
    through ``qnprox.separation.symv``: installed with ``monkeypatch`` into
    each module that calls it, it adds one to ``products`` per call and
    returns the library's result."""

    def __init__(self, monkeypatch):
        self.products = 0
        original = qnprox.separation.symv

        def counted(*args, **kwargs):
            self.products += 1
            return original(*args, **kwargs)

        for module in (qnprox.separation, qnprox.learner):
            assert module.symv is original
            monkeypatch.setattr(module, "symv", counted)


def lanczos_basis(W: np.ndarray, seed) -> KrylovBasis:
    """The Krylov basis ``separation_oracle`` grows: products with the lower
    triangle of W through ``qnprox.separation.symv`` (looked up per call, so
    :class:`ProductCounter` sees them), from a standard normal start drawn
    from ``seed``."""
    start = np.random.default_rng(seed).standard_normal(W.shape[0])
    return KrylovBasis(lambda v: qnprox.separation.symv(W, v), start)


def rescale_to_unit_ball(B: np.ndarray, L1: float) -> np.ndarray:
    """B_hat = (2 / L1) (B - (L1 / 2) I); maps Z onto the unit op-norm ball."""
    B_hat = np.array(B, dtype=float)
    B_hat.flat[::B_hat.shape[0] + 1] -= L1 / 2.0
    B_hat *= 2.0 / L1
    return B_hat


def loss_sample(B, w: np.ndarray, s: np.ndarray) -> LossSample:
    """The loss sample (w, s) observed at the matrix B in play: its Bs is
    ``B @ s``, the product the line search reads off its basis."""
    return LossSample(w=w, s=s, Bs=B @ s)


def loss_gradient(s: np.ndarray, residual: np.ndarray, s2: float
                  ) -> np.ndarray:
    """-(s r^T + r s^T) / ||s||^2, the loss gradient for r = w - B s."""
    return -(np.outer(s, residual) + np.outer(residual, s)) / s2


def project_frobenius_ball(M: np.ndarray, radius: float
                           ) -> tuple[np.ndarray, float]:
    """The projection of M onto the Frobenius ball, and ||M||_F."""
    norm = float(np.linalg.norm(M))
    if norm <= radius:
        return M, norm
    return (radius / norm) * M, norm


def dense_learner_step(state: LearnerState, sample: LossSample, seed
                       ) -> tuple[LearnerState, LearnerStepReport, np.ndarray]:
    """``qnprox.learner.learner_step`` written with dense temporaries: the
    surrogate gradient G as one matrix, W - rho G from the full symmetric W
    and its projection, and the next curvature matrix
    B = kappa W_next + (L1 / 2) I as a third return value.  The state is
    not consumed, and the returned W is full.  The library updates W's
    lower triangle in place by BLAS rank updates, which round differently,
    and never forms B.  B s is the sample's, as in the library, so both
    steps start from the same floats."""
    d = state.W.shape[0]
    L1 = state.L1
    Bs = sample.Bs
    residual = sample.w - Bs
    s2 = float(sample.s @ sample.s)
    r2 = float(residual @ residual)
    G = (2.0 / L1) * loss_gradient(sample.s, residual, s2)
    G_op = ((2.0 / L1) * (abs(float(sample.s @ residual)) + math.sqrt(s2 * r2))
            / s2)
    cert = state.certificate
    if cert is not None:
        coefficient = _surrogate_coefficient(sample.s, Bs, residual, s2, L1)
        G += (coefficient * cert.weight) * np.outer(cert.u, cert.u)
        G_op += abs(coefficient * cert.weight)

    radius = math.sqrt(d)
    W_next, norm = project_frobenius_ball(
        symmetric_completion(state.W) - state.rho * G, radius)
    bound = next_op_norm_bound(state.op_bound, state.rho * G_op, norm, radius)
    t_next = state.t + 1
    if bound <= 1.0:
        np.random.default_rng(seed).standard_normal(d)
        op_bound, certificate, sep_matvecs = bound, None, 0
    else:
        sep = separation_oracle(W_next, delta_schedule(t_next),
                                q_schedule(t_next, state.failure_budget),
                                seed)
        op_bound, sep_matvecs = sep.gamma, sep.matvecs
        certificate = sep if sep.separated else None
    kappa = L1 / 2.0 if certificate is None else (L1 / 2.0) / op_bound
    B = kappa * W_next + (L1 / 2.0) * np.eye(d)
    new_state = replace(state, W=W_next, certificate=certificate,
                        op_bound=op_bound, t=t_next)
    return new_state, LearnerStepReport(loss_value=r2 / s2,
                                        matvecs=sep_matvecs), B


def matrix_loss(B: np.ndarray, sample: LossSample) -> float:
    """||w - B s||^2 / ||s||^2 for the sample's w and s and any B (one
    matvec; the sample's Bs is not read)."""
    residual = sample.w - B @ sample.s
    return float(residual @ residual) / float(sample.s @ sample.s)


def matrix_loss_gradient(B: np.ndarray, sample: LossSample) -> np.ndarray:
    """Gradient of :func:`matrix_loss` over the space of symmetric matrices.

    Equals -(s r^T + r s^T) / ||s||^2 with r = w - B s; rank at most two and
    exactly symmetric.
    """
    residual = sample.w - B @ sample.s
    s2 = float(sample.s @ sample.s)
    return loss_gradient(sample.s, residual, s2)


def hyperplane(result) -> np.ndarray:
    """The dense d x d certificate S = weight * u u^T of a separation
    result (zero when it certified containment)."""
    return result.weight * np.outer(result.u, result.u)


def bfgs_inverse_product_form(H: np.ndarray, s: np.ndarray, y: np.ndarray
                              ) -> np.ndarray:
    """V H V^T + rho s s^T with V = I - rho s y^T and rho = 1 / <s, y>: the
    BFGS inverse update as Nocedal & Wright write it, two d^3 products and
    a new matrix."""
    rho = 1.0 / float(s @ y)
    V = np.eye(H.shape[0]) - rho * np.outer(s, y)
    return V @ H @ V.T + rho * np.outer(s, s)


def iterations_to_gap(record: RunRecord, f_star: float, gap: float
                      ) -> Optional[int]:
    """First iteration whose objective gap drops to ``gap`` (None if never)."""
    for row in record.rows:
        if row.f_value - f_star <= gap:
            return row.iteration
    return None
