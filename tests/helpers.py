"""Reference code the tests share and the library does not need: a quadratic
objective, an objective whose gradients or values turn bad after a count,
one whose value is not a scalar, a matrix that
counts its products, the packed form of a dense symmetric matrix, a counter
of the library's products with a packed matrix, the separation oracle's
Krylov basis of W, the map of the band onto the unit ball, a loss sample
observed at a given matrix, the learner's loss and its gradient as dense
formulas, the dense learner step they define, the dense separation
hyperplane, the BFGS inverse update in product form, the tracemalloc peak of
a call, and the first iteration to reach an objective gap."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace
from typing import Optional

import numpy as np

from qnprox.learner import (LearnerState, LearnerStepReport, LossSample,
                            _surrogate_coefficient, delta_schedule,
                            next_op_norm_bound, q_schedule)
from qnprox.linear_solver import KrylovBasis
from qnprox.selftest import symmetrize
from qnprox.separation import (PackedSymmetric, lanczos_start,
                               separation_oracle)
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


class FaultAfter:
    """Wraps an objective; every ``query`` ("gradient" or "value") after the
    first ``good`` of its kind is ``fault`` of the true result, all NaN by
    default.  ``seen`` counts the queries of each kind."""

    def __init__(self, inner, good, fault=lambda result: result * np.nan,
                 query="gradient"):
        self.inner = inner
        self.dimension = inner.dimension
        self.smoothness = inner.smoothness
        self.good = good
        self.fault = fault
        self.query = query
        self.seen = {"gradient": 0, "value": 0}

    def _answer(self, query, result):
        self.seen[query] += 1
        if query != self.query:
            return result
        self.good -= 1
        return result if self.good >= 0 else self.fault(result)

    def value(self, x):
        return self._answer("value", self.inner.value(x))

    def gradient(self, x):
        return self._answer("gradient", self.inner.gradient(x))


class VectorValue:
    """Wraps an objective; each value is returned as a 2-entry array."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.smoothness = inner.smoothness

    def value(self, x):
        return np.full(2, self.inner.value(x))

    def gradient(self, x):
        return self.inner.gradient(x)


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


def packed(M, name: str = "the packed matrix") -> PackedSymmetric:
    """The lower triangle of the square ``M``, row by row, as the packed
    matrix the library holds: the symmetric matrix M is when M is
    symmetric."""
    M = np.asarray(M, dtype=float)
    return PackedSymmetric(M.shape[0], name, M[np.tril_indices(M.shape[0])])


class ProductCounter:
    """Counts the products the library takes with packed matrices, all of
    them through ``PackedSymmetric.matvec``: installed with ``monkeypatch``
    on the class, it adds one to ``products`` per call and returns the
    library's result."""

    def __init__(self, monkeypatch):
        self.products = 0
        original = PackedSymmetric.matvec

        def counted(*args, **kwargs):
            self.products += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(PackedSymmetric, "matvec", counted)


def lanczos_basis(W: np.ndarray, seed) -> KrylovBasis:
    """The Krylov basis ``separation_oracle`` grows: products with the
    packed form of the dense symmetric W (looked up per call, so
    :class:`ProductCounter` sees them), from a standard normal start drawn
    from ``seed``."""
    matrix = packed(W)
    start = lanczos_start(W.shape[0], seed)
    return KrylovBasis(lambda v: matrix.matvec(v), start)


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
    not consumed, and the returned W is dense.  The library updates the
    packed W in place by BLAS rank updates, which round differently, and
    never forms B.  B s is the sample's, as in the library, so both
    steps start from the same floats."""
    d = state.W.dimension
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
        np.array(state.W) - state.rho * G, radius)
    bound = next_op_norm_bound(state.op_bound, state.rho * G_op, norm, radius)
    t_next = state.t + 1
    if bound <= 1.0:
        lanczos_start(d, seed)
        op_bound, certificate, sep_matvecs = bound, None, 0
    else:
        sep = separation_oracle(packed(W_next), delta_schedule(t_next),
                                q_schedule(t_next), seed)
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


def traced_allocation_peak(run) -> int:
    """Bytes the tracemalloc peak rises above the traced memory while
    ``run()`` runs."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - baseline
    finally:
        if started:
            tracemalloc.stop()


def iterations_to_gap(record: RunRecord, f_star: float, gap: float
                      ) -> Optional[int]:
    """First iteration whose objective gap drops to ``gap`` (None if never)."""
    for row in record.rows:
        if row.f_value - f_star <= gap:
            return row.iteration
    return None
