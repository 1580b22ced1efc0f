"""Minimum-residual solves of shifted systems on one shared Krylov basis.

Solves A s = b for symmetric A with lambda_min(A) >= 1 (in this package A is
always I + eta * B with B positive semidefinite), stopping as soon as

    ||A s - b|| <= alpha * ||s||,

the inexactness contract the line search relies on.  The iterate at Krylov
dimension k minimizes ||A s - b|| over K_k(A, b).  So does the conjugate
residual (CR) iterate: for symmetric definite A, CR and MINRES (Paige &
Saunders, SIAM J. Numer. Anal. 12(4), 1975) give the same iterates in exact
arithmetic, and stop at the same k.  It is computed as MINRES does.  The
Lanczos basis of M from b, held as Q_k with rows q_0 .. q_{k-1}, satisfies
M Q_k^T = Q_{k+1}^T T_k with T_k the (k+1) x k tridiagonal, so for
A = sigma I + eta M, s_k = Q_k^T y_k with y_k the least-squares solution of
(sigma I + eta T_k) y = ||b|| e_1.  A Givens QR of that tridiagonal, one
column per dimension, holds the residual norm as its last right-hand-side
entry, and ||s_k|| = ||y_k|| on the orthonormal basis, so the stopping test
takes no product.

K_k(I + eta M, g) = K_k(M, g) for every eta (Jegerlehner, "Krylov space
solvers for shifted linear systems", 1996), so the trials of one line
search, which share M = B and g and solve with b = -eta g, share one
:class:`KrylovBasis`, and eta enters only the tridiagonal.  A trial that
stops at dimension k costs one product M v, with its full
reorthogonalization, per dimension past the largest an earlier trial built,
plus O(k) scalar work for the QR, one banded triangular solve per dimension
and one k x d product for s_k.  A plain ``apply_A`` callable gets a fresh
basis of A from b: k products for k iterations.  The result keeps y_k, and
the same relation gives M s_k = (T_k y_k) @ Q_{k+1} with no product
(:meth:`KrylovBasis.image`): the line search reads its rejected trial's
B s that way for the learner's loss.

:class:`KrylovBasis` is the package's one Lanczos recurrence: the separation
oracle (:mod:`qnprox.separation`) grows one on W from a random start and
reads its extreme Ritz pairs from the same ``alphas``, ``betas`` and
``vectors``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
from scipy.linalg.blas import dtbsv

from .errors import (ConvergenceError, NumericsError, check_integer,
                     check_interval)

LANCZOS_BREAKDOWN = 1e-14
INITIAL_ROWS = 8
# a right-hand side off the basis's start direction by more than this
# relative amount is refused
START_ALIGNMENT = 1e-12


@dataclass(frozen=True)
class LinearSolveResult:
    """``s`` is ``coefficients @ Q_k`` on the basis the solve ran on, with k
    = ``iterations``."""

    s: np.ndarray
    iterations: int
    matvecs: int
    residual_history: tuple
    coefficients: np.ndarray


class KrylovBasis:
    """Lanczos basis of the symmetric operator ``apply`` from ``start``,
    grown one product at a time: the line search's basis of B from g, and
    the separation oracle's basis of W from a random start.

    After ``size`` products the rows 0..size of ``vectors`` hold q_0 ..
    q_size (q_size is absent once the basis is invariant), and ``alphas``
    and ``betas`` hold the diagonal and the subdiagonal of T_size: M q_j =
    betas[j-1] q_{j-1} + alphas[j] q_j + betas[j] q_{j+1}.  Each new vector
    is fully reorthogonalized against the basis.  The basis is invariant,
    and stops for good, once a beta is at most LANCZOS_BREAKDOWN times
    ``scale``, the largest |alpha| or beta seen (a lower bound on ||M||), or
    once it spans the whole space; that beta is stored as 0.  The test is
    relative, so a basis of c M takes the steps of the basis of M for any
    scale c.  The buffer starts at ``min(capacity, d)`` rows and doubles as
    needed up to d.  The line search keeps the default INITIAL_ROWS, so its
    buffer has at most max(INITIAL_ROWS, 2 size) rows and never d rows
    before it needs them; the separation oracle knows its last dimension
    and passes the rows it needs, so its buffer never grows.
    """

    def __init__(self, apply: Callable[[np.ndarray], np.ndarray],
                 start: np.ndarray, capacity: int = INITIAL_ROWS):
        check_integer("capacity", capacity, 1)
        d = start.shape[0]
        self.apply = apply
        self.start_norm = math.sqrt(start @ start)
        self.vectors = np.empty((min(capacity, d), d))
        self.alphas: list[float] = []
        self.betas: list[float] = []
        self.scale = 0.0
        self.size = 0
        self.invariant = self.start_norm == 0.0
        if not self.invariant:
            np.divide(start, self.start_norm, out=self.vectors[0])

    def coordinate(self, b: np.ndarray, b_norm: float) -> float:
        """<q_0, b> for a nonzero b along the start vector, else
        :class:`ValueError`."""
        if self.start_norm == 0.0:
            raise ValueError("the right-hand side is nonzero but the "
                             "Krylov basis starts at 0")
        coordinate = float(self.vectors[0] @ b)
        if abs(coordinate) < (1.0 - START_ALIGNMENT) * b_norm:
            raise ValueError("the right-hand side is not a multiple of the "
                             "Krylov basis's start vector")
        return coordinate

    def extend(self) -> None:
        """One product M q_size: appends alpha and beta, and q_{size+1}
        unless the basis becomes invariant."""
        k = self.size
        Q = self.vectors
        q = Q[k]
        w = self.apply(q)
        if np.may_share_memory(w, Q):
            w = w.copy()
        alpha = float(q @ w)
        w -= alpha * q
        if k > 0:
            w -= self.betas[k - 1] * Q[k - 1]
        w -= (Q[:k + 1] @ w) @ Q[:k + 1]
        beta = math.sqrt(w @ w)
        self.scale = max(self.scale, abs(alpha))
        self.alphas.append(alpha)
        self.size = k + 1
        if beta <= LANCZOS_BREAKDOWN * self.scale or k + 1 == Q.shape[1]:
            self.invariant = True
            self.betas.append(0.0)
            return
        self.scale = max(self.scale, beta)
        self.betas.append(beta)
        if k + 1 == Q.shape[0]:
            grown = np.empty((min(2 * Q.shape[0], Q.shape[1]), Q.shape[1]))
            grown[:k + 1] = Q[:k + 1]
            self.vectors = Q = grown
        np.divide(w, beta, out=Q[k + 1])

    def image(self, c: np.ndarray) -> np.ndarray:
        """M (c @ Q_k) for the coefficients c of a vector on the first
        k = len(c) <= ``size`` basis vectors, with no product with M: the
        Lanczos relation M Q_k^T = Q_{k+1}^T T_k makes it (T_k c) @ Q_{k+1},
        one (k + 1) x d product.  When betas[k-1] is 0 (the basis is
        invariant at dimension k, and q_k may be unset) the last row of T_k
        is 0, and rows :k alone are read."""
        k = c.shape[0]
        if k == 0:
            return np.zeros(self.vectors.shape[1])
        alphas = np.asarray(self.alphas[:k])
        betas = np.asarray(self.betas[:k])
        rows = k if betas[-1] == 0.0 else k + 1
        tc = np.empty(rows)
        tc[:k] = alphas * c
        tc[1:k] += betas[:-1] * c[:-1]
        tc[:k - 1] += betas[:-1] * c[1:]
        if rows > k:
            tc[k] = betas[-1] * c[-1]
        return tc @ self.vectors[:rows]


class ShiftedOperator(NamedTuple):
    """The operator I + eta M, solved on a shared basis of M."""

    basis: KrylovBasis
    eta: float


def conjugate_residual(apply_A: Union[Callable[[np.ndarray], np.ndarray],
                                      ShiftedOperator],
                       b: np.ndarray,
                       alpha: float,
                       max_iters: Optional[int] = None) -> LinearSolveResult:
    """The minimum-residual iterate of A s = b at the first Krylov dimension
    k with ||A s - b|| <= alpha * ||s|| (module docstring).

    ``apply_A`` is the product v -> A v, which gets a fresh basis of A from
    b, or a :class:`ShiftedOperator` (basis, eta) for A = I + eta M, in which
    case b must be a multiple of the basis's start vector and the basis is
    extended only past the dimensions it already has.  ``iterations`` is k,
    ``matvecs`` the products this call added to the basis,
    ``residual_history`` the residual norms at dimensions 0..k, and
    ``coefficients`` the iterate's k coordinates on the basis, from which
    :meth:`KrylovBasis.image` reads its product with M.

    The termination test is evaluated before each iteration, so b = 0
    returns s = 0 immediately with zero iterations and zero matvecs.

    Raises :class:`ConvergenceError` (carrying the best iterate) past
    ``max_iters`` (default 4 d), and :class:`NumericsError` on a zero pivot
    of the QR (A singular on the Krylov space) before the test passes.
    """
    check_interval("alpha", alpha, 0.0, 1.0)
    d = b.shape[0]
    if max_iters is None:
        max_iters = 4 * d
    if isinstance(apply_A, ShiftedOperator):
        basis, shift, eta = apply_A.basis, 1.0, apply_A.eta
    else:
        basis, shift, eta = KrylovBasis(apply_A, b), 0.0, 1.0
    start_size = basis.size

    b_norm = math.sqrt(b @ b)
    # phi: the QR's last right-hand-side entry, +/- the residual norm
    phi = basis.coordinate(b, b_norm) if b_norm > 0.0 else 0.0
    history = [abs(phi)]
    columns = min(max_iters, d)
    # R by diagonals, as BLAS dtbsv reads an upper band with 2 superdiagonals
    R = np.zeros((3, columns), order="F")
    t = np.empty(columns)
    c_old = c_last = 1.0   # the rotations of columns k - 2 and k - 1
    s_old = s_last = 0.0
    y = None
    y_norm = 0.0
    k = 0

    while not abs(phi) <= alpha * y_norm:
        if k >= max_iters:
            best = np.zeros(d) if y is None else y @ basis.vectors[:k]
            raise ConvergenceError(
                f"conjugate residual did not satisfy ||As - b|| <= "
                f"{alpha} * ||s|| within {max_iters} iterations "
                f"(residual {abs(phi):.3e})",
                best=best)
        if k == basis.size:
            if basis.invariant:
                # its last residual is exactly 0 unless the operator is not
                # finite
                raise NumericsError(
                    "conjugate residual: the Krylov space is invariant at "
                    f"dimension {k} but the residual is {abs(phi):.3e}")
            basis.extend()
        # column k of shift I + eta T: rows k - 1, k and k + 1
        above = eta * basis.betas[k - 1] if k > 0 else 0.0
        diagonal = shift + eta * basis.alphas[k]
        below = eta * basis.betas[k]
        far = s_old * above
        near = c_old * above
        near, diagonal = (c_last * near + s_last * diagonal,
                          c_last * diagonal - s_last * near)
        pivot = math.hypot(diagonal, below)
        if pivot <= LANCZOS_BREAKDOWN * (shift + eta * basis.scale):
            raise NumericsError(
                f"conjugate residual breakdown: zero pivot {pivot:.3e} at "
                f"dimension {k + 1}")
        c_old, s_old = c_last, s_last
        c_last, s_last = diagonal / pivot, below / pivot
        R[0, k], R[1, k], R[2, k] = far, near, pivot
        t[k] = c_last * phi
        phi = -s_last * phi
        k += 1
        y = dtbsv(2, R[:, :k], t[:k])
        y_norm = math.sqrt(y @ y)
        history.append(abs(phi))

    if y is None:
        y = np.zeros(0)
    return LinearSolveResult(s=y @ basis.vectors[:k], iterations=k,
                             matvecs=basis.size - start_size,
                             residual_history=tuple(history),
                             coefficients=y)
