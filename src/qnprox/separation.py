"""Approximate separation oracle for the unit operator-norm ball.

Given a symmetric W with ||W||_F <= sqrt(d), the oracle either certifies
||W||_op <= 1 or returns a scale gamma > 1 with ||W / gamma||_op <= 1 together
with a rank-one hyperplane S = weight * u u^T, kept as the pair (u, weight),
satisfying <S, W - B> >= gamma - 1 - delta for every B in the ball, each
guarantee holding with probability at least 1 - q.  On either branch gamma
bounds ||W||_op on that same event.
Extreme eigenpairs are estimated by the Lanczos method from a random start on
the unit sphere, with full reorthogonalization (d stays small here, and it
keeps the Ritz values trustworthy).  The recurrence is the linear solver's
:class:`~qnprox.linear_solver.KrylovBasis`, grown on v -> W v; its
breakdown test is relative to the largest entry of the tridiagonal, so the
oracle's answer on c W is c times its answer on W at any scale c.

Each oracle call grows a single Krylov basis: the coarse decision reads its
Ritz values after n1 steps, and when a finer estimate is needed the same
basis continues to max(n1, n2) steps instead of restarting.  Every stage
is therefore still a Lanczos run of its length from a uniform random start,
which is all the random-start bound of Kuczynski and Wozniakowski (SIAM J.
Matrix Anal. Appl. 13(4), 1992) asks for, so each stage keeps its failure
probability q and the union bound over the calls is unchanged.  That
bound is on the extreme Ritz value, an eigenvalue of the tridiagonal T_k,
read off T_k with no product with W.  The L1 probe shares the start draw
(:func:`lanczos_start`), the count (:func:`lanczos_steps`) and the read-out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import dspmv, dspr, dspr2

from .errors import check_integer, check_interval
from .linear_solver import KrylovBasis


class PackedSymmetric:
    """A symmetric d x d matrix held as its lower triangle, row by row, in
    the float64 vector ``packed`` of d (d + 1) / 2 entries: BLAS's
    column-major upper packed layout, so every routine runs with lower=0.
    A product is one ``dspmv``, and a rank-one or rank-two update one
    ``dspr`` or ``dspr2`` written into ``packed`` in place.
    ``np.array(M)`` builds the dense matrix, for checks; no solve needs it.
    ``name`` names the matrix in errors; ``packed`` defaults to zeros."""

    def __init__(self, d: int, name: str = "the packed matrix",
                 packed: Optional[np.ndarray] = None):
        self.dimension = d
        self.name = name
        self.packed = np.zeros(d * (d + 1) // 2) if packed is None else packed

    def _diagonal(self) -> np.ndarray:
        i = np.arange(self.dimension)  # row i starts at i (i + 1) / 2
        return i * (i + 3) // 2

    def _written(self, result: np.ndarray) -> None:
        """f2py hands BLAS a copy of a vector it cannot pass as it is, and
        the update is then lost: raise unless BLAS wrote into ``packed``."""
        if result is not self.packed:
            raise ValueError(f"{self.name} must be a contiguous float64 "
                             f"vector: BLAS updated a copy of it")

    def matvec(self, v: np.ndarray, alpha: float = 1.0, beta: float = 0.0,
               y: Optional[np.ndarray] = None) -> np.ndarray:
        """alpha M v + beta y, as a new array."""
        return dspmv(self.dimension, alpha, self.packed, v, beta=beta, y=y)

    def rank_one(self, alpha: float, x: np.ndarray) -> None:
        """M += alpha x x^T, in place."""
        self._written(dspr(self.dimension, alpha, x, self.packed,
                           overwrite_ap=1))

    def rank_two(self, alpha: float, x: np.ndarray, y: np.ndarray) -> None:
        """M += alpha (x y^T + y x^T), in place."""
        self._written(dspr2(self.dimension, alpha, x, y, self.packed,
                            overwrite_ap=1))

    def set_identity(self) -> None:
        self.packed.fill(0.0)
        self.packed[self._diagonal()] = 1.0

    def frobenius_norm(self) -> float:
        """sqrt(2 p . p - diag . diag): off-diagonal entries count twice."""
        p = self.packed
        diagonal = p[self._diagonal()]
        return math.sqrt(2.0 * float(p @ p) - float(diagonal @ diagonal))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError(f"{self.name} has no dense view without a copy")
        rows, cols = np.tril_indices(self.dimension)
        full = np.empty((self.dimension, self.dimension), dtype=dtype or float)
        full[rows, cols] = self.packed
        full[cols, rows] = self.packed
        return full


class LanczosExtremes(NamedTuple):
    """The top and bottom eigenvalues of a Lanczos basis's tridiagonal T_k,
    and the Lanczos steps (products) the read-out added to the basis."""

    lam_max: float
    lam_min: float
    matvecs: int

    @property
    def dominant(self) -> tuple[float, float]:
        """max(lam_max, -lam_min) and its sign, +1 for lam_max on ties."""
        if self.lam_max >= -self.lam_min:
            return self.lam_max, 1.0
        return -self.lam_min, -1.0


@dataclass(frozen=True)
class SeparationResult:
    """Scale ``gamma`` and certificate S = ``weight`` * u u^T, with ``u`` the
    unit Ritz vector that decided the call and ``weight`` 0 inside, +/- 1
    from the fine stage and +/- 3 from the coarse stage."""

    gamma: float
    u: np.ndarray
    weight: float
    matvecs: int

    @property
    def separated(self) -> bool:
        return self.weight != 0.0


def lanczos_steps(d: int, q: float, eps: float) -> int:
    """The Kuczynski-Wozniakowski count min(ceil(log(11 d / q^2) /
    (4 sqrt(eps)) + 1/2), d) for relative accuracy ``eps`` with failure
    probability ``q`` from a uniform random start."""
    return min(math.ceil(math.log(11.0 * d / q ** 2)
                         / (4.0 * math.sqrt(eps)) + 0.5), d)


def lanczos_start(d: int, seed) -> np.ndarray:
    """A Lanczos run's random start: d standard normals from
    ``np.random.default_rng(seed)``, which advances a Generator ``seed``."""
    return np.random.default_rng(seed).standard_normal(d)


def _tridiagonal_eigh(basis: KrylovBasis, index: int, vector: bool = False):
    """Eigenvalue ``index`` (0 = lowest) of the basis's T_k by LAPACK
    ``stebz``, and its eigenvector by ``stein`` when ``vector``.  T_k goes in
    as two new arrays, so no slice of the lists outlives the conversion."""
    a, b = np.array(basis.alphas), np.array(basis.betas[:basis.size - 1])
    return eigh_tridiagonal(a, b, eigvals_only=not vector, select="i",
                            select_range=(index, index), check_finite=False)


def lanczos_extreme(basis: KrylovBasis, iterations: int) -> LanczosExtremes:
    """Extreme Ritz values after growing ``basis`` to ``iterations`` steps.

    The steps stop early once the basis is invariant.  ``lam_max`` and
    ``lam_min`` are the top and bottom eigenvalues of the basis's k x k
    tridiagonal T_k by scipy's ``eigh_tridiagonal``, so the read-out takes no
    product with M; ``matvecs`` counts the steps this call added, 0 when
    the basis already had them.  After a breakdown, at a beta of at most
    LANCZOS_BREAKDOWN times the basis's scale, each is within that beta of
    an eigenvalue of M.
    """
    check_integer("iterations", iterations, 1)
    start = basis.size
    while basis.size < iterations and not basis.invariant:
        basis.extend()
    k = basis.size
    return LanczosExtremes(float(_tridiagonal_eigh(basis, k - 1)[0]),
                           float(_tridiagonal_eigh(basis, 0)[0]), k - start)


def _ritz_vector(basis: KrylovBasis, sign: float) -> np.ndarray:
    """The unit top (``sign`` +1) or bottom (-1) Ritz vector of ``basis``:
    the eigenvector of T_k mapped to R^d by one k x d product with the
    basis vectors, and no product with M; q_0 itself at k = 1, which
    normalizing could move by an ulp."""
    k = basis.size
    Q = basis.vectors[:k]
    if k == 1:
        return Q[0].copy()
    v = _tridiagonal_eigh(basis, k - 1 if sign > 0.0 else 0, True)[1]
    u = v[:, 0] @ Q
    u /= np.linalg.norm(u)
    return u


def separation_oracle(W: PackedSymmetric, delta: float, q: float, seed
                      ) -> SeparationResult:
    """Randomized separation oracle for {B symmetric : ||B||_op <= 1}.

    One Krylov basis of W from a random start serves both stages.  After
    n1 = lanczos_steps(d, q, 1/16) = min(ceil(log(11 d / q^2) + 1/2), d)
    steps the coarse estimate lam_hat = max(lam_1, -lam_d) of the extreme
    Ritz values decides: if lam_hat <= 1/2 the input is certified inside
    (gamma = 2 lam_hat, weight 0); if lam_hat >= 2 it is separated with the
    scaled certificate gamma = 2 lam_hat and S = +/- 3 u u^T.  Otherwise the
    same basis grows to max(n1, n2) steps, n2 = lanczos_steps(d, q,
    2 delta), and the finer estimate lam_tilde decides: gamma = lam_tilde
    + delta with weight 0 when lam_tilde <= 1 - delta, else S = +/- u u^T.
    On every branch u is the Ritz vector of the deciding value, the top one
    on ties (sign +), formed once the call is decided.

    Every claim rests on one bound per stage, ||W||_op <= gamma, which holds
    with probability at least 1 - q on the stage's Lanczos event.  The coarse
    event is lam_hat >= ||W||_op / 2, that is ||W||_op <= 2 lam_hat = gamma:
    it gives the separated scale when lam_hat >= 2 and containment when
    lam_hat <= 1/2.  The fine event is lam_tilde >= ||W||_op - delta, that is
    ||W||_op <= lam_tilde + delta = gamma: it gives the separated scale, and
    containment when lam_tilde <= 1 - delta.  So gamma bounds ||W||_op on
    the inside branches too, on the same event and with no further failure
    probability; the learner chains this bound to skip later calls.

    A coarse decision costs n1 matvecs and a fine one max(n1, n2), the
    Lanczos steps alone: the Ritz values come off the tridiagonal, and the
    Ritz vector is a combination of the basis vectors.  When n2 <= n1 the
    fine stage adds 0 products.  Continuing rather than restarting keeps
    each stage's guarantee, because the fine stage is itself a
    max(n1, n2)-step run from a uniform random start.
    """
    check_interval("delta", delta, 0.0, math.inf)
    check_interval("q", q, 0.0, 1.0)
    d = W.dimension
    n1 = lanczos_steps(d, q, 1.0 / 16.0)
    n2 = lanczos_steps(d, q, 2.0 * delta)
    # rows q_0 .. q_max(n1, n2): the buffer is allocated once
    basis = KrylovBasis(W.matvec, lanczos_start(d, seed), max(n1, n2) + 1)

    coarse = lanczos_extreme(basis, n1)
    lam_hat, sign = coarse.dominant
    if lam_hat <= 0.5 or lam_hat >= 2.0:
        weight = 0.0 if lam_hat <= 0.5 else 3.0 * sign
        return SeparationResult(gamma=2.0 * lam_hat,
                                u=_ritz_vector(basis, sign), weight=weight,
                                matvecs=coarse.matvecs)

    fine = lanczos_extreme(basis, max(n1, n2))
    lam_tilde, sign = fine.dominant
    weight = 0.0 if lam_tilde <= 1.0 - delta else sign
    return SeparationResult(gamma=lam_tilde + delta,
                            u=_ritz_vector(basis, sign), weight=weight,
                            matvecs=coarse.matvecs + fine.matvecs)
