"""Approximate separation oracle for the unit operator-norm ball.

Given a symmetric W with ||W||_F <= sqrt(d), the oracle either certifies
||W||_op <= 1 or returns a scale gamma > 1 with ||W / gamma||_op <= 1 together
with a rank-one hyperplane S = weight * u u^T, kept as the pair (u, weight),
satisfying <S, W - B> >= gamma - 1 - delta for every B in the ball, each
guarantee holding with probability at least 1 - q.  On either branch gamma
bounds ||W||_op on that same event.
Extreme eigenpairs are estimated by the Lanczos method from a random start on
the unit sphere, with full reorthogonalization (d stays small here, and it
keeps the Ritz values trustworthy).

Each oracle call runs a single Lanczos sequence: the coarse decision reads its
Ritz values after n1 steps, and when a finer estimate is needed the same
Krylov run continues to max(n1, n2) steps instead of restarting.  Every stage
is therefore still a Lanczos run of its length from a uniform random start,
which is all the random-start bound of Kuczynski and Wozniakowski (SIAM J.
Matrix Anal. Appl. 13(4), 1992) asks for, so each stage keeps its failure
probability q and the union bound over the calls is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.linalg.blas import dsymv

from .errors import check_integer, check_interval

LANCZOS_BREAKDOWN = 1e-14


def symv(W: np.ndarray, v: np.ndarray, alpha: float = 1.0,
         beta: float = 0.0, y: Optional[np.ndarray] = None) -> np.ndarray:
    """alpha W v + beta y as a new array, for the symmetric matrix held in
    the lower triangle (row >= column) of the C-ordered W; the strict upper
    triangle is never read, so it may be stale.  BLAS ``dsymv`` sees the
    Fortran-ordered W.T, whose upper triangle that is.  Every product with
    W, the learner's and the oracle's, goes through here."""
    return dsymv(alpha, W.T, v, beta, y, lower=0)


class LanczosExtremes(NamedTuple):
    u_max: np.ndarray
    lam_max: float
    u_min: np.ndarray
    lam_min: float
    matvecs: int


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


def _tridiagonal_eigenvector(a: np.ndarray, b: np.ndarray,
                             index: int) -> np.ndarray:
    """Unit eigenvector ``index`` (0 = lowest) of the symmetric tridiagonal
    matrix with diagonal ``a`` and off-diagonal ``b``.

    These are the LAPACK calls (bisection ``stebz``, then inverse iteration
    ``stein``) that ``scipy.linalg.eigh_tridiagonal(a, b, select="i")`` makes,
    with the same arguments, so the result is the same to the bit; calling
    them directly skips the wrapper's argument checks.
    """
    stebz, stein = get_lapack_funcs(("stebz", "stein"), (a, b))
    m, w, iblock, isplit, info = stebz(a, b, 2, 0.0, 1.0, index + 1,
                                       index + 1, 0.0, "B")
    if info == 0:
        v, info = stein(a, b, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"tridiagonal eigenvector {index} failed (LAPACK info {info})")
    return v[:, 0]


class LanczosRun:
    """One Lanczos sequence on symmetric W, held in its lower triangle, that
    can be extended step by step.

    The start vector is standard Gaussian normalized to the unit sphere, drawn
    once from ``seed``.  The orthonormal basis is stored row-major in a buffer
    of ``min(capacity, d)`` rows, and each new vector is fully
    reorthogonalized against it.  The residual of the last step is formed
    only when the next step is taken, so a run extended in two calls performs
    exactly the arithmetic of one run of the combined length.  On Krylov
    breakdown (beta below 1e-14) the run stops for good: the basis then spans
    an invariant subspace.  The run keeps no count: ``advance`` returns the
    steps it took (one product with W each), ``extremes`` takes two more,
    and :func:`lanczos_extreme` reports their sum as ``matvecs``.
    """

    def __init__(self, W: np.ndarray, capacity: int, seed):
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {W.shape}")
        check_integer("capacity", capacity, 1)
        d = W.shape[0]
        self.W = W
        self.capacity = min(capacity, d)
        self.basis = np.empty((self.capacity, d))
        self.alphas = np.empty(self.capacity)
        self.betas = np.empty(self.capacity)
        self.steps = 0
        self.broken_down = False
        q = np.random.default_rng(seed).standard_normal(d)
        np.divide(q, np.linalg.norm(q), out=self.basis[0])
        # W q_{steps-1}; the next step turns it into its residual in place
        self._Wq: Optional[np.ndarray] = None

    def advance(self, iterations: int) -> int:
        """Take steps until ``iterations`` in total (capped at the capacity)
        or breakdown; returns the number of steps taken by this call."""
        target = min(iterations, self.capacity)
        Q, alphas, betas = self.basis, self.alphas, self.betas
        start = self.steps
        j = start
        while j < target and not self.broken_down:
            if j > 0:
                r = self._Wq
                r -= alphas[j - 1] * Q[j - 1]
                if j > 1:
                    r -= betas[j - 2] * Q[j - 2]
                r -= (Q[:j] @ r) @ Q[:j]
                beta = math.sqrt(r @ r)
                if beta < LANCZOS_BREAKDOWN:
                    self.broken_down = True
                    break
                betas[j - 1] = beta
                np.divide(r, beta, out=Q[j])
            self._Wq = symv(self.W, Q[j])
            alphas[j] = Q[j] @ self._Wq
            j += 1
        self.steps = j
        return j - start

    def extremes(self) -> tuple[np.ndarray, float, np.ndarray, float]:
        """Top and bottom Ritz vectors with their Rayleigh quotients
        <W u, u> (two matvecs)."""
        k = self.steps
        Q = self.basis[:k]
        if k == 1:
            u_max = Q[0].copy()
            u_min = Q[0].copy()
        else:
            a, b = self.alphas[:k], self.betas[:k - 1]
            u_max = _tridiagonal_eigenvector(a, b, k - 1) @ Q
            u_max /= np.linalg.norm(u_max)
            u_min = _tridiagonal_eigenvector(a, b, 0) @ Q
            u_min /= np.linalg.norm(u_min)
        lam_max = float(u_max @ symv(self.W, u_max))
        lam_min = float(u_min @ symv(self.W, u_min))
        return u_max, lam_max, u_min, lam_min


def lanczos_extreme(run: LanczosRun, iterations: int) -> LanczosExtremes:
    """Extreme Ritz pairs after continuing ``run`` to ``iterations`` steps.

    The steps stop at the run's capacity or at Krylov breakdown, and
    ``matvecs`` counts the steps this call took plus the two Rayleigh
    quotients: the reported values are recomputed as <W u, u>, so they are
    valid even after a breakdown.
    """
    check_integer("iterations", iterations, 1)
    steps = run.advance(iterations)
    return LanczosExtremes(*run.extremes(), matvecs=steps + 2)


def _lanczos_rounds(d: int, q: float) -> float:
    return math.log(11.0 * d / q ** 2)


def _dominant(extremes: LanczosExtremes) -> tuple[float, np.ndarray, float]:
    """max(lam_1, -lam_d) with its Ritz vector and sign; ties go to the top."""
    if extremes.lam_max >= -extremes.lam_min:
        return extremes.lam_max, extremes.u_max, 1.0
    return -extremes.lam_min, extremes.u_min, -1.0


def separation_oracle(W: np.ndarray, delta: float, q: float, seed
                      ) -> SeparationResult:
    """Randomized separation oracle for {B symmetric : ||B||_op <= 1}.

    One Lanczos sequence from a random start serves both stages.  After
    n1 = min(ceil(log(11 d / q^2) + 1/2), d) steps the coarse estimate
    lam_hat = max(lam_1, -lam_d) decides: if lam_hat <= 1/2 the input is
    certified inside (gamma = 2 lam_hat, weight 0); if lam_hat >= 2 it is
    separated with the scaled certificate gamma = 2 lam_hat and
    S = +/- 3 u u^T.  Otherwise the same run continues to max(n1, n2) steps,
    n2 = min(ceil(log(11 d / q^2) / (4 sqrt(2 delta)) + 1/2), d), and the
    finer estimate lam_tilde decides: gamma = lam_tilde + delta with weight 0
    when lam_tilde <= 1 - delta, else S = +/- u u^T.  On every branch u is
    the Ritz vector of the deciding value, the top one on ties (sign +).

    Every claim rests on one bound per stage, ||W||_op <= gamma, which holds
    with probability at least 1 - q on the stage's Lanczos event.  The coarse
    event is lam_hat >= ||W||_op / 2, that is ||W||_op <= 2 lam_hat = gamma:
    it gives the separated scale when lam_hat >= 2 and containment when
    lam_hat <= 1/2.  The fine event is lam_tilde >= ||W||_op - delta, that is
    ||W||_op <= lam_tilde + delta = gamma: it gives the separated scale, and
    containment when lam_tilde <= 1 - delta.  So gamma bounds ||W||_op on
    the inside branches too, on the same event and with no further failure
    probability; the learner chains this bound to skip later calls.

    A coarse decision costs n1 + 2 matvecs, a fine one max(n1, n2) + 4: the
    continued steps plus two Rayleigh quotients per stage.  Continuing
    rather than restarting keeps each stage's guarantee, because the fine
    stage is itself a max(n1, n2)-step run from a uniform random start.
    """
    check_interval("delta", delta, 0.0, math.inf)
    check_interval("q", q, 0.0, 1.0)
    d = W.shape[0]
    log_term = _lanczos_rounds(d, q)
    n1 = min(math.ceil(log_term + 0.5), d)
    n2 = min(math.ceil(log_term / (4.0 * math.sqrt(2.0 * delta)) + 0.5), d)
    run = LanczosRun(W, max(n1, n2), seed)

    coarse = lanczos_extreme(run, n1)
    lam_hat, u, sign = _dominant(coarse)
    matvecs = coarse.matvecs
    if lam_hat <= 0.5:
        return SeparationResult(gamma=2.0 * lam_hat, u=u, weight=0.0,
                                matvecs=matvecs)
    if lam_hat >= 2.0:
        return SeparationResult(gamma=2.0 * lam_hat, u=u, weight=3.0 * sign,
                                matvecs=matvecs)

    fine = lanczos_extreme(run, max(n1, n2))
    lam_tilde, u, sign = _dominant(fine)
    matvecs += fine.matvecs
    weight = 0.0 if lam_tilde <= 1.0 - delta else sign
    return SeparationResult(gamma=lam_tilde + delta, u=u, weight=weight,
                            matvecs=matvecs)
