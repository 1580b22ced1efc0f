"""Synthetic logistic-regression instances and their CSV format.

Labels come from a noise-free linear rule y_i = sign(<a*_i, x*>) in dimension
d - 1; the stored features add Gaussian noise and a constant shift of one
to every coordinate and append a constant-one intercept column:

    a_i = [a*_i + n_i + 1; 1],    n_i ~ N(0, sigma^2 I).

The objective is the averaged logistic loss
f(x) = (1/n) sum_i log(1 + exp(-y_i <a_i, x>)), whose gradient is Lipschitz
with constant L1 = lambda_max(A^T A) / (4 n).  Its Hessian
A^T diag(sigma(m) sigma(-m)) A / n is at most A^T A / (4 n), with equality at
x = 0, so this L1 is the tightest constant, and :class:`LogisticObjective`
computes it exactly: one eigensolve of the Gram matrix on the smaller side
of A.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce
from operator import iadd
from pathlib import Path

import numpy as np

from .errors import check_integer
from .trace import format_float

DATA_HEADER_PREFIX = "y,a_0"


@dataclass(frozen=True)
class SyntheticLogisticSpec:
    """Size, noise and seed of a synthetic instance, checked when
    constructed: a field out of range raises :class:`ValueError` naming it.
    d counts the intercept column, so d >= 2."""

    n: int
    d: int
    sigma: float
    seed: int

    def __post_init__(self) -> None:
        check_integer("n", self.n, 1)
        check_integer("d", self.d, 2)
        check_integer("seed", self.seed, 0)
        if (isinstance(self.sigma, bool)
                or not (isinstance(self.sigma, numbers.Real)
                        and 0.0 <= self.sigma < math.inf)):
            raise ValueError(
                f"sigma must be finite and >= 0, got {self.sigma!r}")


@dataclass(frozen=True)
class LogisticDataset:
    features: np.ndarray  # (n, d), last column all ones
    labels: np.ndarray    # (n,), entries +-1

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def generate_logistic(spec: SyntheticLogisticSpec) -> LogisticDataset:
    """Draw a dataset; a fixed seed gives a bit-identical result."""
    rng = np.random.default_rng(spec.seed)
    x_star = rng.standard_normal(spec.d - 1)
    a_star = rng.standard_normal((spec.n, spec.d - 1))
    noise = rng.standard_normal((spec.n, spec.d - 1)) * spec.sigma
    labels = np.where(a_star @ x_star >= 0.0, 1.0, -1.0)
    features = np.hstack([a_star + noise + 1.0, np.ones((spec.n, 1))])
    return LogisticDataset(features=features, labels=labels)


# Bytes of features per row block: a quarter of a 2 MiB per-core L2 cache,
# so a block read for its margins is still cached when the gradient's second
# product reads it, and a gradient reads the features from beyond L2 once.
# Smaller blocks pay more per-block call overhead: on a Xeon with 2 MiB of L2
# per core and one BLAS thread, a gradient on n = 40000, d = 40 took 1.16 ms
# at this size, 1.34 ms at 256 KiB, 1.84 ms at 128 KiB and 1.30 ms in one
# block; whole aqnpe solves there were flat from 384 KiB to 1.5 MiB.
_BLOCK_BYTES = 512 * 1024


class LogisticObjective:
    """Averaged logistic loss over a fixed dataset.

    The margins m = y * (A x) (A the features, y the labels) of the last
    point evaluated are kept, so ``value``, ``gradient`` and ``hessian`` at
    one point share a single n x d product; a copy of that point decides the
    reuse, so an ``x`` mutated in place is recomputed.  The loss, its
    gradient weights and its curvature come from the three kernels below,
    on numpy's vectorized ``exp`` and ``log1p`` (no ``scipy.special``):

        value     (sum max(-m, 0) + sum log1p(exp(-|m|))) / n
        gradient  -A^T (y * sigma(-m)) / n,   sigma(-m) = 1 / (1 + exp(m))
        hessian   A^T diag(e / (1 + e)^2) A / n,   e = exp(-|m|)

    All three walk A in the same row blocks of ``_BLOCK_BYTES`` (512 KiB)
    of features or less.  A gradient at a new point writes each block's
    margins and weights and adds its A_b^T w_b while the block is still in
    cache, so it reads A from beyond L2 once, not twice; a Hessian sums
    A_b^T diag(c_b) A_b, so its temporary is one block's size.  The margins
    are always formed block by block, so ``value`` gives the same bits
    whichever call filled the cache.  An instance whose features fit in one
    block computes the one-product formulas above bit for bit; with more
    blocks, only the summation order of A^T w and of the Hessian differs,
    and so do the last bits of the products A_b x.  A gradient ignores
    floating-point overflow for its whole walk, its n x d products included.

    The instance reads the dataset's arrays and keeps no copy of them: it
    holds 2 n + d floats of scratch space, plus a view per block of the
    features, the labels and the two scratch n-vectors; ``value`` and
    ``gradient`` allocate no length-n array, and it must not be called from
    two threads at once.

    ``smoothness`` is L1 = lambda_max(A^T A) / (4 n), the largest eigenvalue
    of the Hessian at 0, computed exactly rather than estimated: the Gram
    matrix A^T A when d <= n, else A A^T (the same nonzero spectrum), is one
    BLAS ``syrk``, and ``eigvalsh`` gives its top eigenvalue.  That costs
    O(n d m + m^3) flops, m = min(n, d), and one m x m array that is freed
    before the constructor returns.  The constructor checks the arrays, else
    :class:`ValueError` naming one: the features are a non-empty n x d array
    whose Gram matrix is finite (so is every feature, since each enters a
    diagonal entry as its square), and the labels are n entries of +-1.
    """

    def __init__(self, dataset: LogisticDataset):
        self.features, self.labels = dataset.features, dataset.labels
        if self.features.ndim != 2 or 0 in self.features.shape:
            raise ValueError(f"features must be a non-empty 2-d array, got "
                             f"shape {self.features.shape}")
        n, self.dimension = self.features.shape
        if self.labels.shape != (n,):
            raise ValueError(f"labels must have shape {(n,)}, one per row of "
                             f"features, got {self.labels.shape}")
        if not (np.abs(self.labels) == 1.0).all():
            raise ValueError("labels must be +-1")
        self._margins = np.empty(n)
        self._work = np.empty(n)
        self._margins_x = np.full(self.dimension, np.nan)  # NaN: none cached
        rows = max(1, _BLOCK_BYTES // (self.dimension * self.features.itemsize))
        self._blocks = [
            tuple(a[start:start + rows] for a in
                  (self.features, self.labels, self._margins, self._work))
            for start in range(0, n, rows)]
        A = self.features
        with np.errstate(over="ignore", invalid="ignore"):
            gram = A.T @ A if self.dimension <= n else A @ A.T
        if not np.isfinite(gram).all():
            raise ValueError("features must be finite, and small enough that "
                             "their Gram matrix is")
        self.smoothness = float(np.linalg.eigvalsh(gram)[-1]) / (4.0 * n)

    def _walk(self, x: np.ndarray):
        """Yield each block (features, labels, margins, work) with its
        margins y_b * (A_b x) in place, computed only when x differs from
        the cached point, which is cleared before the first block is written
        and set after the last.  Multiplying by a label of +-1 is exact, so
        these are the label-signed features block times x bit for bit."""
        stale = not np.array_equal(x, self._margins_x)
        if stale:
            self._margins_x.fill(np.nan)
        for block in self._blocks:
            if stale:
                features, labels, margins, _ = block
                np.matmul(features, x, out=margins)
                margins *= labels
            yield block
        if stale:
            np.copyto(self._margins_x, x)

    def value(self, x: np.ndarray) -> float:
        for _ in self._walk(x):
            pass
        return mean_logistic_loss(self._margins, self._work)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            total = reduce(iadd, (
                features.T @ logistic_weights(margins, labels, work)
                for features, labels, margins, work in self._walk(x)))
        return -total / self.features.shape[0]

    def hessian(self, x: np.ndarray) -> np.ndarray:
        total = reduce(iadd, (
            (features.T * logistic_curvature(margins, work)) @ features
            for features, _, margins, work in self._walk(x)))
        return total / self.features.shape[0]


def mean_logistic_loss(margins: np.ndarray, out: np.ndarray) -> float:
    """(1/n) sum log(1 + exp(-m_i)), overwriting ``out`` (length n).

    Split as log(1 + exp(-m)) = max(-m, 0) + log1p(exp(-|m|)): each of the
    two sums adds terms of one sign, so nothing cancels, and exp never
    overflows.  -|m| = 2 min(m, 0) - m is formed exactly in ``out``."""
    np.minimum(margins, 0.0, out=out)
    hinge = -float(np.sum(out))
    out *= 2.0
    out -= margins
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return (hinge + float(np.sum(out))) / margins.shape[0]


def logistic_weights(margins: np.ndarray, signs, out: np.ndarray
                     ) -> np.ndarray:
    """signs sigma(-m) = signs / (1 + exp(m)) into ``out``.  exp(m)
    overflowing to inf gives the weight 0, and the caller silences that
    warning, as the gradient does once for all its blocks.  A change of
    sign is exact, so with signs of +-1 this is +-sigma(-m) bit for bit."""
    np.exp(margins, out=out)
    out += 1.0
    return np.divide(signs, out, out=out)


def logistic_curvature(margins: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sigma(m) sigma(-m) = e / (1 + e)^2 into ``out``, e = exp(-|m|) <= 1,
    so nothing overflows and the weight at m = 0 is exactly 1/4."""
    np.abs(margins, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out /= np.square(1.0 + out)
    return out


def write_dataset_csv(dataset: LogisticDataset, path) -> None:
    d = dataset.d
    header = "y," + ",".join(f"a_{j}" for j in range(d))
    lines = [header]
    for i in range(dataset.n):
        row = [format(int(dataset.labels[i]), "d")]
        row.extend(format_float(v) for v in dataset.features[i])
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_dataset_csv(path) -> LogisticDataset:
    """Read a dataset CSV; malformed input raises :class:`ValueError` naming
    the file and the line."""
    text = Path(path).read_text().splitlines()
    if not text or not text[0].startswith(DATA_HEADER_PREFIX):
        raise ValueError(f"{path} is not a dataset CSV (bad header)")
    width = text[0].count(",") + 1
    labels, rows = [], []
    for number, line in enumerate(text[1:], start=2):
        if not line:
            continue
        where = f"{path}, line {number}"
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"{where}: {len(parts)} fields, header has {width}")
        try:
            values = [float(v) for v in parts]
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{where}: non-finite entry")
        if abs(values[0]) != 1.0:
            raise ValueError(f"{where}: labels must be +-1")
        labels.append(values[0])
        rows.append(values[1:])
    if not rows:
        raise ValueError(f"{path}, line 1: header with no data rows")
    return LogisticDataset(features=np.asarray(rows, dtype=float),
                           labels=np.asarray(labels, dtype=float))
