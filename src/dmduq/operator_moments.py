"""Element-wise first and second moments (confidence bounds) of the DMD operator.

The operator estimate is ``A = X^+ Y`` (m x m).  Treating every pseudoinverse
element and every shifted-snapshot element as a scalar random variable with
the cross-factor independence assumption, each ``a_ij = sum_k x+_ik y_kj``
gets a mean from the pseudoinverse means and the recorded Y entries, and a
spread from the per-element second moments.

Two variance assemblies are provided.  ``paper_literal`` substitutes the
state variance for E[y^2]:

    sum_k M2x[i, k] * var_k - (M1x[i, k])^2 * Y[k, j]^2

which can go negative.  ``corrected`` uses E[y^2] = mean^2 + var, i.e. the
variance of a sum of independent products:

    sum_k M2x[i, k] * (var_k + Y[k, j]^2) - (M1x[i, k])^2 * Y[k, j]^2

which is nonnegative up to roundoff and is what the Monte Carlo oracle can
confirm.

Every table is a product of m x n and n x m factors, so ``OperatorMoments``
and ``DmdEstimate`` hold the factors and give each table as a row source
``rows(a, b, out=None)``: ``first_rows``, ``second_rows`` and ``rows``.  A
table is formed only when it is read, as a ``numerics.RowTable`` of its row
source.  Construction checks each row block of both tables while it is in
cache, across ``numerics.slice_workers``.  Blocks are cut by the table's shape
alone, so the bits do not depend on the thread count, nor on whether a block
is kept, written out or only checked.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .data_model import NoiseModel, SnapshotSet
from .errors import ConfigError, DimensionMismatch, SingularGram
from .numerics import (
    RowTable, Spectrum, map_row_blocks, product_eigenvalues, slice_workers, spd_inverses,
)
from .pinv_moments import PinvMoments, QuadratureConfig, pinv_moments

logger = logging.getLogger(__name__)

PAPER_LITERAL = "paper_literal"
CORRECTED = "corrected"
VARIANCE_MODES = (PAPER_LITERAL, CORRECTED)


@dataclass(frozen=True, eq=False)
class DmdEstimate:
    """Point estimate of the operator, held as its factors ``X.T`` (m x n) and ``solved =
    inv(X X.T + ridge I) @ Y`` (n x m), and its spectrum; ``operator`` is built on first read."""

    states_t: np.ndarray
    solved: np.ndarray
    spectrum: Spectrum

    def rows(self, a: int, b: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows a:b of the operator, written into ``out`` when given."""
        return np.matmul(self.states_t[a:b], self.solved, out=out)

    @functools.cached_property
    def operator(self) -> np.ndarray:
        return np.asarray(RowTable((len(self.states_t), self.solved.shape[1]), self.rows))


@dataclass(frozen=True, eq=False)
class OperatorMoments:
    """Moment tables of the operator, held as their factors: ``pinv`` (M1x, M2x), ``shifted``
    (Y, n x m) and the noise ``variances`` (None for the mean table alone).

    Construction computes and checks every row block, keeping none; ``first`` and
    ``second_central`` are built on first read.  ``second_central`` is used as a variance
    downstream; in paper_literal mode entries may be negative (logged, not fatal).
    """

    pinv: PinvMoments
    shifted: np.ndarray
    variances: np.ndarray | None
    variance_mode: str = CORRECTED

    def __post_init__(self):
        Y, var = self.shifted, self.variances
        if self.pinv.first.shape != Y.T.shape:
            raise DimensionMismatch(f"pseudoinverse table {self.pinv.first.shape} "
                                    f"does not match Y {Y.shape}")
        if var is not None and len(var) != Y.shape[0]:
            raise DimensionMismatch("noise model does not match state count")
        # Formed once for every block: c = M2x @ var and Y**2.
        self.__dict__.update(_scale=None if var is None else self.pinv.second_raw @ var,
                             _y_sq=Y**2, shape=(len(self.pinv.first), Y.shape[1]))
        negatives, low = _row_pass(self.shape, self.variance_mode, self.first_rows,
                                   None if var is None else self.second_rows)
        if self.variance_mode == PAPER_LITERAL and negatives:
            logger.warning("paper_literal variance has %d negative element(s); min %.3e",
                           negatives, low)

    def first_rows(self, a: int, b: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows a:b of ``first = M1x @ Y``, into ``out`` when given."""
        return np.matmul(self.pinv.first[a:b], self.shifted, out=out)

    def second_rows(self, a: int, b: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows a:b of ``second_central = c[:, None] - M1x**2 @ Y**2 (+ M2x @ Y**2 if
        corrected)``, c = M2x @ var, into ``out`` when given."""
        spread = np.matmul(self.pinv.first[a:b] ** 2, self._y_sq, out=out)
        np.subtract(self._scale[a:b, None], spread, out=spread)
        if self.variance_mode == CORRECTED:
            spread += self.pinv.second_raw[a:b] @ self._y_sq
        return spread

    @functools.cached_property
    def first(self) -> np.ndarray:
        return np.asarray(RowTable(self.shape, self.first_rows))

    @functools.cached_property
    def second_central(self) -> np.ndarray:
        if self.variances is None:
            raise ConfigError("second_central needs the noise variances")
        return np.asarray(RowTable(self.shape, self.second_rows))


def _row_pass(shape, mode: str, first_rows, second_rows=None) -> tuple[int, float]:
    """Check each row block of the ``shape`` tables ``first`` and ``second_central`` (if
    ``second_rows`` is given) as it is made, across ``slice_workers``: ``second_rows(a, b,
    out)`` may write over the checked ``first`` block ``out``.  Raises DimensionMismatch at
    the first non-finite entry, by block, or a corrected-mode variance below -1e-12.  Returns
    the number of negative entries of ``second_central`` and its minimum (0, inf if None)."""
    if mode not in VARIANCE_MODES:
        raise ConfigError(f"unknown variance mode {mode!r}")

    def block(a: int, b: int):
        table = None
        for name, rows in (("first", first_rows), ("second_central", second_rows)):
            if rows is None:
                return None, 0, np.inf
            table = rows(a, b, table)
            least = table.min()  # min and max propagate NaN
            if not (np.isfinite(least) and np.isfinite(table.max())):
                (row, col), *_ = np.argwhere(~np.isfinite(table))
                return (name, a + row, col, table[row, col]), 0, np.inf
        return None, int(np.count_nonzero(table < 0)) if least < 0 else 0, least

    with slice_workers() as map_slices:
        parts = map_row_blocks(map_slices, block, *shape)
    bad = next((part[0] for part in parts if part[0] is not None), None)
    if bad is not None:
        raise DimensionMismatch("operator moments must be finite: {}[{}, {}] = {}".format(*bad))
    low = float(min(part[2] for part in parts))
    if mode == CORRECTED and low < -1e-12:
        raise DimensionMismatch(f"corrected-mode variance is negative: min {low:.3e}")
    return sum(part[1] for part in parts), low


def check_tables(first: np.ndarray, second_central: np.ndarray, mode: str) -> None:
    """Check dense moment tables as ``OperatorMoments`` checks its blocks: one non-empty
    2-D shape, finite entries and, in corrected mode, no variance below -1e-12."""
    if first.shape != second_central.shape or first.ndim != 2 or not first.size:
        raise DimensionMismatch(f"moment tables {first.shape} and {second_central.shape} are "
                                "not one non-empty 2-D shape")
    _row_pass(first.shape, mode, lambda a, b, out: first[a:b],
              lambda a, b, out: second_central[a:b])


def gram_inverse(X: np.ndarray, ridge: float) -> np.ndarray:
    """``inv(X X.T + ridge I)`` by :func:`numerics.spd_inverses`.

    Raises ConfigError for a negative ridge and SingularGram when the ridged
    Gram matrix has no Cholesky factor.
    """
    if ridge < 0:
        raise ConfigError(f"ridge must be >= 0, got {ridge}")
    (inverse,), (positive,) = spd_inverses((X @ X.T + ridge * np.eye(len(X)))[None])
    if not positive:
        raise SingularGram(f"X X.T is rank deficient at ridge={ridge}; supply ridge > 0")
    return inverse


def dmd_point_estimate(snapshots: SnapshotSet, ridge: float = 0.0) -> DmdEstimate:
    """A = X.T @ inv(X X.T + ridge I) @ Y, the m x m operator, with its spectrum.

    A has rank at most n, so its spectrum (m entries, sorted) is the n
    eigenvalues of the n x n product ``inv(X X.T + ridge I) @ Y @ X.T``
    followed by m - n exact zeros; the m x m operator is never
    eigendecomposed.  For m <= n the m x m operator itself is.
    """
    X, Y = snapshots.states, snapshots.shifted
    solved = gram_inverse(X, ridge) @ Y
    return DmdEstimate(X.T, solved, Spectrum(eigenvalues=product_eigenvalues(X.T, solved)))


def estimate_operator_moments(
    snapshots: SnapshotSet,
    noise: NoiseModel,
    quad: QuadratureConfig | None = None,
    ridge: float = 0.0,
    mode: str = CORRECTED,
    pinv: PinvMoments | None = None,
) -> OperatorMoments:
    """Full pipeline: pseudoinverse moment tables once, then both assemblies, checked.

    Pass ``pinv`` to reuse tables already computed with the same inputs.
    """
    if pinv is None:
        pinv = pinv_moments(snapshots, noise, quad=quad, ridge=ridge)
    return OperatorMoments(pinv, snapshots.shifted, noise.variances, mode)
