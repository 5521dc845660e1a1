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
source.  Construction checks both tables from the factors in O(m n) when it can; else,
and for paper_literal variances (negatives counted), it checks each row block in cache,
in order in the calling thread at one BLAS thread.  Blocks are cut by the table's shape
alone, so no bit depends on the thread count or on whether a block is kept.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .data_model import NoiseModel, SnapshotSet
from .errors import ConfigError, DimensionMismatch, SingularGram
from .numerics import (
    RowTable, Spectrum, _one_blas_thread, eigenvalue_rows, product_eigenvalues, product_rows,
    row_blocks, spd_inverses,
)
from .pinv_moments import PinvMoments, QuadratureConfig, pinv_moments

logger = logging.getLogger(__name__)

PAPER_LITERAL = "paper_literal"
CORRECTED = "corrected"
VARIANCE_MODES = (PAPER_LITERAL, CORRECTED)
MODEL_ERROR_RATIO = 10  # check_residual's rho on a recording the model fits is about 1


@dataclass(frozen=True, eq=False)
class DmdEstimate:
    """Point estimate of the operator, held as its factors ``X.T`` (m x n) and ``solved =
    inv(X X.T + ridge I) @ Y`` (n x m), and its spectrum; ``operator`` is built on first read."""

    states_t: np.ndarray
    solved: np.ndarray
    spectrum: Spectrum

    def rows(self, a: int, b: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows a:b of the operator, written into ``out`` when given."""
        return product_rows(self.states_t, self.solved, a, b, out)

    @functools.cached_property
    def operator(self) -> np.ndarray:
        return np.asarray(RowTable((len(self.states_t), self.solved.shape[1]), self.rows))


@dataclass(frozen=True, eq=False)
class OperatorMoments:
    """Moment tables of the operator, held as their factors: ``pinv`` (M1x, M2x), ``shifted``
    (Y, n x m) and the noise ``variances`` (n).

    Construction checks both tables, from the factors or block by block, keeping none;
    ``first`` and ``second_central`` are built on first read.  ``second_central`` is used as a
    variance downstream; in paper_literal mode entries may be negative (logged, not fatal).
    """

    pinv: PinvMoments
    shifted: np.ndarray
    variances: np.ndarray
    variance_mode: str = CORRECTED

    def __post_init__(self):
        Y, var = self.shifted, self.variances
        if self.pinv.first.shape != Y.T.shape:
            raise DimensionMismatch(f"pseudoinverse table {self.pinv.first.shape} "
                                    f"does not match Y {Y.shape}")
        if len(var) != Y.shape[0]:
            raise DimensionMismatch("noise model does not match state count")
        # Formed once for every block: c = M2x @ var, M1x**2 and Y**2.
        self.__dict__.update(_scale=self.pinv.second_raw @ var, _first_sq=self.pinv.first**2,
                             _y_sq=Y**2, shape=(len(self.pinv.first), Y.shape[1]))
        if self.variance_mode == CORRECTED and _certified(self.pinv.first, self.pinv.second_raw,
                                                          Y, self._scale):
            return
        negatives, low = _row_pass(self.shape, self.variance_mode, self.first_rows,
                                   self.second_rows)
        if self.variance_mode == PAPER_LITERAL and negatives:
            logger.warning("paper_literal variance has %d negative element(s); min %.3e",
                           negatives, low)

    def first_rows(self, a: int, b: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows a:b of ``first = M1x @ Y``, into ``out`` when given."""
        return product_rows(self.pinv.first, self.shifted, a, b, out)

    def second_rows(self, a: int, b: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows a:b of ``second_central = c[:, None] - M1x**2 @ Y**2 (+ M2x @ Y**2 if
        corrected)``, c = M2x @ var, into ``out`` when given."""
        spread = product_rows(self._first_sq, self._y_sq, a, b, out)
        np.subtract(self._scale[a:b, None], spread, out=spread)
        if self.variance_mode == CORRECTED:
            spread += product_rows(self.pinv.second_raw, self._y_sq, a, b)
        return spread

    @functools.cached_property
    def first(self) -> np.ndarray:
        return np.asarray(RowTable(self.shape, self.first_rows))

    @functools.cached_property
    def second_central(self) -> np.ndarray:
        return np.asarray(RowTable(self.shape, self.second_rows))


def _certified(M1x: np.ndarray, M2x: np.ndarray, Y: np.ndarray, scale: np.ndarray) -> bool:
    """Whether the factors prove that ``_row_pass`` passes ``first`` and, with ``scale`` (c =
    M2x @ var), the corrected ``second_central``: both finite, no variance below -1e-12."""
    with np.errstate(all="ignore"):
        y_max = np.abs(Y).max(axis=1)
        ysq, sq = y_max**2, M1x**2  # ysq[k] >= every rounded Y[k, j]**2
        first = np.abs(M1x) @ y_max  # |first[i, j]| <= ~first[i]
        mag = np.abs(scale) + (sq + np.abs(M2x)) @ ysq  # likewise for second_central
        # In any summation order, with or without FMA, a rounded entry c - sq @ Y**2 +
        # M2x @ Y**2 is within (gamma_n + 2u) mag of its exact value (two dot products on
        # disjoint parts of mag, two roundings), and that value is >= c + min(M2x - sq, 0)
        # @ ysq.  Rounding this bound costs gamma_n + 2u more, forming and subtracting
        # eta * mag u + O(n u**2): eta = 4 (n + 2) u, u = 2**-53, covers it all.  Underflow
        # adds a few n 2**-1022 at most, below the spacing of doubles at -1e-12.
        low = scale + np.minimum(M2x - sq, 0.0) @ ysq - 4 * (len(Y) + 2) * 2.0**-53 * mag
        return bool((low >= -1e-12).all() and (first < 1e300).all() and (mag < 1e300).all())


def _row_pass(shape, mode: str, first_rows, second_rows) -> tuple[int, float]:
    """Check each row block of the ``shape`` tables ``first`` and ``second_central`` as it is
    made, in order at one BLAS thread: ``second_rows(a, b, out)`` may write over the checked
    ``first`` block ``out``.  Raises DimensionMismatch at the first non-finite entry, by
    block, or a corrected-mode variance below -1e-12.  Returns the number of negative entries
    of ``second_central`` and its minimum."""
    if mode not in VARIANCE_MODES:
        raise ConfigError(f"unknown variance mode {mode!r}")
    negatives, low = 0, np.inf
    with _one_blas_thread():
        for a, b in row_blocks(*shape):
            table = None
            for name, rows in (("first", first_rows), ("second_central", second_rows)):
                table = rows(a, b, table)
                least = table.min()  # min and max propagate NaN
                if not (np.isfinite(least) and np.isfinite(table.max())):
                    (row, col), *_ = np.argwhere(~np.isfinite(table))
                    raise DimensionMismatch(f"operator moments must be finite: "
                                            f"{name}[{a + row}, {col}] = {table[row, col]}")
            negatives += int(np.count_nonzero(table < 0)) if least < 0 else 0
            low = min(low, float(least))
    if mode == CORRECTED and low < -1e-12:
        raise DimensionMismatch(f"corrected-mode variance is negative: min {low:.3e}")
    return negatives, low


def check_tables(first: np.ndarray, second_central: np.ndarray, mode: str) -> int:
    """Check dense moment tables as ``OperatorMoments`` checks its blocks: one non-empty
    2-D shape, finite entries and, in corrected mode, no variance below -1e-12.  Returns
    the number of negative variances."""
    if first.shape != second_central.shape or first.ndim != 2 or not first.size:
        raise DimensionMismatch(f"moment tables {first.shape} and {second_central.shape} are "
                                "not one non-empty 2-D shape")
    return _row_pass(first.shape, mode, lambda a, b, out: first[a:b],
                     lambda a, b, out: second_central[a:b])[0]


def check_outliers(first: np.ndarray, variance: np.ndarray) -> None:
    """Warn when no eigenvalue of the mean operator lies outside sqrt(rho(V)), V the clamped
    variance table: the radius of the disc that the random part's eigenvalues fill (Cook, Hachem,
    Najim and Renfrew, EJP 2018).  The "dominant" eigenvalue is then a bulk one.  V is
    clamped in blocks of an eighth of a table row block, each used by its product while in
    cache, so no m x m copy of it is made."""
    m = len(variance)
    x, y, rho, blocks = np.full(m, m**-0.5), np.empty(m), 0.0, row_blocks(m, 8 * m)
    clamped = np.empty((max(b - a for a, b in blocks), m))
    with _one_blas_thread():
        for _ in range(200):  # power iteration, O(m^2) per step; x has unit norm
            for a, b in blocks:
                np.matmul(np.maximum(variance[a:b], 0.0, out=clamped[: b - a]), x, out=y[a:b])
            last, rho = rho, float(np.linalg.norm(y))
            if rho == 0.0 or abs(rho - last) <= 1e-9 * rho:
                break
            x = y / rho
        radius, largest = np.sqrt(rho), float(np.abs(eigenvalue_rows(first[None])[0, 0]))
    if largest <= radius:
        logger.warning("no eigenvalue of the mean operator lies outside the noise bulk: bulk "
                       "radius sqrt(rho(V)) = %.4g, largest mean |lambda| = %.4g", radius, largest)


def check_residual(snapshots: SnapshotSet, noise: NoiseModel, ridge: float = 0.0) -> None:
    """Warn when a state's ``rho_i = |r_i|^2 / (var_i (m - n) (1 + |F_i|^2))``, about 1 on a
    noisy recording of a linear map, is above MODEL_ERROR_RATIO: ``r = Y - F X`` is the
    residual of the n x n fit ``F = Y X.T inv(X X.T + ridge I)`` and ``var`` the noise
    variances (of a full covariance, its diagonal).  O(n^2 m) at one BLAS thread; none if m <= n."""
    X, Y = snapshots.states, snapshots.shifted
    n, m = X.shape
    if m <= n:
        return
    with _one_blas_thread():
        fit = Y @ X.T @ gram_inverse(X, ridge)
        residual = Y - fit @ X
    rho = (residual**2).sum(axis=1) / (noise.variances * (m - n) * (1 + (fit**2).sum(axis=1)))
    worst = int(np.argmax(rho))
    if rho[worst] > MODEL_ERROR_RATIO:
        logger.warning("model error: state %s has a one-step residual rho = %.4g times what "
                       "noise explains (threshold %g); the moments describe measurement noise "
                       "only", snapshots.state_names[worst], rho[worst], MODEL_ERROR_RATIO)


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
