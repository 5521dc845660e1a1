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

The m x m tables are written once, straight into their final arrays, by
row blocks across ``numerics.slice_workers``; each block is checked while it
is in cache.  Blocks are cut by the table's shape alone, so the bits do not
depend on the thread count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data_model import NoiseModel, SnapshotSet
from .errors import ConfigError, DimensionMismatch, NotPositiveDefinite, SingularGram
from .numerics import (
    Spectrum, cholesky, map_row_blocks, product_eigenvalues, slice_workers, spd_solve,
)
from .pinv_moments import PinvMoments, QuadratureConfig, pinv_moments

logger = logging.getLogger(__name__)

PAPER_LITERAL = "paper_literal"
CORRECTED = "corrected"
VARIANCE_MODES = (PAPER_LITERAL, CORRECTED)


@dataclass(frozen=True, eq=False)
class DmdEstimate:
    """Point estimate of the operator and its spectrum."""

    operator: np.ndarray
    spectrum: Spectrum


@dataclass(frozen=True, eq=False)
class OperatorMoments:
    """Moment tables for the operator: means and per-element spread.

    ``second_central`` is used as a variance downstream; in paper_literal
    mode individual entries may be negative (recorded, not fatal).
    """

    first: np.ndarray
    second_central: np.ndarray
    variance_mode: str

    def __post_init__(self):
        first = np.asarray(self.first, dtype=float)
        second = np.asarray(self.second_central, dtype=float)
        if first.shape != second.shape or first.ndim != 2 or not first.size:
            raise DimensionMismatch(f"moment tables {first.shape} and {second.shape} are not "
                                    "one non-empty 2-D shape")
        _row_pass(first, second, self.variance_mode)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second_central", second)


def _row_pass(first, second, mode: str, fill=None) -> tuple[int, float]:
    """Fill each row block with ``fill(a, b)``, when given, and check it in the same pass.

    Either table may be None.  Raises DimensionMismatch at the first non-finite
    entry, by block, or a corrected-mode variance below -1e-12.  Returns the
    number of negative entries of ``second`` and its minimum (0, inf if None).
    """
    if mode not in VARIANCE_MODES:
        raise ConfigError(f"unknown variance mode {mode!r}")
    tables = {k: t for k, t in [("first", first), ("second_central", second)] if t is not None}

    def block(a: int, b: int):
        if fill is not None:
            fill(a, b)
        for name, table in tables.items():  # second, when given, last
            rows = table[a:b]
            least = rows.min()  # min and max propagate NaN
            if not (np.isfinite(least) and np.isfinite(rows.max())):
                (row, col), *_ = np.argwhere(~np.isfinite(rows))
                return (name, a + row, col, rows[row, col]), 0, np.inf
        low = np.inf if second is None else least
        return None, int(np.count_nonzero(rows < 0)) if low < 0 else 0, low

    with slice_workers() as map_slices:
        parts = map_row_blocks(map_slices, block, *next(iter(tables.values())).shape)
    bad = next((part[0] for part in parts if part[0] is not None), None)
    if bad is not None:
        raise DimensionMismatch("operator moments must be finite: {}[{}, {}] = {}".format(*bad))
    low = float(min(part[2] for part in parts))
    if second is not None and mode == CORRECTED and low < -1e-12:
        raise DimensionMismatch(f"corrected-mode variance is negative: min {low:.3e}")
    return sum(part[1] for part in parts), low


def gram_factor(X: np.ndarray, ridge: float) -> np.ndarray:
    """Cholesky factor of ``X X.T + ridge I`` for a ridge the caller has checked.

    Raises SingularGram when the ridged Gram matrix is not positive definite.
    """
    gram = X @ X.T
    if ridge:
        gram = gram + ridge * np.eye(X.shape[0])
    try:
        return cholesky(gram)
    except NotPositiveDefinite as exc:
        raise SingularGram(f"X X.T is rank deficient at ridge={ridge}; supply ridge > 0") from exc


def dmd_point_estimate(snapshots: SnapshotSet, ridge: float = 0.0) -> DmdEstimate:
    """A = X.T @ inv(X X.T + ridge I) @ Y, the m x m operator, with its spectrum.

    A has rank at most n, so its spectrum (m entries, sorted) is the n
    eigenvalues of the n x n product ``inv(X X.T + ridge I) @ Y @ X.T``
    followed by m - n exact zeros; the m x m operator is never
    eigendecomposed.  For m <= n the m x m operator itself is.
    """
    X, Y = snapshots.states, snapshots.shifted
    if ridge < 0:
        raise ConfigError(f"ridge must be >= 0, got {ridge}")
    solved = spd_solve(gram_factor(X, ridge), Y)
    spectrum = Spectrum(eigenvalues=product_eigenvalues(X.T, solved))
    operator = np.empty((X.shape[1], Y.shape[1]))
    with slice_workers() as map_slices:
        map_row_blocks(map_slices, lambda a, b: np.matmul(X.T[a:b], solved, out=operator[a:b]),
                       *operator.shape)
    return DmdEstimate(operator=operator, spectrum=spectrum)


def _operator_tables(pinv, snapshots, noise, mode=CORRECTED, first=True, second=True):
    """The asked tables (None for the other), filled and checked in one ``_row_pass``.

    With c = M2x @ var, rows a:b are ``first = M1x @ Y`` and ``second =
    c[:, None] - M1x**2 @ Y**2 (+ M2x @ Y**2 if corrected)``, each element by the
    same operations as on whole tables.  Negative paper_literal entries are logged.
    """
    Y = snapshots.shifted
    if pinv.first.shape != (Y.shape[1], Y.shape[0]):
        raise DimensionMismatch(
            f"pseudoinverse table {pinv.first.shape} does not match Y {Y.shape}"
        )
    if noise is not None and noise.state_count != Y.shape[0]:
        raise DimensionMismatch("noise model does not match state count")
    m1x, m2x, y_sq = pinv.first, pinv.second_raw, Y**2
    scale = m2x @ noise.variances if second else None
    mean, spread = (np.empty((len(m1x), Y.shape[1])) if want else None for want in (first, second))

    def fill(a: int, b: int) -> None:
        if second:
            rows = np.matmul(m1x[a:b] ** 2, y_sq, out=spread[a:b])
            np.subtract(scale[a:b, None], rows, out=rows)
            if mode == CORRECTED:  # the mean rows, written next, hold this product meanwhile
                rows += np.matmul(m2x[a:b], y_sq, out=mean[a:b] if first else None)
        if first:
            np.matmul(m1x[a:b], Y, out=mean[a:b])

    negatives, low = _row_pass(mean, spread, mode, fill)
    if mode == PAPER_LITERAL and negatives:
        logger.warning(
            "paper_literal variance has %d negative element(s); min %.3e", negatives, low
        )
    return mean, spread


def operator_first_moment(
    pinv: PinvMoments, snapshots: SnapshotSet, noise: NoiseModel | None = None
) -> np.ndarray:
    """Mean table: first[i][j] = sum_k M1x[i][k] * Y[k][j]."""
    return _operator_tables(pinv, snapshots, noise, second=False)[0]


def operator_second_moment(
    pinv: PinvMoments, snapshots: SnapshotSet, noise: NoiseModel, mode: str = CORRECTED
) -> np.ndarray:
    """Spread table under the selected variance assembly.

    In paper_literal mode negative entries are counted and logged, never
    silently altered; this mode exists for fidelity, corrected mode for
    verification.
    """
    return _operator_tables(pinv, snapshots, noise, mode, first=False)[1]


def estimate_operator_moments(
    snapshots: SnapshotSet,
    noise: NoiseModel,
    quad: QuadratureConfig | None = None,
    ridge: float = 0.0,
    mode: str = CORRECTED,
    pinv: PinvMoments | None = None,
) -> OperatorMoments:
    """Full pipeline: pseudoinverse moment tables once, then both assemblies.

    Pass ``pinv`` to reuse tables already computed with the same inputs.
    """
    if pinv is None:
        pinv = pinv_moments(snapshots, noise, quad=quad, ridge=ridge)
    first, second = _operator_tables(pinv, snapshots, noise, mode)
    moments = object.__new__(OperatorMoments)  # the tables were checked as they were filled
    moments.__dict__.update(first=first, second_central=second, variance_mode=mode)
    return moments
