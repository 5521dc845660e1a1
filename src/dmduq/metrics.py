"""Matrix-comparison metrics and the normalizations used by report curves.

Cosine similarity uses the standard normalized inner product of vectorized
matrices, so it always lies in [-1, 1].  Inputs are taken in C order and norms
and inner products run with BLAS held at one thread, so the bits depend on
neither the memory layout nor the thread setting.  ``agreement`` measures an
estimate's distance from a Monte Carlo table in that table's standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, ShapeMismatch
from .numerics import _one_blas_thread, row_blocks


@dataclass(frozen=True)
class ComparisonReport:
    rmse: float
    mae: float
    frobenius: float
    cosine: float
    shape: tuple[int, int]


def compare(estimated: np.ndarray, reference: np.ndarray) -> ComparisonReport:
    """RMSE, MAE, Frobenius norm of the difference, and cosine similarity."""
    est = np.atleast_2d(np.ascontiguousarray(estimated, dtype=float))
    ref = np.atleast_2d(np.ascontiguousarray(reference, dtype=float))
    if est.shape != ref.shape:
        raise ShapeMismatch(f"shapes differ: {est.shape} vs {ref.shape}")
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(ref))):
        raise ShapeMismatch("inputs must be finite")
    diff = est - ref
    rmse = float(np.sqrt(np.mean(diff**2)))
    mae = float(np.mean(np.abs(diff)))
    with _one_blas_thread():
        frob = float(np.linalg.norm(diff))
        norm_est = float(np.linalg.norm(est))
        norm_ref = float(np.linalg.norm(ref))
        inner = float(np.vdot(est.ravel(), ref.ravel()))
    if norm_est == 0.0 or norm_ref == 0.0:
        raise DegenerateData("cosine undefined for a zero matrix")
    cosine = inner / (norm_est * norm_ref)
    return ComparisonReport(rmse=rmse, mae=mae, frobenius=frob, cosine=cosine, shape=est.shape)


@dataclass(frozen=True)
class Agreement:
    """Where an estimated table lies from a Monte Carlo one in the Monte Carlo standard
    errors: ``z = (estimated - reference) / se`` over the elements whose ``se`` is positive.
    The shares within 1, 2 and 3 SE, the median and the largest ``|z|`` (at its (i, j)) are
    of those elements, None when there are none; ``zero_se`` counts the rest."""

    within_1se: float | None
    within_2se: float | None
    within_3se: float | None
    median_abs_z: float | None
    max_abs_z: float | None
    max_abs_z_at: tuple[int, int] | None
    zero_se: int


def agreement(estimated: np.ndarray, reference: np.ndarray,
              standard_errors: np.ndarray) -> Agreement:
    """The :class:`Agreement` of ``estimated`` with ``reference`` in ``standard_errors``,
    three tables of one shape; element-wise, so its bits depend on no memory layout.  The
    ``|z|`` are made in row blocks, never a whole table of them: the median is found by
    :func:`_order_statistic`, one pass over the blocks per 8 bits."""
    est, ref, se = (np.atleast_2d(np.asarray(a, dtype=float))
                    for a in (estimated, reference, standard_errors))
    if not est.shape == ref.shape == se.shape:
        raise ShapeMismatch(f"shapes differ: {est.shape}, {ref.shape} and {se.shape}")
    if not all(np.isfinite(a).all() for a in (est, ref, se)):
        raise ShapeMismatch("inputs must be finite")
    # A block's row holds its |z| and then the bits read from them: 2.08 rows of floats
    # measured per row, while no two blocks are held at once.
    cuts = row_blocks(len(se), 2 * se.shape[1])

    def z_blocks():  # (first row, positive-SE mask, |z| of those elements), block by block
        for a, b in cuts:
            positive, z = se[a:b] > 0.0, np.subtract(est[a:b], ref[a:b])
            z = np.abs(z, out=z)[positive]
            yield a, positive, np.divide(z, se[a:b][positive], out=z)
            del positive, z  # so a consumer that drops its block holds one, not two

    count, within, largest, at = 0, np.zeros(3, dtype=int), -1.0, None
    for a, positive, z in z_blocks():
        count += z.size
        within += [np.count_nonzero(z <= k) for k in (1.0, 2.0, 3.0)]
        if z.size and z.max() > largest:  # the first largest in C order, as argmax takes
            k = int(np.argmax(z))
            largest, (i, j) = float(z[k]), divmod(int(np.flatnonzero(positive)[k]), se.shape[1])
            at = (a + i, j)
        del positive, z  # before the next block is made
    if not count:
        return Agreement(None, None, None, None, None, None, se.size)
    middle = [_order_statistic(z_blocks, rank) for rank in {(count - 1) // 2, count // 2}]
    return Agreement(*(within / count).tolist(), float(np.mean(middle)), largest, at,
                     se.size - count)


def _order_statistic(z_blocks, rank: int) -> float:
    """The value of rank ``rank`` (0 the least) among the nonnegative floats that the third
    member of each item of ``z_blocks()`` holds.  Their bit patterns order as they do, so it
    is found 8 bits at a time from the count of each next 8 bits among the elements whose
    higher bits are those found so far."""
    prefix = 0
    for shift in range(56, -1, -8):
        counts = np.zeros(256, dtype=np.int64)
        for _, _, z in z_blocks():
            bits = z.view(np.int64)
            if shift < 56:
                bits = bits[bits >> (shift + 8) == prefix]
            bits = bits >> shift
            counts += np.bincount(np.bitwise_and(bits, 0xFF, out=bits), minlength=256)
            del z, bits  # before the next block is made
        below = np.cumsum(counts)  # below[d]: elements whose next 8 bits are at most d
        digit = int(np.searchsorted(below, rank, side="right"))
        rank -= int(below[digit - 1]) if digit else 0
        prefix = prefix << 8 | digit
    return float(np.int64(prefix).view(np.float64))


def min_max_normalize(values: np.ndarray) -> np.ndarray:
    """(v - min) / (max - min); rejects constant input."""
    v = np.asarray(values, dtype=float)
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        raise DegenerateData("min-max scaling undefined for constant input")
    return (v - lo) / (hi - lo)

