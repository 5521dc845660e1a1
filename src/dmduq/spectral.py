"""Eigenvalue distribution of the uncertain operator.

Samples of operator instances are eigendecomposed, eigenvalues are matched
across samples by sorted order (magnitude descending, then imaginary part
descending), and per-index moments and squared-exponential kernel density
estimates are produced.  Sorted-order matching is deterministic and cheap;
it can mis-pair near-degenerate spectra, which continuity tracking would
handle but is out of scope here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DegenerateData, DimensionMismatch, DmduqError, TooFewSamples
from .numerics import _one_blas_thread, eigenvalue_rows, finite_stack, product_rows, slice_workers


@dataclass(frozen=True, eq=False)
class EigenSampleSet:
    """Sorted eigenvalue samples (N x m).  The representative of each sample is the member
    of its top-magnitude conjugate pair with nonnegative imaginary part."""

    samples: np.ndarray

    def __post_init__(self):
        if self.samples.ndim != 2:
            raise DimensionMismatch("samples must be a 2-D array")

    @property
    def representative_lambda1(self) -> np.ndarray:
        top = self.samples[:, 0]
        return np.where(top.imag < 0, np.conj(top), top)


@dataclass(frozen=True, eq=False)
class EigenMoments:
    """Per-index complex sample mean and real/imaginary sample variances."""

    mean: np.ndarray
    variance_re: np.ndarray
    variance_im: np.ndarray


@dataclass(frozen=True, eq=False)
class Kde2d:
    grid_re: np.ndarray
    grid_im: np.ndarray
    density: np.ndarray  # shape (len(grid_re), len(grid_im))


# np.linalg.eigvals holds the GIL on a stack of 500 matrix rows or fewer (numpy 2.4: two
# threads took 1.0-1.3 times the serial wall on 150-500 rows and 0.53-0.69 times on 501-502,
# BENCH_38.json), so workers that each took so few would take turns.
_EIGVALS_ROWS = 501


def check_spectra_size(count: int, m: int) -> None:
    """ConfigError when :func:`pulled_spectra`'s ``count`` x m eigenvalues pass the size bound."""
    size = 2 * count * m  # complex: 2 floats each
    numerics.check_table_size(size, f"{count} samples of {m} eigenvalues ask for {size}")


def pulled_spectra(count: int, m: int, take) -> EigenSampleSet:
    """Sorted spectra of ``count`` m x m instances across the slices of ``slice_workers`` (the
    calling thread and its pool), each taking the next batch ``take(start, stop)`` under a
    lock and checking and eigendecomposing it outside, with BLAS at one thread.  A batch is
    about a table row block, and at least ``_EIGVALS_ROWS`` rows.  Failures name the instance
    by its position; after one no batch is taken, those taken finish, and the lowest
    instance's is raised."""
    check_spectra_size(count, m)
    # Not numerics.row_blocks: a batch has the _EIGVALS_ROWS floor, however small the budget.
    batch = max(numerics._CHUNK_SCALARS // 32 // (m * m), -(-_EIGVALS_ROWS // m))
    lock, starts, failures = threading.Lock(), iter(range(0, count, batch)), []
    samples = np.empty((count, m), dtype=complex)

    def pull(lo: int, hi: int) -> None:  # not a slice: batches are taken until none is left
        while True:
            with lock:
                start = next(starts, None)
                if start is None or failures:
                    return
                stop = min(start + batch, count)
                instances = take(start, stop)
            try:
                samples[start:stop] = eigenvalue_rows(instances, start)
            except DmduqError as exc:
                failures.append((start, exc))
            del instances  # before the next batch is taken

    with slice_workers() as map_slices:
        try:
            map_slices(pull, -(-count // batch))
        finally:  # after an interrupt too, no batch is taken before the pool is shut down
            starts = iter(())
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return EigenSampleSet(samples)


def eigen_samples(instances: np.ndarray) -> EigenSampleSet:
    """:func:`pulled_spectra` of a stack of square matrices, checked for finite entries first;
    failures name the instance by its position in the stack."""
    stack = finite_stack(instances)
    if len(stack) < 1:
        raise TooFewSamples("need at least one instance")
    return pulled_spectra(len(stack), stack.shape[1], lambda a, b: stack[a:b])


def eigen_moments(sample_set: EigenSampleSet) -> EigenMoments:
    """Sample mean and unbiased variance of Re and Im per sorted index."""
    samples = sample_set.samples
    if samples.shape[0] < 2:
        raise TooFewSamples("need at least 2 samples for moments")
    mean = samples.mean(axis=0)
    variance_re = samples.real.var(axis=0, ddof=1)
    variance_im = samples.imag.var(axis=0, ddof=1)
    return EigenMoments(mean=mean, variance_re=variance_re, variance_im=variance_im)


def silverman_bandwidth(values: np.ndarray) -> float:
    """h = 0.9 * min(std, IQR / 1.34) * N^(-1/5)."""
    v = np.asarray(values, dtype=float)
    std = v.std(ddof=1)
    q25, q75 = np.percentile(v, [25.0, 75.0])
    iqr = q75 - q25
    return 0.9 * min(std, iqr / 1.34) * v.size ** (-0.2)


def _axis_grid(values: np.ndarray, h: float, grid_points: int, grid) -> np.ndarray:
    """The grid of one axis at bandwidth ``h``: by default, the sample range padded by 4
    bandwidths."""
    if grid is None:
        return np.linspace(values.min() - 4.0 * h, values.max() + 4.0 * h, grid_points)
    return np.asarray(grid, dtype=float)


def _axis_kernel(grid: np.ndarray, values: np.ndarray, h: float) -> np.ndarray:
    """Gaussian kernel matrix (grid x samples) of one axis at bandwidth ``h``."""
    kernel = np.subtract.outer(grid, values)  # exp(-0.5 * ((grid - v) / h) ** 2), in place
    kernel /= h
    np.square(kernel, out=kernel)
    kernel *= -0.5
    return np.exp(kernel, out=kernel)


def check_kde_size(gx: int, gy: int, samples: int) -> None:
    """ConfigError when :func:`kde2d`'s density or an axis's kernels pass the size bound."""
    size = max(gx * gy, max(gx, gy) * samples)
    numerics.check_table_size(size, f"a {gx} x {gy} grid over {samples} samples "
                              f"asks for {size} density or kernel")


def kde2d(
    values_re: np.ndarray,
    values_im: np.ndarray,
    bandwidths: tuple[float, float] | None = None,
    grid_points: int = 256,
    grid_re: np.ndarray | None = None,
    grid_im: np.ndarray | None = None,
) -> Kde2d:
    """Joint density over a product grid.  Explicit ``bandwidths`` are used as given (each
    must be positive).  Otherwise each axis takes Silverman's bandwidth, and an axis whose
    bandwidth is 0 (an IQR of 0: most samples on one value) takes the other axis's.

    The density is the product of the Re-axis and Im-axis kernel matrices, bit for bit.  The
    Im-axis kernel is held whole; the Re-axis kernel and the density are formed a
    :func:`numerics.row_blocks` block of grid rows at a time, each block large enough to take
    the whole product's gemm kernel (``numerics._SMALL_PRODUCT``)."""
    if np.size(values_re) != np.size(values_im):
        raise DimensionMismatch("real and imaginary sample counts differ")
    gx, gy = (grid_points if grid is None else np.size(grid) for grid in (grid_re, grid_im))
    check_kde_size(gx, gy, np.size(values_re))
    x, y = (np.asarray(values, dtype=float).ravel() for values in (values_re, values_im))
    if x.size < 2 or not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise TooFewSamples("need at least 2 finite values")
    if bandwidths is None:
        hx, hy = silverman_bandwidth(x), silverman_bandwidth(y)
        hx, hy = hx or hy, hy or hx
        if not hx > 0:
            raise DegenerateData("samples too concentrated for automatic bandwidth")
    else:
        hx, hy = (float(h) for h in bandwidths)
        for h in (hx, hy):
            if not h > 0:
                raise DegenerateData(f"bandwidth must be positive, got {h}")
    grid_re = _axis_grid(x, hx, grid_points, grid_re)
    grid_im = _axis_grid(y, hy, grid_points, grid_im)
    ey_t = _axis_kernel(grid_im, y, hy).T
    density = np.empty((gx, gy))
    least = numerics._SMALL_PRODUCT // max(1, gy * x.size) + 1
    with _one_blas_thread():  # so the bits do not depend on the BLAS thread setting
        for a, b in numerics.row_blocks(gx, x.size, least):
            lo = max(0, min(a, gx - 2))  # a lone row is taken from two, as product_rows does
            ex = _axis_kernel(grid_re[lo : max(b, lo + 2)], x, hx)
            product_rows(ex, ey_t, a - lo, b - lo, out=density[a:b])
            del ex  # before the next block's is formed
    density /= x.size * 2.0 * np.pi * hx * hy
    return Kde2d(grid_re, grid_im, density)

