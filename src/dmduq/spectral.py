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
from .numerics import _one_blas_thread, eigenvalue_rows, finite_stack, slice_workers


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


# np.linalg.eigvals holds the GIL on a stack of fewer than about this many matrix rows
# (numpy 2.4: one to three 200 x 200 matrices, or one 400 x 400), so workers that each
# took so few would take turns.
_EIGVALS_ROWS = 1000


def pulled_spectra(count: int, m: int, take) -> EigenSampleSet:
    """Sorted spectra of ``count`` m x m instances across ``slice_workers``, each worker taking
    the next batch ``take(start, stop)`` under a lock and checking and eigendecomposing it
    outside, with BLAS at one thread.  A batch is about a table row block, and at least
    ``_EIGVALS_ROWS`` rows.  Failures name the instance by its position; after one no batch
    is taken, those taken finish, and the lowest instance's is raised."""
    size = 2 * count * m  # complex: 2 floats each
    numerics.check_table_size(size, f"{count} samples of {m} eigenvalues ask for {size}")
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


def _axis_kernel(
    values: np.ndarray, bandwidth: float | None, grid_points: int, grid: np.ndarray | None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Bandwidth, grid and Gaussian kernel matrix (grid x samples) of one axis.

    With ``bandwidth=None`` Silverman's rule is used; the default grid spans
    the sample range padded by 4 bandwidths.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 2 or not np.all(np.isfinite(v)):
        raise TooFewSamples("need at least 2 finite values")
    h = silverman_bandwidth(v) if bandwidth is None else float(bandwidth)
    if h <= 0:
        auto = "samples too concentrated for automatic bandwidth"
        raise DegenerateData(auto if bandwidth is None else f"bandwidth must be positive, got {h}")
    if grid is None:
        grid = np.linspace(v.min() - 4.0 * h, v.max() + 4.0 * h, grid_points)
    else:
        grid = np.asarray(grid, dtype=float)
    return h, grid, np.exp(-0.5 * ((grid[:, None] - v[None, :]) / h) ** 2)


def kde2d(
    values_re: np.ndarray,
    values_im: np.ndarray,
    bandwidths: tuple[float, float] | None = None,
    grid_points: int = 256,
    grid_re: np.ndarray | None = None,
    grid_im: np.ndarray | None = None,
) -> Kde2d:
    """Joint density over a product grid with per-axis Silverman bandwidths."""
    if np.size(values_re) != np.size(values_im):
        raise DimensionMismatch("real and imaginary sample counts differ")
    gx, gy = (grid_points if grid is None else np.size(grid) for grid in (grid_re, grid_im))
    size = max(gx * gy, max(gx, gy) * np.size(values_re))  # the density or an axis's kernels
    numerics.check_table_size(size, f"a {gx} x {gy} grid over {np.size(values_re)} samples "
                              f"asks for {size} density or kernel")
    bw_re, bw_im = (None, None) if bandwidths is None else bandwidths
    hx, grid_re, ex = _axis_kernel(values_re, bw_re, grid_points, grid_re)
    hy, grid_im, ey = _axis_kernel(values_im, bw_im, grid_points, grid_im)
    with _one_blas_thread():  # so the bits do not depend on the BLAS thread setting
        density = (ex @ ey.T) / (ex.shape[1] * 2.0 * np.pi * hx * hy)
    return Kde2d(grid_re, grid_im, density)


def density_peak(curve: Kde2d) -> tuple[int, int]:
    """Grid indices of the density maximum."""
    flat = int(np.argmax(curve.density))
    return np.unravel_index(flat, curve.density.shape)
