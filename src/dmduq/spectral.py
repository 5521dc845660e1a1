"""Eigenvalue distribution of the uncertain operator.

Samples of operator instances are eigendecomposed, eigenvalues are matched
across samples by sorted order (magnitude descending, then imaginary part
descending), and per-index moments and squared-exponential kernel density
estimates are produced.  Sorted-order matching is deterministic and cheap;
it can mis-pair near-degenerate spectra, which continuity tracking would
handle but is out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, DimensionMismatch, TooFewSamples
from .numerics import _one_blas_thread, finite_eigenvalue_rows, finite_stack, slice_workers


@dataclass(frozen=True, eq=False)
class EigenSampleSet:
    """Sorted eigenvalue samples (N x m) plus the largest-eigenvalue representative.

    The representative of each sample is the member of the top-magnitude
    conjugate pair with nonnegative imaginary part.
    """

    samples: np.ndarray
    representative_lambda1: np.ndarray

    def __post_init__(self):
        if self.samples.ndim != 2:
            raise DimensionMismatch("samples must be a 2-D array")
        if self.representative_lambda1.shape != (self.samples.shape[0],):
            raise DimensionMismatch("one representative per sample row required")
        if np.any(self.representative_lambda1.imag < 0):
            raise DimensionMismatch("representatives must have nonnegative imaginary part")


@dataclass(frozen=True, eq=False)
class EigenMoments:
    """Per-index complex sample mean and real/imaginary sample variances."""

    mean: np.ndarray
    variance_re: np.ndarray
    variance_im: np.ndarray


@dataclass(frozen=True, eq=False)
class KdeCurve:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


@dataclass(frozen=True, eq=False)
class Kde2d:
    grid_re: np.ndarray
    grid_im: np.ndarray
    density: np.ndarray  # shape (len(grid_re), len(grid_im))
    bandwidth_re: float
    bandwidth_im: float


def eigen_samples(instances: np.ndarray, first_index: int = 0) -> EigenSampleSet:
    """Eigendecompose a stack of square matrices into sorted spectra.

    Failures name the instance as ``first_index`` plus its position in the
    stack, for callers that pass one chunk of a longer sequence.  The stack is
    checked for finite entries once; then contiguous slices, one per BLAS
    thread, are eigendecomposed concurrently with BLAS held at one thread, so
    the spectra do not depend on the thread setting.
    """
    stack = finite_stack(instances, first_index)
    with slice_workers() as map_slices:
        rows = map_slices(lambda lo, hi: finite_eigenvalue_rows(stack[lo:hi], first_index + lo),
                          len(stack))
    ordered = np.concatenate(rows)
    if ordered.shape[0] < 1:
        raise TooFewSamples("need at least one instance")
    top = ordered[:, 0]
    representative = np.where(top.imag < 0, np.conj(top), top)
    return EigenSampleSet(samples=ordered, representative_lambda1=representative)


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


def kde(
    values: np.ndarray,
    bandwidth: float | None = None,
    grid_points: int = 256,
    grid: np.ndarray | None = None,
) -> KdeCurve:
    """Squared-exponential kernel density on a uniform grid (see :func:`_axis_kernel`)."""
    h, grid, kernel = _axis_kernel(values, bandwidth, grid_points, grid)
    density = kernel.sum(axis=1) / (kernel.shape[1] * h * np.sqrt(2.0 * np.pi))
    return KdeCurve(grid=grid, density=density, bandwidth=h)


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
    bw_re, bw_im = (None, None) if bandwidths is None else bandwidths
    hx, grid_re, ex = _axis_kernel(values_re, bw_re, grid_points, grid_re)
    hy, grid_im, ey = _axis_kernel(values_im, bw_im, grid_points, grid_im)
    with _one_blas_thread():  # so the bits do not depend on the BLAS thread setting
        density = (ex @ ey.T) / (ex.shape[1] * 2.0 * np.pi * hx * hy)
    return Kde2d(grid_re, grid_im, density, bandwidth_re=hx, bandwidth_im=hy)


def density_peak(curve: Kde2d) -> tuple[int, int]:
    """Grid indices of the density maximum."""
    flat = int(np.argmax(curve.density))
    return np.unravel_index(flat, curve.density.shape)
