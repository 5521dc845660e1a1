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
from .numerics import eigenvalue_rows


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class EigenMoments:
    """Per-index complex sample mean and real/imaginary sample variances."""

    mean: np.ndarray
    variance_re: np.ndarray
    variance_im: np.ndarray


@dataclass(frozen=True)
class KdeCurve:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


@dataclass(frozen=True)
class Kde2d:
    grid_re: np.ndarray
    grid_im: np.ndarray
    density: np.ndarray  # shape (len(grid_re), len(grid_im))
    bandwidth_re: float
    bandwidth_im: float


def eigen_samples(instances: np.ndarray, first_index: int = 0) -> EigenSampleSet:
    """Eigendecompose a stack of square matrices into sorted spectra.

    Failures name the instance as ``first_index`` plus its position in the
    stack, for callers that pass one chunk of a longer sequence.
    """
    arr = np.asarray(instances, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise DimensionMismatch(f"expected (N, m, m) instances, got {arr.shape}")
    if arr.shape[0] < 1:
        raise TooFewSamples("need at least one instance")
    ordered = eigenvalue_rows(arr, first_index)
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


def kde(
    values: np.ndarray,
    bandwidth: float | None = None,
    grid_points: int = 256,
    grid: np.ndarray | None = None,
) -> KdeCurve:
    """Squared-exponential kernel density on a uniform grid.

    With ``bandwidth=None`` Silverman's rule is used; the default grid spans
    the sample range padded by 4 bandwidths.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 2 or not np.all(np.isfinite(v)):
        raise TooFewSamples("need at least 2 finite values")
    if bandwidth is None:
        h = silverman_bandwidth(v)
        if h <= 0:
            raise DegenerateData("samples too concentrated for automatic bandwidth")
    else:
        h = float(bandwidth)
        if h <= 0:
            raise DegenerateData(f"bandwidth must be positive, got {h}")
    if grid is None:
        grid = np.linspace(v.min() - 4.0 * h, v.max() + 4.0 * h, grid_points)
    else:
        grid = np.asarray(grid, dtype=float)
    z = (grid[:, None] - v[None, :]) / h
    density = np.exp(-0.5 * z**2).sum(axis=1) / (v.size * h * np.sqrt(2.0 * np.pi))
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
    x = np.asarray(values_re, dtype=float).ravel()
    y = np.asarray(values_im, dtype=float).ravel()
    if x.size != y.size:
        raise DimensionMismatch("real and imaginary sample counts differ")
    if x.size < 2:
        raise TooFewSamples("need at least 2 samples")
    if bandwidths is None:
        hx, hy = silverman_bandwidth(x), silverman_bandwidth(y)
        if hx <= 0 or hy <= 0:
            raise DegenerateData("samples too concentrated for automatic bandwidth")
    else:
        hx, hy = float(bandwidths[0]), float(bandwidths[1])
        if hx <= 0 or hy <= 0:
            raise DegenerateData("bandwidths must be positive")
    if grid_re is None:
        grid_re = np.linspace(x.min() - 4.0 * hx, x.max() + 4.0 * hx, grid_points)
    if grid_im is None:
        grid_im = np.linspace(y.min() - 4.0 * hy, y.max() + 4.0 * hy, grid_points)
    ex = np.exp(-0.5 * ((grid_re[:, None] - x[None, :]) / hx) ** 2)
    ey = np.exp(-0.5 * ((grid_im[:, None] - y[None, :]) / hy) ** 2)
    density = (ex @ ey.T) / (x.size * 2.0 * np.pi * hx * hy)
    return Kde2d(
        grid_re=grid_re,
        grid_im=grid_im,
        density=density,
        bandwidth_re=hx,
        bandwidth_im=hy,
    )


def density_peak(curve: Kde2d) -> tuple[int, int]:
    """Grid indices of the density maximum."""
    flat = int(np.argmax(curve.density))
    return np.unravel_index(flat, curve.density.shape)
