"""Matrix-comparison metrics and the normalizations used by report curves.

Cosine similarity uses the standard normalized inner product of vectorized
matrices, so it always lies in [-1, 1].  Inputs are taken in C order and norms
and inner products run with BLAS held at one thread, so the bits depend on
neither the memory layout nor the thread setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, ShapeMismatch
from .numerics import _one_blas_thread


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


def min_max_normalize(values: np.ndarray) -> np.ndarray:
    """(v - min) / (max - min); rejects constant input."""
    v = np.asarray(values, dtype=float)
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        raise DegenerateData("min-max scaling undefined for constant input")
    return (v - lo) / (hi - lo)

