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
confirm.  Assembly is pure and data-parallel with deterministic output.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .data_model import NoiseModel, SnapshotSet
from .errors import ConfigError, DimensionMismatch, NotPositiveDefinite, SingularGram
from .numerics import SpdFactor, Spectrum, cholesky_logdet, product_eigenvalues, spd_solve
from .pinv_moments import PinvMoments, QuadratureConfig, pinv_moments

logger = logging.getLogger(__name__)

PAPER_LITERAL = "paper_literal"
CORRECTED = "corrected"
VARIANCE_MODES = (PAPER_LITERAL, CORRECTED)


@dataclass(frozen=True)
class DmdEstimate:
    """Point estimate of the operator and its spectrum."""

    operator: np.ndarray
    spectrum: Spectrum


@dataclass(frozen=True)
class OperatorMoments:
    """Moment tables for the operator: means and per-element spread.

    ``second_central`` is used as a variance downstream; in paper_literal
    mode individual entries may be negative (recorded, not fatal).
    """

    first: np.ndarray
    second_central: np.ndarray
    variance_mode: str
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.variance_mode not in VARIANCE_MODES:
            raise ConfigError(f"unknown variance mode {self.variance_mode!r}")
        first = np.asarray(self.first, dtype=float)
        second = np.asarray(self.second_central, dtype=float)
        if first.shape != second.shape:
            raise DimensionMismatch("moment tables must share a shape")
        if not (np.all(np.isfinite(first)) and np.all(np.isfinite(second))):
            raise DimensionMismatch("operator moments must be finite")
        if self.variance_mode == CORRECTED and second.min() < -1e-12:
            raise DimensionMismatch(
                f"corrected-mode variance is negative: min {second.min():.3e}"
            )
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second_central", second)


def gram_factor(X: np.ndarray, ridge: float) -> SpdFactor:
    """Cholesky factor of ``X X.T + ridge I``.

    Raises ConfigError for a negative ridge and SingularGram when the
    ridged Gram matrix is not positive definite.
    """
    if ridge < 0:
        raise ConfigError(f"ridge must be >= 0, got {ridge}")
    gram = X @ X.T
    if ridge:
        gram = gram + ridge * np.eye(X.shape[0])
    try:
        return cholesky_logdet(gram)[0]
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
    solved = spd_solve(gram_factor(X, ridge), Y)
    spectrum = Spectrum(eigenvalues=product_eigenvalues(X.T, solved))
    return DmdEstimate(operator=X.T @ solved, spectrum=spectrum)


def _shifted(pinv: PinvMoments, snapshots: SnapshotSet, noise: NoiseModel | None) -> np.ndarray:
    """Y, once the pseudoinverse tables and the noise model are checked against it."""
    Y = snapshots.shifted
    if pinv.first.shape != (Y.shape[1], Y.shape[0]):
        raise DimensionMismatch(
            f"pseudoinverse table {pinv.first.shape} does not match Y {Y.shape}"
        )
    if noise is not None and noise.state_count != Y.shape[0]:
        raise DimensionMismatch("noise model does not match state count")
    return Y


def operator_first_moment(
    pinv: PinvMoments, snapshots: SnapshotSet, noise: NoiseModel | None = None
) -> np.ndarray:
    """Mean table: first[i][j] = sum_k M1x[i][k] * Y[k][j]."""
    return pinv.first @ _shifted(pinv, snapshots, noise)


def operator_second_moment(
    pinv: PinvMoments,
    snapshots: SnapshotSet,
    noise: NoiseModel,
    mode: str = CORRECTED,
) -> np.ndarray:
    """Spread table under the selected variance assembly.

    In paper_literal mode negative entries are counted and logged, never
    silently altered; this mode exists for fidelity, corrected mode for
    verification.
    """
    if mode not in VARIANCE_MODES:
        raise ConfigError(f"unknown variance mode {mode!r}")
    Y = _shifted(pinv, snapshots, noise)
    var = noise.variances
    y_sq = Y**2
    base = (pinv.second_raw @ var)[:, None] - pinv.first**2 @ y_sq
    if mode == PAPER_LITERAL:
        negatives = int(np.count_nonzero(base < 0))
        if negatives:
            logger.warning(
                "paper_literal variance has %d negative element(s); min %.3e",
                negatives,
                float(base.min()),
            )
        return base
    return base + pinv.second_raw @ y_sq


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
    quad = quad or QuadratureConfig()
    if pinv is None:
        pinv = pinv_moments(snapshots, noise, quad=quad, ridge=ridge)
    first = operator_first_moment(pinv, snapshots, noise)
    second = operator_second_moment(pinv, snapshots, noise, mode=mode)
    metadata = {
        "quadrature": asdict(quad),
        "ridge": ridge,
        "variance_mode": mode,
    }
    if mode == PAPER_LITERAL:
        metadata["negative_variance_elements"] = int(np.count_nonzero(second < 0))
    return OperatorMoments(
        first=first, second_central=second, variance_mode=mode, metadata=metadata
    )
