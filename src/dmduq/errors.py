"""Exception hierarchy shared by all dmduq modules.

Every error carries a stable machine-readable ``code`` string so the CLI
can emit structured error JSON and map failures to exit codes.
"""

from __future__ import annotations


class DmduqError(Exception):
    """Base class for all dmduq errors."""

    code = "error"


class AsymmetricInput(DmduqError):
    code = "asymmetric_input"


class NotPositiveDefinite(DmduqError):
    code = "not_positive_definite"


class DimensionMismatch(DmduqError):
    code = "dimension_mismatch"


class ConvergenceFailure(DmduqError):
    code = "convergence_failure"


class TooFewSnapshots(DmduqError):
    code = "too_few_snapshots"


class NonUniformSampling(DmduqError):
    code = "non_uniform_sampling"


class ZeroVariance(DmduqError):
    code = "zero_variance"


class ParseError(DmduqError):
    code = "parse_error"

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class SingularV(DmduqError):
    code = "singular_v"


class SingularGram(DmduqError):
    code = "singular_gram"


class QuadratureNotConverged(DmduqError):
    code = "quadrature_not_converged"


class MomentComputationError(DmduqError):
    """Aggregate of per-element failures, each tagged with its location."""

    code = "moment_computation_error"

    def __init__(self, failures: list[tuple[int, int | None, DmduqError]]):
        self.failures = failures
        locs = ", ".join(
            f"(t={t}, k={'*' if k is None else k}): {err.code}" for t, k, err in failures[:8]
        )
        more = "" if len(failures) <= 8 else f" and {len(failures) - 8} more"
        first = f"; first: {failures[0][2]}" if failures else ""
        super().__init__(f"{len(failures)} element(s) failed: {locs}{more}{first}")


class NegativeVarianceInput(DmduqError):
    code = "negative_variance_input"


class TooFewSamples(DmduqError):
    code = "too_few_samples"


class TooManyFailedTrials(DmduqError):
    code = "too_many_failed_trials"


class DegenerateData(DmduqError):
    code = "degenerate_data"


class ShapeMismatch(DmduqError):
    code = "shape_mismatch"


class ConfigError(DmduqError):
    code = "config_error"
