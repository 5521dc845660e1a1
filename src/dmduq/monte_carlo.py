"""Monte Carlo oracle: resample noisy snapshots, rebuild the pseudoinverse
and operator per trial, and summarize sample moments.

Two sampling modes:

``independent``
    Samples the probability model under which the analytic moment tables
    are exact: the Gram complement of each column stays fixed at the
    recorded means (plug-in conditioning), each pseudoinverse element
    (t, k) gets its own fresh noisy realization of column t, and the
    shifted-snapshot entries are drawn independently of all of them.  This
    is the mode to verify the closed-form tables against.

``shared_trajectory``
    Physically consistent sampling: one noisy recording per trial, X and Y
    rebuilt by shifting (so they share m - 1 snapshots), and the true
    pseudoinverse of the realized X.  This probes the coupling the
    independence assumptions ignore.

Trials draw from streams keyed by (master_seed, trial index) and run in chunks
sized by the problem shape only.  A chunk's trials are drawn in one slice per
BLAS thread and its power sums added, element slice by element slice, into one
running accumulator pair: the bits do not depend on the thread count, and
memory does not grow with the number of trials.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data_model import NoiseModel, SnapshotSet
from .errors import ConfigError, DimensionMismatch, NegativeVarianceInput, TooManyFailedTrials
from . import numerics
from .numerics import map_row_blocks, product_eigenvalues, slice_workers, spd_solve
from .operator_moments import OperatorMoments, gram_factor
from .pinv_moments import _check_inputs, gram_complement_inverses
from .spectral import EigenSampleSet, eigen_samples

logger = logging.getLogger(__name__)

INDEPENDENT = "independent"
SHARED_TRAJECTORY = "shared_trajectory"
SAMPLING_MODES = (INDEPENDENT, SHARED_TRAJECTORY)

_MASK64 = (1 << 64) - 1
_FAILURE_FRACTION = 0.01


@dataclass(frozen=True)
class McConfig:
    trials: int = 1000
    master_seed: int = 0
    sampling_mode: str = INDEPENDENT
    compute_eigenvalues: bool = True

    def __post_init__(self):
        if self.trials < 2:
            raise ConfigError(f"trials must be >= 2, got {self.trials}")
        if self.sampling_mode not in SAMPLING_MODES:
            raise ConfigError(f"unknown sampling mode {self.sampling_mode!r}")
        if not 0 <= self.master_seed <= _MASK64:
            raise ConfigError("master_seed must fit in 64 unsigned bits")


@dataclass(frozen=True, eq=False)
class McStandardErrors:
    pinv_mean: np.ndarray
    pinv_second_raw: np.ndarray
    operator_mean: np.ndarray
    operator_variance: np.ndarray


@dataclass(frozen=True, eq=False)
class McSummary:
    """Sample-moment summaries over N trials.

    Means use 1/N, variances 1/(N-1); standard errors are sample_std/sqrt(N)
    for mean-type summaries and the fourth-moment asymptotic for the
    variance-type summary.
    """

    pinv_mean: np.ndarray
    pinv_second_raw: np.ndarray
    operator_mean: np.ndarray
    operator_variance: np.ndarray
    eigen_samples: np.ndarray | None
    standard_errors: McStandardErrors
    trials: int
    failed_trials: int
    sampling_mode: str
    master_seed: int

    def __post_init__(self):
        jensen = self.pinv_second_raw - self.pinv_mean**2
        if jensen.min() < -1e-12:
            raise DimensionMismatch("sample second moments below squared means")
        if self.operator_variance.min() < -1e-12:
            raise DimensionMismatch("negative sample variance")


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Counter-keyed stream for one trial; distinct trials never collide.

    The same draws as ``Generator(Philox(key=[master_seed, trial]))``.
    """
    return _restart(np.random.Generator(np.random.Philox(0)), master_seed, trial)


def _restart(rng: np.random.Generator, master_seed: int, trial: int) -> np.random.Generator:
    """Reset a Philox generator to the start of one trial's stream and return it.

    Reusing one generator this way skips the OS-entropy seeding that every
    new ``Philox(key=...)`` does before its key replaces the seed.
    """
    key = np.array([master_seed & _MASK64, trial & _MASK64], dtype=np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _chunk_size(m: int, n: int) -> int:
    # Bounded working set: a trial holds m n^2 noise draws (independent mode)
    # and an m x m operator, which _MomentAccumulator.add_block copies twice.
    # A function of problem shape only, so the reduction order is fixed.
    return max(1, min(4096, numerics._CHUNK_SCALARS // max(m * n * n, m * m)))


class _MomentAccumulator:
    """Power sums of (value - shift) up to fourth order, per element."""

    def __init__(self, shift: np.ndarray):
        self.shift = shift
        self.sums = [np.zeros_like(shift) for _ in range(4)]

    def add_block(self, values: np.ndarray, lo: int, hi: int) -> None:
        # Elements lo:hi of the first axis, each summed over the trials in order,
        # so any split gives the same bits.  Overwrites ``values[:, lo:hi]``.
        d = values[:, lo:hi]
        d -= self.shift[lo:hi]
        d2 = d * d
        self.sums[0][lo:hi] += d.sum(axis=0)
        self.sums[1][lo:hi] += d2.sum(axis=0)
        d *= d2
        self.sums[2][lo:hi] += d.sum(axis=0)
        d2 *= d2
        self.sums[3][lo:hi] += d2.sum(axis=0)

    def statistics(self, count: int, map_slices, raw_second: bool = True):
        """``(mean, second_raw, variance, se_mean, se_second, se_variance)``; the
        second_raw pair is None unless ``raw_second``.  Row blocks fill preallocated
        tables over ``map_slices``."""
        mean, second_raw, var, se_mean, se_second, se_var = (
            np.empty_like(self.shift) if raw_second or i not in (1, 4) else None for i in range(6)
        )
        def rows(a: int, b: int) -> None:
            c = self.shift[a:b]
            s1, s2, s3, s4 = (s[a:b] / count for s in self.sums)
            mean[a:b] = c + s1
            dvar = (self.sums[1][a:b] - self.sums[0][a:b] ** 2 / count) / (count - 1)
            var[a:b] = dvar = np.maximum(dvar, 0.0)
            se_mean[a:b] = np.sqrt(dvar / count)
            m4 = s4 - 4.0 * s1 * s3 + 6.0 * s1**2 * s2 - 3.0 * s1**4
            se_var[a:b] = np.sqrt(np.maximum(m4 - dvar**2, 0.0) / count)
            if raw_second:
                second_raw[a:b] = raw = c**2 + 2.0 * c * s1 + s2
                fourth_raw = c**4 + 4.0 * c**3 * s1 + 6.0 * c**2 * s2 + 4.0 * c * s3 + s4
                se_second[a:b] = np.sqrt(np.maximum(fourth_raw - raw**2, 0.0) / count)

        map_row_blocks(map_slices, rows, len(self.shift), self.shift[0].size)
        return mean, second_raw, var, se_mean, se_second, se_var


def run_mc(
    snapshots: SnapshotSet,
    noise: NoiseModel,
    config: McConfig | None = None,
    ridge: float = 0.0,
) -> McSummary:
    """Sample N trials and summarize pseudoinverse and operator moments."""
    config = config or McConfig()
    X, Y = snapshots.states, snapshots.shifted
    n, m = X.shape
    _check_inputs(X, noise, ridge)

    sigma_L = noise.covariance_factor
    y_std = np.sqrt(noise.variances)

    pinv_point = spd_solve(gram_factor(X, ridge), X).T  # (m, n)
    operator_point = pinv_point @ Y

    n_trials = config.trials
    chunk = min(_chunk_size(m, n), n_trials)
    independent = config.sampling_mode == INDEPENDENT
    op_buf = np.empty((chunk, m, m))
    if independent:
        r_stack, singular = gram_complement_inverses(X, ridge, np.arange(m))
        if singular:
            raise singular[0][1]
        pinv_buf, x_buf = np.empty((chunk, m, n)), np.empty((chunk, m, n, n))
        # One draw call per trial (columns, then Y): each call hands the GIL over.
        z_buf = np.empty((chunk, m * n * n + n * m))
        zx_buf = z_buf[:, : m * n * n].reshape(chunk, m, n, n)
        y_buf = z_buf[:, m * n * n :].reshape(chunk, n, m)
    else:
        trajectory = snapshots.trajectory_columns()
        # Laid out as np.linalg.solve returns X+.T: products round by layout.
        pinv_buf = np.empty((chunk, n, m)).transpose(0, 2, 1)
        y_buf, z_buf = np.empty((chunk, n, m)), np.empty((chunk, n, m + 1))

    def sample_slice(start: int, lo: int, hi: int) -> list[int]:
        """Fill rows ``lo:hi`` of the chunk buffers; return the trials with a singular Gram."""
        rng = np.random.Generator(np.random.Philox(0))  # one per slice, reset per trial
        for i in range(lo, hi):
            _restart(rng, config.master_seed, start + i)
            rng.standard_normal(out=z_buf[i])
        failed = []
        if independent:
            y_draws, zx, x_cols = y_buf[lo:hi], zx_buf[lo:hi], x_buf[lo:hi]
            y_draws *= y_std[:, None]
            y_draws += Y
            np.matmul(zx, sigma_L.T, out=x_cols)
            x_cols += X.T[:, None, :]  # (count, m, n, n)
            # Element (t, k) uses its own column draw x: (R_t x)_k / (1 + x.T R_t x).
            # Row k of x_cols @ R_t is x.T R_t, whose entry k is (R_t.T x)_k = (R_t x)_k.
            rx = np.matmul(x_cols, r_stack, out=zx)  # the draws are spent
            den = 1.0 + np.einsum("ctke,ctke->ctk", rx, x_cols)
            np.divide(rx.diagonal(axis1=2, axis2=3), den, out=pinv_buf[lo:hi])
        else:
            noisy = trajectory[None, :, :] + np.einsum("de,cem->cdm", sigma_L, z_buf[lo:hi])
            x_t = noisy[:, :, :m]
            y_buf[lo:hi] = noisy[:, :, 1:]
            grams = x_t @ x_t.transpose(0, 2, 1)
            if ridge:
                grams = grams + ridge * np.eye(n)
            try:
                pinv_buf[lo:hi] = np.linalg.solve(grams, x_t).transpose(0, 2, 1)
            except np.linalg.LinAlgError:
                for i in range(hi - lo):
                    try:
                        pinv_buf[lo + i] = np.linalg.solve(grams[i], x_t[i]).T
                    except np.linalg.LinAlgError:
                        failed.append(start + lo + i)
        np.matmul(pinv_buf[lo:hi], y_buf[lo:hi], out=op_buf[lo:hi])
        return failed

    pinv_acc, op_acc = _MomentAccumulator(pinv_point), _MomentAccumulator(operator_point)
    eig_parts, failed_count = [], 0
    # One pool and one BLAS pin for the whole run, so the BLAS calls made
    # between the maps (the failed-trial path) also run at one thread.
    with slice_workers() as map_slices:
        for start in range(0, n_trials, chunk):
            count = min(chunk, n_trials - start)
            failed = sum(map_slices(lambda lo, hi: sample_slice(start, lo, hi), count), [])
            failed_count += len(failed)
            pinv_tables, y_draws, operators = pinv_buf[:count], y_buf[:count], op_buf[:count]
            if failed:  # dropped; the rest in C order, as the per-trial solves were
                ok = np.isin(np.arange(start, start + count), failed, invert=True)
                pinv_tables = np.ascontiguousarray(pinv_tables[ok])
                y_draws, operators = y_draws[ok], pinv_tables @ y_draws[ok]
            if config.compute_eigenvalues:  # before add_block overwrites the tables
                eig_parts += map_slices(lambda lo, hi: product_eigenvalues(
                    pinv_tables[lo:hi], y_draws[lo:hi]), len(pinv_tables))
            map_slices(lambda lo, hi: (pinv_acc.add_block(pinv_tables, lo, hi),
                                       op_acc.add_block(operators, lo, hi)), m)

        if failed_count > _FAILURE_FRACTION * n_trials:
            raise TooManyFailedTrials(
                f"{failed_count} of {n_trials} trials failed (> {_FAILURE_FRACTION:.0%})"
            )
        if failed_count:
            logger.warning("%d of %d trials had singular Gram matrices", failed_count, n_trials)
        n_eff = n_trials - failed_count
        p_mean, p_second, _, p_se_mean, p_se_second, _ = pinv_acc.statistics(n_eff, map_slices)
        o_mean, _, o_var, o_se_mean, _, o_se_var = op_acc.statistics(n_eff, map_slices, False)
    eigen = np.vstack(eig_parts) if eig_parts else None

    return McSummary(
        pinv_mean=p_mean,
        pinv_second_raw=p_second,
        operator_mean=o_mean,
        operator_variance=o_var,
        eigen_samples=eigen,
        standard_errors=McStandardErrors(p_se_mean, p_se_second, o_se_mean, o_se_var),
        trials=n_trials,
        failed_trials=failed_count,
        sampling_mode=config.sampling_mode,
        master_seed=config.master_seed,
    )


def _instance_blocks(
    moments: OperatorMoments,
    count: int,
    seed: int,
    clamp_negative: bool,
    block: int,
):
    """Validate the variances, then iterate ``(start, instances)`` blocks of at most ``block``.

    Entry (i, j) of each instance is N(first[i][j], second_central[i][j]).
    All blocks come in order from the one ``trial_rng(seed, 0)`` stream, so
    they concatenate to a single draw of ``count`` instances bit for bit.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    var = moments.second_central
    negatives = int(np.count_nonzero(var < -1e-12))
    if negatives and not clamp_negative:
        raise NegativeVarianceInput(
            f"{negatives} element(s) have variance below -1e-12; "
            "enable clamping or use corrected mode"
        )
    if negatives:
        logger.warning("clamping %d negative variance element(s) to zero", negatives)
    std = np.sqrt(np.clip(var, 0.0, None))
    rng = trial_rng(seed, 0)

    def blocks():
        for start in range(0, count, block):
            draws = rng.standard_normal((min(block, count - start),) + var.shape)
            draws *= std
            draws += moments.first
            yield start, draws

    return blocks()


def sample_operator_instances(
    moments: OperatorMoments,
    count: int,
    seed: int,
    clamp_negative: bool = False,
) -> np.ndarray:
    """Draw operator instances with independent Gaussian entries.

    Entry (i, j) of each instance is N(first[i][j], second_central[i][j]).
    Negative variances beyond -1e-12 raise unless clamping is enabled, in
    which case they are clamped to zero with a logged per-element count.
    """
    return next(_instance_blocks(moments, count, seed, clamp_negative, count))[1]


def sample_operator_spectra(
    moments: OperatorMoments,
    count: int,
    seed: int,
    clamp_negative: bool = False,
) -> EigenSampleSet:
    """Sorted spectra of ``count`` instances drawn as by :func:`sample_operator_instances`.

    Bit-identical to ``eigen_samples(sample_operator_instances(...))``, but
    instances are drawn and eigendecomposed in chunks of at most
    ``numerics._CHUNK_SCALARS`` entries, so memory holds one chunk plus the
    ``count x m`` complex spectra, whatever ``count`` is.  Each chunk is
    eigendecomposed across the BLAS threads by :func:`eigen_samples`.
    """
    m = moments.first.shape[0]
    blocks = _instance_blocks(moments, count, seed, clamp_negative, _chunk_size(m, 1))
    samples = np.empty((count, m), dtype=complex)
    representative = np.empty(count, dtype=complex)
    for start, instances in blocks:
        part = eigen_samples(instances, first_index=start)
        samples[start : start + len(instances)] = part.samples
        representative[start : start + len(instances)] = part.representative_lambda1
    return EigenSampleSet(samples=samples, representative_lambda1=representative)
