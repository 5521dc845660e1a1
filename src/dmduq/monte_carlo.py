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

Per-trial randomness comes from counter-based streams keyed by
(master_seed, trial index), so trials never share a stream and results are
bit-identical for any thread count: chunks are fixed functions of the
problem shape and partial sums reduce in chunk order.  Each chunk is merged
into the running totals as soon as it is done, with at most two chunks per
thread in flight, so memory does not grow with the number of trials.
"""

from __future__ import annotations

import logging
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data_model import NoiseModel, SnapshotSet
from .errors import ConfigError, DimensionMismatch, NegativeVarianceInput, TooManyFailedTrials
from .numerics import cholesky_logdet, product_eigenvalues, spd_solve
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


@dataclass(frozen=True)
class McStandardErrors:
    pinv_mean: np.ndarray
    pinv_second_raw: np.ndarray
    operator_mean: np.ndarray
    operator_variance: np.ndarray


@dataclass(frozen=True)
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


_CHUNK_SCALARS = 4_000_000


def _chunk_size(m: int, n: int) -> int:
    # Bounded working set: a trial holds m n^2 noise draws (independent mode)
    # and an m x m operator, which _MomentAccumulator.add_block copies four
    # times.  A function of problem shape only, so the reduction order never
    # depends on the thread count.
    return max(1, min(4096, _CHUNK_SCALARS // max(m * n * n, m * m)))


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("DMDUQ_THREADS", "1")))
    except ValueError:
        return 1


def _map_in_order(func, items: range, threads: int):
    """Yield ``func(item)`` in item order, with at most ``2 * threads`` calls in flight."""
    if threads <= 1 or len(items) <= 1:
        yield from map(func, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for item in items:
            pending.append(pool.submit(func, item))
            if len(pending) >= 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


class _MomentAccumulator:
    """Power sums of (value - shift) up to fourth order, per element."""

    def __init__(self, shift: np.ndarray):
        self.shift = shift
        self.sums = [np.zeros_like(shift) for _ in range(4)]

    def add_block(self, values: np.ndarray) -> None:
        d = values - self.shift
        d2 = d * d
        self.sums[0] += d.sum(axis=0)
        self.sums[1] += d2.sum(axis=0)
        self.sums[2] += (d2 * d).sum(axis=0)
        self.sums[3] += (d2 * d2).sum(axis=0)

    def merge(self, other: "_MomentAccumulator") -> None:
        for mine, theirs in zip(self.sums, other.sums):
            mine += theirs

    def statistics(self, count: int):
        c = self.shift
        s1, s2, s3, s4 = (s / count for s in self.sums)
        mean = c + s1
        dvar = (self.sums[1] - self.sums[0] ** 2 / count) / (count - 1)
        dvar = np.maximum(dvar, 0.0)
        second_raw = c**2 + 2.0 * c * s1 + s2
        fourth_raw = c**4 + 4.0 * c**3 * s1 + 6.0 * c**2 * s2 + 4.0 * c * s3 + s4
        se_mean = np.sqrt(dvar / count)
        se_second = np.sqrt(np.maximum(fourth_raw - second_raw**2, 0.0) / count)
        m4 = s4 - 4.0 * s1 * s3 + 6.0 * s1**2 * s2 - 3.0 * s1**4
        se_var = np.sqrt(np.maximum(m4 - dvar**2, 0.0) / count)
        return mean, second_raw, dvar, se_mean, se_second, se_var


def run_mc(
    snapshots: SnapshotSet,
    noise: NoiseModel,
    config: McConfig | None = None,
    ridge: float = 0.0,
    threads: int | None = None,
) -> McSummary:
    """Sample N trials and summarize pseudoinverse and operator moments."""
    config = config or McConfig()
    X, Y = snapshots.states, snapshots.shifted
    n, m = X.shape
    _check_inputs(X, noise, ridge)

    sigma_L = cholesky_logdet(noise.covariance())[0].lower_triangular_factor
    y_std = np.sqrt(noise.variances)

    pinv_point = spd_solve(gram_factor(X, ridge), X).T  # (m, n)
    operator_point = pinv_point @ Y

    r_stack = trajectory = None
    if config.sampling_mode == INDEPENDENT:
        r_stack, singular = gram_complement_inverses(X, ridge, np.arange(m))
        if singular:
            raise singular[0][1]
    else:
        trajectory = snapshots.trajectory_columns()

    n_trials = config.trials
    chunk = _chunk_size(m, n)

    def run_chunk(start: int):
        stop = min(start + chunk, n_trials)
        count = stop - start
        pinv_acc = _MomentAccumulator(pinv_point)
        op_acc = _MomentAccumulator(operator_point)
        failed: list[int] = []
        rng = np.random.Generator(np.random.Philox(0))
        if config.sampling_mode == INDEPENDENT:
            zx = np.empty((count, m, n, n))
            zy = np.empty((count, n, m))
            for i, trial in enumerate(range(start, stop)):
                _restart(rng, config.master_seed, trial)
                zx[i] = rng.standard_normal((m, n, n))
                zy[i] = rng.standard_normal((n, m))
            x_cols = X.T[None, :, None, :] + zx @ sigma_L.T  # (count, m, n, n)
            y_draws = Y[None, :, :] + y_std[:, None] * zy
            # Element (t, k) uses its own column draw x: (R_t x)_k / (1 + x.T R_t x).
            # Row k of x_cols @ R_t is x.T R_t, whose entry k is (R_t.T x)_k = (R_t x)_k.
            rx = x_cols @ r_stack  # (count, m, n, n)
            den = 1.0 + np.einsum("ctke,ctke->ctk", rx, x_cols)
            pinv_tables = rx.diagonal(axis1=2, axis2=3) / den  # (count, m, n)
        else:
            base = np.empty((count, n, m + 1))
            for i, trial in enumerate(range(start, stop)):
                _restart(rng, config.master_seed, trial)
                base[i] = rng.standard_normal((n, m + 1))
            noisy = trajectory[None, :, :] + np.einsum("de,cem->cdm", sigma_L, base)
            x_t = noisy[:, :, :m]
            y_draws = noisy[:, :, 1:]
            grams = x_t @ x_t.transpose(0, 2, 1)
            if ridge:
                grams = grams + ridge * np.eye(n)
            pinv_tables = np.empty((count, m, n))
            ok = np.ones(count, dtype=bool)
            try:
                pinv_tables = np.linalg.solve(grams, x_t).transpose(0, 2, 1)
            except np.linalg.LinAlgError:
                for i in range(count):
                    try:
                        pinv_tables[i] = np.linalg.solve(grams[i], x_t[i]).T
                    except np.linalg.LinAlgError:
                        ok[i] = False
                        failed.append(start + i)
            if not ok.all():
                pinv_tables = pinv_tables[ok]
                y_draws = y_draws[ok]
        pinv_acc.add_block(pinv_tables)
        op_acc.add_block(pinv_tables @ y_draws)
        eig_rows = None
        if config.compute_eigenvalues:
            eig_rows = product_eigenvalues(pinv_tables, y_draws)
        return pinv_acc, op_acc, eig_rows, failed

    thread_count = threads if threads is not None else _default_threads()
    pinv_total = _MomentAccumulator(pinv_point)
    op_total = _MomentAccumulator(operator_point)
    eig_parts: list[np.ndarray] = []
    failed_indices: list[int] = []
    results = _map_in_order(run_chunk, range(0, n_trials, chunk), thread_count)
    for pinv_acc, op_acc, eig_rows, failed in results:
        pinv_total.merge(pinv_acc)
        op_total.merge(op_acc)
        if eig_rows is not None:
            eig_parts.append(eig_rows)
        failed_indices.extend(failed)

    failed_count = len(failed_indices)
    if failed_count > _FAILURE_FRACTION * n_trials:
        raise TooManyFailedTrials(
            f"{failed_count} of {n_trials} trials failed (> {_FAILURE_FRACTION:.0%})"
        )
    if failed_count:
        logger.warning("%d of %d trials had singular Gram matrices", failed_count, n_trials)
    n_eff = n_trials - failed_count

    p_mean, p_second, _, p_se_mean, p_se_second, _ = pinv_total.statistics(n_eff)
    o_mean, _, o_var, o_se_mean, _, o_se_var = op_total.statistics(n_eff)
    eigen = np.vstack(eig_parts) if eig_parts else None

    return McSummary(
        pinv_mean=p_mean,
        pinv_second_raw=p_second,
        operator_mean=o_mean,
        operator_variance=o_var,
        eigen_samples=eigen,
        standard_errors=McStandardErrors(
            pinv_mean=p_se_mean,
            pinv_second_raw=p_se_second,
            operator_mean=o_se_mean,
            operator_variance=o_se_var,
        ),
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
    ``_CHUNK_SCALARS`` entries, so memory holds one chunk plus the
    ``count x m`` complex spectra, whatever ``count`` is.
    """
    m = moments.first.shape[0]
    chunk = max(1, _CHUNK_SCALARS // (m * m))
    blocks = _instance_blocks(moments, count, seed, clamp_negative, chunk)
    samples = np.empty((count, m), dtype=complex)
    representative = np.empty(count, dtype=complex)
    for start, instances in blocks:
        part = eigen_samples(instances, first_index=start)
        samples[start : start + len(instances)] = part.samples
        representative[start : start + len(instances)] = part.representative_lambda1
    return EigenSampleSet(samples=samples, representative_lambda1=representative)
