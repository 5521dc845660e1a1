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
BLAS thread.  Its operators are then formed one block of table rows at a time,
and each block's power sums join one running accumulator pair: the bits do not
depend on the thread count, and memory does not grow with the number of trials.
Independent-mode draws pass through scratch cut by ``numerics.row_blocks``, runs
of trials by columns, so a chunk holds neither its m n^2 draws nor its m x m
operators.  The operator's power sums are the run's only m x m tables: their
centre, the point estimate, is formed a block of rows at a time as it is used,
the sampling buffers go before the statistics, and the statistics are written
over the sums they come from.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .data_model import NoiseModel, SnapshotSet
from .errors import ConfigError, DimensionMismatch, SingularGram
from . import numerics
from .numerics import (
    RowTable, product_eigenvalues, product_rows, row_blocks, slice_workers, spd_inverses,
)
from .operator_moments import PAPER_LITERAL, check_tables, gram_inverse
from .pinv_moments import JENSEN_SLACK, _check_inputs, gram_complement_inverses
from .spectral import EigenSampleSet, pulled_spectra

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
        _check_seed(self.master_seed, "master_seed")


def _check_seed(seed: int, name: str) -> None:
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"{name} must fit in 64 unsigned bits")


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
    standard_errors: McStandardErrors
    eigen_samples: np.ndarray | None
    trials: int
    failed_trials: int
    sampling_mode: str
    master_seed: int

    def __post_init__(self):
        jensen = self.pinv_second_raw - self.pinv_mean**2
        if jensen.min() < -JENSEN_SLACK:
            raise DimensionMismatch("sample second moments below squared means")


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
    # Trials per chunk, from the problem shape only.  A chunk's power sums join the
    # running sums as one partial sum, so the chunk size fixes the rounding and must
    # not change: it keeps this formula, not row_blocks, with its m n^2 and m^2 terms,
    # though no buffer holds a chunk's draws or operators.
    return max(1, min(4096, numerics._CHUNK_SCALARS // max(m * n * n, m * m)))


class _MomentAccumulator:
    """Power sums of (value - centre) up to fourth order, per element.  The centre is a
    ``numerics.RowTable``: its rows are read, at one BLAS thread, only as they are used."""

    def __init__(self, centre: RowTable):
        self.centre = centre
        self.sums = np.zeros((4,) + centre.shape)

    def add_block(self, d: np.ndarray, lo: int) -> None:
        # ``d`` holds elements lo:lo + d.shape[1] of the first axis for each trial; each
        # is summed over the trials in order, so any split gives the same bits.
        # Overwrites ``d``.
        hi = lo + d.shape[1]
        with numerics._one_blas_thread():  # shares the pin of a caller that holds one
            d -= self.centre.rows(lo, hi)
        d2 = d * d
        self.sums[0][lo:hi] += d.sum(axis=0)
        self.sums[1][lo:hi] += d2.sum(axis=0)
        d *= d2
        self.sums[2][lo:hi] += d.sum(axis=0)
        d2 *= d2
        self.sums[3][lo:hi] += d2.sum(axis=0)

    def statistics(self, count: int, raw_second: bool = True) -> tuple:
        """``(mean, second_raw, se_mean, se_second)``, or ``(mean, variance, se_mean,
        se_variance)`` unless ``raw_second``: views of the four sums, which they overwrite,
        so the accumulator is spent.  Written in blocks of an eighth of a table row block,
        so the temporaries stay near 1 MB (8.6 floats per element measured)."""
        with numerics._one_blas_thread():
            for a, b in row_blocks(len(self.sums[0]), 8 * self.sums[0][0].size):
                _block_statistics(self.centre.rows(a, b), self.sums[:, a:b], count, raw_second)
        return tuple(self.sums)


def _block_statistics(c: np.ndarray, sums: np.ndarray, count: int, raw_second: bool) -> None:
    # Every output is formed from the block's sums before any of them is overwritten.
    s1, s2, s3, s4 = sums / count
    dvar = np.maximum((sums[1] - sums[0] ** 2 / count) / (count - 1), 0.0)
    sums[0], sums[2] = c + s1, np.sqrt(dvar / count)
    if raw_second:
        sums[1] = c**2 + 2.0 * c * s1 + s2
        # Var(x**2) for x = c + d, from the sums of d: no O(c**4) terms cancel.
        var_sq = 4.0 * c**2 * (s2 - s1**2) + 4.0 * c * (s3 - s1 * s2) + (s4 - s2**2)
        sums[3] = np.sqrt(np.maximum(var_sq, 0.0) / count)
    else:
        m4 = s4 - 4.0 * s1 * s3 + 6.0 * s1**2 * s2 - 3.0 * (s1**2) ** 2
        sums[1], sums[3] = dvar, np.sqrt(np.maximum(m4 - dvar**2, 0.0) / count)


def run_mc(snapshots: SnapshotSet, noise: NoiseModel, config: McConfig | None = None,
           ridge: float = 0.0) -> McSummary:
    """Sample N trials and summarize pseudoinverse and operator moments."""
    config = config or McConfig()
    X, Y = snapshots.states, snapshots.shifted
    n, m = X.shape
    _check_inputs(X, noise, ridge)
    if config.compute_eigenvalues:
        size = 2 * config.trials * m  # complex: 2 floats each
        numerics.check_table_size(size, f"{config.trials} trials of {m} eigenvalues (turn "
                                  f"mc.compute_eigenvalues off to keep none) ask for {size}")

    with numerics._one_blas_thread():
        pinv_point = (gram_inverse(X, ridge) @ X).T  # (m, n)
    # The operator's centre pinv_point @ Y is never formed whole: its rows are made as used.
    pinv_acc = _MomentAccumulator(RowTable((m, n), lambda a, b, out=None: pinv_point[a:b]))
    op_acc = _MomentAccumulator(RowTable((m, m), functools.partial(product_rows, pinv_point, Y)))
    eigen = np.empty((config.trials, m), dtype=complex) if config.compute_eigenvalues else None
    kept = _add_trials(snapshots, noise, config, ridge, pinv_acc, op_acc, eigen)

    failed_count = config.trials - kept
    if failed_count > _FAILURE_FRACTION * config.trials:
        raise SingularGram(f"{failed_count} of {config.trials} trials failed (> "
                           f"{_FAILURE_FRACTION:.0%}): their Gram matrix has no Cholesky factor")
    if failed_count:
        logger.warning("%d of %d trials had singular Gram matrices", failed_count, config.trials)
    p_mean, p_second, p_se_mean, p_se_second = pinv_acc.statistics(kept)
    o_mean, o_var, o_se_mean, o_se_var = op_acc.statistics(kept, raw_second=False)

    return McSummary(
        pinv_mean=p_mean,
        pinv_second_raw=p_second,
        operator_mean=o_mean,
        operator_variance=o_var,
        standard_errors=McStandardErrors(p_se_mean, p_se_second, o_se_mean, o_se_var),
        eigen_samples=None if eigen is None else eigen[:kept],
        trials=config.trials,
        failed_trials=failed_count,
        sampling_mode=config.sampling_mode,
        master_seed=config.master_seed,
    )


def _add_trials(snapshots: SnapshotSet, noise: NoiseModel, config: McConfig, ridge: float,
                pinv_acc: _MomentAccumulator, op_acc: _MomentAccumulator,
                eigen: np.ndarray | None) -> int:
    """Draw the trials chunk by chunk, add their power sums to ``pinv_acc`` and ``op_acc`` and
    their spectra to the first rows of ``eigen`` (when given); return how many were kept.
    The sampling buffers are its own, so they go before the statistics are written."""
    X, Y = snapshots.states, snapshots.shifted
    n, m = X.shape
    sigma_L = noise.covariance_factor
    y_std = np.sqrt(noise.variances)

    n_trials = config.trials
    chunk = min(_chunk_size(m, n), n_trials)
    independent = config.sampling_mode == INDEPENDENT
    y_buf, pinv_buf = np.empty((chunk, n, m)), np.empty((chunk, m, n))
    if independent:
        r_stack, singular = gram_complement_inverses(X, ridge, np.arange(m))
        if singular:
            raise singular[0][1]
        # Scratch blocks: runs of trials by their m n (n + 1) draws, times columns t by the
        # 2 n^2 that z and x hold of each (Y after the last).  A run holds several trials only
        # if a trial fits the budget, and then its columns do too: a trial spanning several
        # column blocks is a run of its own, and its stream goes on from each block to the next.
        # Measured: 2.44 n^2 floats per trial and column at n = 34, Y's draws and a ufunc
        # buffer included.
        col_blocks = row_blocks(m, 2 * n * n)
        cols = max(t1 - t0 for t0, t1 in col_blocks)
    else:
        z_buf = np.empty((chunk, n, m + 1))

    def sample_slice(start: int, lo: int, hi: int) -> np.ndarray:
        """Fill rows ``lo:hi`` of the chunk buffers; return which of those trials have a
        Gram matrix with a Cholesky factor (all, in independent mode)."""
        rng = np.random.Generator(np.random.Philox(0))  # one per slice, reset per trial
        if independent:
            runs = [(lo + a, lo + b) for a, b in row_blocks(hi - lo, m * n * (n + 1))]
            trials, width = max(i1 - i0 for i0, i1 in runs), cols * n * n
            z, x = np.empty((trials, width + n * m)), np.empty(trials * width)
            for (i0, i1), (t0, t1) in itertools.product(runs, col_blocks):
                shape, size = (i1 - i0, t1 - t0, n, n), (t1 - t0) * n * n
                for i in range(i0, i1):  # a trial's stream: its columns in order, then Y
                    if t0 == 0:
                        _restart(rng, config.master_seed, start + i)
                    rng.standard_normal(out=z[i - i0, : size + n * m * (t1 == m)])
                if t1 == m:
                    y_buf[i0:i1] = z[: i1 - i0, size : size + n * m].reshape(-1, n, m)
                zx, x_cols = z[: i1 - i0, :size].reshape(shape), x[: np.prod(shape)].reshape(shape)
                np.matmul(zx, sigma_L.T, out=x_cols)
                x_cols += X.T[t0:t1, None, :]
                # Element (t, k) uses its own column draw x: (R_t x)_k / (1 + x.T R_t x).
                # Row k of x_cols @ R_t is x.T R_t, whose entry k is (R_t.T x)_k = (R_t x)_k.
                rx = np.matmul(x_cols, r_stack[t0:t1], out=zx)  # the draws are spent
                den = 1.0 + np.einsum("ctke,ctke->ctk", rx, x_cols)
                np.divide(rx.diagonal(axis1=2, axis2=3), den, out=pinv_buf[i0:i1, t0:t1])
            y_draws = y_buf[lo:hi]
            y_draws *= y_std[:, None]
            y_draws += Y
            return np.ones(hi - lo, dtype=bool)
        for i in range(lo, hi):
            _restart(rng, config.master_seed, start + i)
            rng.standard_normal(out=z_buf[i])
        noisy = snapshots.samples[None] + np.einsum("de,cem->cdm", sigma_L, z_buf[lo:hi])
        x_t = noisy[:, :, :m]
        y_buf[lo:hi] = noisy[:, :, 1:]
        grams = x_t @ x_t.transpose(0, 2, 1)
        grams += ridge * np.eye(n)
        inverses, positive = spd_inverses(grams)
        np.matmul(x_t.transpose(0, 2, 1), inverses, out=pinv_buf[lo:hi])
        return positive

    kept = 0  # trials kept so far: the rows of eigen filled
    with slice_workers() as map_slices:  # one pool and one BLAS pin for every chunk
        for start in range(0, n_trials, chunk):
            count = min(chunk, n_trials - start)
            ok = np.concatenate(map_slices(lambda lo, hi: sample_slice(start, lo, hi), count))
            pinv_tables, y_draws = pinv_buf[:count], y_buf[:count]
            if not ok.all():  # trials whose Gram has no Cholesky factor are dropped
                pinv_tables, y_draws = pinv_tables[ok], y_draws[ok]
            if eigen is not None:  # before add_block overwrites the tables
                eigen[kept : kept + len(pinv_tables)] = product_eigenvalues(pinv_tables, y_draws)
            kept += len(pinv_tables)

            def add_rows(a: int, b: int) -> None:
                op_acc.add_block(product_rows(pinv_tables, y_draws, a, b), a)
                pinv_acc.add_block(pinv_tables[:, a:b], a)  # last: it overwrites the tables

            # A block's operator rows d and their squares d2 are its two temporaries (2.13
            # measured, with the centre's rows).
            blocks = row_blocks(m, 2 * len(pinv_tables) * m)
            map_slices(lambda lo, hi: [add_rows(a, b) for a, b in blocks[lo:hi]], len(blocks))
    return kept


def _instance_draws(first: np.ndarray, second_central: np.ndarray, count: int, seed: int):
    """Check ``count`` and ``seed``, then return ``take(start, stop)``, which draws the next
    ``stop - start`` of ``count`` instances from the one ``trial_rng(seed, 0)`` stream.

    Entry (i, j) of each instance is N(first[i][j], max(second_central[i][j], 0)), for
    tables passed by ``operator_moments.check_tables``.  Batches taken in
    order concatenate to a single draw of ``count`` instances bit for bit.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    _check_seed(seed, "seed")
    std, rng = np.clip(second_central, 0.0, None), trial_rng(seed, 0)
    np.sqrt(std, out=std)

    def take(start: int, stop: int) -> np.ndarray:
        draws = rng.standard_normal((stop - start,) + std.shape)
        draws *= std
        draws += first
        return draws

    return take


def sample_operator_instances(first: np.ndarray, second_central: np.ndarray, count: int,
                              seed: int, clamp_negative: bool = False) -> np.ndarray:
    """Draw operator instances, entry (i, j) of each an independent N(first[i][j],
    second_central[i][j]), once ``operator_moments.check_tables`` has passed the tables,
    given ``clamp_negative``: a negative variance draws as zero."""
    check_tables(first, second_central, PAPER_LITERAL, clamp_negative)
    return _instance_draws(first, second_central, count, seed)(0, count)


def sample_operator_spectra(first: np.ndarray, second_central: np.ndarray, count: int,
                            seed: int) -> EigenSampleSet:
    """Sorted spectra of ``count`` instances drawn as by :func:`sample_operator_instances`,
    bit for bit ``eigen_samples(sample_operator_instances(...))``, of checked tables.

    Each slice of :func:`spectral.pulled_spectra` draws its own batch, in turn,
    so memory holds ``first``, the std table, a batch per slice and the ``count x m``
    spectra, whatever ``count`` is: ``second_central`` is dropped once the std table
    is formed, and freed then if the caller passed its last reference.
    """
    take = _instance_draws(first, second_central, count, seed)
    del second_central
    return pulled_spectra(count, len(first), take)
