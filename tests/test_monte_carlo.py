import logging
import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    element_context, fixed_blas_workers, forbid_worker_threads, openblas_threads,
    snapshots_from_trajectory_matrix, spectra_batches,
)

from dmduq import monte_carlo, numerics, spectral
from dmduq.data_model import NoiseModel
from dmduq.errors import (
    ConfigError,
    ConvergenceFailure,
    DimensionMismatch,
    NegativeVarianceInput,
    SingularGram,
)
from dmduq.monte_carlo import (
    INDEPENDENT,
    SHARED_TRAJECTORY,
    McConfig,
    _chunk_size,
    run_mc,
    sample_operator_instances,
    sample_operator_spectra,
    trial_rng,
)
from dmduq.operator_moments import (
    CORRECTED,
    dmd_point_estimate,
    estimate_operator_moments,
    gram_inverse,
)
from dmduq.numerics import product_eigenvalues, spd_inverses
from dmduq.pinv_moments import (
    QuadratureConfig,
    first_moment_element,
    gram_complement_inverses,
)
from dmduq.spectral import eigen_samples


@pytest.fixture(scope="module")
def toy_system():
    rng = np.random.default_rng(21)
    snaps = snapshots_from_trajectory_matrix(rng.standard_normal((2, 9)))
    rms = np.sqrt((snaps.states**2).mean(axis=1))
    noise = NoiseModel(variances=(0.05 * rms) ** 2)
    return snaps, noise


class TestTrialRng:
    def test_distinct_trials_distinct_streams(self):
        a = trial_rng(5, 0).standard_normal(4)
        b = trial_rng(5, 1).standard_normal(4)
        assert not np.allclose(a, b)

    def test_reproducible(self):
        a = trial_rng(5, 3).standard_normal(4)
        b = trial_rng(5, 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_keyed_philox_stream(self):
        # A reused generator restarted mid-stream, with a 32-bit half word
        # buffered, draws what a new Philox keyed by (seed, trial) draws.
        key = np.array([5, 3], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key))
        rng = trial_rng(5, 0)
        rng.integers(0, 7, size=3, dtype=np.uint32)
        rng.standard_normal(5)
        assert rng.bit_generator.state["has_uint32"] == 1
        monte_carlo._restart(rng, 5, 3)
        for draw in (
            lambda g: g.random(3, dtype=np.float32),  # 32-bit draws
            lambda g: g.bit_generator.random_raw(5),
            lambda g: g.standard_normal(9),
        ):
            assert np.array_equal(draw(rng), draw(want))


class TestChunkSize:
    def test_operator_stack_within_budget(self):
        # At m = 200, n = 2 the m x m term, not the m n^2 one, sets the chunk
        # size, which fixes the rounding; no buffer holds the chunk's operators.
        assert _chunk_size(200, 2) * 200**2 <= numerics._CHUNK_SCALARS

    def test_draws_within_budget(self):
        assert _chunk_size(400, 34) * 400 * 34**2 <= numerics._CHUNK_SCALARS


class TestRunMcDeterminism:
    def test_same_seed_bit_identical(self, toy_system):
        snaps, noise = toy_system
        cfg = McConfig(trials=500, master_seed=9)
        a = run_mc(snaps, noise, cfg)
        b = run_mc(snaps, noise, cfg)
        assert np.array_equal(a.pinv_mean, b.pinv_mean)
        assert np.array_equal(a.operator_variance, b.operator_variance)
        assert np.array_equal(a.eigen_samples, b.eigen_samples)

    def test_thread_count_invariant(self, toy_system):
        snaps, noise = toy_system
        cfg = McConfig(trials=2000, master_seed=9)
        with openblas_threads(1):
            a = run_mc(snaps, noise, cfg)
        with openblas_threads(4):
            b = run_mc(snaps, noise, cfg)
        assert np.array_equal(a.pinv_mean, b.pinv_mean)
        assert np.array_equal(a.pinv_second_raw, b.pinv_second_raw)
        assert np.array_equal(a.operator_mean, b.operator_mean)
        assert np.array_equal(a.operator_variance, b.operator_variance)
        assert np.array_equal(a.eigen_samples, b.eigen_samples)

    def test_memory_flat_in_trials(self, toy_system, monkeypatch):
        # Chunks of 2 trials, each accumulated as it is done: the peak holds
        # a few chunks whatever the trial count.  Collecting every chunk's
        # pair of accumulators first would keep 16 of them at 32 trials and
        # 256 at 512, about 1.3 MB.
        snaps, noise = toy_system
        m, n = snaps.snapshot_count, snaps.state_count
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 2 * m * m)
        peaks = []
        for trials in (32, 512):
            cfg = McConfig(trials=trials, master_seed=2, compute_eigenvalues=False)
            tracemalloc.start()
            try:
                run_mc(snaps, noise, cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        retained_per_chunk = 2 * 4 * (m * m + m * n) * 8
        assert peaks[1] < 1.25 * peaks[0]
        assert peaks[1] < 256 * retained_per_chunk / 4

    def test_eigenvalues_fill_one_table(self, toy_system, monkeypatch):
        # Chunks of 64 trials write their spectra into one trials x m table, so eigenvalues
        # add that table to the peak, not a list of chunk parts and then their stack too.
        snaps, noise = toy_system
        m = snaps.snapshot_count
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 64 * m * m)
        peaks = {}
        for eigen in (False, True):
            cfg = McConfig(trials=4096, master_seed=3, compute_eigenvalues=eigen)
            tracemalloc.start()
            try:
                summary = run_mc(snaps, noise, cfg)
                _, peaks[eigen] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert summary.eigen_samples.shape == (4096, m)
        assert peaks[True] - peaks[False] < 1.25 * summary.eigen_samples.nbytes

    def test_different_seeds_differ(self, toy_system):
        snaps, noise = toy_system
        a = run_mc(snaps, noise, McConfig(trials=200, master_seed=1))
        b = run_mc(snaps, noise, McConfig(trials=200, master_seed=2))
        assert not np.allclose(a.operator_mean, b.operator_mean, atol=0)


class TestRunMcStatistics:
    def test_vanishing_noise_collapses(self, toy_system):
        snaps, _ = toy_system
        tiny = NoiseModel(variances=np.full(2, 1e-30))
        summary = run_mc(snaps, tiny, McConfig(trials=100, master_seed=0))
        point = dmd_point_estimate(snaps).operator
        assert np.abs(summary.operator_mean - point).max() <= 1e-10
        assert summary.operator_variance.max() <= 1e-20

    def test_scalar_toy_matches_quadrature(self):
        # E[x / (4 + x^2)] for x ~ N(1, 0.04): quadrature value against the
        # sampled mean within 3 standard errors.
        snaps = snapshots_from_trajectory_matrix([[1.0, 2.0, 3.0]])
        noise = NoiseModel(variances=np.array([0.04]))
        summary = run_mc(snaps, noise, McConfig(trials=200_000, master_seed=2))
        ctx = element_context(np.array([[0.25]]), np.array([1.0]), noise, k=0)
        exact = first_moment_element(ctx, QuadratureConfig())
        se = summary.standard_errors.pinv_mean[0, 0]
        assert abs(summary.pinv_mean[0, 0] - exact) <= 3.0 * se

    def test_independent_mode_verifies_moment_tables(self, toy_system):
        snaps, noise = toy_system
        om = estimate_operator_moments(snaps, noise, mode=CORRECTED)
        summary = run_mc(snaps, noise, McConfig(trials=50_000, master_seed=4))
        z_mean = np.abs(om.first - summary.operator_mean) / summary.standard_errors.operator_mean
        z_var = np.abs(om.second_central - summary.operator_variance) / (
            summary.standard_errors.operator_variance
        )
        assert z_mean.max() <= 4.0
        assert z_var.max() <= 4.0

    def test_mode_separation_recorded(self, toy_system):
        # With large noise the two sampling modes must differ measurably;
        # the magnitude is recorded, not pinned.
        snaps, _ = toy_system
        big = NoiseModel(variances=np.full(2, 0.25))
        ind = run_mc(snaps, big, McConfig(trials=4000, master_seed=5, sampling_mode=INDEPENDENT))
        shared = run_mc(
            snaps, big, McConfig(trials=4000, master_seed=5, sampling_mode=SHARED_TRAJECTORY)
        )
        gap = np.abs(ind.pinv_mean - shared.pinv_mean).max()
        print(f"mode separation (max pinv mean gap at 50% noise): {gap:.3e}")
        assert np.isfinite(gap)
        assert gap > 0.0

    def test_shared_trajectory_deterministic(self, toy_system):
        snaps, noise = toy_system
        cfg = McConfig(trials=300, master_seed=8, sampling_mode=SHARED_TRAJECTORY)
        a = run_mc(snaps, noise, cfg)
        b = run_mc(snaps, noise, cfg)
        assert np.array_equal(a.operator_variance, b.operator_variance)

    def test_jensen_holds_on_summaries(self, toy_system):
        snaps, noise = toy_system
        summary = run_mc(snaps, noise, McConfig(trials=500, master_seed=10))
        assert (summary.pinv_second_raw - summary.pinv_mean**2).min() >= -1e-12
        assert summary.operator_variance.min() >= 0.0

    def test_eigen_samples_shape_and_order(self, toy_system):
        snaps, noise = toy_system
        summary = run_mc(snaps, noise, McConfig(trials=64, master_seed=11))
        m = snaps.snapshot_count
        assert summary.eigen_samples.shape == (64, m)
        mags = np.abs(summary.eigen_samples)
        assert np.all(np.diff(mags, axis=1) <= 1e-12)

    @pytest.mark.parametrize("mode", [INDEPENDENT, SHARED_TRAJECTORY])
    def test_eigen_samples_match_rebuilt_trials(self, toy_system, mode):
        # Rebuild every trial from its public stream and eigendecompose the
        # full m x m operator: the leading n eigenvalues must agree, the
        # remaining m - n must be exact zeros.
        snaps, noise = toy_system
        X, Y = snaps.states, snaps.shifted
        n, m = X.shape
        sigma_L = np.linalg.cholesky(noise.covariance())
        trials = 4
        summary = run_mc(snaps, noise, McConfig(trials=trials, master_seed=13, sampling_mode=mode))
        tables = []
        for trial in range(trials):
            rng = trial_rng(13, trial)
            if mode == INDEPENDENT:
                zx = rng.standard_normal((m, n, n))
                zy = rng.standard_normal((n, m))
                table = np.empty((m, n))
                for t in range(m):
                    r = np.linalg.inv(X @ X.T - np.outer(X[:, t], X[:, t]))
                    for k in range(n):
                        x = X[:, t] + sigma_L @ zx[t, k]
                        table[t, k] = (r @ x)[k] / (1.0 + x @ r @ x)
                y_t = Y + np.sqrt(noise.variances)[:, None] * zy
            else:
                noisy = snaps.samples + sigma_L @ rng.standard_normal((n, m + 1))
                x_t, y_t = noisy[:, :m], noisy[:, 1:]
                table = np.linalg.solve(x_t @ x_t.T, x_t).T
            tables.append(table)
            full = np.linalg.eigvals(table @ y_t)
            want = full[np.lexsort((-full.real, -full.imag, -np.abs(full)))]
            got = summary.eigen_samples[trial]
            assert np.abs(got[:n] - want[:n]).max() <= 1e-10 * np.abs(full).max()
            assert np.all(got[n:] == 0)
        mean = np.mean(tables, axis=0)
        assert np.abs(summary.pinv_mean - mean).max() <= 1e-12 * np.abs(mean).max()

    def test_eigen_samples_disabled(self, toy_system):
        snaps, noise = toy_system
        summary = run_mc(
            snaps, noise, McConfig(trials=50, master_seed=12, compute_eigenvalues=False)
        )
        assert summary.eigen_samples is None

    def test_all_trials_failing_aborts(self, toy_system, monkeypatch):
        snaps, noise = toy_system

        def no_factor(stack):
            return np.full_like(stack, np.nan), np.zeros(len(stack), dtype=bool)

        monkeypatch.setattr(monte_carlo, "spd_inverses", no_factor)
        cfg = McConfig(trials=100, master_seed=0, sampling_mode=SHARED_TRAJECTORY)
        with pytest.raises(SingularGram, match=r"100 of 100 trials failed \(> 1%\)"):
            run_mc(snaps, noise, cfg)

    def test_full_covariance_supported(self, toy_system):
        snaps, _ = toy_system
        cov = np.array([[0.002, 0.001], [0.001, 0.004]])
        noise = NoiseModel(variances=np.diag(cov), full_covariance=cov)
        cfg = McConfig(trials=400, master_seed=6)
        a = run_mc(snaps, noise, cfg)
        b = run_mc(snaps, noise, cfg)
        assert np.array_equal(a.pinv_mean, b.pinv_mean)
        assert (a.pinv_second_raw - a.pinv_mean**2).min() >= -1e-12

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            McConfig(trials=1)
        with pytest.raises(ConfigError):
            McConfig(sampling_mode="bogus")


class TestSingularGram:
    """A rank-deficient X has no Gram factor: every X.T inv(X X.T) consumer says so."""

    @pytest.fixture()
    def rank_one(self):
        row = np.random.default_rng(30).standard_normal(9)
        snaps = snapshots_from_trajectory_matrix(np.vstack([row, 2.0 * row]))
        return snaps, NoiseModel(variances=np.array([1e-4, 1e-4]))

    @pytest.mark.parametrize("mode", [INDEPENDENT, SHARED_TRAJECTORY])
    def test_run_mc(self, rank_one, mode):
        snaps, noise = rank_one
        cfg = McConfig(trials=20, sampling_mode=mode)
        with pytest.raises(SingularGram):
            run_mc(snaps, noise, cfg)
        summary = run_mc(snaps, noise, cfg, ridge=1e-2)
        assert np.all(np.isfinite(summary.operator_mean))

    def test_run_mc_names_a_leverage_one_column(self):
        # x1 is nonzero at t = 3 only: X X.T is nonsingular, but the Gram complement of
        # column 3 has an all-zero x1 row (leverage h_t = 1).
        samples = np.vstack([np.eye(10)[3], 1.0 + 0.5 * np.arange(10)])
        snaps = snapshots_from_trajectory_matrix(samples)
        noise = NoiseModel(variances=np.array([1e-6, 1e-6]))
        assert np.linalg.matrix_rank(snaps.states @ snaps.states.T) == 2
        with pytest.raises(SingularGram, match=r"column t=3 .* h_t = 1 "):
            run_mc(snaps, noise, McConfig(trials=20))

    def test_rank_deficient_trial_dropped_without_ridge(self, toy_system, monkeypatch):
        # Trial 9's first noisy state is exactly zero, so its Gram matrix has a zero
        # row: no Cholesky factor at ridge 0, one at any ridge > 0.
        snaps, _ = toy_system
        m = snaps.states.shape[1]
        noise = NoiseModel(variances=np.array([0.25, 0.25]))  # covariance factor 0.5 I, exactly
        first_state = snaps.samples[0]

        class Rigged(np.random.Generator):
            def standard_normal(self, *args, out=None, **kwargs):
                draws = super().standard_normal(*args, out=out, **kwargs)
                if self.bit_generator.state["state"]["key"][1] == 9:
                    draws[0] = -2.0 * first_state
                return draws

        monkeypatch.setattr(np.random, "Generator", Rigged)
        cfg = McConfig(trials=120, master_seed=3, sampling_mode=SHARED_TRAJECTORY)
        dropped = run_mc(snaps, noise, cfg)
        assert dropped.failed_trials == 1
        assert dropped.eigen_samples.shape == (119, m)
        kept = run_mc(snaps, noise, cfg, ridge=1e-3)
        assert kept.failed_trials == 0
        assert kept.eigen_samples.shape == (120, m)

    def test_point_estimate(self, rank_one):
        snaps, _ = rank_one
        with pytest.raises(SingularGram):
            dmd_point_estimate(snaps)
        assert np.all(np.isfinite(dmd_point_estimate(snaps, ridge=1e-2).operator))


def _summary_arrays(summary):
    se = summary.standard_errors
    return [
        summary.pinv_mean, summary.pinv_second_raw, summary.operator_mean,
        summary.operator_variance, se.pinv_mean, se.pinv_second_raw, se.operator_mean,
        se.operator_variance, summary.eigen_samples,
    ]


class TestRunMcWorkers:
    """Trial slices and element slices split over 1, 2 or 3 workers."""

    @pytest.mark.parametrize("workers", [2, 3, 8])
    @pytest.mark.parametrize("mode", [INDEPENDENT, SHARED_TRAJECTORY])
    def test_bits_independent_of_workers(self, toy_system, monkeypatch, mode, workers):
        # m = 8, n = 2: chunks of 4, 4 and 2 trials; the last is shorter than
        # 3 workers.  8 workers, more than the cores, switch threads often.
        snaps, noise = toy_system
        cfg = McConfig(trials=10, master_seed=4, sampling_mode=mode)
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 4 * 8 * 8)
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(1))
        want = run_mc(snaps, noise, cfg)
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(workers))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_mc(snaps, noise, cfg)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(_summary_arrays(got), _summary_arrays(want)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", [INDEPENDENT, SHARED_TRAJECTORY])
    def test_eigenvalues_once_per_chunk_in_calling_thread(self, toy_system, monkeypatch, mode):
        # m = 8, n = 2: chunks of 4, 4 and 2 trials over 2 workers; each chunk's spectra
        # come from one product_eigenvalues call in the thread that called run_mc.
        snaps, noise = toy_system
        cfg = McConfig(trials=10, master_seed=4, sampling_mode=mode)
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 4 * 8 * 8)
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(1))
        want = run_mc(snaps, noise, cfg)
        calls = []

        def recorded(left, right):
            calls.append((threading.get_ident(), len(left)))
            return product_eigenvalues(left, right)

        monkeypatch.setattr(monte_carlo, "product_eigenvalues", recorded)
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(2))
        got = run_mc(snaps, noise, cfg)
        assert calls == [(threading.get_ident(), trials) for trials in (4, 4, 2)]
        for a, b in zip(_summary_arrays(got), _summary_arrays(want)):
            assert np.array_equal(a, b)

    def test_one_singular_trial(self, toy_system, monkeypatch):
        # Trial 9 of 120 (chunk 2 of 7 trials, position 2) has a singular Gram
        # matrix: it is dropped from every table, whatever slice it lands in.
        snaps, noise = toy_system
        n, m = snaps.states.shape
        base = trial_rng(3, 9).standard_normal((n, m + 1))
        sigma_l = np.linalg.cholesky(noise.covariance())
        x = (snaps.samples + sigma_l @ base)[:, :m]
        target = x @ x.T
        cholesky = np.linalg.cholesky

        def singular_on_target(a):
            grams = np.asarray(a).reshape((-1, n, n))
            if any(np.allclose(g, target, rtol=1e-9, atol=0.0) for g in grams):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", singular_on_target)
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 7 * m * m)
        cfg = McConfig(trials=120, master_seed=3, sampling_mode=SHARED_TRAJECTORY)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(workers))
            runs.append(run_mc(snaps, noise, cfg))
        for summary in runs:
            assert summary.failed_trials == 1
            assert summary.eigen_samples.shape == (119, m)
            for a, b in zip(_summary_arrays(summary), _summary_arrays(runs[0])):
                assert np.array_equal(a, b)

    def test_statistics_blocks_match_whole_tables(self, monkeypatch):
        # The element-wise formulas on whole tables are the reference.  statistics() writes
        # over the sums, so each return has an accumulator of its own.
        rng = np.random.default_rng(8)
        c = np.asfortranarray(rng.standard_normal((9, 5)))
        values = c + 0.1 * rng.standard_normal((6, 9, 5))
        accs = {raw_second: _accumulator(c) for raw_second in (True, False)}
        for acc in accs.values():
            acc.add_block(values.copy(), 0)
        count, sums = 6, accs[True].sums.copy()
        s1, s2, s3, s4 = (s / count for s in sums)
        dvar = np.maximum((sums[1] - sums[0] ** 2 / count) / (count - 1), 0.0)
        var_sq = 4.0 * c**2 * (s2 - s1**2) + 4.0 * c * (s3 - s1 * s2) + (s4 - s2**2)
        m4 = s4 - 4.0 * s1 * s3 + 6.0 * s1**2 * s2 - 3.0 * (s1**2) ** 2
        want = {
            True: (c + s1, c**2 + 2.0 * c * s1 + s2, np.sqrt(dvar / count),
                   np.sqrt(np.maximum(var_sq, 0.0) / count)),
            False: (c + s1, dvar, np.sqrt(dvar / count),
                    np.sqrt(np.maximum(m4 - dvar**2, 0.0) / count)),
        }
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 8 * 32 * 2 * 5)  # blocks of 2 rows
        forbid_worker_threads(monkeypatch)  # the blocks run in order in this thread
        for raw_second, acc in accs.items():
            got = acc.statistics(count, raw_second)
            assert len(got) == 4
            for table, a, b in zip(acc.sums, got, want[raw_second]):
                assert np.shares_memory(a, table)  # written over the spent sums
                assert np.array_equal(a, b)

    @staticmethod
    def _se_second(values, centre):
        acc = _accumulator(np.full((1, 1), centre))
        acc.add_block(values.copy(), 0)
        return acc.statistics(len(values))[3][0, 0]

    def test_se_second_against_exact_arithmetic(self):
        # x = c + d with c = 1e3 and d ~ N(0, 1e-6): Var(x**2) is about 4e-6 * c**2, while
        # E[x**4] - E[x**2]**2 cancels twelve digits of c**4.
        c, count = 1e3, 1000
        values = c + 1e-3 * np.random.default_rng(5).standard_normal((count, 1, 1))
        squares = [Fraction(float(x)) ** 2 for x in values.ravel()]
        mean_sq = sum(squares) / count
        exact = math.sqrt(sum((q - mean_sq) ** 2 for q in squares) / count / count)
        assert abs(self._se_second(values, c) / exact - 1.0) <= 1e-13

    def test_se_second_stable_under_the_centre(self):
        values = 1e3 + 1e-3 * np.random.default_rng(6).standard_normal((1000, 1, 1))
        here = self._se_second(values, 1e3)
        moved = self._se_second(values, np.nextafter(1e3, np.inf))
        assert abs(moved / here - 1.0) <= 1e-12

    @pytest.mark.parametrize("raw_second", [True, False])
    def test_statistics_memory(self, monkeypatch, raw_second):
        # statistics() writes its tables over the sums, so it holds only the temporaries
        # of one block of 4 rows; on whole tables they were about a dozen tables.
        m, rows = 200, 4
        rng = np.random.default_rng(1)
        acc = _accumulator(rng.standard_normal((m, m)))
        acc.add_block(rng.standard_normal((3, m, m)), 0)
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 8 * 32 * rows * m)
        block_bytes = rows * m * 8
        tracemalloc.start()
        try:
            acc.statistics(3, raw_second)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * block_bytes

    @pytest.mark.parametrize("mode", [INDEPENDENT, SHARED_TRAJECTORY])
    def test_negative_ridge_rejected(self, toy_system, mode):
        snaps, noise = toy_system
        with pytest.raises(ConfigError, match="ridge must be >= 0"):
            run_mc(snaps, noise, McConfig(trials=4, sampling_mode=mode), ridge=-1.0)
        with pytest.raises(ConfigError, match="ridge must be >= 0"):
            dmd_point_estimate(snaps, ridge=-1.0)


def _accumulator(centre):
    """A ``_MomentAccumulator`` about a centre held whole, its rows read as slices."""
    return monte_carlo._MomentAccumulator(
        numerics.RowTable(centre.shape, lambda a, b, out=None: centre[a:b]))


def _whole_chunk_reference(snaps, noise, cfg):
    """``_summary_arrays`` of run_mc from whole-chunk formulas: each chunk's draws
    held at once (one draw call per trial), its power sums added as whole tables.
    Trials with a singular Gram matrix are dropped as run_mc drops them."""
    X, Y = snaps.states, snaps.shifted
    n, m = X.shape
    sigma_l, y_std = noise.covariance_factor, np.sqrt(noise.variances)
    pinv_point = (gram_inverse(X, 0.0) @ X).T
    accs = [_accumulator(c) for c in (pinv_point, pinv_point @ Y)]
    r_stack = gram_complement_inverses(X, 0.0, np.arange(m))[0]
    chunk, eig, failed = min(_chunk_size(m, n), cfg.trials), [], 0
    for start in range(0, cfg.trials, chunk):
        trials = range(start, min(start + chunk, cfg.trials))
        if cfg.sampling_mode == INDEPENDENT:
            z = np.stack([trial_rng(cfg.master_seed, i).standard_normal(m * n * n + n * m)
                          for i in trials])
            x_cols = z[:, : m * n * n].reshape(-1, m, n, n) @ sigma_l.T + X.T[:, None, :]
            rx = x_cols @ r_stack
            pinv = rx.diagonal(axis1=2, axis2=3) / (1.0 + np.einsum("ctke,ctke->ctk", rx, x_cols))
            y = z[:, m * n * n :].reshape(-1, n, m) * y_std[:, None] + Y
        else:
            z = np.stack([trial_rng(cfg.master_seed, i).standard_normal((n, m + 1))
                          for i in trials])
            noisy = snaps.samples + np.einsum("de,cem->cdm", sigma_l, z)
            x_t, y = noisy[:, :, :m], noisy[:, :, 1:]
            inverses, ok = spd_inverses(x_t @ x_t.transpose(0, 2, 1))
            failed += int((~ok).sum())
            pinv, y = (x_t.transpose(0, 2, 1) @ inverses)[ok], y[ok]
        eig.append(product_eigenvalues(pinv, y))
        operators = pinv @ y
        accs[0].add_block(pinv, 0)
        accs[1].add_block(operators, 0)

    p_mean, p_second, p_se_mean, p_se_second = accs[0].statistics(cfg.trials - failed)
    o_mean, o_var, o_se_mean, o_se_var = accs[1].statistics(cfg.trials - failed, False)
    return [p_mean, p_second, o_mean, o_var, p_se_mean, p_se_second, o_se_mean, o_se_var,
            np.vstack(eig)]


@pytest.fixture(scope="module")
def five_state_system():
    # n = 5, m = 30, with a full noise covariance.
    rng = np.random.default_rng(5)
    snaps = snapshots_from_trajectory_matrix(rng.standard_normal((5, 31)))
    b = 0.02 * rng.standard_normal((5, 5))
    return snaps, NoiseModel(variances=np.diag(b @ b.T), full_covariance=b @ b.T)


class TestRunMcBlocks:
    """Independent-mode draws in scratch blocks, power sums by row blocks, against
    whole-chunk formulas, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("system, chunk_scalars", [
        # n = 2, m = 8: blocks of 2 whole trials (budget 100 scalars, 48 per trial);
        # chunks of 50 and 25 trials, so some slices end in a block of one trial.
        ("toy_system", 32 * 100),
        # n = 2, m = 8: blocks of 3 columns of one trial (3, 3, 2); chunks of 6.
        ("toy_system", 32 * 12),
        # n = 5, m = 30: blocks of 7 columns (7, 7, 7, 7, 2); chunks of 6.
        ("five_state_system", 32 * 180),
    ])
    @pytest.mark.parametrize("mode", [INDEPENDENT, SHARED_TRAJECTORY])
    def test_matches_whole_chunk_formulas(self, request, monkeypatch, mode, system,
                                          chunk_scalars, workers):
        snaps, noise = request.getfixturevalue(system)
        cfg = McConfig(trials=75, master_seed=6, sampling_mode=mode)
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", chunk_scalars)
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(workers))
        got = run_mc(snaps, noise, cfg)
        for a, b in zip(_summary_arrays(got), _whole_chunk_reference(snaps, noise, cfg)):
            assert np.array_equal(a, b)

    def test_one_failed_trial_matches_whole_chunk_formulas(self, toy_system, monkeypatch):
        # Trial 9's Gram matrix is singular: its chunk (trials 6 to 11) has one row less.
        snaps, noise = toy_system
        n, m = snaps.states.shape
        z = trial_rng(3, 9).standard_normal((n, m + 1))
        target = (snaps.samples + noise.covariance_factor @ z)[:, :m]
        target = target @ target.T
        cholesky = np.linalg.cholesky

        def singular_on_target(a):
            if any(np.allclose(g, target, rtol=1e-9, atol=0.0) for g in np.reshape(a, (-1, n, n))):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", singular_on_target)
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 12)
        cfg = McConfig(trials=120, master_seed=3, sampling_mode=SHARED_TRAJECTORY)
        want = _whole_chunk_reference(snaps, noise, cfg)
        for workers in (1, 2):
            monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(workers))
            got = run_mc(snaps, noise, cfg)
            assert got.failed_trials == 1
            for a, b in zip(_summary_arrays(got), want):
                assert np.array_equal(a, b)

    def test_independent_draws_not_held_per_chunk(self):
        # n = 20, m = 40: a trial's 16,000 column draws outweigh its 1,600
        # operator entries, and 250 trials make one chunk whose draws would
        # take 32 MB.  Drawn through row-block-sized scratch, the run holds
        # the chunk's operators and tables, about a third of that.
        rng = np.random.default_rng(2)
        n, m, trials = 20, 40, 250
        snaps = snapshots_from_trajectory_matrix(rng.standard_normal((n, m + 1)))
        noise = NoiseModel(variances=np.full(n, 1e-4))
        assert _chunk_size(m, n) >= trials
        draws_bytes = trials * m * n * n * 8
        tracemalloc.start()
        try:
            run_mc(snaps, noise, McConfig(trials=trials, master_seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < draws_bytes


    @pytest.mark.parametrize("mode", [INDEPENDENT, SHARED_TRAJECTORY])
    def test_operators_not_held_per_chunk(self, monkeypatch, mode):
        # m = 200, n = 2: one chunk of 100 trials, whose m x m operators would take
        # 32 MB.  Formed one row block at a time, the run holds the accumulators,
        # the statistics tables and a few row blocks per worker, about 7 MB on 2.
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(2))
        rng = np.random.default_rng(3)
        n, m, trials = 2, 200, 100
        snaps = snapshots_from_trajectory_matrix(rng.standard_normal((n, m + 1)))
        noise = NoiseModel(variances=np.full(n, 1e-4))
        assert _chunk_size(m, n) == trials
        operators_bytes = trials * m * m * 8
        tracemalloc.start()
        try:
            run_mc(snaps, noise, McConfig(trials=trials, master_seed=1, sampling_mode=mode))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < operators_bytes / 3

    @pytest.mark.parametrize("mode", [INDEPENDENT, SHARED_TRAJECTORY])
    def test_power_sums_are_the_only_tables(self, monkeypatch, mode):
        # m = 600, n = 2: the operator's four power sums are the run's only m x m tables.
        # Its centre is made by row blocks, the sampling buffers go before the statistics,
        # and the statistics are written over the sums: 9.5 tables when each was whole.
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(2))
        rng = np.random.default_rng(4)
        n, m = 2, 600
        snaps = snapshots_from_trajectory_matrix(rng.standard_normal((n, m + 1)))
        noise = NoiseModel(variances=np.full(n, 1e-4))
        tracemalloc.start()
        try:
            run_mc(snaps, noise, McConfig(trials=20, master_seed=2, sampling_mode=mode))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * m * m * 8


class TestSampleOperatorInstances:
    def test_zero_variance_returns_mean(self):
        first = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = sample_operator_instances(first, np.zeros((2, 2)), count=5, seed=0)
        assert np.array_equal(out, np.broadcast_to(first, (5, 2, 2)))

    def test_fixed_seed_reproducible(self):
        moments = np.zeros((2, 2)), np.full((2, 2), 0.5)
        a = sample_operator_instances(*moments, count=10, seed=3)
        b = sample_operator_instances(*moments, count=10, seed=3)
        assert np.array_equal(a, b)

    def test_sample_variance_matches_parameters(self):
        variances = np.array([[0.09, 0.25], [1.0, 0.04]])
        first = np.array([[1.0, -2.0], [0.5, 3.0]])
        out = sample_operator_instances(first, variances, count=100_000, seed=7)
        sample_var = out.var(axis=0, ddof=1)
        assert np.abs(sample_var / variances - 1.0).max() <= 0.05

    def test_negative_variance_rejected_without_clamp(self):
        moments = np.zeros((1, 1)), np.array([[-1e-6]])
        with pytest.raises(NegativeVarianceInput):
            sample_operator_instances(*moments, count=3, seed=0)

    def test_negative_variance_clamped_when_enabled(self, caplog):
        moments = np.zeros((1, 1)), np.array([[-1e-6]])
        out = sample_operator_instances(*moments, count=3, seed=0, clamp_negative=True)
        assert np.array_equal(out, np.zeros((3, 1, 1)))

    def test_clamp_log_counts_every_entry_clamped(self, caplog):
        # -1e-13 passes the -1e-12 check but is clamped to zero with -1e-6.
        moments = np.zeros((1, 2)), np.array([[-1e-6, -1e-13]])
        with caplog.at_level(logging.WARNING, logger="dmduq.operator_moments"):
            out = sample_operator_instances(*moments, count=3, seed=0, clamp_negative=True)
        assert np.array_equal(out, np.zeros((3, 1, 2)))
        assert [r.getMessage() for r in caplog.records] == [
            "clamping 2 negative variance element(s) to zero"]

    @pytest.mark.parametrize("first, second", [
        (np.array([[0.5]]), np.full((2, 2), 0.01)),
        (np.eye(2), np.array([[0.01, np.nan], [0.01, 0.01]])),
        (np.array([[0.5, np.inf], [0.0, 0.5]]), np.full((2, 2), 0.01)),
    ], ids=["mean_1x1_variance_2x2", "nan_variance", "infinite_mean"])
    def test_tables_checked(self, first, second):
        # The tables must pass operator_moments.check_tables: a 1 x 1 mean would broadcast
        # over a 2 x 2 variance, and a non-finite entry would draw non-finite instances.
        with pytest.raises(DimensionMismatch):
            sample_operator_instances(first, second, count=3, seed=0)


def _random_moments(m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, m)) / np.sqrt(m), rng.uniform(0.0, 0.01, (m, m))


class TestTableSizeBound:
    def test_spectra_table(self, monkeypatch):
        first, second = _random_moments(3, seed=0)
        with pytest.raises(ConfigError, match="^1000000000 samples of 3 eigenvalues ask for "
                                              "6000000000 values, more than 268435456$"):
            sample_operator_spectra(first, second, count=10**9, seed=0)
        monkeypatch.setattr(numerics, "_MAX_TABLE_VALUES", 2 * 4 * 3)  # complex: 2 floats each
        assert sample_operator_spectra(first, second, count=4, seed=0).samples.shape == (4, 3)
        with pytest.raises(ConfigError, match="^5 samples of 3 eigenvalues ask for 30 values"):
            sample_operator_spectra(first, second, count=5, seed=0)

    def test_mc_eigenvalue_table(self, toy_system, monkeypatch):
        # Only the eigenvalue table grows with the trial count; without it trials run in chunks.
        snaps, noise = toy_system
        with pytest.raises(ConfigError, match=r"\(turn mc.compute_eigenvalues off to keep none\) "
                                              "ask for 16000000000 values, more than 268435456$"):
            run_mc(snaps, noise, McConfig(trials=10**9))
        monkeypatch.setattr(numerics, "_MAX_TABLE_VALUES", 2 * 10 * 8)
        assert run_mc(snaps, noise, McConfig(trials=10)).eigen_samples.shape == (10, 8)
        with pytest.raises(ConfigError, match="^11 trials of 8 eigenvalues .* ask for 176 values"):
            run_mc(snaps, noise, McConfig(trials=11))
        assert run_mc(snaps, noise, McConfig(trials=11, compute_eigenvalues=False)).trials == 11


class TestSampleOperatorSpectra:
    @pytest.mark.parametrize("m, count, calls", [
        (200, 7, [3, 4]), (400, 7, [2, 2, 3]), (20, 400, [200, 200]),
    ])
    def test_batch_size(self, monkeypatch, m, count, calls):
        # The row_blocks blocks of the instances (1.25e5 scalars: 312 at m = 20), each at
        # least 501 matrix rows: 3 instances at m = 200 and 2 at m = 400.
        seen, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: seen.append(len(a)) or eigvals(a))
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(1))
        first = np.zeros((m, m))
        sample_operator_spectra(first, np.zeros_like(first), count=count, seed=0)
        assert seen == calls

    @pytest.mark.parametrize("chunk", [1, 3, 10])
    def test_equals_unchunked_reference(self, monkeypatch, chunk):
        # Batches of 1, of 2 and 3 (near-equal) and of all 10 instances must give
        # the spectra of one draw of every instance, bit for bit.
        moments = _random_moments(5, seed=0)
        want = eigen_samples(sample_operator_instances(*moments, count=10, seed=4))
        spectra_batches(monkeypatch, chunk, 5)
        got = sample_operator_spectra(*moments, count=10, seed=4)
        assert np.array_equal(got.samples, want.samples)
        assert np.array_equal(got.representative_lambda1, want.representative_lambda1)

    def test_failure_names_global_instance(self, monkeypatch):
        # Instance 5 sits at the head of the third batch of 2, 3 and 3.
        moments = _random_moments(4, seed=1)
        target = sample_operator_instances(*moments, count=8, seed=2)[5]
        eigvals = np.linalg.eigvals

        def fails_on_target(a):
            stack = np.asarray(a).reshape((-1,) + target.shape)
            if any(np.array_equal(matrix, target) for matrix in stack):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(a)

        spectra_batches(monkeypatch, 3, 4)
        monkeypatch.setattr(np.linalg, "eigvals", fails_on_target)
        # Over 1, 2 or 3 workers, whichever worker takes the second batch.
        for workers in (1, 2, 3):
            monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(workers))
            with pytest.raises(ConvergenceFailure, match="instance 5"):
                sample_operator_spectra(*moments, count=8, seed=2)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lowest_of_two_failures_named(self, monkeypatch, workers):
        # Batches of one: instances 3 and 8 fail.  Instance 3 fails slowly, so with
        # two or more workers instance 8 fails first, on another worker; instance 3
        # was taken before it, finishes, and is the one named.
        moments = _random_moments(4, seed=1)
        instances = sample_operator_instances(*moments, count=12, seed=2)
        eigvals, seen = np.linalg.eigvals, []

        def fails_on_targets(a):
            stack = np.asarray(a).reshape((-1, 4, 4))
            for index in (3, 8):
                if any(np.array_equal(matrix, instances[index]) for matrix in stack):
                    if index == 3 and workers > 1:
                        time.sleep(0.2)
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
            seen.append(next(i for i, x in enumerate(instances) if np.array_equal(x, stack[0])))
            return eigvals(a)

        spectra_batches(monkeypatch, 1, 4)
        monkeypatch.setattr(np.linalg, "eigvals", fails_on_targets)
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(workers))
        with pytest.raises(ConvergenceFailure, match="at instance 3:"):
            sample_operator_spectra(*moments, count=12, seed=2)
        if workers == 1:  # no batch is taken after the failure
            assert seen == [0, 1, 2]

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_bits_independent_of_workers(self, monkeypatch, workers):
        # 12 batches of 2 instances.  8 workers, more than the cores, with a short
        # switch interval: a batch taken twice or skipped would change the bits.
        moments = _random_moments(5, seed=6)
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(1))
        want = eigen_samples(sample_operator_instances(*moments, count=24, seed=1))
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(workers))
        spectra_batches(monkeypatch, 2, 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sample_operator_spectra(*moments, count=24, seed=1)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got.samples, want.samples)
        assert np.array_equal(got.representative_lambda1, want.representative_lambda1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_named(self, seed):
        # Each names its own field: the sampler's argument and the MC config's.
        with pytest.raises(ConfigError, match="^seed must fit in 64 unsigned bits$"):
            sample_operator_spectra(np.eye(2), np.zeros((2, 2)), count=2, seed=seed)
        with pytest.raises(ConfigError, match="^master_seed must fit in 64 unsigned bits$"):
            McConfig(master_seed=seed)

    def test_validation_once_per_call(self, monkeypatch, caplog):
        # sample_operator_instances checks the tables, logging the clamp once; the spectra
        # sampler takes checked tables, so over three batches it logs nothing.
        moments = np.eye(2), np.array([[-1e-6, 0.01], [0.01, 0.01]])
        with pytest.raises(NegativeVarianceInput):
            sample_operator_instances(*moments, count=6, seed=0)
        with pytest.raises(ConfigError):
            sample_operator_instances(*moments, count=0, seed=0, clamp_negative=True)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            instances = sample_operator_instances(*moments, count=6, seed=0, clamp_negative=True)
            spectra_batches(monkeypatch, 2, 2)
            got = sample_operator_spectra(*moments, count=6, seed=0)
        assert [r.getMessage() for r in caplog.records] == [
            "clamping 1 negative variance element(s) to zero"]
        assert np.array_equal(got.samples, eigen_samples(instances).samples)

    def test_one_chunk_held(self, monkeypatch):
        # 70 instances of 100 x 100 in batches of 10 over 2 workers: each worker
        # draws every batch it takes into one buffer, so the peak holds two batches
        # (1.6 MB) and their finiteness masks, the std table and the spectra.
        m, count, chunk = 100, 70, 10
        moments = _random_moments(m, seed=4)
        spectra_batches(monkeypatch, chunk, m)
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(2))
        want = eigen_samples(sample_operator_instances(*moments, count=count, seed=2))
        tracemalloc.start()
        try:
            got = sample_operator_spectra(*moments, count=count, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 * chunk * m * m * 8
        assert np.array_equal(got.samples, want.samples)

    def test_memory_bounded_by_chunk(self, monkeypatch):
        # 2000 instances of 20 x 20 in batches of 10 per worker: the whole stack
        # would be 6.4 MB, one batch is 32 kB and the kept spectra 640 kB.
        m, count, chunk = 20, 2000, 10
        moments = _random_moments(m, seed=3)
        spectra_batches(monkeypatch, chunk, m)
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(2))
        chunk_bytes = chunk * m * m * 8
        result_bytes = count * m * 16
        tracemalloc.start()
        try:
            sample_operator_spectra(*moments, count=count, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * chunk_bytes + 2 * result_bytes
        assert peak < count * m * m * 8 / 4
