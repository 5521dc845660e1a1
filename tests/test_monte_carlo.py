import logging
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import fixed_blas_workers, openblas_threads, snapshots_from_trajectory_matrix

from dmduq import monte_carlo, numerics
from dmduq.data_model import NoiseModel
from dmduq.errors import (
    ConfigError,
    ConvergenceFailure,
    NegativeVarianceInput,
    SingularGram,
    TooManyFailedTrials,
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
    PAPER_LITERAL,
    OperatorMoments,
    dmd_point_estimate,
    estimate_operator_moments,
)
from dmduq.pinv_moments import QuadratureConfig, first_moment_element, context_from_parts
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
        # At m = 200, n = 2 the m x m operators, not the m n^2 draws, set
        # the working set of a chunk.
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
        ctx = context_from_parts(np.array([[0.25]]), np.array([1.0]), noise, k=0)
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
                noisy = snaps.trajectory_columns() + sigma_L @ rng.standard_normal((n, m + 1))
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

        def always_singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", always_singular)
        cfg = McConfig(trials=100, master_seed=0, sampling_mode=SHARED_TRAJECTORY)
        with pytest.raises(TooManyFailedTrials):
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
    """Trial slices, element slices and statistics blocks split over 1, 2 or 3 workers."""

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

    def test_one_singular_trial(self, toy_system, monkeypatch):
        # Trial 9 of 120 (chunk 2 of 7 trials, position 2) has a singular Gram
        # matrix: it is dropped from every table, whatever slice it lands in.
        snaps, noise = toy_system
        n, m = snaps.states.shape
        base = trial_rng(3, 9).standard_normal((n, m + 1))
        sigma_l = np.linalg.cholesky(noise.covariance())
        x = (snaps.trajectory_columns() + sigma_l @ base)[:, :m]
        target = x @ x.T
        solve = np.linalg.solve

        def singular_on_target(a, b):
            grams = np.asarray(a).reshape((-1, n, n))
            if any(np.allclose(g, target, rtol=1e-9, atol=0.0) for g in grams):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_on_target)
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
        # The element-wise formulas on whole tables are the reference.
        rng = np.random.default_rng(8)
        shift = np.asfortranarray(rng.standard_normal((9, 5)))
        acc = monte_carlo._MomentAccumulator(shift)
        values = shift + 0.1 * rng.standard_normal((6, 9, 5))
        acc.add_block(values, 0, 9)
        count, c = 6, shift
        s1, s2, s3, s4 = (s / count for s in acc.sums)
        dvar = np.maximum((acc.sums[1] - acc.sums[0] ** 2 / count) / (count - 1), 0.0)
        second_raw = c**2 + 2.0 * c * s1 + s2
        fourth_raw = c**4 + 4.0 * c**3 * s1 + 6.0 * c**2 * s2 + 4.0 * c * s3 + s4
        m4 = s4 - 4.0 * s1 * s3 + 6.0 * s1**2 * s2 - 3.0 * s1**4
        want = (
            c + s1, second_raw, dvar, np.sqrt(dvar / count),
            np.sqrt(np.maximum(fourth_raw - second_raw**2, 0.0) / count),
            np.sqrt(np.maximum(m4 - dvar**2, 0.0) / count),
        )
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 2 * 5)  # blocks of 2 rows
        for workers in (1, 2, 3):
            monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(workers))
            with numerics.slice_workers() as map_slices:
                got = acc.statistics(count, map_slices)
                some = acc.statistics(count, map_slices, raw_second=False)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            assert some[1] is None and some[4] is None
            for i in (0, 2, 3, 5):
                assert np.array_equal(some[i], want[i])

    @pytest.mark.parametrize("raw_second", [True, False])
    def test_statistics_memory(self, monkeypatch, raw_second):
        # Beyond its output tables, statistics() holds the temporaries of one
        # block of 4 rows; on whole tables they were about a dozen tables.
        m, rows = 200, 4
        rng = np.random.default_rng(1)
        acc = monte_carlo._MomentAccumulator(rng.standard_normal((m, m)))
        acc.add_block(rng.standard_normal((3, m, m)), 0, m)
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * rows * m)

        def serial(fn, count):
            return [fn(0, count)]

        table_bytes, block_bytes = m * m * 8, rows * m * 8
        tracemalloc.start()
        try:
            acc.statistics(3, serial, raw_second)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tables = 6 if raw_second else 4
        assert peak < tables * table_bytes + 16 * block_bytes

    @pytest.mark.parametrize("mode", [INDEPENDENT, SHARED_TRAJECTORY])
    def test_negative_ridge_rejected(self, toy_system, mode):
        snaps, noise = toy_system
        with pytest.raises(ConfigError, match="ridge must be >= 0"):
            run_mc(snaps, noise, McConfig(trials=4, sampling_mode=mode), ridge=-1.0)
        with pytest.raises(ConfigError, match="ridge must be >= 0"):
            dmd_point_estimate(snaps, ridge=-1.0)


class TestSampleOperatorInstances:
    def test_zero_variance_returns_mean(self):
        moments = OperatorMoments(
            first=np.array([[1.0, 2.0], [3.0, 4.0]]),
            second_central=np.zeros((2, 2)),
            variance_mode=CORRECTED,
        )
        out = sample_operator_instances(moments, count=5, seed=0)
        assert np.array_equal(out, np.broadcast_to(moments.first, (5, 2, 2)))

    def test_fixed_seed_reproducible(self):
        moments = OperatorMoments(
            first=np.zeros((2, 2)),
            second_central=np.full((2, 2), 0.5),
            variance_mode=CORRECTED,
        )
        a = sample_operator_instances(moments, count=10, seed=3)
        b = sample_operator_instances(moments, count=10, seed=3)
        assert np.array_equal(a, b)

    def test_sample_variance_matches_parameters(self):
        variances = np.array([[0.09, 0.25], [1.0, 0.04]])
        moments = OperatorMoments(
            first=np.array([[1.0, -2.0], [0.5, 3.0]]),
            second_central=variances,
            variance_mode=CORRECTED,
        )
        out = sample_operator_instances(moments, count=100_000, seed=7)
        sample_var = out.var(axis=0, ddof=1)
        assert np.abs(sample_var / variances - 1.0).max() <= 0.05

    def test_negative_variance_rejected_without_clamp(self):
        moments = OperatorMoments(
            first=np.zeros((1, 1)),
            second_central=np.array([[-1e-6]]),
            variance_mode=PAPER_LITERAL,
        )
        with pytest.raises(NegativeVarianceInput):
            sample_operator_instances(moments, count=3, seed=0)

    def test_negative_variance_clamped_when_enabled(self, caplog):
        moments = OperatorMoments(
            first=np.zeros((1, 1)),
            second_central=np.array([[-1e-6]]),
            variance_mode=PAPER_LITERAL,
        )
        out = sample_operator_instances(moments, count=3, seed=0, clamp_negative=True)
        assert np.array_equal(out, np.zeros((3, 1, 1)))


def _random_moments(m: int, seed: int) -> OperatorMoments:
    rng = np.random.default_rng(seed)
    return OperatorMoments(
        first=rng.standard_normal((m, m)) / np.sqrt(m),
        second_central=rng.uniform(0.0, 0.01, (m, m)),
        variance_mode=CORRECTED,
    )


class TestSampleOperatorSpectra:
    @pytest.mark.parametrize("chunk", [1, 3, 10])
    def test_equals_unchunked_reference(self, monkeypatch, chunk):
        # Chunks of 1, 3 (a short last chunk) and all 10 instances must give
        # the spectra of one draw of every instance, bit for bit.
        moments = _random_moments(5, seed=0)
        want = eigen_samples(sample_operator_instances(moments, count=10, seed=4))
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", chunk * 5 * 5)
        got = sample_operator_spectra(moments, count=10, seed=4)
        assert np.array_equal(got.samples, want.samples)
        assert np.array_equal(got.representative_lambda1, want.representative_lambda1)

    def test_failure_names_global_instance(self, monkeypatch):
        # Instance 5 sits at position 2 of the second chunk of 3.
        moments = _random_moments(4, seed=1)
        target = sample_operator_instances(moments, count=8, seed=2)[5]
        eigvals = np.linalg.eigvals

        def fails_on_target(a):
            stack = np.asarray(a).reshape((-1,) + target.shape)
            if any(np.array_equal(matrix, target) for matrix in stack):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(a)

        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 3 * 4 * 4)
        monkeypatch.setattr(np.linalg, "eigvals", fails_on_target)
        with pytest.raises(ConvergenceFailure, match="instance 5"):
            sample_operator_spectra(moments, count=8, seed=2)
        # Split over 2 or 3 workers, the chunk's slices are [3], [4, 5] or
        # [3], [4], [5]: the failing slice is the second or the third.
        for workers in (2, 3):
            monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(workers))
            with pytest.raises(ConvergenceFailure, match="instance 5"):
                sample_operator_spectra(moments, count=8, seed=2)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bits_independent_of_workers(self, monkeypatch, workers):
        # Chunks of 3, 3 and 2 instances; the last is shorter than 3 workers.
        moments = _random_moments(5, seed=6)
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(1))
        want = eigen_samples(sample_operator_instances(moments, count=8, seed=1))
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(workers))
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 3 * 5 * 5)
        got = sample_operator_spectra(moments, count=8, seed=1)
        assert np.array_equal(got.samples, want.samples)
        assert np.array_equal(got.representative_lambda1, want.representative_lambda1)

    def test_validation_once_per_call(self, monkeypatch, caplog):
        moments = OperatorMoments(
            first=np.eye(2),
            second_central=np.array([[-1e-6, 0.01], [0.01, 0.01]]),
            variance_mode=PAPER_LITERAL,
        )
        with pytest.raises(NegativeVarianceInput):
            sample_operator_spectra(moments, count=6, seed=0)
        with pytest.raises(ConfigError):
            sample_operator_spectra(moments, count=0, seed=0, clamp_negative=True)
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 2 * 2 * 2)
        with caplog.at_level(logging.WARNING, logger="dmduq.monte_carlo"):
            sample_operator_spectra(moments, count=6, seed=0, clamp_negative=True)
        assert len([r for r in caplog.records if "clamping" in r.message]) == 1

    def test_memory_bounded_by_chunk(self, monkeypatch):
        # 2000 instances of 20 x 20 in chunks of 10: the whole stack would be
        # 6.4 MB, one chunk is 32 kB and the kept spectra 640 kB.
        m, count, chunk = 20, 2000, 10
        moments = _random_moments(m, seed=3)
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", chunk * m * m)
        chunk_bytes = chunk * m * m * 8
        result_bytes = count * m * 16
        tracemalloc.start()
        try:
            sample_operator_spectra(moments, count=count, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * chunk_bytes + 2 * result_bytes
        assert peak < count * m * m * 8 / 4
