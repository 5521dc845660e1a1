import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from conftest import (
    fixed_blas_workers, openblas_thread_controls, openblas_thread_counts, openblas_threads,
    spectra_batches,
)
from scipy.integrate import trapezoid

from dmduq import numerics, spectral
from dmduq.errors import (
    ConfigError, ConvergenceFailure, DegenerateData, DimensionMismatch, TooFewSamples,
)
from dmduq.numerics import eigenvalue_rows
from dmduq.operator_moments import CORRECTED, check_outliers, check_tables
from dmduq.spectral import (
    EigenSampleSet,
    eigen_moments,
    eigen_samples,
    kde2d,
    silverman_bandwidth,
)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: EigenSampleSet(np.zeros(3, complex)), DimensionMismatch, "2-D array"),
        (lambda: eigen_samples(np.zeros((0, 2, 2))), TooFewSamples, "at least one instance"),
        (lambda: kde2d(np.array([0.0, np.nan, 1.0]), np.zeros(3)), TooFewSamples,
         "at least 2 finite values"),
        (lambda: kde2d(np.zeros(3), np.zeros(2)), DimensionMismatch,
         "sample counts differ"),
    ],
    ids=["samples-1d", "empty-stack", "kde-nonfinite", "kde-unequal-lengths"],
)
def test_argument_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestEigenSamples:
    def test_oscillator_representatives(self):
        instances = np.tile(np.array([[0.0, 1.0], [-4.0, 0.0]]), (5, 1, 1))
        out = eigen_samples(instances)
        assert np.allclose(out.representative_lambda1, 2.0j, atol=1e-12)

    def test_real_dominant(self):
        instances = np.tile(np.diag([3.0, 1.0]), (4, 1, 1))
        out = eigen_samples(instances)
        assert np.allclose(out.representative_lambda1, 3.0, atol=1e-14)

    def test_conjugate_closure_of_random_instances(self):
        rng = np.random.default_rng(0)
        out = eigen_samples(rng.standard_normal((40, 4, 4)))
        for row in out.samples:
            for z in row:
                assert np.min(np.abs(row - np.conj(z))) <= 1e-9

    def test_representative_imag_nonnegative(self):
        rng = np.random.default_rng(1)
        out = eigen_samples(rng.standard_normal((100, 3, 3)))
        assert np.all(out.representative_lambda1.imag >= 0)

    def test_representative_derived_from_the_top_column(self):
        # Top eigenvalues with negative imaginary part are represented by their conjugates.
        top = np.array([1.0 - 2.0j, -0.5 - 0.25j, 0.3 - 1e-300j, 3.0 + 1.0j])
        samples = EigenSampleSet(np.column_stack([top, np.full(4, 0.1 - 0.1j)]))
        want = np.where(top.imag < 0, np.conj(top), top)
        assert np.array_equal(samples.representative_lambda1, want)
        assert np.all(samples.representative_lambda1.imag >= 0)

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            eigen_samples(np.zeros((3, 2, 4)))

    def test_nonfinite_names_instance(self):
        instances = np.tile(np.eye(2), (3, 1, 1))
        instances[1, 0, 1] = np.inf
        with pytest.raises(DimensionMismatch, match="instance 1"):
            eigen_samples(instances)
        instances[1, 0, 1], instances[2, 1, 0] = 0.0, np.nan
        with pytest.raises(DimensionMismatch, match="instance 2$"):
            eigen_samples(instances)


_EIGVALS = np.linalg.eigvals


def _eigvals_failing_on(targets):
    """np.linalg.eigvals that raises LinAlgError for a stack holding any of ``targets``."""

    def patched(a):
        stack = np.asarray(a).reshape((-1,) + targets[0].shape)
        if any(np.array_equal(matrix, t) for matrix in stack for t in targets):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return _EIGVALS(a)

    return patched


class TestParallelEigenSamples:
    @pytest.mark.parametrize("count", [1, 2, 7])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bits_independent_of_workers(self, monkeypatch, workers, count):
        # Each matrix eigendecomposed on its own is the reference; stacks of 1
        # and 2 are shorter than 3 workers, and 7 makes 4 batches of 2.
        instances = np.random.default_rng(count).standard_normal((count, 6, 6))
        want = np.concatenate([eigenvalue_rows(matrix[None]) for matrix in instances])
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(workers))
        spectra_batches(monkeypatch, 2, 6)
        got = eigen_samples(instances)
        assert np.array_equal(got.samples, want)
        assert np.array_equal(got.representative_lambda1.imag, np.abs(want[:, 0].imag))

    def test_first_failing_slice_is_reported(self, monkeypatch):
        # Instances 1 and 4 fail, in the first and second of two batches.
        instances = np.random.default_rng(0).standard_normal((6, 4, 4))
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(2))
        spectra_batches(monkeypatch, 3, 4)
        monkeypatch.setattr(np.linalg, "eigvals", _eigvals_failing_on(instances[[1, 4]]))
        with pytest.raises(ConvergenceFailure, match="instance 1:"):
            eigen_samples(instances)
        monkeypatch.setattr(np.linalg, "eigvals", _eigvals_failing_on(instances[[4]]))
        with pytest.raises(ConvergenceFailure, match="instance 4:"):
            eigen_samples(instances)

    def test_finiteness_checked_before_split(self, monkeypatch):
        # A non-finite matrix in the second batch is reported even though the
        # first batch would fail to converge.
        instances = np.random.default_rng(0).standard_normal((6, 4, 4))
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(2))
        spectra_batches(monkeypatch, 3, 4)
        monkeypatch.setattr(np.linalg, "eigvals", _eigvals_failing_on(instances[[0]]))
        instances[5, 0, 0] = np.nan
        with pytest.raises(DimensionMismatch, match="instance 5"):
            eigen_samples(instances)


class TestPulledSpectra:
    def test_interrupt_stops_taking(self, monkeypatch):
        # SIGINT reaches the main thread while it waits on the workers (batches of
        # one, each taking 10 ms): the batches taken finish, no further one is
        # taken, and the interrupt propagates.
        spectra_batches(monkeypatch, 1, 4)
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(2))
        taken, main = [], threading.main_thread().ident

        def take(start, stop):
            taken.append(start)
            if start == 2:
                signal.pthread_kill(main, signal.SIGINT)
            time.sleep(0.01)
            return np.tile(np.eye(4), (stop - start, 1, 1))

        with pytest.raises(KeyboardInterrupt):
            spectral.pulled_spectra(400, 4, take)
        assert len(taken) < 100


class TestBlasPin:
    @pytest.fixture()
    def two_blas_threads(self):
        """Every loaded OpenBLAS at two threads for the test, its setting restored after."""
        controls = openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS with thread controls is loaded")
        saved = openblas_thread_counts()
        for _, setter in controls:
            setter(2)
        yield
        for (_, setter), count in zip(controls, saved):
            setter(count)

    def test_pinned_during_call_restored_after(self, monkeypatch, two_blas_threads):
        seen = []

        def recording(a):
            seen.append(openblas_thread_counts())
            return _EIGVALS(a)

        monkeypatch.setattr(np.linalg, "eigvals", recording)
        spectra_batches(monkeypatch, 2, 5)
        eigen_samples(np.random.default_rng(0).standard_normal((4, 5, 5)))
        assert len(seen) == 2  # two batches of two
        assert all(set(counts) == {1} for counts in seen)
        assert set(openblas_thread_counts()) == {2}

    def test_check_outliers_pinned(self, monkeypatch, two_blas_threads):
        seen = []

        def recording(a):
            seen.append(openblas_thread_counts())
            return _EIGVALS(a)

        monkeypatch.setattr(np.linalg, "eigvals", recording)
        rng = np.random.default_rng(3)
        check_outliers(rng.standard_normal((6, 6)), rng.random((6, 6)))
        assert len(seen) == 1 and set(seen[0]) == {1}
        assert set(openblas_thread_counts()) == {2}

    def test_restored_after_convergence_failure(self, monkeypatch, two_blas_threads):
        instances = np.random.default_rng(0).standard_normal((4, 5, 5))
        monkeypatch.setattr(np.linalg, "eigvals", _eigvals_failing_on(instances[[3]]))
        with pytest.raises(ConvergenceFailure, match="instance 3"):
            eigen_samples(instances)
        assert set(openblas_thread_counts()) == {2}

    def test_kde2d_bits_independent_of_blas_threads(self, two_blas_threads):
        # A 256 x 1000 by 1000 x 256 kernel product is large enough for
        # OpenBLAS to split it over threads.
        values = np.random.default_rng(2).standard_normal((2, 1000))
        at_two = kde2d(*values).density
        controls = openblas_thread_controls()
        for _, setter in controls:
            setter(1)
        at_one = kde2d(*values).density
        for _, setter in controls:
            setter(2)
        assert np.array_equal(at_one, at_two)

    def test_concurrent_callers(self, two_blas_threads):
        # More callers than cores, switching often: each gets the spectra of
        # its own stack and the setting is restored once all are done.
        rng = np.random.default_rng(1)
        stacks = [rng.standard_normal((5, 8, 8)) for _ in range(6)]
        want = [np.concatenate([eigenvalue_rows(m[None]) for m in stack]) for stack in stacks]
        got = [None] * len(stacks)

        def call(index):
            for _ in range(5):
                got[index] = eigen_samples(stacks[index]).samples

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(len(stacks))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert set(openblas_thread_counts()) == {2}


class TestSliceWorkersReentry:
    @pytest.mark.parametrize("from_worker", [False, True])
    def test_nested_entry_runs(self, from_worker):
        # Checking dense moment tables pins BLAS at one thread.  Inside slice_workers,
        # from the thread that entered it or from one of its workers, the check shares
        # the pin and returns; a plain lock there waited on itself for ever.  The call
        # runs in a thread joined with a timeout, so a hang fails the test.  Two slices: the
        # entering thread runs the first, so the last runs on a worker at two BLAS threads.
        outcome = []

        def build(lo=0, hi=0):
            check_tables(np.eye(2), np.eye(2), CORRECTED)
            return "returned"

        def nested():
            try:
                with numerics.slice_workers() as map_slices:
                    outcome.extend(map_slices(build, 2)[-1:] if from_worker else [build()])
            except Exception as exc:
                outcome.append(repr(exc))

        with openblas_threads(2):
            caller = threading.Thread(target=nested, daemon=True)
            caller.start()
            caller.join(timeout=30)
            assert not caller.is_alive()
            assert outcome == ["returned"]
            assert set(openblas_thread_counts()) <= {2}


class TestEigenMoments:
    def test_identical_samples_zero_variance(self):
        instances = np.tile(np.diag([2.0, 1.0]), (6, 1, 1))
        moments = eigen_moments(eigen_samples(instances))
        assert np.allclose(moments.mean, [2.0, 1.0])
        assert np.allclose(moments.variance_re, 0.0)
        assert np.allclose(moments.variance_im, 0.0)

    def test_conjugate_pair_representative_convention(self):
        # Spectra {1+1i, 1-1i}: the representative maps every sample to
        # 1+1i, so representative mean is 1+1i with zero spread.
        instances = np.tile(np.array([[1.0, 1.0], [-1.0, 1.0]]), (8, 1, 1))
        out = eigen_samples(instances)
        assert np.allclose(out.representative_lambda1, 1.0 + 1.0j, atol=1e-12)
        assert np.allclose(out.representative_lambda1.var(ddof=1), 0.0, atol=1e-24)

    def test_gaussian_sampling_oracle(self):
        # 1x1 instances: eigenvalue == entry, so per-index moments must
        # match the generating parameters within 3 standard errors.
        rng = np.random.default_rng(2)
        mu, sigma = 0.7, 0.3
        draws = rng.normal(mu, sigma, size=100_000)
        moments = eigen_moments(eigen_samples(draws[:, None, None]))
        n = draws.size
        se_mean = sigma / np.sqrt(n)
        se_var = sigma**2 * np.sqrt(2.0 / (n - 1))
        assert abs(moments.mean[0].real - mu) <= 3.0 * se_mean
        assert abs(moments.variance_re[0] - sigma**2) <= 3.0 * se_var

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            eigen_moments(eigen_samples(np.zeros((1, 2, 2))))

    def test_zero_spread_pipeline_reproduces_point_spectrum(self):
        # Sampling from zero-variance moment tables must give the point
        # spectrum with zero variance at every index.
        from dmduq.monte_carlo import sample_operator_instances

        mean = np.array([[0.0, 1.0], [-4.0, 0.0]])
        instances = sample_operator_instances(mean, np.zeros((2, 2)), count=16, seed=1)
        out = eigen_moments(eigen_samples(instances))
        assert np.allclose(out.mean, [2.0j, -2.0j], atol=1e-12)
        assert np.allclose(out.variance_re, 0.0)
        assert np.allclose(out.variance_im, 0.0)


class TestKde:
    def test_single_kernel_peak(self):
        # One kernel (both samples at the origin) peaks at 1 / (2 pi hx hy).
        out = kde2d(np.zeros(2), np.zeros(2), bandwidths=(1.0, 1.0), grid_points=201)
        a, b = np.unravel_index(np.argmax(out.density), out.density.shape)
        assert out.grid_re[a] == pytest.approx(0.0, abs=1e-12)
        assert out.grid_im[b] == pytest.approx(0.0, abs=1e-12)
        assert out.density[a, b] == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-9)

    def test_symmetry(self):
        # Samples symmetric about the origin give a density symmetric on both axes.
        out = kde2d(np.array([-1.0, 1.0]), np.array([-1.0, 1.0]), bandwidths=(0.5, 0.5),
                    grid_points=101)
        assert np.abs(out.density - out.density[::-1, ::-1]).max() <= 1e-12

    def test_explicit_grid(self):
        grid = np.linspace(-1.0, 1.0, 11)
        out = kde2d(np.array([0.0, 0.1]), np.array([0.0, 0.1]), bandwidths=(0.3, 0.3),
                    grid_re=grid, grid_im=grid)
        assert np.array_equal(out.grid_re, grid) and np.array_equal(out.grid_im, grid)

    def test_silverman_value(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(1000)
        h = silverman_bandwidth(v)
        iqr = np.subtract(*np.percentile(v, [75, 25]))
        expected = 0.9 * min(v.std(ddof=1), iqr / 1.34) * 1000 ** (-0.2)
        assert h == pytest.approx(expected, rel=1e-12)


class TestKde2d:
    @pytest.mark.parametrize("grid_points, count, size", [
        (100_000, 3, 10**10), (1000, 300_000, 3 * 10**8),
    ], ids=["density", "kernels"])
    def test_table_size_bounded(self, grid_points, count, size):
        # Before any table is made: a grid_points^2 density or a grid x samples kernel.
        values = np.linspace(0.0, 1.0, count)
        with pytest.raises(ConfigError, match=f"asks for {size} density or kernel values, more "
                                              f"than 268435456$"):
            kde2d(values, values, grid_points=grid_points)

    def test_table_size_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_TABLE_VALUES", 100)
        assert kde2d(np.arange(10.0), np.arange(10.0), grid_points=10).density.shape == (10, 10)
        with pytest.raises(ConfigError, match="^a 10 x 10 grid over 11 samples asks for 110 "):
            kde2d(np.arange(11.0), np.arange(11.0), grid_points=10)

    def test_kernels_built_in_place(self):
        # The Im-axis grid x samples kernel is one array, made and transformed in place, and
        # the Re-axis kernel a row block at a time: the peak is one kernel, one block and the
        # density, where both kernels made it 2.16 kernels (and the temporaries of a chained
        # expression about 3.1).
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal(5000), rng.standard_normal(5000)
        kde2d(x[:10], y[:10])  # lazy imports
        tracemalloc.start()
        try:
            kde2d(x, y, grid_points=256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = numerics._CHUNK_SCALARS // 32 * 8
        assert peak < 256 * 5000 * 8 + 1.5 * block + 256 * 256 * 8

    @pytest.mark.parametrize("count, grid_points, rows", [
        (20_000, 64, 1), (20_000, 64, 3), (500, 64, 1), (40, 256, 2),
    ])
    def test_density_is_the_one_kernel_product(self, monkeypatch, count, grid_points, rows):
        # Row blocks of `rows` rows under a patched budget.  A one-row block is taken from a
        # two-row product (gemv rounds unlike gemm), and a block is never so small that
        # OpenBLAS takes its small-matrix kernel where the whole product does not (the last
        # two cases: blocks of 32 and 128 rows), so the density has the one product's bits.
        rng = np.random.default_rng(10)
        x, y = rng.standard_normal(count), rng.standard_normal(count)
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * rows * count)
        assert len(numerics.row_blocks(grid_points, count)) == -(-grid_points // rows)
        out = kde2d(x, y, grid_points=grid_points)
        hx, hy = silverman_bandwidth(x), silverman_bandwidth(y)
        ex, ey = (np.exp(-0.5 * (np.subtract.outer(grid, v) / h) ** 2)
                  for grid, v, h in ((out.grid_re, x, hx), (out.grid_im, y, hy)))
        with numerics._one_blas_thread():
            want = ex @ ey.T
        want /= count * 2.0 * np.pi * hx * hy
        assert np.array_equal(out.density, want)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal(3000), rng.standard_normal(3000)
        out = kde2d(x, y)
        total = trapezoid(trapezoid(out.density, out.grid_im, axis=1), out.grid_re)
        assert 0.97 <= total <= 1.03

    def test_peak_near_center(self):
        rng = np.random.default_rng(7)
        x = rng.normal(2.0, 0.1, size=5000)
        y = rng.normal(-1.0, 0.1, size=5000)
        out = kde2d(x, y)
        a, b = np.unravel_index(np.argmax(out.density), out.density.shape)
        assert abs(out.grid_re[a] - 2.0) <= 0.05
        assert abs(out.grid_im[b] + 1.0) <= 0.05

    def test_common_grid_override(self):
        rng = np.random.default_rng(8)
        gx = np.linspace(-3, 3, 64)
        gy = np.linspace(-2, 2, 32)
        out = kde2d(rng.standard_normal(100), rng.standard_normal(100), grid_re=gx, grid_im=gy)
        assert out.density.shape == (64, 32)

    def test_degenerate_axis(self):
        # One flat axis takes the other axis's bandwidth; both flat leave none to take.
        out = kde2d(np.full(10, 1.0), np.linspace(0, 1, 10))
        assert np.all(np.isfinite(out.density)) and out.density.max() > 0
        with pytest.raises(DegenerateData, match="^samples too concentrated for automatic "
                                                 "bandwidth$"):
            kde2d(np.full(10, 1.0), np.full(10, -2.0))

    @pytest.mark.parametrize("flat", ["re", "im"])
    def test_zero_iqr_axis_takes_the_other_bandwidth(self, flat):
        # 40 of 50 samples on one value: the axis's IQR is 0, so Silverman's rule gives 0,
        # though its std does not.  It takes the other axis's bandwidth and the density
        # still integrates to 1.
        rng = np.random.default_rng(9)
        spread = rng.normal(0.98, 1e-3, size=50)
        mostly_flat = np.zeros(50)
        mostly_flat[:10] = rng.normal(0.0, 1e-3, size=10)
        assert silverman_bandwidth(mostly_flat) == 0.0 < mostly_flat.std()
        x, y = (mostly_flat, spread) if flat == "re" else (spread, mostly_flat)
        h = silverman_bandwidth(spread)
        out = kde2d(x, y)
        assert np.array_equal(out.density, kde2d(x, y, bandwidths=(h, h)).density)
        total = trapezoid(trapezoid(out.density, out.grid_im, axis=1), out.grid_re)
        assert total == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("bandwidths", [(0.0, 0.1), (0.1, -1.0), (0.1, np.nan)])
    def test_explicit_bandwidths_must_be_positive(self, bandwidths):
        # An explicit pair is used as given: a flat axis's rule does not apply to it.
        values = np.linspace(0.0, 1.0, 10)
        bad = next(h for h in bandwidths if not h > 0)
        with pytest.raises(DegenerateData, match=f"^bandwidth must be positive, got {bad}$"):
            kde2d(values, values, bandwidths=bandwidths)
