import sys
import threading
import time
import types

import numpy as np
import pytest
from conftest import (
    fixed_blas_workers, openblas_thread_controls, openblas_thread_counts, openblas_threads,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.special import gammaln, roots_laguerre

from dmduq import numerics
from dmduq.data_model import NoiseModel
from dmduq.errors import (
    ConfigError,
    ConvergenceFailure,
    DimensionMismatch,
    NotPositiveDefinite,
)
from dmduq.numerics import (
    RowTable,
    Spectrum,
    composite_legendre_nodes,
    eigenvalue_rows,
    gauss_laguerre_nodes,
    product_eigenvalues,
    row_blocks,
    sort_eigenvalue_rows,
    spd_factors,
    spd_inverses,
)
from dmduq.operator_moments import CORRECTED, check_tables


class TestSpdFactors:
    """The one Cholesky path, ``spd_factors``, and the noise covariance factored by it."""

    def test_indefinite_rejected(self):
        lower, inverse_lower, positive = spd_factors(np.array([[[0.0, 1.0], [1.0, 0.0]]]))
        assert positive.tolist() == [False]
        assert np.isnan(lower).all() and np.isnan(inverse_lower).all()
        with pytest.raises(NotPositiveDefinite, match="no Cholesky factor"):
            NoiseModel(variances=np.ones(2), full_covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((6, 6))
        V = B @ B.T + np.eye(6)
        (lower,), (inverse_lower,), (positive,) = spd_factors(V[None].copy())
        noise = NoiseModel(variances=np.diag(V), full_covariance=V)
        assert positive
        for L, inv_L in ((lower, inverse_lower), (noise.covariance_factor, noise.inverse_factor)):
            assert np.array_equal(L, np.tril(L))
            assert np.abs(L @ L.T - V).max() <= 1e-10 * np.abs(V).max()
            assert np.abs(inv_L @ L - np.eye(6)).max() <= 1e-12

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NotPositiveDefinite, match="asymmetry 5.000e-01 exceeds 1e-9"):
            NoiseModel(variances=np.ones(2), full_covariance=m)

    def test_small_asymmetry_symmetrized(self):
        m = np.array([[2.0, 1.0 + 1e-12], [1.0, 2.0]])
        noise = NoiseModel(variances=np.diag(m), full_covariance=m)
        L = noise.covariance_factor
        assert np.allclose(L @ L.T, 0.5 * (m + m.T), rtol=1e-12)
        assert np.array_equal(L, np.linalg.cholesky(0.5 * (m + m.T)))

    def test_spd_closure_under_inversion(self):
        # Inverses of SPD matrices are SPD: both V and inv(V) have a factor.
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            B = rng.standard_normal((n, n))
            V = B.T @ B + np.eye(n)
            assert spd_factors(np.stack([V, np.linalg.inv(V)]))[2].all()


class TestSpdInverses:
    @pytest.mark.parametrize("n", [5, 16, 64])
    def test_residual(self, n):
        rng = np.random.default_rng(n)
        B = rng.standard_normal((n, n))
        A = B @ B.T + np.eye(n)
        b = rng.standard_normal(n)
        (inverse,), (positive,) = spd_inverses(A[None].copy())
        assert positive
        x = inverse @ b
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_no_factor_flagged_alone(self):
        # An indefinite and a singular matrix get NaN and False; the others
        # keep the bits they have when inverted on their own.
        rng = np.random.default_rng(9)
        B = rng.standard_normal((2, 4, 4))
        good = B @ B.transpose(0, 2, 1) + np.eye(4)
        stack = np.stack([good[0], np.diag([1.0, -1.0, 1.0, 1.0]), np.zeros((4, 4)), good[1]])
        inverses, positive = spd_inverses(stack)
        assert positive.tolist() == [True, False, False, True]
        assert np.isnan(inverses[1:3]).all()
        for i, matrix in ((0, good[0]), (3, good[1])):
            assert np.array_equal(inverses[i], spd_inverses(matrix[None].copy())[0][0])


    def test_written_over_and_into_with_the_same_bits(self):
        # The inverse factors go over a writable float64 stack, and ``out`` takes the
        # inverses: the bits are those of a call on a read-only stack, which makes its own
        # copy, and each inverse is exactly symmetric.
        rng = np.random.default_rng(4)
        B = rng.standard_normal((5, 7, 7))
        stack = B @ B.transpose(0, 2, 1) + np.eye(7)
        stack[2] = -np.eye(7)
        frozen = stack.copy()
        frozen.flags.writeable = False
        want, positive = spd_inverses(frozen)
        assert np.array_equal(frozen, stack)
        _, inverse_lower, _ = spd_factors(stack.copy())
        spent, out = stack.copy(), np.empty_like(stack)
        got, flags = spd_inverses(spent, out=out)
        assert got is out and np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(flags, positive)
        assert np.array_equal(spent, inverse_lower, equal_nan=True)
        assert np.array_equal(got, got.transpose(0, 2, 1), equal_nan=True)


def eigenvalues(matrix):
    return Spectrum(eigenvalues=eigenvalue_rows(np.asarray(matrix, dtype=float)[None])[0])


class TestEigenvalues:
    def test_diagonal(self):
        spectrum = eigenvalues(np.diag([3.0, 1.0]))
        assert np.allclose(spectrum.eigenvalues, [3.0, 1.0])

    def test_oscillator_pair(self):
        spectrum = eigenvalues(np.array([[0.0, 1.0], [-4.0, 0.0]]))
        assert np.allclose(spectrum.eigenvalues, [2.0j, -2.0j], atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        spectrum = eigenvalues(a)
        assert spectrum.eigenvalues.sum().real == pytest.approx(np.trace(a), rel=1e-8)
        assert abs(spectrum.eigenvalues.sum().imag) <= 1e-8

    def test_conjugate_closure(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            vals = eigenvalues(rng.standard_normal((5, 5))).eigenvalues
            for z in vals:
                assert np.min(np.abs(vals - np.conj(z))) <= 1e-9

    def test_sorted_by_magnitude_then_imag(self):
        vals = eigenvalues(np.array([[0.0, 1.0], [-4.0, 0.0]])).eigenvalues
        assert vals[0].imag > 0
        mags = np.abs(vals)
        assert np.all(np.diff(mags) <= 1e-15)

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            eigenvalues(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(DimensionMismatch):
            eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_failure_maps_to_convergence_error(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", boom)
        with pytest.raises(ConvergenceFailure):
            eigenvalues(np.eye(2))


def _product_factors(m, n, stack, structure, seed):
    """Gaussian factors (stack + (m, n)) and (stack + (n, m)) with a chosen structure.

    ``rank_deficient`` makes the last column of ``left`` a multiple of the
    first (or zero when n = 1), so the n x n product has a zero eigenvalue.
    ``rotation`` makes ``right @ left`` a block-triangular matrix whose
    leading 2 x 2 block is a scaled rotation, so the spectrum holds a
    complex-conjugate pair; it needs 2 <= n <= m.  There ``left`` has
    orthonormal columns and ``right = small @ left.T``: with a Gaussian
    ``left``, ``pinv(left)`` makes ``|left| |right|`` up to 1e4 times the
    spectrum, and the float product ``left @ right`` alone then moves its
    eigenvalues by more than 1e-10 of their scale.
    """
    rng = np.random.default_rng(seed)
    left = rng.standard_normal(stack + (m, n))
    right = rng.standard_normal(stack + (n, m))
    if structure == "rank_deficient":
        left[..., -1] = 0.5 * left[..., 0] if n > 1 else 0.0
    elif structure == "rotation" and 2 <= n <= m:
        theta, radius = rng.uniform(0.2, 3.0), rng.uniform(0.5, 2.0)
        small = rng.standard_normal(stack + (n, n))
        small[..., :, :2] = 0.0
        small[..., :2, :2] = radius * np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        left = np.linalg.qr(left)[0]
        right = small @ np.swapaxes(left, -1, -2)
    return left, right


def _mpmath_product_eigenvalues(left, right):
    """Sorted eigenvalues of the smaller of ``right @ left`` and ``left @ right``,
    shape stack + (min(m, n),): the product is formed from the float factors and
    eigendecomposed in 50-digit mpmath, so the reference carries no float64
    rounding of its own (``np.linalg.eigvals(left @ right)`` can be off by 1e-9)."""
    m, n = left.shape[-2:]
    rows = []
    with mp.workdps(50):
        for a, b in zip(left.reshape(-1, m, n), right.reshape(-1, n, m)):
            a, b = mp.matrix(a.tolist()), mp.matrix(b.tolist())
            product = b * a if n < m else a * b
            # mp.eig returns eigenvectors too for a 1 x 1 matrix, whatever is asked.
            values = [product[0, 0]] if product.rows == 1 else mp.eig(product, left=False, right=False)
            rows.append([complex(value) for value in values])
    return sort_eigenvalue_rows(np.array(rows)).reshape(left.shape[:-2] + (min(m, n),))


class TestProductEigenvalues:
    @settings(max_examples=120, deadline=None)
    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 4),
        stack=st.sampled_from([(), (3,), (2, 2)]),
        structure=st.sampled_from(["generic", "rank_deficient", "rotation"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=12, n=4, stack=(3,), structure="generic", seed=1855)
    def test_matches_full_product(self, m, n, stack, structure, seed):
        left, right = _product_factors(m, n, stack, structure, seed)
        got = product_eigenvalues(left, right)
        want = _mpmath_product_eigenvalues(left, right)
        assert got.shape == stack + (m,)
        lead = min(m, n)
        scale = np.abs(want).max(initial=1.0)
        assert np.abs(got[..., :lead] - want).max() <= 1e-10 * scale
        assert np.all(got[..., lead:] == 0)
        rows = got.reshape(-1, m)
        assert np.array_equal(sort_eigenvalue_rows(rows), rows)
        if structure == "rank_deficient" and 2 <= n < m:
            # One of the leading n comes from the singular n x n product.
            assert np.abs(got[..., :lead]).min(axis=-1).max() <= 1e-10 * scale
        if structure == "rotation" and 2 <= n <= m:
            assert np.all(np.abs(got.imag).max(axis=-1) > 0.05)

    def test_shapes_must_chain(self):
        with pytest.raises(DimensionMismatch):
            product_eigenvalues(np.ones((4, 2)), np.ones((4, 2)))
        with pytest.raises(DimensionMismatch):
            product_eigenvalues(np.ones(4), np.ones(4))

    def test_nonfinite_rejected(self):
        left = np.ones((2, 4, 1))
        left[1, 2, 0] = np.inf
        with pytest.raises(DimensionMismatch):
            product_eigenvalues(left, np.ones((2, 1, 4)))
        with pytest.raises(DimensionMismatch):
            product_eigenvalues(np.ones((4, 1)), np.full((1, 4), np.nan))

    @pytest.mark.parametrize("m, n", [(5, 2), (2, 2)])
    def test_failure_maps_to_convergence_error(self, monkeypatch, m, n):
        def boom(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", boom)
        with pytest.raises(ConvergenceFailure):
            product_eigenvalues(np.ones((m, n)), np.ones((n, m)))


class TestSortEigenvalueRows:
    def test_rows_sorted_independently(self):
        rows = np.array([[1.0 + 0j, 3.0 + 0j], [2.0j, -2.0j]])
        out = sort_eigenvalue_rows(rows)
        assert np.allclose(out[0], [3.0, 1.0])
        assert np.allclose(out[1], [2.0j, -2.0j])

    @staticmethod
    def flattened_lexsort(values):
        """The oracle: one lexsort of the flattened rows, keyed last (so first) by row index."""
        v = np.asarray(values, dtype=complex)
        n_rows, m = v.shape
        rows = np.repeat(np.arange(n_rows), m)
        flat = v.ravel()
        order = np.lexsort((-flat.real, -flat.imag, -np.abs(flat), rows))
        return flat[order].reshape(n_rows, m)

    @pytest.mark.parametrize("kind", ["random", "tied", "zero_padded", "conjugate_duplicated"])
    def test_matches_flattened_lexsort(self, kind):
        # Same order, bit for bit, on rows with exact ties (signed zeros among them), on rows
        # padded with zeros as product_eigenvalues pads them, and on repeated conjugate pairs.
        rng = np.random.default_rng(0)
        for _ in range(75):
            n_rows, m = int(rng.integers(1, 40)), int(rng.integers(1, 13))
            shape = (n_rows, m)
            if kind == "random":
                rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            elif kind == "tied":  # few distinct values; +-0.0 on both parts
                signs = rng.choice([-1.0, 1.0], size=(2,) + shape)
                rows = (signs[0] * rng.integers(-1, 2, shape)
                        + 1j * signs[1] * rng.integers(-1, 2, shape))
            elif kind == "zero_padded":
                rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                rows[:, rng.integers(0, m + 1):] = rng.choice([0.0, -0.0])
            else:  # conjugate pairs, each repeated, and shuffled
                half = rng.standard_normal((n_rows, m)) + 1j * rng.standard_normal((n_rows, m))
                rows = np.concatenate([half, np.conj(half), half[:, ::-1]], axis=1)
                rows = rng.permuted(rows, axis=1)
            got, want = sort_eigenvalue_rows(rows), self.flattened_lexsort(rows)
            assert np.array_equal(got.view(float), want.view(float))
            assert got.tobytes() == want.tobytes()  # signed zeros too


class TestGaussLaguerre:
    def test_single_node_constant(self):
        nodes, weights = gauss_laguerre_nodes(1)
        assert np.sum(weights * 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_two_nodes_linear(self):
        nodes, weights = gauss_laguerre_nodes(2)
        assert np.sum(weights * nodes) == pytest.approx(1.0, rel=1e-13)

    def test_gamma_six(self):
        nodes, weights = gauss_laguerre_nodes(64)
        assert np.sum(weights * nodes**5) == pytest.approx(120.0, rel=1e-9)

    def test_nodes_increasing_positive(self):
        for count in (1, 2, 16, 64, 256):
            nodes, _ = gauss_laguerre_nodes(count)
            assert nodes[0] > 0
            assert np.all(np.diff(nodes) > 0)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 8, 16, 32, 64])
    def test_monomial_exactness(self, count):
        # Exact for p^d with d <= 2*count - 1; compare in log space against
        # Gamma(d + 1) so large monomials do not overflow pointwise.
        nodes, weights = gauss_laguerre_nodes(count)
        log_w = np.log(weights)
        log_x = np.log(nodes)
        for d in range(2 * count):
            log_terms = log_w + d * log_x
            shift = log_terms.max()
            total = np.log(np.sum(np.exp(log_terms - shift))) + shift
            assert abs(np.exp(total - gammaln(d + 1)) - 1.0) <= 1e-9

    def test_rule_cached_read_only(self):
        nodes, weights = gauss_laguerre_nodes(64)
        assert gauss_laguerre_nodes(64)[0] is nodes
        with pytest.raises(ValueError):
            weights[0] = 1.0

    @pytest.mark.parametrize("count", [1, 2, 8, 64, 128, 256])
    def test_matches_scipy_rule(self, count):
        # The in-house Golub-Welsch rule against scipy's.  The moment bound
        # is what keeps the cancellation-heavy operator variance accurate: a
        # rule with one Newton step on the plain recurrence and unscaled
        # weights passes the monomial test above but misses it.
        nodes, weights = gauss_laguerre_nodes(count)
        ref_nodes, ref_weights = roots_laguerre(count)
        assert np.all(np.isfinite(weights)) and np.all(weights >= 0)
        assert np.all(weights[ref_weights > 0] > 0)
        assert np.max(np.abs(weights - ref_weights)) <= 1e-13
        assert np.max(np.abs(nodes / ref_nodes - 1.0)) <= 1e-14
        for d in range(min(2 * count, 40)):
            moment = np.sum(weights * nodes**d) / np.exp(gammaln(d + 1))
            assert abs(moment - 1.0) <= 3e-14

    @pytest.mark.parametrize("upper, panels", [(0.3, 1), (50.0, 8), (400.0, 11)])
    def test_composite_legendre_rule(self, upper, panels):
        # Panels [0, 0.5], [0.5, 1], [1, 2], ... doubling, the last ending at upper.
        nodes, weights = composite_legendre_nodes(upper)
        assert nodes.size == weights.size == 24 * panels
        assert np.all(np.diff(nodes) > 0) and 0.0 < nodes[0] and nodes[-1] < upper
        assert np.all(weights > 0)
        assert weights.sum() == pytest.approx(upper, rel=1e-14)
        assert abs(np.sum(weights * np.exp(-nodes)) + np.expm1(-upper)) <= 1e-14
        assert composite_legendre_nodes(upper)[0] is nodes
        with pytest.raises(ValueError):
            weights[0] = 1.0

    @pytest.mark.parametrize("count", [0, -3, 257])
    def test_count_out_of_range(self, count):
        with pytest.raises(ConfigError, match=r"node count must be in \[1, 256\]"):
            gauss_laguerre_nodes(count)


class TestRowBlocks:
    @settings(max_examples=300, deadline=None)
    @given(count=st.integers(1, 3000), width=st.integers(0, 2 * 10**5),
           least=st.integers(1, 700))
    @example(count=7, width=40_000, least=3)  # a 4-row block: 160,000 elements
    def test_cover_in_order_within_bounds(self, count, width, least):
        blocks = row_blocks(count, width, least)
        assert [0] + [b for _, b in blocks] == [a for a, _ in blocks] + [count]
        most = max(least, numerics._CHUNK_SCALARS // 32 // max(1, width))
        for a, b in blocks:
            assert b - a >= least or blocks == [(0, count)]
            assert b - a <= max(most, 2 * least - 1)


class TestRowTable:
    def test_pin_not_held_between_blocks(self):
        # Each block is made at one BLAS thread, and a consumer that stops mid-table, its
        # generator still alive (as a traceback keeps it), finds the count back at its setting.
        seen = []

        def rows(a, b, out=None):
            seen.append(openblas_thread_counts())
            return np.ones((b - a, 4))

        with openblas_threads(2):
            blocks = RowTable((4, 4), rows).blocks()
            next(blocks)
            assert set(openblas_thread_counts()) <= {2}
            blocks.close()
        assert len(seen) == 1 and set(seen[0]) <= {1}


class TestSliceWorkers:
    """The calling thread runs the first slice and a pool of ``threads - 1`` the rest."""

    @staticmethod
    def map_slices(monkeypatch, threads, fn, count):
        monkeypatch.setattr(numerics, "_one_blas_thread", fixed_blas_workers(threads))
        with numerics.slice_workers() as map_slices:
            return map_slices(fn, count)

    def test_first_slice_on_calling_thread_results_in_slice_order(self, monkeypatch):
        # Slice 0 finishes last, yet comes back first; every other slice runs on a pool thread.
        def fn(lo, hi):
            if lo == 0:
                time.sleep(0.2)
            return lo, hi, threading.get_ident()

        got = self.map_slices(monkeypatch, 3, fn, 7)
        assert [(lo, hi) for lo, hi, _ in got] == [(0, 2), (2, 4), (4, 7)]
        assert got[0][2] == threading.get_ident()
        assert threading.get_ident() not in {ident for _, _, ident in got[1:]}

    @pytest.mark.parametrize("failing", [0, 2], ids=["caller", "pool"])
    def test_slice_exception_propagates(self, monkeypatch, failing):
        def fn(lo, hi):
            if lo == failing:
                raise ValueError(f"slice at {lo}")
            return lo

        with pytest.raises(ValueError, match=f"^slice at {failing}$"):
            self.map_slices(monkeypatch, 2, fn, 4)

    def test_no_thread_started_at_one_blas_thread(self, monkeypatch):
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        got = self.map_slices(monkeypatch, 1, lambda lo, hi: (lo, hi, threading.get_ident()), 5)
        assert got == [(0, 5, threading.get_ident())]
        assert started == []


def test_setters_found_once_until_an_import(monkeypatch):
    # The mapped libraries are scanned at the first entry, not again while no module is
    # imported, and once more after an import, which may load another OpenBLAS.
    scans, scan = [], numerics._openblas_setters
    monkeypatch.setattr(numerics, "_openblas_setters", lambda: scans.append(1) or scan())
    monkeypatch.setitem(numerics._pin, "modules", -1)  # no scan made yet
    for _ in range(100):
        with numerics._one_blas_thread(), numerics._one_blas_thread():
            pass
    assert len(scans) == 1
    monkeypatch.setitem(sys.modules, "dmduq_test_imported", types.ModuleType("imported"))
    with numerics._one_blas_thread() as threads:
        assert threads >= 1
    assert len(scans) == 2


def test_overlapping_entries_share_the_pin():
    # While one thread holds the pin, another enters without waiting, finds BLAS at one
    # thread, is told the count the first entry saved, and leaves the pin in place for the
    # first; the last exit restores the setting.
    if not openblas_thread_controls():
        pytest.skip("no OpenBLAS with thread controls is loaded")
    held, release, seen = threading.Event(), threading.Event(), []

    def hold():
        with numerics._one_blas_thread():
            held.set()
            release.wait(timeout=30)

    def enter():
        with numerics._one_blas_thread() as threads:
            seen.append((threads, openblas_thread_counts()))
            check_tables(np.eye(2), np.eye(2), CORRECTED)
        seen.append("left")

    with openblas_threads(2):
        first = threading.Thread(target=hold, daemon=True)
        second = threading.Thread(target=enter, daemon=True)
        try:
            first.start()
            assert held.wait(timeout=5)
            second.start()
            second.join(timeout=5)
            assert not second.is_alive()
            assert seen == [(2, [1] * len(openblas_thread_controls())), "left"]
            assert set(openblas_thread_counts()) == {1}
        finally:
            release.set()
            first.join(timeout=30)
            second.join(timeout=30)
        assert not first.is_alive()
        assert set(openblas_thread_counts()) == {2}
