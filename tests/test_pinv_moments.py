import sys
import tracemalloc

import numpy as np
import pytest
from conftest import (
    element_context,
    element_integrands,
    mgf_direct_mpmath,
    random_mgf_context,
    run_python,
    scipy_moment_element,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.integrate import quad, trapezoid

from dmduq import numerics
from dmduq.data_model import NoiseModel, RawTrajectory, build_snapshots
from dmduq.errors import (
    ConfigError,
    DimensionMismatch,
    MomentComputationError,
    QuadratureNotConverged,
    SingularGram,
)
from dmduq.pinv_moments import (
    MgfContext,
    PinvMoments,
    QuadratureConfig,
    _decay_rate,
    _integrate,
    _kernel,
    build_context,
    first_moment_element,
    gram_complement_inverses,
    pinv_moments,
    second_moment_element,
)

# Scalar toys on X = [1, 2]: column t=0 has V=4, mu=1; column t=1 has V=1,
# mu=2.  Frozen expectations computed with scipy.integrate.quad over the
# noise variable x directly:
#   E[x / (V + x^2)]        and        E[x^2 / (V + x^2)^2]
SCALAR_ORACLE = {
    (4.0, 1.0, 0.0001): (0.19999120039360493, 0.039997920470342396),
    (4.0, 1.0, 0.04): (0.19654317978602187, 0.039239610939994916),
    (1.0, 2.0, 0.0001): (0.40000159963514614, 0.16000271963512616),
    (1.0, 2.0, 0.04): (0.40057812363256273, 0.16102483163202014),
}


def scalar_oracle(V: float, mu: float, s2: float) -> tuple[float, float]:
    """Direct 1-D expectations over the noise variable, independent of p2."""
    s = np.sqrt(s2)

    def pdf(x):
        return np.exp(-((x - mu) ** 2) / (2.0 * s2)) / np.sqrt(2.0 * np.pi * s2)

    lo, hi = mu - 14.0 * s, mu + 14.0 * s
    e1 = quad(lambda x: x / (V + x * x) * pdf(x), lo, hi, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
    e2 = quad(
        lambda x: x * x / (V + x * x) ** 2 * pdf(x), lo, hi, epsabs=1e-16, epsrel=1e-13, limit=200
    )[0]
    return e1, e2


def scalar_context(V: float, mu: float, s2: float) -> MgfContext:
    noise = NoiseModel(variances=np.array([s2]))
    return element_context(np.array([[1.0 / V]]), np.array([mu]), noise, k=0)


def snapshots_from_states(states: np.ndarray, extra_column=None):
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if extra_column is None:
        extra_column = np.zeros((states.shape[0], 1))
    samples = np.hstack([states, np.asarray(extra_column, dtype=float).reshape(-1, 1)])
    times = np.arange(samples.shape[1]) * 0.1
    return build_snapshots(RawTrajectory(times=times, samples=samples))


def random_context(rng, n=None):
    return random_mgf_context(rng, n)[0]


class TestBuildContext:
    def test_gram_complement_example(self):
        snaps = snapshots_from_states([[1.0, 2.0, 1.0], [0.0, 1.0, -1.0]])
        noise = NoiseModel(variances=np.array([0.01, 0.01]))
        # V = [[5, 1], [1, 2]] from the two remaining columns; R by direct
        # 2x2 inversion: (1/9) [[2, -1], [-1, 5]].
        expected_R = np.array([[2.0, -1.0], [-1.0, 5.0]]) / 9.0
        (R,), singular = gram_complement_inverses(snaps.states, 0.0, np.array([0]))
        assert not singular
        assert np.allclose(R, expected_R, rtol=1e-10)
        # The context is that R's and the column mean [1, 0]'s whitened pieces.
        ctx = build_context(snaps, noise, t=0, k=0)
        want = element_context(expected_R, np.array([1.0, 0.0]), noise, k=0)
        for got, expected in zip(ctx.pieces, want.pieces, strict=True):
            assert np.allclose(got, expected, rtol=1e-10, atol=1e-14)

    def test_rank_deficient_raises_singular(self):
        snaps = snapshots_from_states(2.0 * np.eye(3), extra_column=np.ones(3))
        noise = NoiseModel(variances=np.full(3, 0.01))
        with pytest.raises(SingularGram):
            build_context(snaps, noise, t=0, k=0)

    def test_ridge_recovers_singular_case(self):
        snaps = snapshots_from_states(2.0 * np.eye(3), extra_column=np.ones(3))
        noise = NoiseModel(variances=np.full(3, 0.01))
        build_context(snaps, noise, t=0, k=0, ridge=1e-6)
        (R,), singular = gram_complement_inverses(snaps.states, 1e-6, np.array([0]))
        assert not singular
        assert R[0, 0] == pytest.approx(1e6, rel=1e-6)
        assert R[1, 1] == pytest.approx(0.25, rel=1e-5)
        assert R[2, 2] == pytest.approx(0.25, rel=1e-5)

    def test_negative_ridge_rejected(self):
        snaps = snapshots_from_states([[1.0, 2.0, 1.0], [0.0, 1.0, -1.0]])
        noise = NoiseModel(variances=np.array([0.01, 0.01]))
        with pytest.raises(ConfigError):
            build_context(snaps, noise, t=0, k=0, ridge=-1.0)


class TestShermanMorrison:
    def test_rank_one_update_identity(self):
        # inv(X X.T) equals the downdated form built from V = X X.T - x x.T.
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n + 1, n + 8))
            X = rng.standard_normal((n, m))
            t = int(rng.integers(0, m))
            x = X[:, t]
            gram_inv = np.linalg.inv(X @ X.T)
            V_inv = np.linalg.inv(X @ X.T - np.outer(x, x))
            update = V_inv - (V_inv @ np.outer(x, x) @ V_inv) / (1.0 + x @ V_inv @ x)
            rel = np.linalg.norm(gram_inv - update) / np.linalg.norm(gram_inv)
            assert rel <= 1e-10


def mgf_at_p1_zero(context: MgfContext, p2: float) -> float:
    """The generating function at p1 = 0, the envelope exp(core_log - p2) of the kernel."""
    core_log, _, _ = _kernel(context.pieces, np.array([[p2]]))
    return float(np.exp(core_log[0, 0] - p2))


class TestMgfClosedForm:
    def test_scalar_substitution(self):
        noise = NoiseModel(variances=np.array([1.0]))
        ctx = element_context(np.array([[1.0]]), np.array([0.0]), noise, k=0)
        assert mgf_at_p1_zero(ctx, 1.0) == pytest.approx(np.exp(-1.0) / np.sqrt(3.0), rel=1e-12)

    def test_matches_direct_formula(self):
        # The stabilized log-domain value must equal the raw definition
        # evaluated by independent arbitrary-precision linear algebra.
        rng = np.random.default_rng(14)
        for _ in range(30):
            ctx, R, mu, noise, k = random_mgf_context(rng)
            p2 = float(rng.uniform(0.05, 4.0))
            direct = float(mgf_direct_mpmath(R, mu, noise.covariance(), k, mp.mpf(0), mp.mpf(p2)))
            assert mgf_at_p1_zero(ctx, p2) == pytest.approx(direct, rel=1e-12)

    def test_finite_difference_consistency(self):
        # Central differences of the generating function in p1 at 0 must
        # reproduce the integrand factors of both moment integrals within
        # 1e-6 relative.  The oracle evaluates the raw definition in
        # arbitrary precision (float64 black-box differences at step 1e-5
        # have a round-off floor near 1e-4 relative).  The second
        # difference uses the stated step 1e-5; its kernel is strictly
        # positive so the relative bound is well conditioned.  The first
        # difference uses a smaller step because its kernel crosses zero,
        # where relative truncation error of any fixed step diverges; an
        # envelope-scaled floor covers the crossing itself.
        rng = np.random.default_rng(4)
        for _ in range(100):
            ctx, R, mu, noise, k = random_mgf_context(rng)
            p2 = float(rng.uniform(0.05, 4.0))
            cov = noise.covariance()
            with mp.workdps(60):
                d1, d2 = mp.mpf("1e-8"), mp.mpf("1e-5")
                h = lambda p1: mgf_direct_mpmath(R, mu, cov, k, p1, mp.mpf(p2))
                h0 = h(mp.mpf(0))
                fd1 = float((h(d1) - h(-d1)) / (2 * d1))
                fd2 = float((h(d2) - 2 * h0 + h(-d2)) / d2**2)
                envelope = float(h0)
            f1, f2 = element_integrands(ctx, np.array([p2]))
            assert fd1 == pytest.approx(f1[0], rel=1e-6, abs=1e-12 * envelope)
            assert fd2 == pytest.approx(f2[0] / p2, rel=1e-6)


class TestFirstMomentElement:
    def test_zero_mean_gives_zero(self):
        ctx = scalar_context(4.0, 0.0, 0.04)
        assert first_moment_element(ctx) == 0.0

    def test_zero_noise_limit(self):
        ctx = scalar_context(4.0, 1.0, 1e-16)
        assert first_moment_element(ctx) == pytest.approx(0.2, abs=1e-6)

    @pytest.mark.parametrize("key", sorted(SCALAR_ORACLE))
    def test_scalar_oracle(self, key):
        V, mu, s2 = key
        frozen_first, _ = SCALAR_ORACLE[key]
        live_first, _ = scalar_oracle(V, mu, s2)
        assert live_first == pytest.approx(frozen_first, rel=1e-10)
        ctx = scalar_context(V, mu, s2)
        assert first_moment_element(ctx) == pytest.approx(frozen_first, rel=1e-6)

    def test_adaptive_matches_gauss_laguerre(self):
        ctx = scalar_context(4.0, 1.0, 0.04)
        gl = first_moment_element(ctx, QuadratureConfig(method="gauss_laguerre"))
        ad = first_moment_element(ctx, QuadratureConfig(method="adaptive_truncated"))
        assert gl == pytest.approx(ad, rel=1e-9)
        # Both rules against adaptive scipy quadrature on the same truncated axis.
        for key in sorted(SCALAR_ORACLE):
            ctx = scalar_context(*key)
            for order, element in ((1, first_moment_element), (2, second_moment_element)):
                reference = scipy_moment_element(ctx, order)
                for method in ("gauss_laguerre", "adaptive_truncated"):
                    value = element(ctx, QuadratureConfig(method=method))
                    assert value == pytest.approx(reference, rel=1e-9)

    def test_cross_check_passes_at_default_nodes(self):
        ctx = scalar_context(4.0, 1.0, 0.04)
        first_moment_element(ctx, QuadratureConfig(cross_check=True))

    def test_cross_check_catches_coarse_rule(self):
        ctx = scalar_context(4.0, 1.0, 0.04)
        with pytest.raises(QuadratureNotConverged):
            first_moment_element(ctx, QuadratureConfig(node_count=1, cross_check=True))

    def test_monotone_noise_degeneracy(self):
        target = 0.2  # the noise-free element mu / (V + mu**2)
        errors = []
        for s2 in (1e-2, 1e-4, 1e-6, 1e-8):
            ctx = scalar_context(4.0, 1.0, s2)
            errors.append(abs(first_moment_element(ctx) - target))
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-6


class TestSecondMomentElement:
    @pytest.mark.parametrize("key", sorted(SCALAR_ORACLE))
    def test_scalar_oracle(self, key):
        V, mu, s2 = key
        _, frozen_second = SCALAR_ORACLE[key]
        _, live_second = scalar_oracle(V, mu, s2)
        assert live_second == pytest.approx(frozen_second, rel=1e-10)
        ctx = scalar_context(V, mu, s2)
        assert second_moment_element(ctx) == pytest.approx(frozen_second, rel=1e-6)

    def test_zero_noise_limit_squares_first(self):
        ctx = scalar_context(4.0, 1.0, 1e-16)
        assert second_moment_element(ctx) == pytest.approx(0.04, abs=1e-6)

    def test_strictly_positive_at_zero_mean(self):
        ctx = scalar_context(4.0, 0.0, 0.04)
        assert second_moment_element(ctx) > 0.0

    def test_full_covariance_against_mc(self):
        # Non-diagonal SPD noise covariance: moments of the ratio checked
        # against two million correlated draws.
        R = np.linalg.inv(np.array([[5.0, 1.0], [1.0, 2.0]]))
        cov = np.array([[0.02, 0.01], [0.01, 0.03]])
        noise = NoiseModel(variances=np.diag(cov), full_covariance=cov)
        mu = np.array([0.8, -0.4])
        rng = np.random.default_rng(17)
        x = mu + rng.multivariate_normal(np.zeros(2), cov, size=2_000_000)
        den = 1.0 + np.einsum("ij,jk,ik->i", x, R, x)
        for k in range(2):
            ctx = element_context(R, mu, noise, k=k)
            num = x @ R[:, k]
            ratio = num / den
            for order, op in ((1, first_moment_element), (2, second_moment_element)):
                samples = ratio if order == 1 else ratio**2
                se = samples.std(ddof=1) / np.sqrt(samples.size)
                assert op(ctx) == pytest.approx(samples.mean(), abs=3.0 * se)

    def test_zero_mean_matrix_case_against_mc(self):
        # mu = 0, n = 2, Sigma = 0.01 I, R from the worked Gram example;
        # Monte Carlo of (r.k @ x / (1 + x.T R x))^2 with a million draws.
        V = np.array([[5.0, 1.0], [1.0, 2.0]])
        R = np.linalg.inv(V)
        noise = NoiseModel(variances=np.array([0.01, 0.01]))
        ctx = element_context(R, np.zeros(2), noise, k=0)
        value = second_moment_element(ctx)
        rng = np.random.default_rng(5)
        x = 0.1 * rng.standard_normal((1_000_000, 2))
        num = x @ R[:, 0]
        den = 1.0 + np.einsum("ij,jk,ik->i", x, R, x)
        samples = (num / den) ** 2
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert value > 0.0
        assert abs(value - samples.mean()) <= 3.0 * se


class TestGaussianIntegralIdentity:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dense_grid_integration(self, dim):
        # integral exp(-u.T L u + v.T u) du == pi^(n/2) |L|^(-1/2)
        #   exp(v.T L^-1 v / 4); trapezoid on a Gaussian converges fast.
        rng = np.random.default_rng(10 + dim)
        B = rng.standard_normal((dim, dim))
        L = B @ B.T + np.eye(dim)
        v = rng.standard_normal(dim)
        center = 0.5 * np.linalg.solve(L, v)
        width = 8.0 / np.sqrt(np.linalg.eigvalsh(L).min())
        axes = [np.linspace(c - width, c + width, 81) for c in center]
        grids = np.meshgrid(*axes, indexing="ij")
        u = np.stack([g.ravel() for g in grids], axis=1)
        values = np.exp(-np.einsum("ij,jk,ik->i", u, L, u) + u @ v).reshape(grids[0].shape)
        for axis in reversed(range(dim)):
            values = trapezoid(values, axes[axis], axis=axis)
        expected = np.pi ** (dim / 2.0) / np.sqrt(np.linalg.det(L)) * np.exp(v @ np.linalg.solve(L, v) / 4.0)
        assert values == pytest.approx(expected, rel=1e-5)


class TestPinvMomentsTable:
    def test_zero_noise_collapse(self):
        rng = np.random.default_rng(6)
        states = rng.standard_normal((2, 9))
        snaps = snapshots_from_states(states)
        noise = NoiseModel(variances=np.full(2, 1e-16))
        table = pinv_moments(snaps, noise)
        pinv = states.T @ np.linalg.inv(states @ states.T)
        assert np.abs(table.first - pinv).max() <= 1e-6
        assert np.abs(table.second_raw - pinv**2).max() <= 1e-6

    def test_jensen_invariant(self):
        rng = np.random.default_rng(7)
        snaps = snapshots_from_states(rng.standard_normal((2, 8)))
        noise = NoiseModel(variances=np.array([0.05, 0.02]))
        table = pinv_moments(snaps, noise)
        assert (table.second_raw - table.first**2).min() >= -1e-12

    def test_jensen_violation_rejected(self):
        with pytest.raises(QuadratureNotConverged):
            PinvMoments(first=np.array([[1.0]]), second_raw=np.array([[0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("names", [["first"], ["second_raw"], ["first", "second_raw"]])
    def test_non_finite_names_table_and_element(self, names, bad):
        # The Jensen check passes a NaN gap: a NaN in either table, or inf in both.
        tables = {"first": np.array([[0.1, 0.4], [0.2, 0.3]]),
                  "second_raw": np.array([[0.02, 1.0], [0.05, 0.1]])}
        for name in names:
            tables[name][0, 1] = bad
        with pytest.raises(DimensionMismatch, match=rf"{names[0]} at \(t=0, k=1\) = {bad}"):
            PinvMoments(**tables)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        snaps = snapshots_from_states(rng.standard_normal((2, 8)))
        noise = NoiseModel(variances=np.array([0.05, 0.02]))
        a = pinv_moments(snaps, noise)
        b = pinv_moments(snaps, noise)
        assert np.array_equal(a.first, b.first)
        assert np.array_equal(a.second_raw, b.second_raw)

    def test_block_size_invariant(self, monkeypatch):
        rng = np.random.default_rng(10)
        snaps = snapshots_from_states(rng.standard_normal((3, 11)))
        noise = NoiseModel(variances=np.array([0.03, 0.01, 0.02]))
        a = pinv_moments(snaps, noise)
        # Kernel blocks of at most 4 columns at n = 3 and the default 64 nodes.
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 8 * 3 * 64 * 4)
        b = pinv_moments(snaps, noise)
        assert np.array_equal(a.first, b.first)
        assert np.array_equal(a.second_raw, b.second_raw)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        extra=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        full_covariance=st.booleans(),
        ridge=st.sampled_from([0.0, 1e-3, 0.5]),
        noise_scale=st.sampled_from([1e-6, 1e-2, 0.3]),
    )
    def test_table_equals_element_api(self, n, extra, seed, full_covariance, ridge, noise_scale):
        # Every table element must be what the element-level API gives for
        # the same (t, k), for any state count, covariance shape and ridge.
        rng = np.random.default_rng(seed)
        m = n + extra
        snaps = snapshots_from_states(rng.standard_normal((n, m)))
        if full_covariance:
            B = rng.standard_normal((n, n))
            cov = noise_scale * (B @ B.T / n + 0.5 * np.eye(n))
            noise = NoiseModel(variances=np.diag(cov).copy(), full_covariance=cov)
        else:
            noise = NoiseModel(variances=noise_scale * rng.uniform(0.5, 1.5, n))
        table = pinv_moments(snaps, noise, ridge=ridge)
        for t in range(m):
            for k in range(n):
                ctx = build_context(snaps, noise, t, k, ridge=ridge)
                assert first_moment_element(ctx) == table.first[t, k]
                assert second_moment_element(ctx) == table.second_raw[t, k]

    def test_only_singular_columns_reported(self):
        # X = [e1, e2, e2]: dropping column 0 leaves two copies of e2, so only
        # V_0 is singular; its leverage x_0.T inv(X X.T) x_0 is exactly 1.
        snaps = snapshots_from_states([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        noise = NoiseModel(variances=np.full(2, 0.01))
        with pytest.raises(MomentComputationError) as info:
            pinv_moments(snaps, noise)
        failures = info.value.failures
        assert [(t, k) for t, k, _ in failures] == [(0, None)]
        err = failures[0][2]
        assert isinstance(err, SingularGram)
        assert "leverage h_t = 1 " in str(err) and "ridge=0.0" in str(err)
        assert "leverage h_t = 1 " in str(info.value)
        with pytest.raises(SingularGram, match="leverage h_t = 1 "):
            build_context(snaps, noise, t=0, k=0)
        build_context(snaps, noise, t=1, k=0)

    def test_cross_check_failures_per_element(self):
        # X = [1, 2]: columns (V=4, mu=1) and (V=1, mu=2).  A one-node
        # Gauss-Laguerre rule is far from the composite Gauss-Legendre rule.
        snaps = snapshots_from_states([[1.0, 2.0]])
        noise = NoiseModel(variances=np.array([0.04]))
        coarse = QuadratureConfig(node_count=1)
        with pytest.raises(MomentComputationError) as info:
            pinv_moments(snaps, noise, quad=QuadratureConfig(node_count=1, cross_check=True))
        adaptive = QuadratureConfig(method="adaptive_truncated")
        # Element values: the one-node tables themselves fail the Jensen check.
        values = {(t, quad): [element(build_context(snaps, noise, t, 0), quad)
                              for element in (first_moment_element, second_moment_element)]
                  for t in (0, 1) for quad in (coarse, adaptive)}
        tol = 100.0 * coarse.rel_tol
        expected = [(t, 0) for t in (0, 1) if any(
            abs(a - b) > tol * max(abs(a), abs(b))
            for a, b in zip(values[t, coarse], values[t, adaptive]))]
        failures = info.value.failures
        assert expected == [(0, 0), (1, 0)]
        assert [(t, k) for t, k, _ in failures] == expected
        assert all(isinstance(err, QuadratureNotConverged) for _, _, err in failures)
        for t, _, err in failures:
            (gl_first, gl_second), (ad_first, ad_second) = values[t, coarse], values[t, adaptive]
            assert f"first table: Gauss-Laguerre {gl_first:.12e} vs composite Gauss-Legendre " \
                   f"{ad_first:.12e}" in str(err)
            assert f"second_raw table: Gauss-Laguerre {gl_second:.12e}" in str(err)

    def test_cross_check_keeps_configured_tables(self):
        rng = np.random.default_rng(11)
        snaps = snapshots_from_states(rng.standard_normal((3, 9)))
        noise = NoiseModel(variances=np.array([0.03, 0.01, 0.02]))
        for method in ("gauss_laguerre", "adaptive_truncated"):
            plain = pinv_moments(snaps, noise, quad=QuadratureConfig(method=method))
            checked = pinv_moments(snaps, noise, quad=QuadratureConfig(method=method, cross_check=True))
            assert np.array_equal(plain.first, checked.first)
            assert np.array_equal(plain.second_raw, checked.second_raw)

    def test_no_scipy_at_run_time(self, tmp_path):
        # scipy is blocked, as in a numpy-only install: importing it would raise.
        code = """if True:
            import sys
            sys.modules["scipy"] = None
            import numpy as np
            import dmduq as dq
            from dmduq.pinv_moments import QuadratureConfig, build_context
            traj = dq.simulate_spring_mass(dq.SpringMassParams(duration=2.0, dt=0.1))
            snaps = dq.build_snapshots(traj)
            noise = dq.NoiseModel(variances=np.full(2, 1e-6))
            for quad in (QuadratureConfig(cross_check=True),
                         QuadratureConfig(method="adaptive_truncated")):
                dq.pinv_moments(snaps, noise, quad=quad)
                dq.first_moment_element(build_context(snaps, noise, 3, 1), quad)
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m]))
        """
        proc = run_python(["-c", code], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_error_aggregation_with_locations(self):
        snaps = snapshots_from_states(2.0 * np.eye(3), extra_column=np.ones(3))
        noise = NoiseModel(variances=np.full(3, 0.01))
        with pytest.raises(MomentComputationError) as info:
            pinv_moments(snaps, noise)
        failures = info.value.failures
        assert len(failures) == 3  # every column's Gram complement is singular
        assert all(isinstance(err, SingularGram) for _, _, err in failures)
        assert [t for t, _, _ in failures] == [0, 1, 2]


class TestIntegrate:
    # The node sums of ``_integrate`` on integrand values set by hand: rate 1, so
    # p2 = u, and the kernel's values are given at each node.
    @staticmethod
    def integrate(monkeypatch, core_log, t_rb, t_rr, nodes, weights):
        pieces = (np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), None)
        kernel = (np.array([core_log], float), np.array([[t_rb]], float), np.array([[t_rr]], float))
        monkeypatch.setattr(sys.modules["dmduq.pinv_moments"], "_kernel", lambda *_: kernel)
        first, second = _integrate(pieces, np.array(nodes, float), np.array(weights, float), False)
        return first[0, 0], second[0, 0]

    def test_cancellation(self, monkeypatch):
        # Equal positive and negative terms are summed apart, then cancel exactly.
        first, _ = self.integrate(monkeypatch, [0.0, 0.0], [1.0, -1.0], [1.0, 1.0],
                                  [1.0, 1.0], [0.5, 0.5])
        assert first == 0.0

    @pytest.mark.parametrize("laguerre", [True, False], ids=["laguerre", "legendre"])
    def test_matches_direct(self, laguerre):
        # A direct float sum of the full integrands at the rule's nodes.
        rng = np.random.default_rng(5)
        for _ in range(10):
            context = random_context(rng)
            nodes, weights = (numerics.gauss_laguerre_nodes(64) if laguerre
                              else numerics.composite_legendre_nodes(400.0))
            rate = float(_decay_rate(context.pieces)[0])
            integrands = element_integrands(context, nodes / rate)
            factor = weights * (np.exp(nodes) if laguerre else 1.0) / rate
            tables = _integrate(context.pieces, nodes, weights, laguerre)
            for table, integrand in zip(tables, integrands):
                direct = (factor * integrand).sum()
                assert table[0, context.k] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("core_log", [-np.inf, -1e4], ids=["log_zero", "exp_underflow"])
    def test_all_underflow(self, monkeypatch, core_log):
        # Every term of the column underflows: both sums are 0, not NaN.
        assert self.integrate(monkeypatch, [core_log] * 3, [1.0, -2.0, 3.0], [1.0] * 3,
                              [1.0, 2.0, 3.0], [1.0] * 3) == (0.0, 0.0)

    @pytest.mark.parametrize("method", ["gauss_laguerre", "adaptive_truncated"])
    @pytest.mark.parametrize("shape", [(2, 999), (34, 400)])
    def test_tables_do_not_depend_on_blas_threads(self, method, shape):
        rng = np.random.default_rng(11)
        snaps = snapshots_from_states(rng.standard_normal(shape))
        noise = NoiseModel(variances=np.full(shape[0], 1e-2))
        quad = QuadratureConfig(method=method)
        default = pinv_moments(snaps, noise, quad)
        with numerics._one_blas_thread():
            single = pinv_moments(snaps, noise, quad)
        assert np.array_equal(default.first, single.first)
        assert np.array_equal(default.second_raw, single.second_raw)


class TestGramComplementInverses:
    def test_groups_bound_memory_not_bits(self, monkeypatch):
        # Filled 50 inverses at a time, the stack is the only thing of its size held;
        # each inverse keeps the bits it has when the whole stack is one group.
        n, m, group = 8, 1500, 50
        X = np.random.default_rng(11).standard_normal((n, m))
        whole, singular = gram_complement_inverses(X, 0.0, np.arange(m))
        assert not singular
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * group * n * n)
        tracemalloc.start()
        try:
            grouped, _ = gram_complement_inverses(X, 0.0, np.arange(m))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(grouped, whole)
        assert peak < (m + 16 * group) * n * n * 8


class TestQuadratureConfig:
    def test_bad_method(self):
        with pytest.raises(ConfigError):
            QuadratureConfig(method="simpson")

    def test_bad_node_count(self):
        with pytest.raises(ConfigError):
            QuadratureConfig(node_count=0)

    def test_bad_rel_tol(self):
        with pytest.raises(ConfigError):
            QuadratureConfig(rel_tol=0.5)

    @pytest.mark.parametrize("p2_max", [0.0, -1.0, np.inf, np.nan])
    def test_bad_p2_max(self, p2_max):
        with pytest.raises(ConfigError, match="p2_max must be positive and finite"):
            QuadratureConfig(p2_max=p2_max)
