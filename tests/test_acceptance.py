"""Acceptance gate: every criterion prints one PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo
equivalence criteria are statistical bounds made deterministic by pinned
seeds; every tolerance here is fixed, nothing is calibrated at runtime.
"""

import time

import numpy as np
import pytest
from conftest import (
    element_context,
    element_integrands,
    mgf_direct_mpmath,
    openblas_threads,
    random_mgf_context,
    run_cli,
    scipy_moment_element,
)
from mpmath import mp
from scipy.integrate import quad as scipy_quad
from scipy.integrate import trapezoid

import dmduq as dq
from dmduq.data_model import RawTrajectory
from dmduq.monte_carlo import sample_operator_instances
from dmduq.numerics import gauss_laguerre_nodes, spd_inverses
from dmduq.operator_moments import CORRECTED, PAPER_LITERAL, OperatorMoments
from dmduq.pinv_moments import QuadratureConfig
from dmduq.spectral import (
    EigenSampleSet,
    eigen_moments,
    eigen_samples,
    kde2d,
    silverman_bandwidth,
)
from dmduq.systems import spring_mass_energy

# (state count, snapshot count, noise as fraction of per-state RMS,
#  data seed, MC master seed)
SYSTEMS = [
    (2, 8, 0.01, 101, 1001),
    (2, 12, 0.03, 102, 1002),
    (3, 8, 0.02, 103, 1013),
    (3, 12, 0.05, 104, 1014),
    (2, 8, 0.05, 105, 1005),
]
MC_TRIALS = 200_000


def build_random_system(n, m, pct, data_seed):
    rng = np.random.default_rng(data_seed)
    traj = RawTrajectory(
        times=np.arange(m + 1) * 0.1, samples=rng.standard_normal((n, m + 1))
    )
    snaps = dq.build_snapshots(traj)
    rms = np.sqrt((snaps.states**2).mean(axis=1))
    noise = dq.NoiseModel(variances=(pct * rms) ** 2)
    return snaps, noise


@pytest.fixture(scope="module")
def verification_runs():
    """Moment tables (both quadrature routes) and MC summaries, per system."""
    runs = []
    for n, m, pct, data_seed, mc_seed in SYSTEMS:
        snaps, noise = build_random_system(n, m, pct, data_seed)
        gl = dq.pinv_moments(snaps, noise, quad=QuadratureConfig(method="gauss_laguerre"))
        ad = dq.pinv_moments(snaps, noise, quad=QuadratureConfig(method="adaptive_truncated"))
        corrected = dq.estimate_operator_moments(snaps, noise, mode=CORRECTED)
        literal = dq.estimate_operator_moments(snaps, noise, mode=PAPER_LITERAL)
        mc = dq.run_mc(
            snaps,
            noise,
            dq.McConfig(trials=MC_TRIALS, master_seed=mc_seed, compute_eigenvalues=False),
        )
        runs.append((f"n={n} m={m} noise={pct:.0%}", gl, ad, corrected, literal, mc))
    return runs


def test_criterion_1_scalar_oracle_equivalence():
    # X = [1, 2]: columns give (V=4, mu=1) and (V=1, mu=2).
    start = time.time()
    worst = 0.0
    for V, mu in ((4.0, 1.0), (1.0, 2.0)):
        for s2 in (0.0001, 0.04):
            s = np.sqrt(s2)
            pdf = lambda x: np.exp(-((x - mu) ** 2) / (2 * s2)) / np.sqrt(2 * np.pi * s2)
            lo, hi = mu - 14 * s, mu + 14 * s
            e1 = scipy_quad(
                lambda x: x / (V + x * x) * pdf(x), lo, hi, epsabs=1e-16, epsrel=1e-13, limit=200
            )[0]
            e2 = scipy_quad(
                lambda x: x * x / (V + x * x) ** 2 * pdf(x),
                lo,
                hi,
                epsabs=1e-16,
                epsrel=1e-13,
                limit=200,
            )[0]
            noise = dq.NoiseModel(variances=np.array([s2]))
            ctx = element_context(np.array([[1.0 / V]]), np.array([mu]), noise, k=0)
            m1 = dq.first_moment_element(ctx)
            m2 = dq.second_moment_element(ctx)
            worst = max(worst, abs(m1 - e1) / abs(e1), abs(m2 - e2) / abs(e2))
            assert m1 == pytest.approx(e1, rel=1e-6)
            assert m2 == pytest.approx(e2, rel=1e-6)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(
        f"\ncriterion 1 PASS: scalar-oracle equivalence, worst rel err "
        f"{worst:.2e} (<= 1e-6), {elapsed:.2f} s (< 1 s)"
    )


def test_criterion_2_mc_equivalence_pinv(verification_runs):
    start = time.time()
    worst = -np.inf
    for label, gl, _, _, _, mc in verification_runs:
        se = mc.standard_errors
        gap1 = np.abs(gl.first - mc.pinv_mean) - (3.0 * se.pinv_mean + 1e-8)
        gap2 = np.abs(gl.second_raw - mc.pinv_second_raw) - (3.0 * se.pinv_second_raw + 1e-8)
        worst = max(worst, float(gap1.max()), float(gap2.max()))
        assert gap1.max() <= 0.0, f"{label}: first moment outside 3 SE + 1e-8"
        assert gap2.max() <= 0.0, f"{label}: second moment outside 3 SE + 1e-8"
    print(
        f"\ncriterion 2 PASS: pseudoinverse moments within 3 SE + 1e-8 of "
        f"{MC_TRIALS}-trial MC on {len(verification_runs)} systems "
        f"(worst margin {worst:.2e}), {time.time() - start:.0f} s elapsed"
    )


def test_criterion_3_operator_moments(verification_runs):
    worst = -np.inf
    recorded = []
    for label, _, _, corrected, literal, mc in verification_runs:
        se = mc.standard_errors
        gap_mean = np.abs(corrected.first - mc.operator_mean) - (
            3.0 * se.operator_mean + 1e-8
        )
        gap_var = np.abs(corrected.second_central - mc.operator_variance) - (
            3.0 * se.operator_variance + 1e-8
        )
        worst = max(worst, float(gap_mean.max()), float(gap_var.max()))
        assert gap_mean.max() <= 0.0, f"{label}: operator mean outside 3 SE + 1e-8"
        assert gap_var.max() <= 0.0, f"{label}: corrected variance outside 3 SE + 1e-8"
        # paper-literal output is emitted and its deviation recorded only.
        deviation = float(np.abs(literal.second_central - mc.operator_variance).max())
        assert np.all(np.isfinite(literal.second_central))
        recorded.append(f"{label}: paper-literal max deviation {deviation:.3e}")
    print("\ncriterion 3 PASS: operator moments (corrected) within 3 SE + 1e-8"
          f" (worst margin {worst:.2e})")
    for line in recorded:
        print("  recorded " + line)


def test_criterion_4_zero_noise_collapse():
    traj = dq.simulate_spring_mass(dq.SpringMassParams())
    snaps = dq.build_snapshots(traj)
    noise = dq.NoiseModel(variances=np.full(2, 1e-16))  # sigma = 1e-8
    table = dq.pinv_moments(snaps, noise)
    X = snaps.states
    pinv = X.T @ np.linalg.inv(X @ X.T)
    gap_first = np.abs(table.first - pinv).max()
    spread = OperatorMoments(table, snaps.shifted, noise.variances, CORRECTED).second_central
    assert gap_first <= 1e-6
    assert spread.max() <= 1e-8
    print(
        f"\ncriterion 4 PASS: zero-noise collapse on spring-mass "
        f"(max pinv gap {gap_first:.2e} <= 1e-6, max spread {spread.max():.2e} <= 1e-8)"
    )


def test_criterion_5_identity_suite():
    rng = np.random.default_rng(55)

    # Rank-one downdate identity, 100 instances.
    worst_sm = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n + 1, n + 8))
        X = rng.standard_normal((n, m))
        t = int(rng.integers(0, m))
        x = X[:, t]
        gram_inv = np.linalg.inv(X @ X.T)
        V_inv = np.linalg.inv(X @ X.T - np.outer(x, x))
        update = V_inv - (V_inv @ np.outer(x, x) @ V_inv) / (1.0 + x @ V_inv @ x)
        worst_sm = max(
            worst_sm, np.linalg.norm(gram_inv - update) / np.linalg.norm(gram_inv)
        )
    assert worst_sm <= 1e-10

    # Gaussian integral identity, dims 1-3, dense trapezoid grids.
    worst_gauss = 0.0
    for dim in (1, 2, 3):
        B = rng.standard_normal((dim, dim))
        L = B @ B.T + np.eye(dim)
        v = rng.standard_normal(dim)
        center = 0.5 * np.linalg.solve(L, v)
        width = 8.0 / np.sqrt(np.linalg.eigvalsh(L).min())
        axes = [np.linspace(c - width, c + width, 81) for c in center]
        grids = np.meshgrid(*axes, indexing="ij")
        u = np.stack([g.ravel() for g in grids], axis=1)
        vals = np.exp(-np.einsum("ij,jk,ik->i", u, L, u) + u @ v).reshape(grids[0].shape)
        for axis in reversed(range(dim)):
            vals = trapezoid(vals, axes[axis], axis=axis)
        expected = (
            np.pi ** (dim / 2.0)
            / np.sqrt(np.linalg.det(L))
            * np.exp(v @ np.linalg.solve(L, v) / 4.0)
        )
        worst_gauss = max(worst_gauss, abs(vals - expected) / expected)
    assert worst_gauss <= 1e-5

    # Generating-function derivative checks, 100 random contexts, against
    # the arbitrary-precision direct-formula oracle.
    worst_fd = 0.0
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
        scale = max(abs(f1[0]), 1e-12 * envelope)
        worst_fd = max(worst_fd, abs(fd1 - f1[0]) / scale, abs(fd2 - f2[0] / p2) / abs(f2[0] / p2))

    # SPD closure under inversion, 100 instances.
    for _ in range(100):
        n = int(rng.integers(1, 9))
        B = rng.standard_normal((n, n))
        V = B.T @ B + np.eye(n)
        _, positive = spd_inverses(np.stack([V, np.linalg.inv(V)]))
        assert positive.all()

    print(
        f"\ncriterion 5 PASS: identity suite (rank-one {worst_sm:.2e} <= 1e-10, "
        f"Gaussian integral {worst_gauss:.2e} <= 1e-5, derivative checks "
        f"{worst_fd:.2e} <= 1e-6, SPD closure on 100 matrices)"
    )


def test_criterion_6_spring_mass_physics():
    params = dq.SpringMassParams()
    eq = params.equilibrium
    fixed = dq.simulate_spring_mass(dq.SpringMassParams(x0=(eq, 0.0)))
    drift = np.abs(fixed.samples - fixed.samples[:, :1]).max()
    assert drift <= 1e-9

    traj = dq.simulate_spring_mass(params)
    disp = traj.samples[0] - eq
    idx = np.flatnonzero(np.signbit(disp[:-1]) != np.signbit(disp[1:]))
    t0, t1 = traj.times[idx], traj.times[idx + 1]
    v0, v1 = disp[idx], disp[idx + 1]
    crossings = t0 - v0 * (t1 - t0) / (v1 - v0)
    spacing_err = np.abs(np.diff(crossings) - np.pi / 2.0).max()
    assert spacing_err <= 1e-3

    energy = spring_mass_energy(params, traj)
    energy_drift = np.abs(energy - energy[0]).max() / energy[0]
    assert energy_drift <= 1e-6
    print(
        f"\ncriterion 6 PASS: equilibrium drift {drift:.2e} <= 1e-9, half-period "
        f"spacing error {spacing_err:.2e} s <= 1e-3, energy drift {energy_drift:.2e} <= 1e-6"
    )


def test_criterion_7_spectral_pipeline():
    # Short spring-mass snapshot set (m = n + 1): every sampled-instance
    # eigenvalue index has a faithful MC counterpart.  MC operator instances
    # have rank <= n, so their spectra are the n eigenvalues of the n x n
    # factor product followed by m - n bulk eigenvalues that are exact zeros
    # by construction.  Fully sampled instances have no such bulk, so for
    # m >> n per-index band comparison is only meaningful at this scale.
    traj = dq.simulate_spring_mass(dq.SpringMassParams(duration=1.5, dt=0.01, x0=(0.53, 0.0)))
    snaps = dq.build_snapshots(dq.decimate_trajectory(traj, 50))
    rms = np.sqrt((snaps.states**2).mean(axis=1))
    noise = dq.NoiseModel(variances=(0.002 * rms) ** 2)

    point = dq.dmd_point_estimate(snaps)
    lam = point.spectrum.eigenvalues
    assert abs(np.conj(lam[0]) - lam[1]) <= 1e-9, "top eigenvalues are not a conjugate pair"
    assert lam[0].imag > 0

    moments = dq.estimate_operator_moments(snaps, noise, mode=CORRECTED)
    n_samples = 20_000
    instances = sample_operator_instances(
        moments.first, moments.second_central, count=n_samples, seed=42
    )
    proposed = eigen_samples(instances)
    assert np.all(proposed.representative_lambda1.imag >= 0)

    mc = dq.run_mc(snaps, noise, dq.McConfig(trials=n_samples, master_seed=77))
    top = mc.eigen_samples[:, 0]
    mc_l1 = np.where(top.imag < 0, np.conj(top), top)
    mc_set = EigenSampleSet(mc.eigen_samples)
    p_l1 = proposed.representative_lambda1

    def union_grid(a, b):
        h = max(silverman_bandwidth(a), silverman_bandwidth(b))
        return np.linspace(min(a.min(), b.min()) - 4 * h, max(a.max(), b.max()) + 4 * h, 256)

    grid_re = union_grid(p_l1.real, mc_l1.real)
    grid_im = union_grid(p_l1.imag, mc_l1.imag)
    kde_p = kde2d(p_l1.real, p_l1.imag, grid_re=grid_re, grid_im=grid_im)
    kde_m = kde2d(mc_l1.real, mc_l1.imag, grid_re=grid_re, grid_im=grid_im)
    (pa, pb), (ma, mb) = (np.unravel_index(np.argmax(kde.density), kde.density.shape)
                          for kde in (kde_p, kde_m))
    assert abs(pa - ma) <= 2 and abs(pb - mb) <= 2, "KDE peaks farther than 2 grid cells"
    # A peak is the argmax cell of a flat-topped density; the lambda1 means carry a stated
    # tolerance: within 3 combined standard errors, on Re and on Im.
    z = [(p.mean() - q.mean()) / np.sqrt(p.var(ddof=1) / p.size + q.var(ddof=1) / q.size)
         for p, q in ((p_l1.real, mc_l1.real), (p_l1.imag, mc_l1.imag))]
    assert max(map(abs, z)) <= 3, f"lambda1 means differ by z = {z} combined SE"

    em_p = eigen_moments(proposed)
    em_m = eigen_moments(mc_set)
    for i in range(lam.size):
        for mean_p, mean_m, var_p, var_m in (
            (em_p.mean[i].real, em_m.mean[i].real, em_p.variance_re[i], em_m.variance_re[i]),
            (em_p.mean[i].imag, em_m.mean[i].imag, em_p.variance_im[i], em_m.variance_im[i]),
        ):
            lo_p, hi_p = mean_p - 2 * np.sqrt(var_p), mean_p + 2 * np.sqrt(var_p)
            lo_m, hi_m = mean_m - 2 * np.sqrt(var_m), mean_m + 2 * np.sqrt(var_m)
            assert lo_p <= hi_m + 1e-12 and lo_m <= hi_p + 1e-12, (
                f"non-overlapping bands at eigenvalue index {i}"
            )
    print(
        f"\ncriterion 7 PASS: conjugate pair detected, KDE peak cells "
        f"{abs(pa - ma), abs(pb - mb)} (<= 2), lambda1 mean z (Re, Im) = "
        f"({z[0]:.2f}, {z[1]:.2f}) (|z| <= 3), plus-minus-2-sigma bands overlap at all "
        f"{lam.size} indices"
    )


def test_criterion_8_determinism(tmp_path):
    # Every command twice: byte-identical outputs.
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"mc": {"trials": 300, "master_seed": 11}, "decimate_stride": 7}')
    outputs = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        common = ["traj.csv", "--config", str(cfg), "--noise-variances", "1e-6,1e-6"]
        for args in (
            ["simulate", "spring-mass", "--duration", "2", "--dt", "0.1", "--out", "traj.csv"],
            ["moments", *common, "--out", "moments.json"],
            ["mc", *common, "--out", "mc.json"],
            ["compare", "moments.json", "mc.json", "--config", str(cfg), "--out", "report.json"],
            ["spectrum", "moments.json", "--samples", "200", "--seed", "3", "--out", "kde.csv"],
        ):
            proc = run_cli(args, cwd=d)
            assert proc.returncode == 0, f"dmduq {args[0]} failed:\n{proc.stderr}"
        outputs[tag] = {
            name: (d / name).read_bytes()
            for name in ("traj.csv", "moments.json", "mc.json", "report.json", "kde.csv", "kde_bands.csv")
        }
    for name in outputs["a"]:
        assert outputs["a"][name] == outputs["b"][name], f"{name} is not byte-identical"

    # MC with a fixed master seed is thread-count invariant.
    snaps, noise = build_random_system(2, 10, 0.03, 77)
    cfg_mc = dq.McConfig(trials=3000, master_seed=5)
    with openblas_threads(1):
        one = dq.run_mc(snaps, noise, cfg_mc)
    with openblas_threads(4):
        four = dq.run_mc(snaps, noise, cfg_mc)
    assert np.array_equal(one.pinv_mean, four.pinv_mean)
    assert np.array_equal(one.pinv_second_raw, four.pinv_second_raw)
    assert np.array_equal(one.operator_mean, four.operator_mean)
    assert np.array_equal(one.operator_variance, four.operator_variance)
    assert np.array_equal(one.eigen_samples, four.eigen_samples)
    print(
        "\ncriterion 8 PASS: byte-identical CLI reruns (6 artifacts) and "
        "thread-count-invariant MC"
    )


def test_criterion_9_quadrature_robustness(verification_runs):
    worst = 0.0
    for label, gl, ad, _, _, _ in verification_runs:
        for a, b in ((gl.first, ad.first), (gl.second_raw, ad.second_raw)):
            denom = np.maximum(np.abs(a), np.abs(b))
            mask = denom > 0
            rel = np.zeros_like(a)
            rel[mask] = np.abs(a - b)[mask] / denom[mask]
            worst = max(worst, float(rel.max()))
            assert rel.max() <= 1e-6, f"{label}: quadrature routes disagree beyond 1e-6"

    # Both routes against adaptive scipy quadrature on seeded elements of every system.
    worst_scipy = 0.0
    rng = np.random.default_rng(9)
    for (n, m, pct, data_seed, _), (label, gl, ad, _, _, _) in zip(SYSTEMS, verification_runs):
        snaps, noise = build_random_system(n, m, pct, data_seed)
        for t, k in zip(rng.integers(0, m, 4), rng.integers(0, n, 4)):
            ctx = dq.build_context(snaps, noise, int(t), int(k))
            for order, tables in ((1, (gl.first, ad.first)), (2, (gl.second_raw, ad.second_raw))):
                reference = scipy_moment_element(ctx, order)
                for table in tables:
                    gap = abs(table[t, k] - reference) / abs(reference)
                    worst_scipy = max(worst_scipy, gap)
                    assert gap <= 1e-9, f"{label}: ({t}, {k}) off adaptive scipy by {gap:.2e}"

    nodes, weights = gauss_laguerre_nodes(64)
    for degree, expected in ((1, 1.0), (3, 6.0), (5, 120.0), (7, 5040.0)):
        value = float(np.sum(weights * nodes**degree))
        assert value == pytest.approx(expected, rel=1e-9)
    print(
        f"\ncriterion 9 PASS: Gauss-Laguerre vs composite Gauss-Legendre within 1e-6 on all "
        f"elements of all systems (worst {worst:.2e}); both within 1e-9 of adaptive scipy "
        f"on 20 seeded elements (worst {worst_scipy:.2e}); factorial moments exact to 1e-9"
    )
