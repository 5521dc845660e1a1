"""Shared test helpers: independent oracles, dataset builders and a CLI runner."""

import ctypes
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.integrate
from mpmath import mp

import dmduq
import dmduq.numerics
import dmduq.spectral
from dmduq.data_model import NoiseModel, RawTrajectory, build_snapshots
from dmduq.pinv_moments import _decay_rate, context_from_parts, moment_integrands


# Directory that holds the imported dmduq package: the checkout's src/ when the
# suite runs from a checkout, site-packages when dmduq is installed.
PACKAGE_ROOT = Path(dmduq.__file__).resolve().parent.parent


def run_python(args, cwd):
    """Run the test interpreter with ``args`` in a separate process started in ``cwd``.

    The child gets this process's environment with PACKAGE_ROOT put first on
    PYTHONPATH, so it imports the same dmduq as the tests whatever ``cwd`` is
    and whether or not the package is installed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def run_cli(args, cwd):
    """Run ``python -m dmduq.cli`` in a separate process started in ``cwd``."""
    return run_python(["-m", "dmduq.cli", *args], cwd)


def fixed_blas_workers(count):
    """A stand-in for ``numerics._one_blas_thread`` that reports ``count`` BLAS threads.

    Monkeypatched in, it makes ``numerics.slice_workers`` (so ``eigen_samples``
    and ``run_mc``) split each job over ``count`` workers and leaves the BLAS
    thread setting alone.
    """

    @contextmanager
    def one_blas_thread():
        yield count

    return one_blas_thread


def forbid_worker_threads(monkeypatch):
    """Make ``numerics.slice_workers`` fail to start its pool, so a call that would start a
    worker thread raises instead."""

    def refuse(*args, **kwargs):
        raise AssertionError("a worker thread was started")

    monkeypatch.setattr(dmduq.numerics, "ThreadPoolExecutor", refuse)


def spectra_batches(monkeypatch, size, m):
    """Make ``spectral.pulled_spectra`` take batches of ``size`` m x m instances."""
    monkeypatch.setattr(dmduq.numerics, "_CHUNK_SCALARS", 32 * size * m * m)
    monkeypatch.setattr(dmduq.spectral, "_EIGVALS_ROWS", 1)


def openblas_thread_controls():
    """(get, set) thread-count functions of each OpenBLAS loaded in this process.

    Read from ``/proc/self/maps`` independently of dmduq, to check what
    dmduq does to the BLAS thread setting; empty where there is none.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return []
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in [("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")]:
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if getter and setter:
                getter.restype, setter.argtypes = ctypes.c_int, [ctypes.c_int]
                controls.append((getter, setter))
                break
    return controls


def openblas_thread_counts():
    """The thread count each OpenBLAS loaded in this process reports."""
    return [getter() for getter, _ in openblas_thread_controls()]


@contextmanager
def openblas_threads(count):
    """Every OpenBLAS loaded in this process at ``count`` threads; old counts restored after."""
    controls = openblas_thread_controls()
    saved = [getter() for getter, _ in controls]
    try:
        for _, setter in controls:
            setter(count)
        yield
    finally:
        for (_, setter), old in zip(controls, saved):
            setter(old)


def snapshots_from_trajectory_matrix(samples, dt=0.1):
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    times = np.arange(samples.shape[1]) * dt
    return build_snapshots(RawTrajectory(times=times, samples=samples))


def mgf_direct_mpmath(R, mu, cov, k, p1, p2, dps=60):
    """Generating-function value from the raw definition in arbitrary precision.

    Direct linear algebra on S = Sigma^-1/2 + p2 R; shares nothing with the
    production code path, so it can serve as a finite-difference oracle at
    tolerances float64 evaluation cannot reach.
    """
    with mp.workdps(dps):
        n = len(mu)
        Rm = mp.matrix(np.asarray(R).tolist())
        Sm = mp.matrix(np.asarray(cov).tolist())
        mum = mp.matrix(np.asarray(mu).tolist())
        sigma_inv = Sm**-1
        S = sigma_inv / 2 + p2 * Rm
        b = sigma_inv * mum
        r = Rm[:, k]
        mahal = (mum.T * sigma_inv * mum)[0]
        c2 = mp.e ** (-mahal / 2 - p2) / (
            mp.mpf(2) ** (mp.mpf(n) / 2) * mp.sqrt(mp.det(S)) * mp.sqrt(mp.det(Sm))
        )
        v = b + p1 * r
        return c2 * mp.e ** ((v.T * (S**-1 * v))[0] / 4)


def random_mgf_context(rng, n=None):
    n = n or int(rng.integers(1, 4))
    B = rng.standard_normal((n, n))
    R = B @ B.T + 0.5 * np.eye(n)
    mu = rng.standard_normal(n)
    noise = NoiseModel(variances=rng.uniform(0.05, 0.5, size=n))
    k = int(rng.integers(0, n))
    return context_from_parts(R, mu, noise, k), R, mu, noise, k


def scipy_moment_element(context, order, p2_max=400.0, rel_tol=1e-8):
    """One moment of a context's element by adaptive ``scipy.integrate.quad``.

    Integrates the full integrand of ``moment_integrands`` (``order`` 1 or 2)
    on the substituted axis u = rho * p2 in [0, p2_max], rho the column's
    decay rate, as the package's truncated route does with a fixed rule.
    """
    rate = float(_decay_rate(context.pieces)[0])
    return scipy.integrate.quad(
        lambda u: float(moment_integrands(context, u / rate)[order - 1][0]) / rate,
        0.0,
        p2_max,
        epsabs=0.0,
        epsrel=max(min(rel_tol * 1e-2, 1e-3), 1e-13),
        limit=200,
    )[0]
