"""Shared test helpers: independent oracles, dataset builders and a CLI runner."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from mpmath import mp

import dmduq
from dmduq.data_model import NoiseModel, RawTrajectory, build_snapshots
from dmduq.pinv_moments import context_from_parts


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
