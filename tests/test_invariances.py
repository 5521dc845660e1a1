"""Invariances the moment formulas imply, checked on random small systems.

The pseudoinverse of ``c X`` is ``pinv(X) / c`` and that of ``P X`` (P a
permutation of the states) is ``pinv(X) P.T``; with the noise covariance
transformed to match, the moment tables must follow.  As the noise vanishes
the tables must tend to ``pinv(X)`` and its elementwise square.
"""

import numpy as np
from conftest import snapshots_from_trajectory_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from dmduq.data_model import NoiseModel
from dmduq.pinv_moments import pinv_moments

SYSTEMS = {
    "n": st.integers(1, 4),
    "extra": st.integers(2, 5),
    "seed": st.integers(0, 2**32 - 1),
    "full_covariance": st.booleans(),
}


def _system(n, extra, seed, full_covariance, scale=1e-2):
    """A recording with m = n + extra snapshot pairs and a noise covariance of size ``scale``."""
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n, n + extra + 1))
    if full_covariance:
        B = rng.standard_normal((n, n))
        cov = scale * (B @ B.T / n + 0.5 * np.eye(n))
    else:
        cov = np.diag(scale * rng.uniform(0.5, 1.5, n))
    return samples, cov


def _tables(samples, cov):
    snaps = snapshots_from_trajectory_matrix(samples)
    noise = NoiseModel(variances=np.diag(cov).copy(), full_covariance=cov)
    table = pinv_moments(snaps, noise)
    return table.first, table.second_raw


def _close(actual, expected, rtol):
    return np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


@settings(max_examples=40, deadline=None)
@given(c=st.sampled_from([1e-3, 0.37, 2.0, 9.5, 1e3]), **SYSTEMS)
def test_scaling(c, n, extra, seed, full_covariance):
    samples, cov = _system(n, extra, seed, full_covariance)
    first, second = _tables(samples, cov)
    first_c, second_c = _tables(c * samples, c**2 * cov)
    assert _close(first_c, first / c, 1e-9)
    assert _close(second_c, second / c**2, 1e-9)


@settings(max_examples=40, deadline=None)
@given(perm_seed=st.integers(0, 2**32 - 1), **SYSTEMS)
def test_state_permutation(perm_seed, n, extra, seed, full_covariance):
    samples, cov = _system(n, extra, seed, full_covariance)
    perm = np.random.default_rng(perm_seed).permutation(n)
    first, second = _tables(samples, cov)
    first_p, second_p = _tables(samples[perm], cov[np.ix_(perm, perm)])
    assert _close(first_p, first[:, perm], 1e-9)
    assert _close(second_p, second[:, perm], 1e-9)


@settings(max_examples=40, deadline=None)
@given(**SYSTEMS)
def test_vanishing_noise(n, extra, seed, full_covariance):
    samples, _ = _system(n, extra, seed, full_covariance)
    X = samples[:, :-1]
    pinv = np.linalg.pinv(X)
    gaps = []
    for scale in (1e-8, 1e-12):
        _, cov = _system(n, extra, seed, full_covariance, scale=scale)
        first, second = _tables(samples, cov)
        gaps.append(np.abs(first - pinv).max() / np.abs(pinv).max())
        assert _close(second, pinv**2, 1e-4)
    assert gaps[1] <= 1e-6
    assert gaps[1] <= gaps[0]
