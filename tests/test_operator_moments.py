import logging

import numpy as np
import pytest
from conftest import snapshots_from_trajectory_matrix

from dmduq.data_model import NoiseModel
from dmduq.errors import ConfigError, DimensionMismatch, MomentComputationError, SingularGram
from dmduq.operator_moments import (
    CORRECTED,
    PAPER_LITERAL,
    OperatorMoments,
    dmd_point_estimate,
    estimate_operator_moments,
    operator_first_moment,
    operator_second_moment,
)
from dmduq.pinv_moments import PinvMoments, pinv_moments


class TestDmdPointEstimate:
    def test_scalar_snapshots(self):
        snaps = snapshots_from_trajectory_matrix([[1.0, 2.0, 3.0]])
        est = dmd_point_estimate(snaps)
        expected = np.array([[0.4, 0.6], [0.8, 1.2]])
        assert np.allclose(est.operator, expected, rtol=1e-12)

    def test_projector_identity_when_y_equals_x(self):
        snaps = snapshots_from_trajectory_matrix([[1.0, 1.0, 1.0]])
        est = dmd_point_estimate(snaps)
        X = snaps.states
        assert np.abs(X @ est.operator - X).max() <= 1e-10

    def test_square_invertible_matches_inverse(self):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((2, 3))
        snaps = snapshots_from_trajectory_matrix(samples)
        est = dmd_point_estimate(snaps)
        X, Y = snaps.states, snaps.shifted
        assert np.allclose(est.operator, np.linalg.solve(X, Y), rtol=1e-9)

    def test_rank_deficient_gram(self):
        snaps = snapshots_from_trajectory_matrix(np.zeros((1, 4)) + [[1.0, 1.0, 1.0, 1.0]])
        # duplicate rows: make a 2-state trajectory with identical states
        samples = np.vstack([np.arange(4.0), np.arange(4.0)])
        snaps = snapshots_from_trajectory_matrix(samples)
        with pytest.raises(SingularGram):
            dmd_point_estimate(snaps)

    def test_spectrum_attached(self):
        snaps = snapshots_from_trajectory_matrix([[1.0, 2.0, 3.0]])
        est = dmd_point_estimate(snaps)
        assert est.spectrum.eigenvalues.size == 2

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_spectrum_matches_full_operator(self, ridge):
        rng = np.random.default_rng(5)
        snaps = snapshots_from_trajectory_matrix(rng.standard_normal((3, 21)))
        est = dmd_point_estimate(snaps, ridge=ridge)
        n, m = snaps.states.shape
        lam = est.spectrum.eigenvalues
        full = np.linalg.eigvals(est.operator)
        want = full[np.lexsort((-full.real, -full.imag, -np.abs(full)))]
        assert lam.shape == (m,)
        assert np.abs(lam[:n] - want[:n]).max() <= 1e-10 * np.abs(full).max()
        assert np.all(lam[n:] == 0)


@pytest.fixture(scope="module")
def small_system():
    rng = np.random.default_rng(11)
    snaps = snapshots_from_trajectory_matrix(rng.standard_normal((2, 9)))
    rms = np.sqrt((snaps.states**2).mean(axis=1))
    noise = NoiseModel(variances=(0.03 * rms) ** 2)
    return snaps, noise


class TestOperatorFirstMoment:
    def test_zero_noise_collapses_to_point_estimate(self, small_system):
        snaps, _ = small_system
        tiny = NoiseModel(variances=np.full(2, 1e-16))
        pinv = pinv_moments(snaps, tiny)
        first = operator_first_moment(pinv, snaps, tiny)
        point = dmd_point_estimate(snaps).operator
        assert np.abs(first - point).max() <= 1e-8

    def test_zero_pinv_gives_zero(self, small_system):
        snaps, noise = small_system
        m, n = snaps.snapshot_count, snaps.state_count
        pinv = PinvMoments(first=np.zeros((m, n)), second_raw=np.zeros((m, n)))
        assert np.array_equal(operator_first_moment(pinv, snaps, noise), np.zeros((m, m)))

    def test_exact_linearity_in_shifted_snapshots(self, small_system):
        # Doubling Y doubles the mean table bit-exactly.
        snaps, noise = small_system
        pinv = pinv_moments(snaps, noise)
        doubled = snapshots_from_trajectory_matrix(2.0 * np.hstack(
            [snaps.states, snaps.shifted[:, -1:]]
        ))
        base = pinv.first @ snaps.shifted
        scaled = pinv.first @ doubled.shifted
        assert np.array_equal(scaled, 2.0 * base)

    def test_dimension_mismatch(self, small_system):
        snaps, noise = small_system
        pinv = PinvMoments(first=np.zeros((3, 3)), second_raw=np.zeros((3, 3)))
        with pytest.raises(DimensionMismatch):
            operator_first_moment(pinv, snaps, noise)


class TestOperatorSecondMoment:
    def test_mode_relation_identity(self, small_system):
        # corrected - paper_literal == M2x @ Y^2, from the same inputs.
        snaps, noise = small_system
        pinv = pinv_moments(snaps, noise)
        lit = operator_second_moment(pinv, snaps, noise, mode=PAPER_LITERAL)
        cor = operator_second_moment(pinv, snaps, noise, mode=CORRECTED)
        gap = pinv.second_raw @ snaps.shifted**2
        assert np.allclose(cor - lit, gap, rtol=1e-13, atol=1e-15)

    def test_corrected_nonnegative(self, small_system):
        snaps, noise = small_system
        pinv = pinv_moments(snaps, noise)
        cor = operator_second_moment(pinv, snaps, noise, mode=CORRECTED)
        assert cor.min() >= -1e-12

    def test_zero_noise_zero_spread(self, small_system):
        snaps, _ = small_system
        tiny = NoiseModel(variances=np.full(2, 1e-18))
        pinv = pinv_moments(snaps, tiny)
        cor = operator_second_moment(pinv, snaps, tiny, mode=CORRECTED)
        assert np.abs(cor).max() <= 1e-10

    def test_paper_literal_negatives_logged(self, small_system, caplog):
        snaps, noise = small_system
        pinv = pinv_moments(snaps, noise)
        with caplog.at_level(logging.WARNING, logger="dmduq.operator_moments"):
            lit = operator_second_moment(pinv, snaps, noise, mode=PAPER_LITERAL)
        if lit.min() < 0:
            assert any("negative" in rec.message for rec in caplog.records)

    def test_scalar_product_variance_against_mc(self):
        # n = 1 toy: Var(x+ * y) with x+ = x/(V + x^2) and independent y;
        # corrected assembly must match a million-draw Monte Carlo.
        snaps = snapshots_from_trajectory_matrix([[1.0, 2.0, 3.0]])
        s2 = 0.04
        noise = NoiseModel(variances=np.array([s2]))
        pinv = pinv_moments(snaps, noise)
        cor = operator_second_moment(pinv, snaps, noise, mode=CORRECTED)
        rng = np.random.default_rng(3)
        n_draws = 1_000_000
        # element (i=0, j=0): x+ row 0 times y_00 ~ N(Y[0,0], s2)
        x = rng.normal(1.0, np.sqrt(s2), size=n_draws)  # column 0 mean is 1
        xp = x / (4.0 + x**2)
        y = rng.normal(snaps.shifted[0, 0], np.sqrt(s2), size=n_draws)
        prod = xp * y
        var = prod.var(ddof=1)
        se = var * np.sqrt(2.0 / (n_draws - 1))
        assert cor[0, 0] == pytest.approx(var, abs=3.0 * se)

    def test_unknown_mode_rejected(self, small_system):
        snaps, noise = small_system
        pinv = pinv_moments(snaps, noise)
        with pytest.raises(ConfigError):
            operator_second_moment(pinv, snaps, noise, mode="bogus")


class TestEstimateOperatorMoments:
    def test_end_to_end_metadata(self, small_system):
        snaps, noise = small_system
        om = estimate_operator_moments(snaps, noise, ridge=0.0, mode=CORRECTED)
        m = snaps.snapshot_count
        assert om.first.shape == (m, m)
        assert om.second_central.shape == (m, m)
        assert om.variance_mode == CORRECTED

    def test_singular_surfaces_with_location(self):
        samples = np.hstack([2.0 * np.eye(3), np.ones((3, 1))])
        snaps = snapshots_from_trajectory_matrix(samples)
        noise = NoiseModel(variances=np.full(3, 0.01))
        with pytest.raises(MomentComputationError) as info:
            estimate_operator_moments(snaps, noise)
        assert "t=0" in str(info.value)

    def test_idempotent(self, small_system):
        snaps, noise = small_system
        a = estimate_operator_moments(snaps, noise)
        b = estimate_operator_moments(snaps, noise)
        assert np.array_equal(a.first, b.first)
        assert np.array_equal(a.second_central, b.second_central)

    def test_corrected_mode_validation(self):
        with pytest.raises(DimensionMismatch):
            OperatorMoments(
                first=np.zeros((2, 2)),
                second_central=np.array([[-1.0, 0.0], [0.0, 0.0]]),
                variance_mode=CORRECTED,
            )

    def test_zero_noise_collapse_invariant(self, small_system):
        snaps, _ = small_system
        tiny = NoiseModel(variances=np.full(2, 1e-16))
        om = estimate_operator_moments(snaps, tiny, mode=CORRECTED)
        point = dmd_point_estimate(snaps).operator
        assert np.abs(om.first - point).max() <= 1e-8
        assert om.second_central.max() <= 1e-8
