import logging
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from conftest import forbid_worker_threads, snapshots_from_trajectory_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from dmduq import numerics, operator_moments
from dmduq.data_model import NoiseModel, RawTrajectory, build_snapshots, decimate_trajectory
from dmduq.errors import (
    ConfigError, ConvergenceFailure, DimensionMismatch, DmduqError, MomentComputationError,
    SingularGram,
)
from dmduq.operator_moments import (
    CORRECTED,
    PAPER_LITERAL,
    check_outliers,
    check_residual,
    check_tables,
    dmd_point_estimate,
    OperatorMoments,
    estimate_operator_moments,
)
from dmduq.pinv_moments import JENSEN_SLACK, PinvMoments, pinv_moments
from dmduq.systems import (
    SpringMassParams,
    random_network_params,
    simulate_oscillator_network,
    simulate_spring_mass,
)


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
        first = OperatorMoments(pinv, snaps.shifted, tiny.variances).first
        point = dmd_point_estimate(snaps).operator
        assert np.abs(first - point).max() <= 1e-8

    def test_zero_pinv_gives_zero(self, small_system):
        snaps, noise = small_system
        m, n = snaps.snapshot_count, snaps.state_count
        pinv = PinvMoments(first=np.zeros((m, n)), second_raw=np.zeros((m, n)))
        first = OperatorMoments(pinv, snaps.shifted, noise.variances).first
        assert np.array_equal(first, np.zeros((m, m)))

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
            OperatorMoments(pinv, snaps.shifted, noise.variances).first


class TestOperatorSecondMoment:
    def test_mode_relation_identity(self, small_system):
        # corrected - paper_literal == M2x @ Y^2, from the same inputs.
        snaps, noise = small_system
        pinv = pinv_moments(snaps, noise)
        lit = OperatorMoments(pinv, snaps.shifted, noise.variances, PAPER_LITERAL).second_central
        cor = OperatorMoments(pinv, snaps.shifted, noise.variances, CORRECTED).second_central
        gap = pinv.second_raw @ snaps.shifted**2
        assert np.allclose(cor - lit, gap, rtol=1e-13, atol=1e-15)

    def test_corrected_nonnegative(self, small_system):
        snaps, noise = small_system
        pinv = pinv_moments(snaps, noise)
        cor = OperatorMoments(pinv, snaps.shifted, noise.variances, CORRECTED).second_central
        assert cor.min() >= -1e-12

    def test_zero_noise_zero_spread(self, small_system):
        snaps, _ = small_system
        tiny = NoiseModel(variances=np.full(2, 1e-18))
        pinv = pinv_moments(snaps, tiny)
        cor = OperatorMoments(pinv, snaps.shifted, tiny.variances, CORRECTED).second_central
        assert np.abs(cor).max() <= 1e-10

    def test_paper_literal_negatives_logged(self, small_system, caplog):
        snaps, noise = small_system
        pinv = pinv_moments(snaps, noise)
        with caplog.at_level(logging.WARNING, logger="dmduq.operator_moments"):
            lit = OperatorMoments(pinv, snaps.shifted, noise.variances, PAPER_LITERAL)
            lit = lit.second_central
        if lit.min() < 0:
            assert any("negative" in rec.message for rec in caplog.records)

    def test_scalar_product_variance_against_mc(self):
        # n = 1 toy: Var(x+ * y) with x+ = x/(V + x^2) and independent y;
        # corrected assembly must match a million-draw Monte Carlo.
        snaps = snapshots_from_trajectory_matrix([[1.0, 2.0, 3.0]])
        s2 = 0.04
        noise = NoiseModel(variances=np.array([s2]))
        pinv = pinv_moments(snaps, noise)
        cor = OperatorMoments(pinv, snaps.shifted, noise.variances, CORRECTED).second_central
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
            OperatorMoments(pinv, snaps.shifted, noise.variances, "bogus").second_central


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
            check_tables(
                first=np.zeros((2, 2)),
                second_central=np.array([[-1.0, 0.0], [0.0, 0.0]]),
                mode=CORRECTED,
            )

    def test_zero_noise_collapse_invariant(self, small_system):
        snaps, _ = small_system
        tiny = NoiseModel(variances=np.full(2, 1e-16))
        om = estimate_operator_moments(snaps, tiny, mode=CORRECTED)
        point = dmd_point_estimate(snaps).operator
        assert np.abs(om.first - point).max() <= 1e-8
        assert om.second_central.max() <= 1e-8


def whole_tables(pinv, snaps, noise, mode, scale=None):
    """The assembly formulas on whole tables; ``scale`` replaces M2x @ var when given."""
    Y = snaps.shifted
    scale = pinv.second_raw @ noise.variances if scale is None else scale
    spread = scale[:, None] - pinv.first**2 @ Y**2
    if mode == CORRECTED:
        spread = spread + pinv.second_raw @ Y**2
    return pinv.first @ Y, spread


def synthetic_pinv(m, n, seed):
    """Pseudoinverse tables of the right shape with second >= first**2, without quadrature."""
    rng = np.random.default_rng(seed)
    first = 0.01 * rng.standard_normal((m, n))
    return PinvMoments(first=first, second_raw=first**2 * (1.0 + rng.random((m, n))))


@pytest.fixture(scope="module")
def kernel_systems():
    """Spring-mass (n = 2, m = 200) and a 3-node network (n = 6, m = 96) with noise."""
    spring = build_snapshots(simulate_spring_mass(SpringMassParams(duration=10.0, dt=0.05)))
    network = build_snapshots(simulate_oscillator_network(
        random_network_params(node_count=3, seed=1, duration=0.96, dt=0.01)
    ))
    return {
        name: (snaps, NoiseModel(variances=np.full(snaps.state_count, 1e-6)))
        for name, snaps in (("spring", spring), ("network", network))
    }


class TestRowBlockAssembly:
    # Blocks of at most 7 rows cut m = 200 and m = 96 into blocks of 6 and 7
    # rows.  Where m is a multiple of 8, OpenBLAS rounds the rows of a block
    # product as the whole-table product does (checked with OpenBLAS 0.3.31's
    # SkylakeX kernels); elsewhere the whole-table product itself rounds by
    # the BLAS thread count, and only the block split is fixed.
    @pytest.mark.parametrize("system", ["spring", "network"])
    @pytest.mark.parametrize("ridge", [0.0, 1e-3])
    @pytest.mark.parametrize("mode", [CORRECTED, PAPER_LITERAL])
    def test_bits_match_whole_tables(self, kernel_systems, monkeypatch, system, ridge, mode):
        snaps, noise = kernel_systems[system]
        n, m = snaps.states.shape
        assert m % 8 == 0 and n == {"spring": 2, "network": 6}[system]
        pinv = pinv_moments(snaps, noise, ridge=ridge)
        want_first, want_second = whole_tables(pinv, snaps, noise, mode)
        point = dmd_point_estimate(snaps, ridge=ridge).operator
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 7 * m)
        got = estimate_operator_moments(snaps, noise, ridge=ridge, mode=mode, pinv=pinv)
        assert np.array_equal(got.first, want_first)
        assert np.array_equal(got.second_central, want_second)
        corrected = OperatorMoments(pinv, snaps.shifted, noise.variances)
        assert np.array_equal(corrected.first, want_first)
        fresh = OperatorMoments(pinv, snaps.shifted, noise.variances, mode)
        assert np.array_equal(fresh.second_central, want_second)
        assert np.array_equal(dmd_point_estimate(snaps, ridge=ridge).operator, point)

    @pytest.mark.parametrize("mode", [CORRECTED, PAPER_LITERAL])
    def test_memory_is_the_two_tables(self, mode):
        # Read, the tables are written in place, block by block: no m x m temporary.
        # Whole-table expressions hold about four tables at their peak.
        m = 2000
        rng = np.random.default_rng(4)
        snaps = snapshots_from_trajectory_matrix(rng.standard_normal((2, m + 1)))
        noise = NoiseModel(variances=np.full(2, 1e-4))
        pinv = synthetic_pinv(m, 2, seed=4)
        tracemalloc.start()
        try:
            moments = estimate_operator_moments(snaps, noise, mode=mode, pinv=pinv)
            moments.first, moments.second_central
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 8 * m * m

    @pytest.mark.parametrize("mode", [CORRECTED, PAPER_LITERAL])
    def test_no_table_until_read(self, mode):
        # Construction keeps no block of either table, and the point estimate keeps its
        # factors: together less than one m x m table.
        m = 2000
        rng = np.random.default_rng(4)
        snaps = snapshots_from_trajectory_matrix(rng.standard_normal((2, m + 1)))
        noise = NoiseModel(variances=np.full(2, 1e-4))
        pinv = synthetic_pinv(m, 2, seed=4)
        tracemalloc.start()
        try:
            estimate_operator_moments(snaps, noise, mode=mode, pinv=pinv)
            dmd_point_estimate(snaps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m

    @pytest.mark.parametrize("m", [96, 203])
    @pytest.mark.parametrize("mode", [CORRECTED, PAPER_LITERAL])
    def test_every_read_has_the_same_bits(self, monkeypatch, m, mode):
        # .first, .second_central, .operator and their row sources against the whole-table
        # formulas, taken on the same row blocks at one BLAS thread (m = 203 is no
        # multiple of 8; test_bits_match_whole_tables covers whole tables).
        rng = np.random.default_rng(m)
        snaps = snapshots_from_trajectory_matrix(rng.standard_normal((3, m + 1)))
        noise = NoiseModel(variances=np.full(3, 1e-4))
        pinv = synthetic_pinv(m, 3, seed=m)
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 7 * m)  # blocks of at most 7 rows
        blocks = numerics.row_blocks(m, m)
        assert len(blocks) > 1
        scale = pinv.second_raw @ noise.variances
        point = dmd_point_estimate(snaps)
        with numerics._one_blas_thread():
            parts = [whole_tables(PinvMoments(pinv.first[a:b], pinv.second_raw[a:b]), snaps,
                                  noise, mode, scale[a:b]) for a, b in blocks]
            want_point = np.concatenate([snaps.states.T[a:b] @ point.solved for a, b in blocks])
        want_first, want_second = (np.concatenate(tables) for tables in zip(*parts))
        moments = estimate_operator_moments(snaps, noise, mode=mode, pinv=pinv)
        with numerics._one_blas_thread():
            first_rows = [moments.first_rows(a, b) for a, b in blocks]
            second_rows = [moments.second_rows(a, b) for a, b in blocks]
            point_rows = [point.rows(a, b) for a, b in blocks]
        assert np.array_equal(np.concatenate(first_rows), want_first)
        assert np.array_equal(np.concatenate(second_rows), want_second)
        assert np.array_equal(np.concatenate(point_rows), want_point)
        assert np.array_equal(moments.first, want_first)
        assert np.array_equal(moments.second_central, want_second)
        assert np.array_equal(point.operator, want_point)

    @pytest.mark.parametrize("mode", [CORRECTED, PAPER_LITERAL])
    def test_reads_and_checks_start_no_worker(self, monkeypatch, mode):
        # Construction (paper_literal checks every block), dense reads and check_tables
        # run their row blocks in order in this thread, with the bits of the blocks.
        for m in (31, 203):
            rng = np.random.default_rng(m)
            snaps = snapshots_from_trajectory_matrix(rng.standard_normal((3, m + 1)))
            noise = NoiseModel(variances=np.full(3, 1e-4))
            pinv = synthetic_pinv(m, 3, seed=m)
            monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 7 * m)  # blocks of <= 7 rows
            moments = OperatorMoments(pinv, snaps.shifted, noise.variances, mode)
            point = dmd_point_estimate(snaps)
            sources = moments.first_rows, moments.second_rows, point.rows
            want = [np.concatenate(list(numerics.RowTable((m, m), rows).blocks()))
                    for rows in sources]
            forbid_worker_threads(monkeypatch)
            moments = OperatorMoments(pinv, snaps.shifted, noise.variances, mode)
            got = [moments.first, moments.second_central, dmd_point_estimate(snaps).operator]
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            check_tables(*got[:2], mode)
            got[1][5, 6] = np.nan
            with pytest.raises(DimensionMismatch, match=r"second_central\[5, 6\] = nan"):
                check_tables(*got[:2], mode)

    def test_tables_are_built_once(self, small_system):
        snaps, noise = small_system
        moments = estimate_operator_moments(snaps, noise)
        point = dmd_point_estimate(snaps)
        assert moments.first is moments.first
        assert moments.second_central is moments.second_central
        assert point.operator is point.operator

    def test_paper_literal_count_and_minimum_logged(self, monkeypatch, caplog):
        snaps = snapshots_from_trajectory_matrix([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]])
        noise = NoiseModel(variances=np.array([1e-6]))
        pinv = PinvMoments(first=np.full((6, 1), 0.5), second_raw=np.full((6, 1), 0.25))
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 2 * 6)  # blocks of 2 rows
        with caplog.at_level(logging.WARNING, logger="dmduq.operator_moments"):
            moments = OperatorMoments(pinv, snaps.shifted, noise.variances, PAPER_LITERAL)
            spread = moments.second_central
        assert spread.max() < 0
        message = f"paper_literal variance has 36 negative element(s); min {spread.min():.3e}"
        assert [rec.getMessage() for rec in caplog.records] == [message]


class TestOperatorMomentsChecks:
    @pytest.mark.parametrize("table", ["first", "second_central"])
    def test_non_finite_names_table_and_entry(self, monkeypatch, table):
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 2 * 5)  # blocks of 2 rows
        tables = {"first": np.zeros((5, 5)), "second_central": np.zeros((5, 5))}
        tables[table][3, 1] = np.inf
        tables[table][4, 0] = np.nan
        with pytest.raises(DimensionMismatch, match=rf"{table}\[3, 1\] = inf"):
            check_tables(mode=CORRECTED, **tables)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_kernel_names_the_non_finite_entry(self):
        # M1x**2 @ Y**2 overflows in row 4 only (M1x**2 = 1e308, Y >= 2): its
        # spread entries are -inf.
        snaps = snapshots_from_trajectory_matrix([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]])
        noise = NoiseModel(variances=np.array([1e-6]))
        first = np.full((6, 1), 0.5)
        first[4] = 1e154
        pinv = PinvMoments(first=first, second_raw=first**2)
        with pytest.raises(DimensionMismatch, match=r"second_central\[4, 0\] = -inf"):
            estimate_operator_moments(snaps, noise, mode=PAPER_LITERAL, pinv=pinv)

    def test_negative_variances_counted(self):
        # -1e-13 is negative though corrected mode would pass it; a zero is not negative.
        first, second = np.ones((3, 3)), np.full((3, 3), 0.01)
        second[0, 1], second[2, 2], second[1, 0] = -1e-6, -1e-13, 0.0
        assert check_tables(first, second, PAPER_LITERAL) == 2
        assert check_tables(first, np.abs(second), CORRECTED) == 0

    def test_non_square_and_empty_rejected(self):
        for table in (np.zeros(3), np.zeros((0, 0))):
            with pytest.raises(DimensionMismatch, match="one non-empty 2-D shape"):
                check_tables(first=table, second_central=table, mode=CORRECTED)


@st.composite
def factor_tables(draw):
    """``(pinv, Y, variances, mode)``: entries from 1e-150 to 1e150 in magnitude,
    Jensen gaps from -JENSEN_SLACK up, and often one corrected variance placed near -1e-12."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponent = st.one_of(st.integers(-4, 0), st.integers(-150, 150))
    first = 10.0 ** draw(exponent) * rng.standard_normal((m, n))
    # Per entry: no Jensen gap, a gap down to -JENSEN_SLACK, or a share of first**2.
    kind = rng.integers(0, 3, (m, n))
    slack, share = -0.999 * JENSEN_SLACK * rng.random((m, n)), first**2 * rng.random((m, n))
    gap = np.select([kind == 0, kind == 1], [0.0, slack], share)
    scale = 10.0 ** draw(st.one_of(st.integers(-12, 0), st.integers(-300, 10)))
    variances = scale * rng.random(n)
    Y = 10.0 ** draw(exponent) * rng.standard_normal((n, m))
    if draw(st.booleans()):
        # Rescale Y so that the most negative (M2x - M1x**2) @ Y**2 entry puts its exact
        # corrected variance at -1e-12 times a factor near 1.
        slope = (gap @ Y**2).ravel()
        i = int(slope.argmin())
        if slope[i] < 0:
            c = ((first**2 + gap) @ variances)[i // m]
            target = draw(st.sampled_from([0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0]))
            Y = Y * np.sqrt((c + target * 1e-12) / -slope[i])
    try:
        pinv = PinvMoments(first, first**2 + gap)
    except DmduqError:  # a gap rounded below -JENSEN_SLACK, or an overflow
        pinv = PinvMoments(first, first**2)
    return pinv, Y, variances, draw(st.sampled_from([CORRECTED, PAPER_LITERAL]))


def construction_outcome(pinv, Y, variances, mode):
    """The exception (type and message) and the warnings of building OperatorMoments."""
    with mock.patch.object(operator_moments.logger, "warning") as warning:
        try:
            moments = OperatorMoments(pinv, Y, variances, mode)
        except DmduqError as exc:
            return type(exc), str(exc), warning.call_args_list, None
    return None, None, warning.call_args_list, moments


def row_pass_alone():
    return mock.patch.object(operator_moments, "_certified", lambda *args: False)


class TestCheckOutliers:
    def test_variance_clamped_by_row_blocks(self, caplog):
        # At m = 300 the check adds a third of a table (a clamped block, the iterates and the
        # eigenvalues), where np.maximum's whole clamped copy took 1.14 tables.  The radius is
        # still that of the whole clamped table.
        m, rng = 300, np.random.default_rng(1)
        first, variance = rng.standard_normal((m, m)) / m, rng.standard_normal((m, m))
        tracemalloc.start()
        try:
            with caplog.at_level(logging.WARNING, logger="dmduq.operator_moments"):
                check_outliers(first, variance)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8
        radius = np.sqrt(np.abs(np.linalg.eigvals(np.maximum(variance, 0.0))).max())
        largest = np.abs(np.linalg.eigvals(first)).max()
        assert [r.getMessage() for r in caplog.records] == [
            "no eigenvalue of the mean operator lies outside the noise bulk: bulk radius "
            f"sqrt(rho(V)) = {radius:.4g}, largest mean |lambda| = {largest:.4g}"]

    def test_eigendecomposition_failure_is_convergence_failure(self, monkeypatch):
        # The mean's eigenvalues come from numerics.eigenvalue_rows, which names the failure.
        def boom(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", boom)
        with pytest.raises(ConvergenceFailure, match="^eigendecomposition failed at instance 0: "
                                                     "Eigenvalues did not converge$"):
            check_outliers(np.eye(3), np.ones((3, 3)))


def residual_ratios(snapshots, variances):
    """rho_i of check_residual, with the n x n fit by least squares."""
    X, Y = snapshots.states, snapshots.shifted
    n, m = X.shape
    fit = np.linalg.lstsq(X.T, Y.T, rcond=None)[0].T
    residual = Y - fit @ X
    return (residual**2).sum(axis=1) / (variances * (m - n) * (1 + (fit**2).sum(axis=1)))


def residual_warnings(snapshots, noise, caplog):
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="dmduq.operator_moments"):
        check_residual(snapshots, noise)
    return [record.getMessage() for record in caplog.records]


class TestCheckResidual:
    @pytest.mark.parametrize("variance", [1e-10, 1e-8, 1e-6, 1e-4])
    def test_readme_spring_mass_warns(self, variance, caplog):
        # Gravity makes the dynamics affine, and simulate does not write the state that
        # carries the offset: rho is 4.15e4 (x2) and 26.0 (x1) at variance 1e-6.
        snapshots = build_snapshots(simulate_spring_mass(SpringMassParams(duration=20, dt=0.05)))
        rho = residual_ratios(snapshots, np.full(2, variance))
        assert rho[1] == pytest.approx(4.153e4 * 1e-6 / variance, rel=1e-3)
        message = (f"model error: state x2 has a one-step residual rho = {rho[1]:.4g} times "
                   "what noise explains (threshold 10); the moments describe measurement "
                   "noise only")
        assert residual_warnings(snapshots, NoiseModel([variance] * 2), caplog) == [message]
        # A full covariance: its diagonal.
        noise = NoiseModel([variance] * 2, variance * np.array([[1.0, 0.9], [0.9, 1.0]]))
        assert residual_warnings(snapshots, noise, caplog) == [message]

    def test_network_recordings_do_not_warn(self, caplog):
        # The 34-state network (m = 400) and the 6-state one (m = 1200), noiseless and in
        # 20 seeded noisy copies per variance: rho is at most 8e-14 noiseless and 1.03-1.46
        # noisy, where the model holds.
        networks = [
            decimate_trajectory(simulate_oscillator_network(random_network_params(
                node_count=17, duration=120.0, dt=0.01)), 30),
            simulate_oscillator_network(random_network_params(node_count=3, duration=12.0)),
        ]
        noiseless, noisy = [], []
        for trajectory in networks:
            for variance in (1e-10, 1e-8, 1e-6, 1e-4):
                noise = NoiseModel([variance] * trajectory.state_count)
                for seed in (None, *range(20)):
                    samples = trajectory.samples if seed is None else trajectory.samples + (
                        np.sqrt(variance)
                        * np.random.default_rng(seed).standard_normal(trajectory.samples.shape))
                    snapshots = build_snapshots(
                        RawTrajectory(trajectory.times, samples, trajectory.state_names))
                    assert residual_warnings(snapshots, noise, caplog) == []
                    rho = residual_ratios(snapshots, noise.variances).max()
                    (noiseless if seed is None else noisy).append(rho)
        assert max(noiseless) < 1e-13
        assert 1.0 < min(noisy) and max(noisy) < 1.5

    def test_no_residual_without_more_snapshots_than_states(self, caplog):
        # m = 2 <= n = 3: the fit is exact, and X X.T is singular.
        snapshots = snapshots_from_trajectory_matrix(np.arange(9.0).reshape(3, 3) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert residual_warnings(snapshots, NoiseModel([1e-6] * 3), caplog) == []


class TestCertificate:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(factor_tables())
    def test_certificate_implies_row_pass(self, tables):
        pinv, Y, variances, mode = tables
        scale = pinv.second_raw @ variances
        got = construction_outcome(pinv, Y, variances, mode)
        with row_pass_alone():
            want = construction_outcome(pinv, Y, variances, mode)
            corrected = construction_outcome(pinv, Y, variances, CORRECTED)
        assert got[:3] == want[:3]
        if operator_moments._certified(pinv.first, pinv.second_raw, Y, scale):
            assert corrected[0] is None
            moments = corrected[3]
            assert np.isfinite(moments.first).all()
            assert np.isfinite(moments.second_central).all()
            assert moments.second_central.min() >= -1e-12

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_names_the_entry(self):
        # first[4, 5] = 1e154 * 1e160 overflows; the factors' bounds cannot rule that out.
        first = np.full((6, 1), 0.5)
        first[4] = 1e154
        pinv, Y = PinvMoments(first, first**2), np.array([[2.0, 3.0, 4.0, 5.0, 6.0, 1e160]])
        with pytest.raises(DimensionMismatch, match=r"first\[4, 5\] = inf"):
            OperatorMoments(pinv, Y, np.array([1e-6]))

    @staticmethod
    def spy_row_sources(monkeypatch):
        calls = Counter()
        for name in ("first_rows", "second_rows"):
            def spy(self, a, b, out=None, rows=getattr(OperatorMoments, name), name=name):
                calls[name, a, b] += 1
                return rows(self, a, b, out)
            monkeypatch.setattr(OperatorMoments, name, spy)
        return calls

    @pytest.mark.parametrize("system", ["spring", "network"])
    def test_workload_inputs_form_no_block(self, monkeypatch, system):
        # The benchmark's library inputs: spring-mass at m = 4000, the 34-state network
        # decimated to m = 400.
        if system == "spring":
            trajectory = simulate_spring_mass(SpringMassParams(duration=200.0, dt=0.05))
        else:
            trajectory = decimate_trajectory(simulate_oscillator_network(
                random_network_params(node_count=17, seed=1, duration=120.0, dt=0.01)), 30)
        snaps = build_snapshots(trajectory)
        noise = NoiseModel(variances=np.full(snaps.state_count, 1e-6))
        pinv = pinv_moments(snaps, noise)
        calls = self.spy_row_sources(monkeypatch)
        estimate_operator_moments(snaps, noise, pinv=pinv)
        assert not calls
        estimate_operator_moments(snaps, noise, mode=PAPER_LITERAL, pinv=pinv)
        m = snaps.states.shape[1]
        blocks = numerics.row_blocks(m, m)
        assert calls == Counter({(name, a, b): 1 for name in ("first_rows", "second_rows")
                                 for a, b in blocks})

    def test_undecided_input_checks_every_block_once(self, monkeypatch):
        # Without noise and with M2x = M1x**2, every corrected variance is exactly 0, but
        # eta * mag is above 1e-12 here, so the factors cannot prove it.
        m = 200
        rng = np.random.default_rng(11)
        first = 0.01 * rng.standard_normal((m, 3))
        pinv, Y = PinvMoments(first, first**2), 1e3 * rng.standard_normal((3, m))
        assert not operator_moments._certified(first, first**2, Y, np.zeros(m))
        calls = self.spy_row_sources(monkeypatch)
        moments = OperatorMoments(pinv, Y, np.zeros(3))
        assert calls == Counter({(name, a, b): 1 for name in ("first_rows", "second_rows")
                                 for a, b in numerics.row_blocks(m, m)})
        assert not moments.second_central.any()
