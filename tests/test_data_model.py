import functools

import numpy as np
import pytest

from dmduq import numerics
from dmduq.data_model import (
    NoiseModel,
    RawTrajectory,
    SnapshotSet,
    build_snapshots,
    decimate_trajectory,
    estimate_noise,
    format_blocks,
    format_rows,
    load_csv,
    save_csv,
    write_csv,
)
from dmduq.errors import (
    ConfigError,
    DimensionMismatch,
    NonUniformSampling,
    NotPositiveDefinite,
    ParseError,
    TooFewSnapshots,
    ZeroVariance,
)


def make_trajectory(samples, dt=0.1):
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    times = np.arange(samples.shape[1]) * dt
    return RawTrajectory(times=times, samples=samples)


class TestRawTrajectory:
    def test_non_uniform_rejected(self):
        with pytest.raises(NonUniformSampling):
            RawTrajectory(times=np.array([0.0, 0.1, 0.3]), samples=np.zeros((1, 3)))

    def test_decreasing_rejected(self):
        with pytest.raises(NonUniformSampling):
            RawTrajectory(times=np.array([0.0, -0.1, -0.2]), samples=np.zeros((1, 3)))

    @pytest.mark.parametrize("times", [
        [1e6, 1e6 + 0.1, 1e6 + 0.3], [1.7e9, 1.7e9 + 0.01, 1.7e9 + 0.03],
    ])
    def test_non_uniform_rejected_at_large_offsets(self, times):
        with pytest.raises(NonUniformSampling):
            RawTrajectory(times=np.array(times), samples=np.zeros((1, 3)))

    @pytest.mark.parametrize("t0", [1e6, -5e5, 1.7e9])
    @pytest.mark.parametrize("dt", [1e-3, 0.01, 0.05])
    def test_large_time_offsets_accepted(self, t0, dt):
        # Each time is rounded at its own magnitude, by up to a spacing of doubles there:
        # 1.2e-7 at 1e9, far above 1e-9 of a 0.01 s step.
        traj = RawTrajectory(times=t0 + dt * np.arange(400), samples=np.zeros((1, 400)))
        assert traj.dt == pytest.approx(dt, rel=1e-6)

    def test_dt(self):
        traj = make_trajectory([[1.0, 2.0, 3.0]], dt=0.25)
        assert traj.dt == pytest.approx(0.25)

    def test_immutable(self):
        traj = make_trajectory([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            traj.samples[0, 0] = 5.0


class TestBuildSnapshots:
    def test_single_state(self):
        snaps = build_snapshots(make_trajectory([[1.0, 2.0, 3.0]]))
        assert np.array_equal(snaps.states, [[1.0, 2.0]])
        assert np.array_equal(snaps.shifted, [[2.0, 3.0]])

    def test_two_states_four_samples(self):
        samples = np.arange(8.0).reshape(2, 4)
        snaps = build_snapshots(make_trajectory(samples))
        assert np.array_equal(snaps.states, samples[:, :3])
        assert np.array_equal(snaps.shifted, samples[:, 1:])

    def test_too_few(self):
        with pytest.raises(TooFewSnapshots):
            build_snapshots(make_trajectory([[1.0, 2.0]]))

    def test_overlap_consistency(self):
        rng = np.random.default_rng(0)
        snaps = build_snapshots(make_trajectory(rng.standard_normal((3, 20))))
        assert np.array_equal(snaps.states[:, 1:], snaps.shifted[:, :-1])

    def test_matrices_are_read_only_views_of_the_recording(self):
        snaps = build_snapshots(make_trajectory(np.arange(12.0).reshape(3, 4)))
        assert isinstance(snaps, RawTrajectory) and snaps.snapshot_count == 3
        for view in (snaps.states, snaps.shifted):
            assert np.shares_memory(view, snaps.samples)
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 5.0

    @pytest.mark.parametrize("samples", [np.zeros((1, 2)), np.zeros((0, 5))],
                             ids=["2-samples", "no-state"])
    def test_too_few_on_direct_construction(self, samples):
        with pytest.raises(TooFewSnapshots):
            SnapshotSet(np.arange(samples.shape[1]) * 0.1, samples)


class TestNoiseModel:
    def test_positive_required(self):
        with pytest.raises(ZeroVariance):
            NoiseModel(variances=np.array([0.0, 1.0]))

    def test_covariance_diag_must_match(self):
        with pytest.raises(DimensionMismatch):
            NoiseModel(
                variances=np.array([1.0, 2.0]),
                full_covariance=np.array([[1.0, 0.0], [0.0, 3.0]]),
            )

    def test_covariance_must_be_spd(self):
        with pytest.raises(NotPositiveDefinite):
            NoiseModel(
                variances=np.array([1.0, 1.0]),
                full_covariance=np.array([[1.0, 2.0], [2.0, 1.0]]),
            )

    def test_default_covariance_is_diagonal(self):
        model = NoiseModel(variances=np.array([2.0, 5.0]))
        assert np.array_equal(model.covariance(), np.diag([2.0, 5.0]))


class TestEstimateNoise:
    def test_constant_state_rejected(self):
        traj = make_trajectory([[5.0, 5.0, 5.0, 5.0]])
        with pytest.raises(ZeroVariance):
            estimate_noise(traj, (0.0, 1.0))

    def test_two_sample_variance(self):
        traj = make_trajectory([[0.0, 2.0]])
        model = estimate_noise(traj, (0.0, 1.0))
        assert model.variances[0] == pytest.approx(2.0)

    def test_empty_window(self):
        traj = make_trajectory([[0.0, 2.0, 1.0]])
        with pytest.raises(ConfigError, match=r"contains 0 sample\(s\); need at least 2"):
            estimate_noise(traj, (5.0, 6.0))

    def test_sine_plus_noise(self):
        # Expected window variance: the sampled-sine variance plus the noise
        # variance (independent contributions add).
        rng = np.random.default_rng(42)
        times = np.arange(20000) * 0.01
        clean = 0.05 * np.sin(2.0 * times)
        noisy = clean + rng.normal(0.0, 0.1, size=times.size)
        traj = RawTrajectory(times=times, samples=noisy[None, :])
        model = estimate_noise(traj, (0.0, 200.0))
        expected = 0.01 + clean.var(ddof=1)
        assert model.variances[0] == pytest.approx(expected, rel=0.25)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal(50)
        a = estimate_noise(make_trajectory(base[None, :]), (0.0, 10.0))
        b = estimate_noise(make_trajectory(base[None, :] + 123.0), (0.0, 10.0))
        assert a.variances[0] == pytest.approx(b.variances[0], rel=1e-9)


class TestCsv:
    def test_row_table_written_as_its_array(self, tmp_path, monkeypatch):
        # Read by row blocks of at most 4 rows; the row numbers run on across blocks.
        table = np.random.default_rng(3).standard_normal((11, 3))
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 4 * 3)
        source = numerics.RowTable(table.shape, lambda a, b, out=None: table[a:b])
        for index in (False, True):
            write_csv(tmp_path / "rows.csv", ["x", "y", "z"], source, index=index)
            write_csv(tmp_path / "whole.csv", ["x", "y", "z"], table, index=index)
            assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_product_table_text_is_its_array(self):
        # A product's rows round by the size of the block they are made in (OpenBLAS's
        # small-matrix kernel), so its text is read at the table's one cut, the one its array
        # is made at: here 18-row blocks round unlike the whole 300-row product.
        rng = np.random.default_rng(11)
        left, right = rng.standard_normal((300, 34)), rng.standard_normal((34, 300))
        rows = functools.partial(numerics.product_rows, left, right)
        table = numerics.RowTable((300, 300), rows)
        assert [row for rows in format_blocks(table) for row in rows] == format_rows(
            np.asarray(table))

    def test_parse_simple(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,x1\n0.0,1.0\n0.1,2.0\n")
        traj = load_csv(path)
        assert np.allclose(traj.times, [0.0, 0.1])
        assert np.allclose(traj.samples, [[1.0, 2.0]])
        assert traj.state_names == ["x1"]

    def test_missing_field_location(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,x1\n0.0,1.0\n0.1\n0.2,3.0\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert info.value.row == 3

    def test_bad_number_location(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,x1\n0.0,1.0\n0.1,oops\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert info.value.row == 3
        assert info.value.column == 2

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,x1\n0.0,1.0\n")
        with pytest.raises(ParseError, match=r"expected header 'time,<name1>,\.\.\.', got 't,x1'"):
            load_csv(path)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        traj = make_trajectory(rng.standard_normal((3, 50)), dt=0.037)
        path = tmp_path / "t.csv"
        save_csv(traj, path)
        back = load_csv(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.samples, traj.samples)
        assert back.state_names == traj.state_names

    def test_round_trip_without_trailing_newline(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,x1\n0.0,1.0\n0.5,2.0")
        traj = load_csv(path)
        assert traj.samples.shape == (1, 2)


    def test_indexed_rows_across_blocks(self, tmp_path, monkeypatch):
        # Blocks of at most 2 rows of 3 values: the row numbers run on across blocks.
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 16 * 3 * 2)
        table = np.arange(15.0).reshape(5, 3) / 7.0
        path = tmp_path / "t.csv"
        write_csv(path, ["index", "a", "b", "c"], table, index=True)
        rows = [f"{i}," + ",".join("%.17g" % v for v in row) for i, row in enumerate(table)]
        assert path.read_text(encoding="utf-8") == "\n".join(["index,a,b,c", *rows]) + "\n"

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        # 30,000 values go out in 4 blocks; a non-finite value in the last raises
        # ConfigError after the first three are written, and leaves no file behind.
        table = np.full((10_000, 3), 1.0 / 3.0)
        table[-1, -1] = np.inf
        path = tmp_path / "kde.csv"
        with pytest.raises(ConfigError, match="non-finite"):
            write_csv(path, ["a", "b", "c"], table)
        assert list(tmp_path.iterdir()) == []
        path.write_bytes(b"earlier output\n")
        with pytest.raises(ConfigError, match="non-finite"):
            write_csv(path, ["a", "b", "c"], table)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"earlier output\n"


class TestDecimateTrajectory:
    def test_stride(self):
        traj = make_trajectory(np.arange(10.0)[None, :], dt=0.1)
        out = decimate_trajectory(traj, 3)
        assert np.allclose(out.samples[0], [0.0, 3.0, 6.0, 9.0])
        assert out.dt == pytest.approx(0.3)

    @pytest.mark.parametrize("stride", [0, -3])
    def test_bad_stride_is_config_error(self, stride):
        traj = make_trajectory(np.arange(10.0)[None, :], dt=0.1)
        with pytest.raises(ConfigError, match=f"stride must be >= 1, got {stride}"):
            decimate_trajectory(traj, stride)
