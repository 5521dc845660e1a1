import json

import numpy as np
import pytest
from conftest import run_cli

from dmduq import cli, monte_carlo
from dmduq.cli import dumps_json, main
from dmduq.monte_carlo import sample_operator_instances
from dmduq.spectral import eigen_samples


def stderr_error_code(proc) -> str:
    try:
        return json.loads(proc.stderr)["error"]
    except json.JSONDecodeError:
        pytest.fail(f"stderr is not a JSON error record:\n{proc.stderr}")


@pytest.fixture()
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    code = main(
        [
            "simulate",
            "spring-mass",
            "--duration",
            "2",
            "--dt",
            "0.1",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "mc": {"trials": 400, "master_seed": 3},
                "decimate_stride": 5,
                "quadrature": {"node_count": 48},
            }
        )
    )
    return path


class TestDumpsJson:
    def test_float_precision_round_trip(self):
        value = 0.1 + 0.2
        text = dumps_json({"v": value})
        assert json.loads(text)["v"] == value

    def test_deterministic_output(self):
        payload = {"b": [1.5, 2], "a": {"nested": True, "x": None}}
        assert dumps_json(payload) == dumps_json(payload)

    def test_arrays_serialized(self):
        text = dumps_json({"m": np.array([[1.0, 2.0]])})
        assert json.loads(text)["m"] == [[1.0, 2.0]]


class TestSimulate:
    def test_default_row_count(self, tmp_path):
        out = tmp_path / "sm.csv"
        assert main(["simulate", "spring-mass", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4002  # header + 4001 samples

    def test_zero_dt_rejected(self, tmp_path):
        proc = run_cli(
            ["simulate", "spring-mass", "--dt", "0", "--out", "x.csv"], cwd=tmp_path
        )
        assert proc.returncode == 1
        assert stderr_error_code(proc) == "config_error"

    def test_equilibrium_initial_condition_constant(self, tmp_path):
        out = tmp_path / "eq.csv"
        assert (
            main(
                [
                    "simulate",
                    "spring-mass",
                    "--x0=-2.4525,0",
                    "--duration",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.abs(rows[:, 1] - rows[0, 1]).max() <= 1e-9
        assert np.abs(rows[:, 2]).max() <= 1e-9

    def test_network_shape(self, tmp_path):
        out = tmp_path / "net.csv"
        assert (
            main(
                [
                    "simulate",
                    "network",
                    "--nodes",
                    "3",
                    "--duration",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        header = out.read_text().splitlines()[0]
        assert header == "time,q1,q2,q3,v1,v2,v3"


class TestMoments:
    def test_schema_and_jensen(self, small_csv, config_path, tmp_path):
        out = tmp_path / "moments.json"
        code = main(
            [
                "moments",
                str(small_csv),
                "--config",
                str(config_path),
                "--noise-variances",
                "1e-6,1e-6",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        for key in (
            "pinv_first",
            "pinv_second_raw",
            "operator_first",
            "operator_second_central",
            "operator_point",
        ):
            assert key in data
        first = np.array(data["pinv_first"])
        second = np.array(data["pinv_second_raw"])
        assert (second - first**2).min() >= -1e-12
        assert data["metadata"]["config"]["mc"]["trials"] == 400

    def test_byte_identical_reruns(self, small_csv, config_path, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out_a, out_b):
            main(
                [
                    "moments",
                    str(small_csv),
                    "--config",
                    str(config_path),
                    "--noise-variances",
                    "1e-6,1e-6",
                    "--out",
                    str(out),
                ]
            )
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_constant_window_zero_variance_exit(self, tmp_path):
        csv = tmp_path / "const.csv"
        csv.write_text("time,x1\n" + "".join(f"{i * 0.1:.1f},5.0\n" for i in range(10)))
        proc = run_cli(
            ["moments", str(csv), "--noise-window", "0:1", "--out", "m.json"],
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert stderr_error_code(proc) == "zero_variance"

    def test_noise_source_required(self, small_csv, tmp_path):
        proc = run_cli(
            ["moments", str(small_csv), "--out", "m.json"], cwd=tmp_path
        )
        assert proc.returncode == 1
        assert stderr_error_code(proc) == "config_error"


class TestCompare:
    @pytest.fixture()
    def artifacts(self, small_csv, config_path, tmp_path):
        moments = tmp_path / "moments.json"
        mc = tmp_path / "mc.json"
        args_common = [
            str(small_csv),
            "--config",
            str(config_path),
            "--noise-variances",
            "1e-8,1e-8",
        ]
        assert main(["moments", *args_common, "--out", str(moments)]) == 0
        assert main(["mc", *args_common, "--out", str(mc)]) == 0
        return moments, mc

    def test_report_rows_in_order(self, artifacts, config_path, tmp_path):
        moments, mc = artifacts
        out = tmp_path / "report.json"
        code = main(
            ["compare", str(moments), str(mc), "--config", str(config_path), "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        names = [row["matrix"] for row in report["comparisons"]]
        assert names == [
            "pinv_first",
            "pinv_second_raw",
            "operator_first",
            "operator_second_central",
        ]

    def test_near_zero_noise_agreement(self, artifacts, config_path, tmp_path):
        moments, mc = artifacts
        out = tmp_path / "report.json"
        main(["compare", str(moments), str(mc), "--config", str(config_path), "--out", str(out)])
        report = json.loads(out.read_text())
        by_name = {row["matrix"]: row for row in report["comparisons"]}
        assert by_name["pinv_first"]["rmse"] <= 1e-6
        assert by_name["operator_first"]["rmse"] <= 1e-5
        assert by_name["pinv_first"]["cosine"] == pytest.approx(1.0, abs=1e-9)
        delta = np.array(report["delta_sigma2"])
        assert delta.max() <= 1e-10

    def test_unknown_schema_rejected(self, artifacts, tmp_path):
        moments, mc = artifacts
        bad = tmp_path / "bad.json"
        data = json.loads(moments.read_text())
        data["schema_version"] = "2.0"
        bad.write_text(json.dumps(data))
        proc = run_cli(
            ["compare", str(bad), str(mc), "--out", "r.json"], cwd=tmp_path
        )
        assert proc.returncode == 1
        assert stderr_error_code(proc) == "shape_mismatch"


class TestSpectrum:
    def test_writes_density_and_bands(self, small_csv, config_path, tmp_path):
        moments = tmp_path / "moments.json"
        main(
            [
                "moments",
                str(small_csv),
                "--config",
                str(config_path),
                "--noise-variances",
                "1e-4,1e-4",
                "--out",
                str(moments),
            ]
        )
        out = tmp_path / "kde.csv"
        code = main(
            ["spectrum", str(moments), "--samples", "300", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "grid_re,grid_im,density"
        bands = (tmp_path / "kde_bands.csv").read_text().splitlines()
        assert bands[0].startswith("index,mean_re,mean_im")
        m = len(json.loads(moments.read_text())["operator_first"])
        assert len(bands) == 1 + m

    def test_zero_spread_reports_degenerate(self, small_csv, tmp_path):
        # Exactly-zero spread collapses every sampled spectrum to the same
        # point, which automatic bandwidth selection must refuse.
        moments = tmp_path / "moments.json"
        main(
            [
                "moments",
                str(small_csv),
                "--noise-variances",
                "1e-8,1e-8",
                "--out",
                str(moments),
            ]
        )
        data = json.loads(moments.read_text())
        m = len(data["operator_second_central"])
        data["operator_second_central"] = [[0.0] * m for _ in range(m)]
        moments.write_text(json.dumps(data))
        proc = run_cli(
            ["spectrum", str(moments), "--samples", "50", "--out", "kde.csv"],
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert stderr_error_code(proc) == "degenerate_data"

    def test_deterministic(self, small_csv, config_path, tmp_path):
        moments = tmp_path / "moments.json"
        main(
            [
                "moments",
                str(small_csv),
                "--config",
                str(config_path),
                "--noise-variances",
                "1e-4,1e-4",
                "--out",
                str(moments),
            ]
        )
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            main(["spectrum", str(moments), "--samples", "200", "--seed", "7", "--out", str(out)])
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a_bands.csv").read_bytes() == (tmp_path / "b_bands.csv").read_bytes()


    def test_chunked_matches_unchunked_reference(
        self, small_csv, config_path, tmp_path, monkeypatch
    ):
        # Streamed in chunks of 3 instances, the outputs must equal, byte for
        # byte, those written from one draw of all instances.
        moments = tmp_path / "moments.json"
        main(
            [
                "moments",
                str(small_csv),
                "--config",
                str(config_path),
                "--noise-variances",
                "1e-4,1e-4",
                "--out",
                str(moments),
            ]
        )
        m = len(json.loads(moments.read_text())["operator_first"])
        monkeypatch.setattr(monte_carlo, "_CHUNK_SCALARS", 3 * m * m)
        argv = ["spectrum", str(moments), "--samples", "50", "--seed", "9", "--out"]
        assert main(argv + [str(tmp_path / "streamed.csv")]) == 0

        def reference(moments, count, seed, clamp_negative):
            return eigen_samples(sample_operator_instances(moments, count, seed, clamp_negative))

        monkeypatch.setattr(cli, "sample_operator_spectra", reference)
        assert main(argv + [str(tmp_path / "reference.csv")]) == 0
        for name in ("{}.csv", "{}_bands.csv"):
            streamed = (tmp_path / name.format("streamed")).read_bytes()
            assert streamed == (tmp_path / name.format("reference")).read_bytes()


class TestPipeline:
    def test_writes_three_files(self, small_csv, config_path, tmp_path):
        out_dir = tmp_path / "run"
        code = main(
            [
                "pipeline",
                str(small_csv),
                "--config",
                str(config_path),
                "--noise-variances",
                "1e-6,1e-6",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        for name in ("moments.json", "mc.json", "report.json"):
            assert (out_dir / name).exists()


class TestConfigRejection:
    def test_unknown_key(self, small_csv, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"quadratur": {}}))
        proc = run_cli(
            [
                "moments",
                str(small_csv),
                "--config",
                str(cfg),
                "--noise-variances",
                "1e-6,1e-6",
                "--out",
                "m.json",
            ],
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert stderr_error_code(proc) == "config_error"
