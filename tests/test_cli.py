import json
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import run_cli, run_python

from dmduq import cli, monte_carlo, numerics, spectral
from dmduq.cli import dumps_json, main
from dmduq.config import PipelineConfig, load_config
from dmduq.data_model import NoiseModel, RawTrajectory, build_snapshots, format_rows, load_csv
from dmduq.data_model import decimate_trajectory, format_blocks, save_csv
from dmduq.errors import ConfigError, ParseError, ShapeMismatch
from dmduq.monte_carlo import SAMPLING_MODES, McConfig, sample_operator_instances
from dmduq.pinv_moments import pinv_moments
from dmduq.spectral import eigen_samples
from dmduq.systems import (
    SpringMassParams,
    random_network_params,
    simulate_oscillator_network,
    simulate_spring_mass,
)


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

    def test_written_payload_streamed(self, tmp_path):
        # A 1000 x 1000 table, nested in a dict, is 8 MB of floats and some 23 MB of
        # text; written block by block, the writer holds one block's text.
        big = np.random.default_rng(0).standard_normal((1000, 1000))
        payload = {"n": 3, "nested": {"table": big, "list": [0.5, None]}}
        out = tmp_path / "big.json"
        tracemalloc.start()
        try:
            cli._write_json(out, payload, 17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert out.read_text(encoding="utf-8") == dumps_json(payload)


MOMENTS_TABLES = [moments for moments, _ in cli._COMPARED]
MC_TABLES = [mc for _, mc in cli._COMPARED]
KEPT = {"schema_version", "metadata", "variance_mode"}

# Tables of every kind, and values that are none: empty, 1 x 1, m x 1 and 1 x m tables,
# NaN and Infinity tokens, a ragged, a 1-D and a 3-D table, a string, an object and an array
# of objects under a table key, brackets inside strings, and repeated keys, of which the
# last counts.
EDGE_PAYLOAD = (
    '{"schema_version": "1.0", "operator_first": "not yet", "empty": {}, "none": [],'
    ' "rows": [[]], "objects": [{}, {"a": [[1, 2], "]"]}], "one": [[2.5]],'
    ' "column": [[1], [2], [3], [4], [5], [6], [7]], "wide": [[1, 2, 3, 4, 5, 6, 7]],'
    ' "specials": [[NaN, Infinity], [-Infinity, -0.0]], "twice": [[1.0, 2.0]],'
    ' "metadata": {"k": "v", "k": [1, {"deep": null}], "e": {}, "l": []},'
    ' "ragged": [[1, 2], [3]], "text": "a \\"quoted\\" ] } [ { string",'
    ' "operator_first": [[1e-300, -2E+5], [3.25, 0]], "variance_mode": "corrected",'
    ' "flat": [1, 2, 3], "cube": [[[1]]], "flags": [[true, false, null]], "twice": "gone",'
    ' "skipped": [[[1, [2]], {"x": [3]}], "s\\u00e9"]}'
)
EDGE_TABLES = ["operator_first", "empty", "none", "rows", "objects", "one", "column", "wide",
               "specials", "twice", "ragged", "text", "flat", "cube", "flags"]


def json_load_reference(path, tables, keys) -> dict:
    """What json.load and np.array(value, dtype=float) make of the members ``tables`` and
    ``keys`` of the object in ``path``; a table that is not 2-D is an empty array."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    out = {key: data[key] for key in keys if key in data}
    for key in tables:
        try:
            table = np.array(data[key], dtype=float)
        except (TypeError, ValueError):
            table = np.empty(0)
        out[key] = table if table.ndim == 2 else np.empty(0)
    return out


class TestPayloadReader:
    @pytest.fixture()
    def payloads(self, small_csv, tmp_path):
        """(path, tables) of dmduq's moments.json and mc.json of the small recording, of
        pretty-printed and key-reversed copies, and of EDGE_PAYLOAD."""
        cfg = tmp_path / "mc_cfg.json"
        cfg.write_text(json.dumps({"mc": {"trials": 20}}))
        common = [str(small_csv), "--noise-variances", "1e-8,1e-8", "--config", str(cfg)]
        cases = []
        for command, tables in (("moments", MOMENTS_TABLES), ("mc", MC_TABLES)):
            path = tmp_path / f"{command}.json"
            assert main([command, *common, "--out", str(path)]) == 0
            data = json.loads(path.read_text())
            reversed_data = {key: data[key] for key in reversed(data)}
            reversed_data["metadata"] = dict(reversed(data["metadata"].items()))
            for name, text in (("indented", json.dumps(data, indent=2)),
                               ("reversed", json.dumps(reversed_data))):
                copy = tmp_path / f"{command}_{name}.json"
                copy.write_text(text)
                cases.append((copy, tables))
            cases.append((path, tables))
        edge = tmp_path / "edge.json"
        edge.write_text(EDGE_PAYLOAD)
        return cases + [(edge, EDGE_TABLES)]

    @pytest.mark.parametrize("text_block", [1, 2, 3, 7, 64, None])
    @pytest.mark.parametrize("row_values", [3, None], ids=["row_per_block", "budget"])
    def test_reads_as_json_load(self, payloads, monkeypatch, text_block, row_values):
        # Block edges fall inside numbers, strings, keys and rows.  None: the default size.
        # The tables do not depend on the block budget, which the reader no longer reads:
        # under a budget of a row or less they are the same.
        if text_block:
            monkeypatch.setattr(cli, "_TEXT_BLOCK", text_block)
        if row_values:
            monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 4 * row_values)
        for path, tables in payloads:
            got = cli._load_json(path, tables, KEPT)
            want = json_load_reference(path, tables, KEPT)
            assert got.keys() == want.keys()
            for key, value in want.items():
                if key in tables:
                    assert got[key].dtype == float and got[key].shape == value.shape, key
                    assert got[key].tobytes() == value.tobytes(), key
                else:
                    assert json.dumps(got[key]) == json.dumps(value), key

    def test_non_table_is_shape_mismatch(self, tmp_path):
        edge = tmp_path / "edge.json"
        edge.write_text(EDGE_PAYLOAD)
        with pytest.raises(ShapeMismatch, match="'empty' is not a 2-D table"):
            cli._read_payload(edge, EDGE_TABLES)

    @pytest.mark.parametrize("text_block", [3, None])
    def test_truncated_or_trailing_text_is_parse_error(self, tmp_path, monkeypatch, text_block):
        # Every prefix, cut anywhere (so at each structural position), is not JSON, and
        # a parse error comes before any shape error.
        if text_block:
            monkeypatch.setattr(cli, "_TEXT_BLOCK", text_block)
        path = tmp_path / "cut.json"
        endings = [EDGE_PAYLOAD[:cut] for cut in range(len(EDGE_PAYLOAD))]
        endings += [EDGE_PAYLOAD + tail for tail in (" x", "{}", ",", "]", " {", '"')]
        for text in endings:
            path.write_text(text)
            with pytest.raises(ParseError, match="not valid JSON"):
                cli._read_payload(path, EDGE_TABLES)

    @pytest.mark.parametrize("text_block", [1, 3, None])
    def test_bad_token_in_a_dropped_member_is_parse_error(self, tmp_path, monkeypatch,
                                                          text_block):
        # What is dropped is checked as what is kept: a bad token in a dropped table, two
        # objects down, in a dropped 3-D array or in a kept table is a parse error, before
        # the shape error of the string table "empty" (and of a missing table).
        if text_block:
            monkeypatch.setattr(cli, "_TEXT_BLOCK", text_block)
        sites = ['"dropped": [[1, 2], [3, {bad}]]',
                 '"standard_errors": {{"pinv_mean": [[0.5]], "operator_mean": [[1], [{bad}]]}}',
                 '"cube": [[[1, 2]], [[3, {bad}]]]',
                 '"operator_first": [[1, 2], [3, {bad}]]']
        path = tmp_path / "bad.json"
        for site in sites:
            for bad in ("2x", "tru", "[1,,2]", '"unclosed'):
                path.write_text('{"schema_version": "1.0", ' + site.format(bad=bad)
                                + ', "empty": "text"}')
                with pytest.raises(ParseError, match="not valid JSON"):
                    cli._read_payload(path, ["operator_first", "empty"])

    def test_truncated_output_is_parse_error_from_compare(self, payloads, tmp_path, capsys):
        text = (tmp_path / "moments.json").read_text()
        cut = tmp_path / "cut.json"
        for end in (1, text.index("operator_first") + 30, len(text) // 2, len(text) - 2):
            cut.write_text(text[:end])
            capsys.readouterr()
            assert main(["compare", str(cut), str(tmp_path / "mc.json"),
                         "--out", str(tmp_path / "report.json")]) == 1
            assert json.loads(capsys.readouterr().err)["error"] == "parse_error"

    def test_compare_inputs_read_in_twice_their_tables(self, tmp_path):
        # At m = 300 compare holds its eight tables (2.9 MB) plus a row block and a text
        # block while it reads (1.6 times the tables); json.load and np.array took 7.5 times.
        trajectory = simulate_spring_mass(SpringMassParams(duration=15.0, dt=0.05))
        snapshots, noise = build_snapshots(trajectory), NoiseModel([1e-6, 1e-6])
        cfg = PipelineConfig(mc=McConfig(trials=20))
        paths = tmp_path / "moments.json", tmp_path / "mc.json"
        for path, payload in zip(paths, (cli._moments_payload, cli._mc_payload)):
            cli._write_json(path, payload(snapshots, noise, cfg), 17)
        tracemalloc.start()
        try:
            read = [cli._read_payload(path, tables)
                    for path, tables in zip(paths, (MOMENTS_TABLES, MC_TABLES))]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = sum(data[key].nbytes for data, tables in zip(read, (MOMENTS_TABLES, MC_TABLES))
                   for key in tables)
        assert read[0]["operator_first"].shape == (300, 300)
        assert peak < 2 * size

    def test_table_read_a_row_at_a_time(self, tmp_path):
        # Each row is made floats as soon as it is decoded, so the peak is the table's buffer
        # as it grows and a text block: 2.0 times the table, where blocks of rows held as
        # Python floats took 4.6 times.
        table = np.random.default_rng(3).standard_normal((200, 200))
        path = tmp_path / "table.json"
        cli._write_json(path, {"schema_version": "1.0", "operator_first": table}, 17)
        tracemalloc.start()
        try:
            read = cli._load_json(path, ["operator_first"], ())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read["operator_first"].tobytes() == table.tobytes()
        assert peak < 3.5 * table.nbytes


# Float arrays covering the edge cases of %g formatting: signed zero,
# subnormals, the extremes of the double range and values needing all 17 digits.
EDGE_VALUES = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.1 + 0.2, -1.0 / 3.0])
FLOAT_ARRAYS = [
    EDGE_VALUES,
    EDGE_VALUES.reshape(2, 4),
    EDGE_VALUES.reshape(2, 2, 2),
    np.arange(24.0).reshape(2, 3, 4) / 7.0,
    np.random.default_rng(0).standard_normal((7, 5)) * 10.0 ** np.arange(-150, 150, 60),
    np.array(-0.0),
    np.zeros(0),
    np.zeros((0, 3)),
    np.zeros((3, 0)),
]


class TestRowFormatter:
    @pytest.mark.parametrize("precision", [1, 6, 17])
    @pytest.mark.parametrize("index", range(len(FLOAT_ARRAYS)))
    def test_json_matches_per_value_path(self, index, precision):
        # A nested list takes the per-value path; the array takes the rows.
        array = FLOAT_ARRAYS[index]
        want = dumps_json({"a": array.tolist()}, precision)
        assert dumps_json({"a": array}, precision) == want

    @pytest.mark.parametrize("index", range(len(FLOAT_ARRAYS)))
    def test_small_blocks_match_per_value_path(self, index, monkeypatch, tmp_path):
        # Blocks of at most 3 values: rows of 4 or more go one row per block, and a
        # 3-D array goes by the nested-list path.
        array = FLOAT_ARRAYS[index]
        want = dumps_json({"a": array.tolist()})
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 16 * 3)
        assert dumps_json({"a": array}) == want
        cli._write_json(tmp_path / "a.json", {"a": array}, 17)
        assert (tmp_path / "a.json").read_text(encoding="utf-8") == want

    @pytest.mark.parametrize("precision", [1, 6, 17])
    def test_rows_match_per_value_format(self, precision):
        for array in FLOAT_ARRAYS[:4]:
            rows = array.reshape(-1, array.shape[-1])
            want = [",".join("%.*g" % (precision, v) for v in row) for row in rows]
            assert format_rows(array, precision) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected_at_any_position(self, bad):
        for position in range(EDGE_VALUES.size):
            array = EDGE_VALUES.copy()
            array[position] = bad
            for shaped in (array, array.reshape(2, 4)):
                with pytest.raises(ConfigError):
                    dumps_json({"a": shaped})
                with pytest.raises(ConfigError):
                    format_rows(shaped)

    def test_trajectory_csv_matches_per_value_format(self, tmp_path):
        times = np.arange(6) * 0.1
        samples = np.vstack([EDGE_VALUES[2:], -EDGE_VALUES[2:]])
        trajectory = RawTrajectory(times=times, samples=samples)
        path = tmp_path / "t.csv"
        save_csv(trajectory, path)
        lines = ["time,x1,x2"] + [
            ",".join("%.17g" % v for v in (times[j], *samples[:, j])) for j in range(6)
        ]
        assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"
        assert np.array_equal(load_csv(path).samples, samples)


class TestOneBlockBudget:
    def test_small_budget_keeps_the_bits(self, monkeypatch):
        # A budget of 4 columns of n^2 values: every row_blocks cutter makes many blocks.
        # pinv_moments forms 10 groups of Gram-complement inverses and runs its kernel a
        # column at a time; the operator tables and the text go a row at a time; an
        # independent trial is a run of its own over 10 column blocks, where the default
        # budget draws the chunk in one run of whole trials.  _chunk_size keeps its
        # default value, so the MC rounding is the same.
        n, m = 3, 40
        X = np.random.default_rng(4).standard_normal((n, m + 1))
        snapshots = build_snapshots(RawTrajectory(np.arange(m + 1) * 0.1, X))
        noise, chunk = NoiseModel(np.full(n, 1e-2)), monte_carlo._chunk_size(m, n)
        monkeypatch.setattr(monte_carlo, "_chunk_size", lambda *_: chunk)
        configs = [PipelineConfig(mc=McConfig(trials=30, sampling_mode=mode))
                   for mode in SAMPLING_MODES]

        def outputs():
            tables = pinv_moments(snapshots, noise)
            return [tables.first, tables.second_raw,
                    dumps_json(cli._moments_payload(snapshots, noise, configs[0])),
                    *(dumps_json(cli._mc_payload(snapshots, noise, cfg)) for cfg in configs)]

        default = outputs()
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 4 * n * n)
        assert len(numerics.row_blocks(m, n * n)) == 10
        assert numerics.row_blocks(2, m * n * (n + 1)) == [(0, 1), (1, 2)]
        for want, got in zip(default, outputs(), strict=True):
            assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy would cost most of a command's start-up; dmduq imports none of it.
    code = "import sys, dmduq.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = run_python(["-c", code], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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

    @pytest.mark.parametrize(
        "system, argv, simulate",
        [
            ("spring-mass", ["--duration", "4", "--dt", "0.05"],
             lambda: simulate_spring_mass(SpringMassParams(duration=4.0, dt=0.05))),
            ("network", ["--nodes", "3", "--duration", "12"],
             lambda: simulate_oscillator_network(random_network_params(3, duration=12.0))),
        ],
    )
    def test_stride_writes_the_decimated_recording(self, tmp_path, system, argv, simulate):
        out = tmp_path / "cli.csv"
        assert main(["simulate", system, *argv, "--stride", "7", "--out", str(out)]) == 0
        save_csv(decimate_trajectory(simulate(), 7), tmp_path / "lib.csv")
        assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()


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

    @pytest.mark.parametrize("mode", ["corrected", "paper_literal"])
    def test_streamed_tables_match_one_dump(self, small_csv, tmp_path, monkeypatch, mode):
        # The m x m tables go out by row blocks of 3 rows (m = 19), each formatted on
        # its own; the file equals dumps_json of the payload with whole tables.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variance_mode": mode}))
        snapshots, noise = build_snapshots(load_csv(small_csv)), NoiseModel([1e-6, 1e-6])
        payload = cli._moments_payload(snapshots, noise, load_config(cfg))
        m = snapshots.snapshot_count
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 3 * m)
        assert len(numerics.row_blocks(m, m)) > 2
        out = tmp_path / "moments.json"
        cli._write_json(out, payload, 17)
        dense = {key: np.asarray(value) for key, value in payload.items()
                 if isinstance(value, numerics.RowTable)}
        assert len(dense) == 3
        assert out.read_text(encoding="utf-8") == dumps_json({**payload, **dense})
        argv = ["moments", str(small_csv), "--noise-variances", "1e-6,1e-6", "--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "cli.json")]) == 0
        assert (tmp_path / "cli.json").read_bytes() == out.read_bytes()

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        # A non-finite table after a large valid one (some 1.5 MB of text written):
        # ConfigError, no file left, and a file already there keeps its bytes.
        m = 300

        def rows(a, b):
            block = np.ones((b - a, m))
            block[-1, -1] = np.nan if b == m else 1.0
            return block

        for bad in (np.array([1.0, np.nan]), numerics.RowTable((m, m), rows)):
            payload = {"big": np.full((m, m), 1.0 / 3.0), "bad": bad}
            out = tmp_path / "out.json"
            with pytest.raises(ConfigError, match="non-finite"):
                cli._write_json(out, payload, 17)
            assert list(tmp_path.iterdir()) == []
            out.write_bytes(b"earlier output\n")
            with pytest.raises(ConfigError, match="non-finite"):
                cli._write_json(out, payload, 17)
            assert list(tmp_path.iterdir()) == [out]
            assert out.read_bytes() == b"earlier output\n"
            out.unlink()

    def test_missing_directory_names_the_output(self, small_csv, tmp_path, capsys):
        out = tmp_path / "missing" / "moments.json"
        capsys.readouterr()
        argv = ["moments", str(small_csv), "--noise-variances", "1e-6,1e-6"]
        assert main(argv + ["--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "io_error" and error["message"].endswith(f"{str(out)!r}")

    def test_constant_window_zero_variance_exit(self, tmp_path):
        csv = tmp_path / "const.csv"
        csv.write_text("time,x1\n" + "".join(f"{i * 0.1:.1f},5.0\n" for i in range(10)))
        proc = run_cli(
            ["moments", str(csv), "--noise-window", "0:1", "--out", "m.json"],
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert stderr_error_code(proc) == "zero_variance"

    @pytest.mark.parametrize("t0", [1e6, 1.7e9])
    def test_time_offset_keeps_the_tables(self, small_csv, tmp_path, t0):
        # Absolute time stamps used to be refused as non-uniform: a time near t0 is
        # rounded to a spacing of doubles there, far above 1e-9 of the 0.1 s step.
        traj = load_csv(small_csv)
        offset = tmp_path / "offset.csv"
        save_csv(RawTrajectory(traj.times + t0, traj.samples, traj.state_names), offset)
        assert load_csv(offset).dt == pytest.approx(traj.dt, rel=1e-6)
        keys = ["pinv_first", "pinv_second_raw", "operator_first", "operator_second_central"]
        tables = []
        for path in (small_csv, offset):
            out = tmp_path / f"{path.stem}.json"
            argv = ["moments", str(path), "--noise-variances", "1e-6,1e-6", "--out", str(out)]
            assert main(argv) == 0
            tables.append([json.loads(out.read_text())[key] for key in keys])
        assert tables[0] == tables[1]

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

    def test_noise_variances_must_match(self, small_csv, tmp_path, capsys):
        # The variances are compared at the smaller output precision of the two
        # files (3 digits here), and a file that records none is accepted.
        (tmp_path / "c.json").write_text('{"mc": {"trials": 20}, "output_precision": 3}')
        common = [str(small_csv), "--config", str(tmp_path / "c.json")]
        paths = {name: str(tmp_path / f"{name}.json") for name in ("m", "mc_far", "mc_near")}
        assert main(["moments", str(small_csv), "--noise-variances", "1e-6,1e-6",
                     "--out", paths["m"]]) == 0
        for name, noise in (("mc_far", "1e-4,1e-4"), ("mc_near", "1.0001e-6,1e-6")):
            assert main(["mc", *common, "--noise-variances", noise, "--out", paths[name]]) == 0
        out = ["--out", str(tmp_path / "r.json")]
        capsys.readouterr()
        assert main(["compare", paths["m"], paths["mc_far"], *out]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "shape_mismatch"
        for text in (paths["m"], paths["mc_far"], "[1e-06, 1e-06]", "[0.0001, 0.0001]"):
            assert text in error["message"]
        assert main(["compare", paths["m"], paths["mc_near"], *out]) == 0
        mc = json.loads((tmp_path / "mc_far.json").read_text())
        del mc["metadata"]["noise_variances"]
        (tmp_path / "mc_far.json").write_text(json.dumps(mc))
        assert main(["compare", paths["m"], paths["mc_far"], *out]) == 0

    def test_output_independent_of_blas_threads(self, tmp_path, monkeypatch):
        # At m = 200 multi-threaded OpenBLAS takes norms and inner products of
        # the operator tables with different rounding than single-threaded;
        # compare holds BLAS at one thread, so report.json must not depend
        # on the setting.
        (tmp_path / "c.json").write_text('{"mc": {"trials": 20, "compute_eigenvalues": false}}')
        noise = ["--noise-variances", "1e-6,1e-6"]
        steps = [
            ["simulate", "spring-mass", "--duration", "10", "--dt", "0.05", "--out", "t.csv"],
            ["moments", "t.csv", *noise, "--out", "m.json"],
            ["mc", "t.csv", *noise, "--config", "c.json", "--out", "mc.json"],
        ]
        for args in steps:
            assert run_cli(args, cwd=tmp_path).returncode == 0
        for threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            args = ["compare", "m.json", "mc.json", "--out", f"r{threads}.json"]
            proc = run_cli(args, cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


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

    def test_clamped_variances_named_when_degenerate(self, tmp_path, capsys):
        # Every paper_literal variance is negative: clamped, they leave each sampled
        # operator at the mean, and the error says how many of them were clamped.
        moments = tmp_path / "moments.json"
        moments.write_text(json.dumps({
            "schema_version": cli.SCHEMA_VERSION, "variance_mode": "paper_literal",
            "operator_first": [[0.5, 0.1], [0.2, 0.3]],
            "operator_second_central": [[-1e-6, -2e-6], [-3e-6, -4e-6]],
        }))
        argv = ["spectrum", str(moments), "--samples", "20", "--clamp-negative",
                "--out", str(tmp_path / "kde.csv")]
        assert main(argv) == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "degenerate_data", "message": (
            "samples too concentrated for automatic bandwidth; 4 of 4 variances clamped to zero")}

    def test_real_dominant_eigenvalue_gets_a_density(self, tmp_path):
        # lambda1 = 0.9 is real in every sample, so Im(lambda1) has an IQR of 0 and Silverman's
        # rule a bandwidth of 0: the imaginary axis takes the real axis's bandwidth.
        moments = tmp_path / "moments.json"
        moments.write_text(json.dumps({
            "schema_version": cli.SCHEMA_VERSION, "variance_mode": "corrected",
            "operator_first": [[0.9, 0.0], [0.0, 0.5]],
            "operator_second_central": [[1e-6, 1e-6], [1e-6, 1e-6]],
        }))
        argv = ["spectrum", str(moments), "--samples", "50", "--out", str(tmp_path / "kde.csv")]
        assert main(argv) == 0
        kde = np.loadtxt(tmp_path / "kde.csv", delimiter=",", skiprows=1)
        grid_re, grid_im = np.unique(kde[:, 0]), np.unique(kde[:, 1])
        density = kde[:, 2].reshape(len(grid_re), len(grid_im))
        mass = density.sum() * (grid_re[1] - grid_re[0]) * (grid_im[1] - grid_im[0])
        assert mass == pytest.approx(1.0, abs=1e-3)
        bands = (tmp_path / "kde_bands.csv").read_text().splitlines()
        assert len(bands) == 1 + 2

    def test_mean_eigendecomposition_failure_is_json_error(self, tmp_path, monkeypatch, capsys):
        def boom(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        moments = tmp_path / "moments.json"
        moments.write_text(json.dumps({
            "schema_version": cli.SCHEMA_VERSION, "variance_mode": "corrected",
            "operator_first": [[0.9, 0.1], [0.0, 0.5]],
            "operator_second_central": [[1e-6, 1e-6], [1e-6, 1e-6]],
        }))
        monkeypatch.setattr(np.linalg, "eigvals", boom)
        argv = ["spectrum", str(moments), "--samples", "10", "--out", str(tmp_path / "kde.csv")]
        assert main(argv) == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "convergence_failure", "message": (
            "eigendecomposition failed at instance 0: Eigenvalues did not converge")}
        assert not (tmp_path / "kde.csv").exists()

    def test_warns_when_no_eigenvalue_leaves_the_bulk(self, tmp_path):
        # Mean eigenvalues 0.4 +- sqrt(0.03) lie inside the bulk radius sqrt(rho(V)) = sqrt(2).
        (tmp_path / "moments.json").write_text(json.dumps({
            "schema_version": cli.SCHEMA_VERSION, "variance_mode": "corrected",
            "operator_first": [[0.5, 0.1], [0.2, 0.3]],
            "operator_second_central": [[1.0, 1.0], [1.0, 1.0]],
        }))
        proc = run_cli(["spectrum", "moments.json", "--samples", "20", "--out", "kde.csv"],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ("no eigenvalue of the mean operator lies outside the noise bulk: "
                               "bulk radius sqrt(rho(V)) = 1.414, largest mean |lambda| = 0.5732\n")

    def test_no_warning_on_the_readme_spring_mass_tables(self, tmp_path):
        # Bulk radius 3.2e-5 against |lambda| = 1.0: the outliers stand clear of the bulk.
        # moments warns of model error instead: gravity's offset is no linear map of x.
        model_error = ("model error: state x2 has a one-step residual rho = 4.153e+04 times "
                       "what noise explains (threshold 10); the moments describe measurement "
                       "noise only\n")
        steps = [
            (["simulate", "spring-mass", "--duration", "20", "--dt", "0.05", "--out", "t.csv"], ""),
            (["moments", "t.csv", "--noise-variances", "1e-6,1e-6", "--out", "m.json"],
             model_error),
            (["spectrum", "m.json", "--samples", "6", "--seed", "7", "--out", "k.csv"], ""),
        ]
        for args, stderr in steps:
            proc = run_cli(args, cwd=tmp_path)
            assert (proc.returncode, proc.stderr) == (0, stderr)

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

    def test_output_independent_of_blas_threads(self, tmp_path, monkeypatch):
        # From m = 256 up, multi-threaded OpenBLAS eigendecomposes with
        # different rounding than single-threaded; spectrum holds BLAS at one
        # thread per worker, so its outputs must not depend on the setting.
        steps = [
            ["simulate", "spring-mass", "--duration", "13", "--dt", "0.05", "--out", "t.csv"],
            ["moments", "t.csv", "--noise-variances", "1e-6,1e-6", "--out", "m.json"],
        ]
        for args in steps:
            assert run_cli(args, cwd=tmp_path).returncode == 0
        assert len(json.loads((tmp_path / "m.json").read_text())["operator_first"]) >= 256
        for threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            args = ["spectrum", "m.json", "--samples", "6", "--seed", "3"]
            proc = run_cli(args + ["--out", f"k{threads}.csv"], cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
        for name in ("k{}.csv", "k{}_bands.csv"):
            one, two = ((tmp_path / name.format(t)).read_bytes() for t in ("1", "2"))
            assert one == two

    def test_density_written_by_row_blocks(self, small_csv, tmp_path, monkeypatch):
        # kde.csv is made a row block at a time from the grid axes: at 512 grid points the
        # peak is under three density tables, where the meshgrid (two) and the three-column
        # curve (three) were held beside the density while it was written.  The rows are
        # those of the meshgrid, whatever the block size.
        moments, cfg = tmp_path / "moments.json", tmp_path / "kde_cfg.json"
        argv = ["moments", str(small_csv), "--noise-variances", "1e-4,1e-4", "--out", str(moments)]
        assert main(argv) == 0
        cfg.write_text(json.dumps({"kde": {"grid_points": 512}}))
        argv = ["spectrum", str(moments), "--samples", "20", "--config", str(cfg), "--out"]
        tracemalloc.start()
        try:
            assert main(argv + [str(tmp_path / "kde.csv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 512 * 512 * 8
        curve = spectral.kde2d(np.arange(5.0), np.arange(5.0) ** 2, grid_points=7)
        curve = spectral.Kde2d(curve.grid_re, curve.grid_im[:4], curve.density[:, :4].copy())
        grid_re, grid_im = np.meshgrid(curve.grid_re, curve.grid_im, indexing="ij")
        want = np.column_stack([grid_re.ravel(), grid_im.ravel(), curve.density.ravel()])
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 5 * 16 * 3)  # blocks of 5 rows
        assert np.array_equal(np.array(cli._kde_rows(curve)), want)
        assert np.array_equal(np.concatenate(list(cli._kde_rows(curve).blocks())), want)

    def test_density_rows_formed_once_at_their_text_width(self, monkeypatch):
        # kde.csv's rows are cut as their text is (16 floats a value): each float block is
        # formed once and formatted whole, where a 1 MB block was held under 16 text blocks.
        rng = np.random.default_rng(12)
        curve = spectral.kde2d(rng.standard_normal(50), rng.standard_normal(50))
        table, sizes, blocks = cli._kde_rows(curve), [], numerics.RowTable.blocks

        def spy(self):
            for block in blocks(self):
                sizes.append(len(block))
                yield block

        monkeypatch.setattr(numerics.RowTable, "blocks", spy)
        text = list(format_blocks(table))
        assert [len(rows) for rows in text] == sizes and len(sizes) > 2
        assert max(sizes) * 16 * 3 <= numerics._CHUNK_SCALARS // 32
        assert [row for rows in text for row in rows] == format_rows(np.asarray(table))

    def test_variances_dropped_before_sampling(self, tmp_path, monkeypatch):
        # At m = 300 spectrum samples holding operator_first and the std table, not the
        # variances beside them: it passes its last reference on, and the sampler drops it.
        # Before Python 3.11 the calling frame keeps a call's arguments until it returns.
        m, rng = 300, np.random.default_rng(4)
        first = 0.5 * np.eye(m)
        first[:2, :2] = [[0.9, 0.3], [-0.3, 0.9]]  # lambda1 = 0.9 + 0.3i
        moments = tmp_path / "moments.json"
        cli._write_json(moments, {
            "schema_version": cli.SCHEMA_VERSION, "variance_mode": "corrected",
            "operator_first": first, "operator_second_central": 1e-6 * rng.random((m, m)),
        }, 17)
        held, pulled = [], monte_carlo.pulled_spectra

        def recording(count, size, take):
            held.append(tracemalloc.get_traced_memory()[0])
            return pulled(count, size, take)

        monkeypatch.setattr(monte_carlo, "pulled_spectra", recording)
        tracemalloc.start()
        try:
            argv = ["spectrum", str(moments), "--samples", "2", "--out", str(tmp_path / "k.csv")]
            assert main(argv) == 0
        finally:
            tracemalloc.stop()
        tables = 2 if sys.version_info >= (3, 11) else 3
        assert len(held) == 1 and held[0] < (tables + 0.5) * m * m * 8


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
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 3 * m * m)
        argv = ["spectrum", str(moments), "--samples", "50", "--seed", "9", "--out"]
        assert main(argv + [str(tmp_path / "streamed.csv")]) == 0

        def reference(first, second, count, seed, clamp_negative):
            return eigen_samples(
                sample_operator_instances(first, second, count, seed, clamp_negative)
            )

        monkeypatch.setattr(cli, "sample_operator_spectra", reference)
        assert main(argv + [str(tmp_path / "reference.csv")]) == 0
        for name in ("{}.csv", "{}_bands.csv"):
            streamed = (tmp_path / name.format("streamed")).read_bytes()
            assert streamed == (tmp_path / name.format("reference")).read_bytes()


class TestPipeline:
    def test_model_error_warned_once_after_the_outputs(self, small_csv, tmp_path):
        # mc and pipeline warn as moments does, once, after their files are written; a
        # command that fails writes its JSON error record alone.
        (tmp_path / "cfg.json").write_text(json.dumps({"mc": {"trials": 20}}))
        (tmp_path / "big.json").write_text(json.dumps({"mc": {"trials": 10**9}}))
        common = [str(small_csv), "--noise-variances", "1e-8,1e-8"]
        for args in (["mc", *common, "--config", "cfg.json", "--out", "mc.json"],
                     ["pipeline", *common, "--config", "cfg.json", "--out-dir", "run"]):
            proc = run_cli(args, cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.startswith("model error: state x2 has a one-step residual")
            assert proc.stderr.count("\n") == 1
        proc = run_cli(["mc", *common, "--config", "big.json", "--out", "big_mc.json"],
                       cwd=tmp_path)
        assert proc.returncode == 1 and stderr_error_code(proc) == "config_error"

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

    def test_mc_json_matches_mc_command(self, small_csv, config_path, tmp_path):
        inputs = [str(small_csv), "--config", str(config_path), "--noise-variances", "1e-6,1e-6"]
        assert main(["pipeline", *inputs, "--out-dir", str(tmp_path / "run")]) == 0
        assert main(["mc", *inputs, "--out", str(tmp_path / "mc.json")]) == 0
        assert (tmp_path / "run" / "mc.json").read_bytes() == (tmp_path / "mc.json").read_bytes()


    def test_matches_separate_commands(self, tmp_path):
        # m = 260: run_mc's pseudoinverse tables are F-ordered, and compare's norms
        # of them rounded differently from those of the C-ordered tables mc.json gives.
        (tmp_path / "c.json").write_text('{"mc": {"trials": 100}}')
        traj = str(tmp_path / "t.csv")
        assert main(["simulate", "spring-mass", "--duration", "13", "--dt", "0.05",
                     "--out", traj]) == 0
        inputs = [traj, "--config", str(tmp_path / "c.json"), "--noise-variances", "1e-6,1e-6"]
        assert main(["pipeline", *inputs, "--out-dir", str(tmp_path / "run")]) == 0
        paths = {name: str(tmp_path / f"{name}.json") for name in ("moments", "mc", "report")}
        assert main(["moments", *inputs, "--out", paths["moments"]]) == 0
        assert main(["mc", *inputs, "--out", paths["mc"]]) == 0
        assert main(["compare", paths["moments"], paths["mc"], "--out", paths["report"]]) == 0
        for name, path in paths.items():
            assert (tmp_path / "run" / f"{name}.json").read_bytes() == open(path, "rb").read()


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

    @pytest.mark.parametrize("text, field", [('{"ridge": NaN}', "ridge"),
                                             ('{"kde": {"bandwidth": Infinity}}', "kde.bandwidth")])
    def test_non_finite_number(self, small_csv, tmp_path, capsys, text, field):
        # Rejected while the config loads, naming the field, not later as a
        # non-finite table or output value.
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        argv = ["moments", str(small_csv), "--config", str(cfg), "--noise-variances", "1e-6,1e-6",
                "--out", str(tmp_path / "m.json")]
        capsys.readouterr()
        assert main(argv) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config_error"
        assert error["message"].startswith(f"{field} must be a finite number")
        assert not (tmp_path / "m.json").exists()


class TestMalformedInput:
    """Bad flags and bad input files exit 1 with a JSON error record, never a traceback."""

    @staticmethod
    def error_code(argv, capsys) -> str:
        capsys.readouterr()
        assert main(argv) == 1
        return json.loads(capsys.readouterr().err)["error"]

    @pytest.fixture()
    def outputs(self, small_csv, tmp_path):
        """A moments.json and an mc.json of the small recording."""
        cfg = tmp_path / "mc_cfg.json"
        cfg.write_text(json.dumps({"mc": {"trials": 20}}))
        common = [str(small_csv), "--noise-variances", "1e-8,1e-8", "--config", str(cfg)]
        paths = tmp_path / "moments.json", tmp_path / "mc.json"
        for command, path in zip(["moments", "mc"], paths):
            assert main([command, *common, "--out", str(path)]) == 0
        return paths

    @pytest.mark.parametrize(
        "flags",
        [
            ["--noise-window", "a:b"],
            ["--noise-window", "1:2:3"],
            ["--noise-variances", "1e-6,abc"],
            ["--noise-variances", "1e-6"],
        ],
    )
    def test_bad_noise_flag(self, small_csv, tmp_path, capsys, flags):
        argv = ["moments", str(small_csv), *flags, "--out", str(tmp_path / "m.json")]
        assert self.error_code(argv, capsys) == "config_error"

    @pytest.mark.parametrize("command, out", [("moments", "--out"), ("mc", "--out"),
                                              ("pipeline", "--out-dir")])
    def test_both_noise_flags(self, small_csv, tmp_path, capsys, command, out):
        target = tmp_path / "result"
        argv = [command, str(small_csv), "--noise-window", "0:1",
                "--noise-variances", "1e-6,1e-6", out, str(target)]
        capsys.readouterr()
        assert main(argv) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config_error"
        assert "--noise-window" in error["message"] and "--noise-variances" in error["message"]
        assert not target.exists()

    def test_bad_x0(self, tmp_path, capsys):
        argv = ["simulate", "spring-mass", "--x0", "a,b", "--out", str(tmp_path / "t.csv")]
        assert self.error_code(argv, capsys) == "config_error"

    @pytest.mark.parametrize(
        "text, code",
        [
            (b"{not json", "parse_error"),
            (b"\xd0\xff", "parse_error"),
            (b"[1, 2]", "shape_mismatch"),
            (b'"x"', "shape_mismatch"),
        ],
    )
    def test_bad_payload_file(self, outputs, tmp_path, capsys, text, code):
        moments, mc = outputs
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        out = str(tmp_path / "out")
        assert self.error_code(["compare", str(bad), str(mc), "--out", out], capsys) == code
        assert self.error_code(["compare", str(moments), str(bad), "--out", out], capsys) == code
        assert self.error_code(["spectrum", str(bad), "--out", out], capsys) == code

    @pytest.mark.parametrize(
        "text",
        [b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)), b"time,x\n0,\xff\n"],
        ids=["binary", "bad_cell"],
    )
    def test_non_utf8_recording(self, tmp_path, capsys, text):
        recording = tmp_path / "binary.csv"
        recording.write_bytes(text)
        argv = ["moments", str(recording), "--noise-variances", "1e-6"]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "m.json")]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "parse_error"
        assert str(recording) in error["message"]

    @pytest.mark.parametrize("value", ["abc", [[1.0, 2.0], [3.0]]])
    def test_bad_payload_table(self, outputs, tmp_path, capsys, value):
        # A string or a ragged table under a matrix key: shape_mismatch naming
        # the file and the key, from compare (either side) and spectrum.
        out = str(tmp_path / "out")
        for index, key, command in [
            (0, "operator_first", "compare"),
            (1, "operator_variance", "compare"),
            (0, "operator_second_central", "spectrum"),
        ]:
            paths = list(outputs)
            data = json.loads(paths[index].read_text())
            data[key] = value
            paths[index] = tmp_path / f"bad_{key}.json"
            paths[index].write_text(json.dumps(data))
            argv = [command, *map(str, paths[: 2 if command == "compare" else 1]), "--out", out]
            capsys.readouterr()
            assert main(argv) == 1
            error = json.loads(capsys.readouterr().err)
            assert error["error"] == "shape_mismatch"
            assert str(paths[index]) in error["message"] and key in error["message"]

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"operator_first": [[0.0] * 3] * 5, "operator_second_central": [[0.0] * 3] * 5},
             "operator_first"),
            ({"operator_second_central": [[0.0] * 2] * 2}, "operator_second_central"),
            ({"variance_mode": 5}, "variance_mode"),
            ({"variance_mode": "weird"}, "variance_mode"),
        ],
        ids=["non_square", "different_shapes", "mode_number", "mode_unknown"],
    )
    def test_spectrum_checks_tables_before_drawing(
        self, outputs, tmp_path, capsys, monkeypatch, change, key
    ):
        # Not the m x m tables and mode dmduq writes: shape_mismatch naming the
        # file and the key, before any instance is drawn.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(outputs[0].read_text()), **change}))
        monkeypatch.setattr(cli, "sample_operator_spectra",
                            lambda *args, **kwargs: pytest.fail("instances were drawn"))
        out = tmp_path / "kde.csv"
        capsys.readouterr()
        assert main(["spectrum", str(bad), "--samples", "20", "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "shape_mismatch"
        assert str(bad) in error["message"] and key in error["message"]
        assert not out.exists()

    def test_mc_json_as_moments(self, outputs, tmp_path, capsys):
        _, mc = outputs
        out = str(tmp_path / "out")
        code = self.error_code(["compare", str(mc), str(mc), "--out", out], capsys)
        assert code == "shape_mismatch"
        assert self.error_code(["spectrum", str(mc), "--out", out], capsys) == "shape_mismatch"

    @pytest.mark.parametrize(
        "config",
        [
            {"ridge": "abc"},
            {"quadrature": None},
            {"mc": {"trials": 2.5}},
            {"mc": {"master_seed": 1.5}},
            {"kde": {"grid_points": "many"}},
            {"mc": {"compute_eigenvalues": "no"}},
            {"decimate_stride": 2.5},
            [1],
        ],
    )
    def test_malformed_config(self, small_csv, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["mc", str(small_csv), "--noise-variances", "1e-6,1e-6", "--config", str(cfg)]
        argv += ["--out", str(tmp_path / "mc.json")]
        assert self.error_code(argv, capsys) == "config_error"
        assert not (tmp_path / "mc.json").exists()

    @pytest.mark.parametrize("system", ["spring-mass", "network"])
    @pytest.mark.parametrize("stride", [0, -2])
    def test_stride_below_one(self, tmp_path, capsys, system, stride):
        out = tmp_path / "t.csv"
        argv = ["simulate", system, "--duration", "1", "--stride", str(stride), "--out", str(out)]
        assert self.error_code(argv, capsys) == "config_error"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--dt", "1e-320"], ["--duration", "1e12"]])
    def test_simulate_table_too_large(self, tmp_path, capsys, argv):
        # An OverflowError, or a petabyte np.empty, before the step count was bounded.
        out = tmp_path / "t.csv"
        capsys.readouterr()
        assert main(["simulate", "spring-mass", *argv, "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config_error"
        assert "duration" in error["message"] and "dt" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, field", [
        (["spring-mass", "--dt", "nan"], "dt"),
        (["spring-mass", "--duration", "inf"], "duration"),
        (["spring-mass", "--x0", "nan,0"], "x0"),
        (["spring-mass", "--mass", "nan"], "mass"),
        (["spring-mass", "--gravity", "inf"], "gravity"),
        (["network", "--duration", "nan"], "duration"),
        (["network", "--dt", "inf"], "dt"),
        (["network", "--coupling-strength", "nan"], "coupling"),
        (["network", "--damping", "nan"], "damping"),
    ])
    def test_non_finite_simulate_flag(self, tmp_path, capsys, argv, field):
        # A traceback, or a parse_error blaming the trajectory, before the
        # parameters were checked to be finite.
        out = tmp_path / "t.csv"
        capsys.readouterr()
        assert main(["simulate", *argv, "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "config_error", "message": f"{field} must be finite"}
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_network_seed_out_of_range(self, tmp_path, capsys, seed):
        out = tmp_path / "net.csv"
        argv = ["simulate", "network", "--nodes", "2", "--duration", "1", "--seed", str(seed)]
        assert self.error_code(argv + ["--out", str(out)], capsys) == "config_error"
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_spectrum_seed_out_of_range(self, outputs, tmp_path, capsys, seed):
        # Outside [0, 2**64) a seed used to alias: -1 drew as 2**64 - 1 and 2**64 as 0.  It
        # is checked before any input is read, so a missing moments file gives the same error.
        out = tmp_path / "kde.csv"
        for moments in (outputs[0], tmp_path / "missing.json"):
            capsys.readouterr()
            argv = ["spectrum", str(moments), "--samples", "20", "--seed", str(seed)]
            assert main(argv + ["--out", str(out)]) == 1
            assert json.loads(capsys.readouterr().err) == {
                "error": "config_error", "message": f"--seed must be in [0, 2**64), got {seed}"}
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, config, asked", [
        ("spectrum", ["--samples", "1000000000"], {}, "1000000000 samples of 20 eigenvalues"),
        ("mc", [], {"mc": {"trials": 1000000000}}, "1000000000 trials of 20 eigenvalues"),
        ("spectrum", [], {"kde": {"grid_points": 100000}}, "a 100000 x 100000 grid"),
    ], ids=["spectrum-samples", "mc-trials", "kde-grid-points"])
    def test_oversized_count(self, outputs, small_csv, tmp_path, capsys, monkeypatch, command,
                             flags, config, asked):
        # A traceback from a multi-GiB np.empty before these tables were bounded.  spectrum
        # refuses both counts before any instance is drawn, --samples first.
        monkeypatch.setattr(cli, "sample_operator_spectra",
                            lambda *args, **kwargs: pytest.fail("instances were drawn"))
        cfg, out = tmp_path / "big.json", tmp_path / "out.csv"
        cfg.write_text(json.dumps(config))
        source = [str(outputs[0])] if command == "spectrum" else [str(small_csv),
                                                                  "--noise-variances", "1e-8,1e-8"]
        capsys.readouterr()
        assert main([command, *source, *flags, "--config", str(cfg), "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config_error"
        assert error["message"].startswith(asked) and "more than 268435456" in error["message"]
        assert not out.exists()

    def test_spectrum_one_sample(self, tmp_path, capsys):
        # Rejected before the moments file is read: this one does not exist.
        out = tmp_path / "kde.csv"
        argv = ["spectrum", str(tmp_path / "missing.json"), "--samples", "1", "--out", str(out)]
        assert self.error_code(argv, capsys) == "config_error"
        assert not out.exists()
