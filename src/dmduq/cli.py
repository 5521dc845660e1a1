"""Command-line pipeline: simulate, fit noise, estimate moments, verify, report.

Commands are single deterministic processes: identical inputs, config, and seeds produce
byte-identical outputs.  Structured results are JSON with floats printed at a fixed number of
significant digits (17 by default, lossless for doubles); trajectories and density curves are
CSV, all written a block of rows at a time.  ``compare`` and ``spectrum`` read their JSON inputs
in one walk, a text block at a time: each table they use is made floats a row at a time, into
one buffer copied once, and every other value is checked as ``json.load`` checks it and dropped.
``moments``, ``mc`` and ``pipeline`` warn on stderr when the recording is not the noisy linear
map the moments assume.  Errors are emitted as machine-readable JSON on stderr, exit code 1.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import PipelineConfig, load_config
from .data_model import NoiseModel, build_snapshots, estimate_noise, format_blocks, format_rows
from .data_model import TEXT_WIDTH, decimate_trajectory, load_csv, replacing, save_csv, write_csv
from .errors import ConfigError, DegenerateData, DmduqError, ParseError, ShapeMismatch
from .metrics import agreement, compare, min_max_normalize
from .monte_carlo import run_mc, sample_operator_spectra
from .numerics import RowTable
from .operator_moments import VARIANCE_MODES, check_outliers, check_residual, check_tables
from .operator_moments import dmd_point_estimate, estimate_operator_moments
from .pinv_moments import pinv_moments
from .spectral import check_kde_size, check_spectra_size, eigen_moments, kde2d
from .systems import (
    SpringMassParams,
    random_network_params,
    simulate_oscillator_network,
    simulate_spring_mass,
)

SCHEMA_VERSION = "1.0"
REPORT_SCHEMA_VERSION = "1.1"  # 1.1: "agreement", in the Monte Carlo standard errors

# (moments.json table, mc.json table) pairs that `compare` reports on.
_COMPARED = (
    ("pinv_first", "pinv_mean"),
    ("pinv_second_raw", "pinv_second_raw"),
    ("operator_first", "operator_mean"),
    ("operator_second_central", "operator_variance"),
)


# ---------------------------------------------------------------------------
# Deterministic JSON with fixed-precision floats


def _emit(write, node, precision: int) -> None:
    """The JSON text of ``node``, piece by piece to ``write``, in deterministic key order and
    float format; a non-empty 1-D or 2-D float array or ``RowTable`` by :func:`format_blocks`."""
    if isinstance(node, RowTable) or (isinstance(node, np.ndarray) and node.dtype.kind == "f"
                                    and node.ndim in (1, 2) and node.size):
        write("[" * len(node.shape))
        for k, rows in enumerate(format_blocks(node, precision)):
            write(("],[" if k else "") + "],[".join(rows))
        write("]" * len(node.shape))
    elif isinstance(node, np.ndarray):
        _emit(write, node.tolist(), precision)
    elif isinstance(node, dict):
        for i, (key, value) in enumerate(node.items()):
            if not isinstance(key, str):
                raise ConfigError("JSON keys must be strings")
            write(("," if i else "{") + json.dumps(key) + ":")
            _emit(write, value, precision)
        write("}" if node else "{}")
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            write("," if i else "[")
            _emit(write, value, precision)
        write("]" if node else "[]")
    elif node is None or isinstance(node, (bool, str)):
        write(json.dumps(node))
    elif isinstance(node, (int, np.integer)):
        write(str(int(node)))
    elif isinstance(node, (float, np.floating)):
        write(format_rows([float(node)], precision)[0])
    else:
        raise ConfigError(f"cannot serialize {type(node).__name__} to JSON")


def dumps_json(obj, precision: int = 17) -> str:
    """``obj`` as JSON text, with deterministic key order and float format."""
    text = io.StringIO()
    _emit(text.write, obj, precision)
    return text.getvalue() + "\n"


def _write_json(path, payload: dict, precision: int) -> None:
    """Write ``payload`` as :func:`dumps_json` does, streamed, to a file beside ``path``
    that replaces it only when complete."""
    with replacing(path) as handle:
        _emit(handle.write, payload, precision)
        handle.write("\n")


_TEXT_BLOCK = 1 << 16  # characters of a JSON input read at a time
_SPACE = re.compile(r"[ \t\n\r]*")
_AFTER_VALUE = frozenset(" \t\n\r,:]}")  # what may follow a whole JSON value
_CLOSE = {"[": "]", "{": "}"}
_DECODER = json.JSONDecoder()


class _JsonReader:
    """The JSON text of ``handle``, read a text block at a time and checked as
    ``json.load`` checks it.  Each value is decoded by json's C scanner once the text at
    hand holds all of it, or walked by :meth:`value` an element at a time, so no more than
    one element of an array is decoded at once."""

    def __init__(self, handle, path):
        self.handle, self.path = handle, path
        self.text, self.pos, self.start = "", 0, 0  # start: the file offset of text[0]

    def _more(self) -> bool:
        """Drop the text before ``pos`` and read a block more, and at least as much as is
        left, so a long value is retried a bounded number of times; False at the end."""
        block = self.handle.read(max(_TEXT_BLOCK, len(self.text) - self.pos))
        if block:
            self.start += self.pos
            self.text, self.pos = self.text[self.pos:] + block, 0
        return bool(block)

    def _fail(self, message: str, pos: int | None = None):
        at = self.start + (self.pos if pos is None else pos)
        raise ParseError(f"{self.path}: not valid JSON: {message} (char {at})")

    def peek(self) -> str:
        """The next character that is not white space, or '' at the end of the text."""
        while True:
            self.pos = _SPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or not self._more():
                return self.text[self.pos : self.pos + 1]

    def expect(self, chars: str) -> str:
        """The next character that is not white space, which must be one of ``chars``."""
        char = self.peek()
        if not char or char not in chars:
            self._fail(f"expecting one of {' '.join(chars)}")
        self.pos += 1
        return char

    def decode(self):
        """The next value, decoded whole."""
        close = _CLOSE.get(self.peek())
        while close and self.text.find(close, self.pos) < 0 and self._more():
            pass  # an array or object that cannot have ended in the text at hand
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, self.pos)
            except json.JSONDecodeError as exc:  # or cut off at the end of the text at hand
                if not self._more():
                    self._fail(exc.msg, exc.pos)
                continue
            # A number cut off at the end of the text at hand decodes; what follows it tells.
            if end < len(self.text) and self.text[end] in _AFTER_VALUE or not self._more():
                self.pos = end
                return value

    def elements(self, close: str):
        """Step through the array or object just opened, up to and over its ``close``:
        yield once per element for the caller to read it, with an object's key (read with
        its colon) or None."""
        if self.peek() == close:
            self.pos += 1
            return
        while True:
            key = None
            if close == "}":
                if self.peek() != '"':
                    self._fail("expecting a property name in double quotes")
                key = self.decode()
                self.expect(":")
            yield key
            if self.expect("," + close) == close:
                return

    def value(self, keep: bool = False) -> np.ndarray:
        """Check the next value and drop it: an object member by member, an array element by
        element (each decoded whole), any other value decoded whole.  With ``keep``, return
        it as ``np.array(value, dtype=float)`` makes it when that is 2-D, else an empty
        array (a string, a ragged table) whose rest is still checked; each row is made floats
        as soon as it is decoded and appended to one growing buffer, copied once at the end
        so that the table holds none of the buffer's growth slack."""
        opening, shapes, values = self.peek(), [], bytearray()
        if opening not in _CLOSE:
            self.decode()
            return np.empty(0)
        self.pos += 1
        for _ in self.elements(_CLOSE[opening]):
            if opening == "{":
                self.value()
            elif keep:
                row = self.decode()
                try:
                    row = np.array(row, dtype=float)
                except (TypeError, ValueError):  # a string or ragged lists: no row's shape
                    row = np.empty((0, 0))
                shapes.append(row.shape)
                values += row.tobytes()
            else:
                self.decode()
        # No rows (np.array([]) is 1-D), ragged rows, a row of no floats or rows not all 1-D.
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            return np.empty(0)
        return np.frombuffer(values).reshape(len(shapes), shapes[0][0]).copy()

    def members(self, tables, keys) -> dict:
        """The object whose '{' is next, with only its members named in ``tables``, kept as
        :meth:`value` keeps them (``outer.inner`` names table ``inner`` of the object member
        ``outer``), and in ``keys``, decoded; every other member is checked and dropped."""
        inner = {}
        for name in tables:
            outer, dot, rest = name.partition(".")
            if dot:
                inner.setdefault(outer, []).append(rest)
        self.pos += 1
        value = {}
        for key in self.elements("}"):
            if key in tables:
                value[key] = self.value(keep=True)
            elif key in inner and self.peek() == "{":
                value[key] = self.members(inner[key], ())
            elif key in keys:
                value[key] = self.decode()
            else:
                self.value()
        return value

    def finish(self) -> None:
        if self.peek():
            self._fail("extra data")


def _load_json(path, tables, keys):
    """The JSON value in ``path``, read a text block at a time.  Of an object, only the
    members named in ``tables`` (as :meth:`_JsonReader.members` keeps them) and ``keys`` are
    kept; an array is returned empty.  Every value is checked as ``json.load`` checks it, and
    a repeated key keeps its last value."""
    with open(path, "r", encoding="utf-8") as handle:
        reader = _JsonReader(handle, path)
        try:
            first = reader.peek()
            if first == "{":
                value = reader.members(tables, keys)
            elif first == "[":
                reader.value()
                value = []
            else:
                value = reader.decode()
            reader.finish()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    return value


def _read_payload(path, tables, keys=()) -> dict:
    """``tables`` (2-D float arrays, ``outer.inner`` one in the object member ``outer``),
    ``keys``, ``schema_version`` and any ``metadata`` of a dmduq JSON output of a supported
    schema; its other members are checked and dropped."""
    data = _load_json(path, tables, {"schema_version", "metadata", *keys})
    if not isinstance(data, dict):
        raise ShapeMismatch(f"{path}: expected a JSON object, got {type(data).__name__}")
    version = str(data.get("schema_version", ""))
    if version.split(".", 1)[0] != SCHEMA_VERSION.split(".", 1)[0]:
        raise ShapeMismatch(f"{path}: unsupported schema version {version!r} (supported major: 1)")

    def member(name):  # a dotted name is a table in an object member
        node = data
        for part in name.split("."):
            node = node.get(part) if isinstance(node, dict) else None
        return node

    missing = [key for key in tables if member(key) is None] + [k for k in keys if k not in data]
    if missing:
        raise ShapeMismatch(f"{path}: missing key(s) {missing}")
    for key in tables:
        if member(key).ndim != 2:
            raise ShapeMismatch(f"{path}: {key!r} is not a 2-D table of numbers")
    return data


# ---------------------------------------------------------------------------
# Shared option handling


def _parse_floats(text: str, flag: str, count: int) -> list[float]:
    """``count`` numbers separated by ':' or ','; ConfigError names the flag otherwise."""
    parts = text.split(":" if ":" in text else ",")
    try:
        values = [float(part) for part in parts]
    except ValueError:
        raise ConfigError(f"{flag} expects numbers, got {text!r}") from None
    if len(values) != count:
        raise ConfigError(f"{flag} expects {count} numbers, got {len(values)} in {text!r}")
    return values


def _load_pipeline_config(args) -> PipelineConfig:
    return load_config(args.config) if args.config else PipelineConfig()


def _recording_inputs(args):
    """Config, snapshots and noise model of a command that reads a recording."""
    cfg = _load_pipeline_config(args)
    trajectory = load_csv(args.data)
    return cfg, build_snapshots(trajectory), _noise_from_args(args, trajectory)


def _noise_from_args(args, trajectory) -> NoiseModel:
    if args.noise_variances and args.noise_window:
        raise ConfigError("give one of --noise-window and --noise-variances, not both")
    if args.noise_variances:
        count = trajectory.state_count
        return NoiseModel(_parse_floats(args.noise_variances, "--noise-variances", count))
    if args.noise_window:
        return estimate_noise(trajectory, _parse_floats(args.noise_window, "--noise-window", 2))
    raise ConfigError("provide either --noise-window a:b or --noise-variances v1,...")


def _moments_payload(snapshots, noise, cfg: PipelineConfig) -> dict:
    pinv = pinv_moments(snapshots, noise, quad=cfg.quadrature, ridge=cfg.ridge)
    moments = estimate_operator_moments(
        snapshots, noise, quad=cfg.quadrature, ridge=cfg.ridge, mode=cfg.variance_mode, pinv=pinv
    )
    point = dmd_point_estimate(snapshots, ridge=cfg.ridge)
    shape = moments.shape
    return {
        "schema_version": SCHEMA_VERSION,
        "pinv_first": pinv.first,
        "pinv_second_raw": pinv.second_raw,
        "operator_first": RowTable(shape, moments.first_rows),
        "operator_second_central": RowTable(shape, moments.second_rows),
        "operator_point": RowTable(shape, point.rows),
        "variance_mode": moments.variance_mode,
        "metadata": {
            "config": cfg.to_dict(),
            "ridge": cfg.ridge,
            "variance_mode": cfg.variance_mode,
            "version": __version__,
            "state_names": snapshots.state_names,
            "dt": snapshots.dt,
            "noise_variances": noise.variances,
        },
    }


def _mc_payload(snapshots, noise, cfg: PipelineConfig) -> dict:
    summary = run_mc(snapshots, noise, config=cfg.mc, ridge=cfg.ridge)
    eigen = summary.eigen_samples
    return {  # McSummary and McStandardErrors field order
        "schema_version": SCHEMA_VERSION,
        **vars(summary),
        "standard_errors": vars(summary.standard_errors),
        "eigen_samples": None if eigen is None else {"re": eigen.real, "im": eigen.imag},
        "metadata": {"config": cfg.to_dict(), "version": __version__,
                     "noise_variances": noise.variances},
    }


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(args) -> int:
    if args.stride < 1:
        raise ConfigError(f"--stride must be >= 1, got {args.stride}")
    if args.system == "spring-mass":
        x0 = tuple(_parse_floats(args.x0, "--x0", 2)) if args.x0 else (0.03, 0.01)
        params = SpringMassParams(
            mass=args.mass, stiffness=args.stiffness, gravity=args.gravity, x0=x0,
            duration=args.duration, dt=args.dt,
        )
        trajectory = simulate_spring_mass(params)
    else:
        params = random_network_params(
            node_count=args.nodes, seed=args.seed, duration=args.duration, dt=args.dt,
            coupling_strength=args.coupling_strength, damping=args.damping,
        )
        trajectory = simulate_oscillator_network(params)
    trajectory = decimate_trajectory(trajectory, args.stride)
    save_csv(trajectory, args.out)
    rows, cols = trajectory.samples.shape
    print(f"wrote {args.out}: {cols} samples of {rows} state(s) at dt={trajectory.dt:g}")
    return 0


def cmd_table(args) -> int:
    """``moments`` and ``mc``: one payload from a recording, written as JSON."""
    cfg, snapshots, noise = _recording_inputs(args)
    _write_json(args.out, args.payload(snapshots, noise, cfg), cfg.output_precision)
    print(f"wrote {args.out}")
    check_residual(snapshots, noise, cfg.ridge)
    return 0


def _report_payload(moments: dict, mc: dict, stride: int) -> dict:
    moments = {key: np.asarray(moments[key]) for key, _ in _COMPARED}
    # Each row: "matrix", then the ComparisonReport (Agreement) fields in their order.
    comparisons = [{"matrix": a, **vars(compare(moments[a], mc[b]))} for a, b in _COMPARED]
    agreements = [{"matrix": a, **vars(agreement(moments[a], mc[b], mc["standard_errors"][b]))}
                  for a, b in _COMPARED]
    est_var = moments["operator_second_central"]
    mc_var = mc["operator_variance"]
    delta = np.abs(mc_var - est_var)

    def curve(matrix: np.ndarray) -> dict:
        flat = matrix.ravel()[::stride]
        try:
            return {"normalized": True, "values": min_max_normalize(flat)}
        except DegenerateData:
            return {"normalized": False, "values": flat}

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "comparisons": comparisons,
        "delta_sigma2": delta,
        "curves": {
            "stride": stride,
            "operator_second_estimated": curve(est_var),
            "operator_second_mc": curve(mc_var),
            "operator_first_estimated": curve(moments["operator_first"]),
            "operator_first_mc": curve(mc["operator_mean"]),
        },
        "agreement": agreements,
    }


def _check_same_noise(payloads: dict) -> None:
    """ShapeMismatch when both payloads (by path) record noise variances that differ, or do not
    parse, at the smaller of their output precisions; one that records none passes."""
    meta = [data.get("metadata") for data in payloads.values()]
    if all(isinstance(m, dict) and "noise_variances" in m for m in meta):
        try:
            digits = min(int(m.get("config", {}).get("output_precision", 17)) for m in meta)
            texts = {tuple(f"%.{digits}g" % float(v) for v in m["noise_variances"]) for m in meta}
        except (AttributeError, TypeError, ValueError):
            texts = ()
        if len(texts) != 1:
            raise ShapeMismatch("noise variances differ: " + " but ".join(
                f"{path} records {m['noise_variances']}" for path, m in zip(payloads, meta)))


def cmd_compare(args) -> int:
    cfg = _load_pipeline_config(args)
    moments = _read_payload(args.moments, [est for est, _ in _COMPARED])
    mc = _read_payload(args.mc, [name for _, ref in _COMPARED
                                 for name in (ref, f"standard_errors.{ref}")])
    _check_same_noise({args.moments: moments, args.mc: mc})
    payload = _report_payload(moments, mc, cfg.decimate_stride)
    _write_json(args.out, payload, cfg.output_precision)
    print(f"wrote {args.out}")
    return 0


def _kde_rows(curve) -> RowTable:
    """The ``grid_re, grid_im, density`` rows of a density curve, one per grid point with
    ``grid_re`` the slower index, made a row block at a time from the grid axes, cut as their
    text is: copies, not products, so no bit depends on the cut."""
    density, width = curve.density.reshape(-1), len(curve.grid_im)

    def rows(a: int, b: int, out=None) -> np.ndarray:
        out = np.empty((b - a, 3)) if out is None else out
        i, j = np.divmod(np.arange(a, b), width)
        out[:, 0], out[:, 1], out[:, 2] = curve.grid_re[i], curve.grid_im[j], density[a:b]
        return out

    return RowTable((len(density), 3), rows, TEXT_WIDTH * 3)


def cmd_spectrum(args) -> int:
    """Hold only what is still to be written: the tables until they are sampled (the
    variances until their std table is formed), the spectra until the bands and lambda1
    are taken, and lambda1 until its density is."""
    if args.samples < 2:
        raise ConfigError(f"--samples must be >= 2, got {args.samples}")
    if not 0 <= args.seed < 2**64:  # before any input is read
        raise ConfigError(f"--seed must be in [0, 2**64), got {args.seed}")
    cfg = _load_pipeline_config(args)
    keys = ["operator_first", "operator_second_central"]
    data = _read_payload(args.moments, keys, ["variance_mode"])
    m, mode = len(data[keys[0]]), data["variance_mode"]
    for key in keys:  # before any draw
        if data[key].shape != (m, m):
            raise ShapeMismatch(f"{args.moments}: {key!r} is {data[key].shape}, not m x m as both")
    if mode not in VARIANCE_MODES:
        raise ShapeMismatch(f"{args.moments}: 'variance_mode' {mode!r} is not in {VARIANCE_MODES}")
    check_spectra_size(args.samples, m)  # before kde2d's bound, which --samples also sizes
    check_kde_size(cfg.kde.grid_points, cfg.kde.grid_points, args.samples)
    clamped = check_tables(data[keys[0]], data[keys[1]], mode, args.clamp_negative)
    check_outliers(data[keys[0]], data[keys[1]])
    samples = sample_operator_spectra(data.pop(keys[0]), data.pop(keys[1]), args.samples, args.seed)
    table = eigen_moments(samples)
    re, im, var_re, var_im = table.mean.real, table.mean.imag, table.variance_re, table.variance_im
    half_re, half_im = 2.0 * np.sqrt(var_re), 2.0 * np.sqrt(var_im)
    bands = np.column_stack(
        [re, im, var_re, var_im, re - half_re, re + half_re, im - half_im, im + half_im]
    )
    lam1 = samples.representative_lambda1
    del samples
    bandwidth = None if cfg.kde.bandwidth is None else (cfg.kde.bandwidth, cfg.kde.bandwidth)
    try:
        density = kde2d(lam1.real, lam1.imag, bandwidths=bandwidth, grid_points=cfg.kde.grid_points)
    except DegenerateData as exc:
        if not clamped:
            raise
        raise DegenerateData(f"{exc}; {clamped} of {m * m} variances clamped to zero")
    precision = cfg.output_precision
    out_path = Path(args.out)
    write_csv(out_path, ["grid_re", "grid_im", "density"], _kde_rows(density), precision)
    bands_path = out_path.with_name(out_path.stem + "_bands" + out_path.suffix)
    header = ["index", "mean_re", "mean_im", "var_re", "var_im"]
    header += ["band_re_lo", "band_re_hi", "band_im_lo", "band_im_hi"]
    write_csv(bands_path, header, bands, precision, index=True)
    print(f"wrote {args.out} and {bands_path}")
    return 0


def cmd_pipeline(args) -> int:
    cfg, snapshots, noise = _recording_inputs(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    moments_payload = _moments_payload(snapshots, noise, cfg)
    _write_json(out_dir / "moments.json", moments_payload, cfg.output_precision)

    mc_payload = _mc_payload(snapshots, noise, cfg)
    _write_json(out_dir / "mc.json", mc_payload, cfg.output_precision)

    report = _report_payload(moments_payload, mc_payload, cfg.decimate_stride)
    _write_json(out_dir / "report.json", report, cfg.output_precision)
    print(f"wrote {out_dir / 'moments.json'}, {out_dir / 'mc.json'}, {out_dir / 'report.json'}")
    check_residual(snapshots, noise, cfg.ridge)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmduq",
        description="Propagate Gaussian measurement uncertainty through dynamic mode decomposition.",
    )
    parser.add_argument("--version", action="version", version=f"dmduq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a trajectory CSV")
    sim_sub = sim.add_subparsers(dest="system", required=True)
    spring = sim_sub.add_parser("spring-mass", help="hanging spring-mass system")
    spring.add_argument("--mass", type=float, default=5.0)
    spring.add_argument("--stiffness", type=float, default=20.0)
    spring.add_argument("--gravity", type=float, default=9.81)
    spring.add_argument("--x0", type=str, default=None, help="initial 'displacement,velocity'")
    spring.add_argument("--duration", type=float, default=40.0)
    spring.add_argument("--dt", type=float, default=0.01)
    spring.add_argument("--out", required=True)
    spring.set_defaults(func=cmd_simulate)
    network = sim_sub.add_parser("network", help="coupled oscillator network")
    network.add_argument("--nodes", type=int, default=17)
    network.add_argument("--seed", type=int, default=0)
    network.add_argument("--duration", type=float, default=120.0)
    network.add_argument("--dt", type=float, default=0.01)
    network.add_argument("--coupling-strength", type=float, default=1.0)
    network.add_argument("--damping", type=float, default=0.0)
    network.add_argument("--out", required=True)
    network.set_defaults(func=cmd_simulate)
    for p in (spring, network):
        p.add_argument("--stride", type=int, default=1, help="keep every stride-th sample")

    def add_recording_options(p):
        p.add_argument("data")
        p.add_argument("--config", default=None)
        p.add_argument("--noise-window", type=str, default=None, help="'t_start:t_end' seconds")
        p.add_argument("--noise-variances", type=str, default=None, help="'v1,v2,...' per state")

    moments = sub.add_parser("moments", help="estimate moment tables from a CSV")
    add_recording_options(moments)
    moments.add_argument("--out", required=True)
    moments.set_defaults(func=cmd_table, payload=_moments_payload)

    mc = sub.add_parser("mc", help="Monte Carlo verification summaries")
    add_recording_options(mc)
    mc.add_argument("--out", required=True)
    mc.set_defaults(func=cmd_table, payload=_mc_payload)

    comp = sub.add_parser("compare", help="compare moment tables against MC summaries")
    comp.add_argument("moments")
    comp.add_argument("mc")
    comp.add_argument("--config", default=None)
    comp.add_argument("--out", required=True)
    comp.set_defaults(func=cmd_compare)

    spec = sub.add_parser("spectrum", help="eigenvalue density of sampled operators")
    spec.add_argument("moments")
    spec.add_argument("--samples", type=int, default=1000)
    spec.add_argument("--seed", type=int, default=0)
    spec.add_argument("--clamp-negative", action="store_true",
                      help="sample negative variances as zero instead of refusing the tables")
    spec.add_argument("--config", default=None)
    spec.add_argument("--out", required=True)
    spec.set_defaults(func=cmd_spectrum)

    pipe = sub.add_parser("pipeline", help="moments, mc, and compare in one run")
    add_recording_options(pipe)
    pipe.add_argument("--out-dir", required=True)
    pipe.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DmduqError as exc:
        sys.stderr.write(dumps_json({"error": exc.code, "message": str(exc)}))
        return 1
    except OSError as exc:
        sys.stderr.write(dumps_json({"error": "io_error", "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
