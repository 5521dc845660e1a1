"""Command-line pipeline: simulate, fit noise, estimate moments, verify, report.

Commands are single deterministic processes: identical inputs, config, and
seeds produce byte-identical outputs.  Structured results are JSON with
floats printed at a fixed number of significant digits (17 by default,
lossless for doubles); trajectories and density curves are CSV.  Errors are
emitted as machine-readable JSON on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import PipelineConfig, load_config
from .data_model import NoiseModel, build_snapshots, estimate_noise, format_blocks, format_rows
from .data_model import decimate_trajectory, load_csv, replacing, save_csv, write_csv
from .errors import ConfigError, DegenerateData, DmduqError, ParseError, ShapeMismatch
from .metrics import compare, decimate, min_max_normalize
from .monte_carlo import run_mc, sample_operator_spectra
from .numerics import RowTable
from .operator_moments import (
    VARIANCE_MODES, check_outliers, check_tables, dmd_point_estimate, estimate_operator_moments,
)
from .pinv_moments import pinv_moments
from .spectral import eigen_moments, kde2d
from .systems import (
    SpringMassParams,
    random_network_params,
    simulate_oscillator_network,
    simulate_spring_mass,
)

SCHEMA_VERSION = "1.0"

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
    float format; 1-D and 2-D float arrays and ``RowTable`` values go by :func:`_emit_floats`."""
    if isinstance(node, RowTable) or (isinstance(node, np.ndarray) and node.dtype.kind == "f"
                                    and node.ndim in (1, 2) and node.size):
        _emit_floats(write, node, precision)
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


def _emit_floats(write, array, precision: int) -> None:
    """Nested lists of a non-empty 1-D or 2-D float array, or of a ``RowTable`` by its row
    blocks, written per :func:`format_blocks` block: no more than one block's text is held."""
    blocks = array.blocks() if isinstance(array, RowTable) else [np.atleast_2d(array)]
    write("[" * len(array.shape))
    for k, rows in enumerate(rows for block in blocks for rows in format_blocks(block, precision)):
        write(("],[" if k else "") + "],[".join(rows))
    write("]" * len(array.shape))


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


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ParseError(f"{path}: not valid JSON: {exc}") from exc


def _read_payload(path, tables, keys=()) -> dict:
    """A dmduq JSON output of a supported schema with every key, ``tables`` as 2-D float arrays."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ShapeMismatch(f"{path}: expected a JSON object, got {type(data).__name__}")
    version = str(data.get("schema_version", ""))
    if version.split(".", 1)[0] != SCHEMA_VERSION.split(".", 1)[0]:
        raise ShapeMismatch(f"{path}: unsupported schema version {version!r} (supported major: 1)")
    missing = [key for key in [*tables, *keys] if key not in data]
    if missing:
        raise ShapeMismatch(f"{path}: missing key(s) {missing}")
    for key in tables:
        try:
            data[key] = np.array(data[key], dtype=float)
        except (TypeError, ValueError):  # a string, or a ragged table
            data[key] = np.empty(0)
        if data[key].ndim != 2:
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
    payload = args.payload(snapshots, noise, cfg)
    _write_json(args.out, payload, cfg.output_precision)
    print(f"wrote {args.out}")
    return 0


def _report_payload(moments: dict, mc: dict, stride: int) -> dict:
    moments = {key: np.asarray(moments[key]) for key, _ in _COMPARED}
    # Each row: "matrix", then the ComparisonReport fields in their order.
    comparisons = [{"matrix": a, **vars(compare(moments[a], mc[b]))} for a, b in _COMPARED]
    est_var = moments["operator_second_central"]
    mc_var = mc["operator_variance"]
    delta = np.abs(mc_var - est_var)

    def curve(matrix: np.ndarray) -> dict:
        flat = decimate(matrix.ravel(), stride)
        try:
            return {"normalized": True, "values": min_max_normalize(flat)}
        except DegenerateData:
            return {"normalized": False, "values": flat}

    return {
        "schema_version": SCHEMA_VERSION,
        "comparisons": comparisons,
        "delta_sigma2": delta,
        "curves": {
            "stride": stride,
            "operator_second_estimated": curve(est_var),
            "operator_second_mc": curve(mc_var),
            "operator_first_estimated": curve(moments["operator_first"]),
            "operator_first_mc": curve(mc["operator_mean"]),
        },
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
    mc = _read_payload(args.mc, [ref for _, ref in _COMPARED])
    _check_same_noise({args.moments: moments, args.mc: mc})
    payload = _report_payload(moments, mc, cfg.decimate_stride)
    _write_json(args.out, payload, cfg.output_precision)
    print(f"wrote {args.out}")
    return 0


def cmd_spectrum(args) -> int:
    if args.samples < 2:
        raise ConfigError(f"--samples must be >= 2, got {args.samples}")
    cfg = _load_pipeline_config(args)
    keys = ["operator_first", "operator_second_central"]
    data = _read_payload(args.moments, keys, ["variance_mode"])
    first, second, mode = data[keys[0]], data[keys[1]], data["variance_mode"]
    for key in keys:  # before any draw
        if data[key].shape != (len(first),) * 2:
            raise ShapeMismatch(f"{args.moments}: {key!r} is {data[key].shape}, not m x m as both")
    if mode not in VARIANCE_MODES:
        raise ShapeMismatch(f"{args.moments}: 'variance_mode' {mode!r} is not in {VARIANCE_MODES}")
    check_tables(first, second, mode)
    check_outliers(first, second)
    samples = sample_operator_spectra(
        first, second, count=args.samples, seed=args.seed, clamp_negative=args.clamp_negative
    )
    lam1 = samples.representative_lambda1
    bandwidth = None if cfg.kde.bandwidth is None else (cfg.kde.bandwidth, cfg.kde.bandwidth)
    try:
        density = kde2d(lam1.real, lam1.imag, bandwidths=bandwidth, grid_points=cfg.kde.grid_points)
    except DegenerateData as exc:
        if not (clamped := int(np.count_nonzero(second < 0))):
            raise
        raise DegenerateData(f"{exc}; {clamped} of {second.size} variances clamped to zero")
    precision = cfg.output_precision
    grid_re, grid_im = np.meshgrid(density.grid_re, density.grid_im, indexing="ij")
    curve = np.column_stack([grid_re.ravel(), grid_im.ravel(), density.density.ravel()])
    out_path = Path(args.out)
    write_csv(out_path, ["grid_re", "grid_im", "density"], curve, precision)
    table = eigen_moments(samples)
    re, im, var_re, var_im = table.mean.real, table.mean.imag, table.variance_re, table.variance_im
    half_re, half_im = 2.0 * np.sqrt(var_re), 2.0 * np.sqrt(var_im)
    bands = np.column_stack(
        [re, im, var_re, var_im, re - half_re, re + half_re, im - half_im, im + half_im]
    )
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
    spec.add_argument("--clamp-negative", action="store_true")
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
