"""Child processes of the benchmark: everything that imports numpy or dmduq.

    worker.py setup REQUEST T0   import dmduq, make the inputs, one warm-up call
    worker.py lib REQUEST T0     the same, then time and check a library workload
    worker.py check REQUEST      check the files the CLI workflow wrote
    worker.py cli SPANS ARGV...  run `dmduq ARGV` with every layer call traced

REQUEST is a JSON object made by run.py; T0 is run.py's perf_counter
reading just before it started this process.  Each mode except ``cli``
prints one JSON object as its last line of output.
"""

from __future__ import annotations

import ctypes
import json
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import dmduq as dq
from dmduq import cli
from dmduq.pinv_moments import ADAPTIVE_TRUNCATED, QuadratureConfig
from tracing import Tracer
from workloads import (
    LAYER_FUNCTIONS,
    NOISE_VARIANCE,
    another_round,
    sample_elements,
    spring_x0,
)

SPOT_ELEMENTS = 16  # moment-table elements re-integrated adaptively per check
SPOT_RTOL = 1e-6
MIN_WITHIN_3SE = 0.98  # share of MC means within 3 SE + 1e-8 of the tables
MIN_COSINE = 0.99  # compare report, estimate against MC, every table
KDE_MASS_TOL = 1e-2
PROBE_ELEMENTS = 64
ADAPTIVE = QuadratureConfig(method=ADAPTIVE_TRUNCATED)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                out[Path(path).name] = getter()
                break
    return out


def noise_for(n: int) -> dq.NoiseModel:
    return dq.NoiseModel(variances=np.full(n, NOISE_VARIANCE))


def lib_inputs(req: dict) -> dq.SnapshotSet:
    p = req["params"]
    if p["system"] == "spring":
        traj = dq.simulate_spring_mass(
            dq.SpringMassParams(x0=spring_x0(req["seed"]), duration=p["duration"], dt=p["dt"])
        )
    else:
        network = dq.random_network_params(
            p["nodes"], seed=req["seed"], duration=p["duration"], dt=p["dt"]
        )
        traj = dq.decimate_trajectory(dq.simulate_oscillator_network(network), p["stride"])
    return dq.build_snapshots(traj)


def warm_up() -> None:
    traj = dq.simulate_spring_mass(dq.SpringMassParams(duration=1.0, dt=0.05))
    dq.pinv_moments(dq.build_snapshots(traj), noise_for(2))


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the output is right.


def relative_gap(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), np.finfo(float).tiny)


def check_pinv(pinv, snaps, noise, seed: int, stats: dict) -> list[str]:
    """Finite tables that agree with adaptive quadrature on a seeded sample."""
    if not (np.all(np.isfinite(pinv.first)) and np.all(np.isfinite(pinv.second_raw))):
        return ["moment tables are not finite"]
    problems, worst = [], 0.0
    m, n = pinv.first.shape
    for t, k in sample_elements(seed, m, n, SPOT_ELEMENTS):
        ctx = dq.build_context(snaps, noise, t, k)
        for table, element in ((pinv.first, dq.first_moment_element),
                               (pinv.second_raw, dq.second_moment_element)):
            gap = relative_gap(float(table[t, k]), element(ctx, ADAPTIVE))
            worst = max(worst, gap)
            if gap > SPOT_RTOL:
                problems.append(f"{element.__name__}({t}, {k}) off adaptive by {gap:.2e}")
    stats["spot_check_max_rel"] = worst
    return problems


def check_operator(moments, pinv, snaps, noise, seed: int) -> list[str]:
    """Sampled entries against the assembly formulas summed term by term."""
    first, second = moments.first, moments.second_central
    m = pinv.first.shape[0]
    if first.shape != (m, m) or not (np.all(np.isfinite(first)) and np.all(np.isfinite(second))):
        return ["operator tables are not finite m x m"]
    Y, var = snaps.shifted, noise.variances
    problems = []
    for i, j in sample_elements(seed + 1, m, m, SPOT_ELEMENTS):
        m1, m2 = pinv.first[i], pinv.second_raw[i]
        want1 = sum(float(m1[k] * Y[k, j]) for k in range(len(var)))
        want2 = sum(float(m2[k] * (var[k] + Y[k, j] ** 2) - m1[k] ** 2 * Y[k, j] ** 2)
                    for k in range(len(var)))
        scale = sum(float(m2[k] * (var[k] + Y[k, j] ** 2)) for k in range(len(var)))
        if abs(first[i, j] - want1) > 1e-9 * max(abs(want1), 1e-300):
            problems.append(f"operator mean ({i}, {j}) off its formula")
        if abs(second[i, j] - want2) > 1e-9 * scale:
            problems.append(f"operator variance ({i}, {j}) off its formula")
    return problems


def check_point(estimate, snaps, seed: int) -> list[str]:
    """Sampled rows against an SVD pseudoinverse, leading spectrum against n x n."""
    X, Y = snaps.states, snaps.shifted
    n, m = X.shape
    pinv_x = np.linalg.pinv(X)
    rows = sorted({i for i, _ in sample_elements(seed + 2, m, 1, SPOT_ELEMENTS)})
    want = pinv_x[rows] @ Y
    problems = []
    if np.abs(estimate.operator[rows] - want).max() > 1e-8 * np.abs(want).max():
        problems.append("point operator differs from pinv(X) @ Y")
    small = np.linalg.eigvals(Y @ pinv_x)  # same nonzero spectrum as the m x m operator
    order = lambda v: v[np.lexsort((-v.real, -v.imag, -np.abs(v)))]  # noqa: E731
    lead = order(estimate.spectrum.eigenvalues)[:n]
    if np.abs(lead - order(small)).max() > 1e-6 * np.abs(small).max():
        problems.append("leading eigenvalues differ from those of the n x n product")
    return problems


def check_mc(first, pinv_mean, se_mean, trials, failed, want_trials, stats, key) -> list[str]:
    """The acceptance criterion-2 rule, applied to a stated share of elements."""
    problems = []
    if failed:
        problems.append(f"{failed} failed trial(s)")
    if trials != want_trials:
        problems.append(f"ran {trials} trials, asked for {want_trials}")
    within = float(np.mean(np.abs(first - pinv_mean) <= 3.0 * se_mean + 1e-8))
    stats[key] = within
    if within < MIN_WITHIN_3SE:
        problems.append(f"only {within:.4f} of MC means within 3 SE + 1e-8")
    return problems


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


# ---------------------------------------------------------------------------
# Counts and probes


def add_mc_counts(counts: dict, m: int, n: int, trials: int, shared: bool, eigen: bool) -> None:
    """Normal draws and eigenvalue flops (10 m^3 per m x m matrix) from the shapes."""
    per_trial = n * (m + 1) if shared else m * n * n + n * m
    for key, value in (("normals_drawn", trials * per_trial),
                       ("eig_flops", trials * 10 * m**3 if eigen else 0)):
        total = counts.get(f"monte_carlo.{key}", [0, "computed"])[0] + value
        counts[f"monte_carlo.{key}"] = [total, "computed"]


def add_trial_counts(counts: dict, trials: int, failed: int) -> None:
    for key, value in (("trials", trials), ("failed_trials", failed)):
        total = counts.get(f"monte_carlo.{key}", [0, "counted"])[0] + value
        counts[f"monte_carlo.{key}"] = [total, "counted"]


def probes(snaps, noise, seed: int) -> dict:
    """Layer timings outside the workload: context builds and single elements."""
    n, m = snaps.states.shape
    start = time.perf_counter()
    for t in range(m):
        dq.build_context(snaps, noise, t, 0)
    build_s = time.perf_counter() - start
    contexts = [dq.build_context(snaps, noise, t, k)
                for t, k in sample_elements(seed + 3, m, n, PROBE_ELEMENTS)]
    start = time.perf_counter()
    for ctx in contexts:
        dq.first_moment_element(ctx)
        dq.second_moment_element(ctx)
    element_s = time.perf_counter() - start
    return {
        "pinv_moments.build_context_s": build_s,
        "pinv_moments.element_us": 1e6 * element_s / len(contexts),
    }


# ---------------------------------------------------------------------------
# Library workloads


def lib_commands(req: dict, snaps, noise) -> dict:
    p, seed = req["params"], req["seed"]

    def moments():
        pinv = dq.pinv_moments(snaps, noise)
        return pinv, dq.estimate_operator_moments(snaps, noise, pinv=pinv)

    def mc(mode):
        config = dq.McConfig(trials=p["trials"], master_seed=seed, sampling_mode=mode,
                             compute_eigenvalues=False)
        return lambda: dq.run_mc(snaps, noise, config)

    table = {"moments": moments, "point_estimate": lambda: dq.dmd_point_estimate(snaps)}
    if "trials" in p:
        table.update(mc=mc("independent"), mc_shared=mc("shared_trajectory"))
    return {name: table[name] for name in p["commands"]}


def guarded(check) -> list[str]:
    """Run one command's checks; an output malformed enough to raise fails them."""
    try:
        return check()
    except Exception as exc:  # noqa: BLE001 - any error here is a failed check
        return [f"check raised {type(exc).__name__}: {exc}"]


def lib_checks(req: dict, outputs: dict, snaps, noise, stats: dict) -> dict:
    seed, p = req["seed"], req["params"]
    pinv = outputs["moments"][0] if "moments" in outputs else None

    def moments():
        moments = outputs["moments"][1]
        return check_pinv(pinv, snaps, noise, seed, stats) + check_operator(
            moments, pinv, snaps, noise, seed
        )

    def mc():
        mc = outputs["mc"]
        return check_mc(pinv.first, mc.pinv_mean, mc.standard_errors.pinv_mean, mc.trials,
                        mc.failed_trials, p["trials"], stats, "mc_within_3se")

    def mc_shared():
        # Shared-trajectory sampling is not the tables' model: with an
        # ill-conditioned Gram matrix its mean can sit far from them (cosine
        # as low as 0.59 on some network seeds), so only failed trials are
        # checked and the cosine is recorded.
        mc = outputs["mc_shared"]
        stats["mc_shared_cosine"] = cosine(pinv.first.ravel(), mc.pinv_mean.ravel())
        return [f"{mc.failed_trials} failed trial(s)"] * bool(mc.failed_trials)

    checks = {
        "moments": moments,
        "point_estimate": lambda: check_point(outputs["point_estimate"], snaps, seed),
        "mc": mc,
        "mc_shared": mc_shared,
    }
    problems = {}
    for name in outputs:
        if pinv is None and name.startswith("mc"):
            problems[name] = ["no moment tables to check against"]
        else:
            problems[name] = guarded(checks[name])
    return problems


def run_lib(req: dict, t0: float, setup_only: bool) -> dict:
    warm_up()
    tracer = Tracer() if req["trace"] and not setup_only else None
    if tracer:
        tracer.install(LAYER_FUNCTIONS)
    with tracer.span("setup") if tracer else nullcontext():
        snaps = lib_inputs(req)
    noise = noise_for(snaps.state_count)
    setup_s = time.perf_counter() - t0
    if setup_only:
        return {"setup_s": setup_s}

    commands = lib_commands(req, snaps, noise)
    n, m = snaps.states.shape
    counts = {"pinv_moments.elements": [m * n, "computed"]}
    times = {name: [] for name in commands}
    problems = {name: [] for name in commands}
    stats: dict = {}
    peak_rss_mb = None
    attempted = iterations = 0
    start = last = time.perf_counter()
    while another_round(iterations, start, last, req["seconds"], req["deadline"]):
        last = time.perf_counter()
        outputs, elapsed = {}, {}
        for name, command in commands.items():
            attempted += 1
            began = time.perf_counter()
            try:
                with tracer.span(name) if tracer else nullcontext():
                    outputs[name] = command()
            except Exception as exc:  # a failed command is counted, not fatal
                problems[name].append(f"raised {type(exc).__name__}: {exc}")
                continue
            elapsed[name] = time.perf_counter() - began
        if peak_rss_mb is None:  # before any check allocates
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for name, found in lib_checks(req, outputs, snaps, noise, stats).items():
            problems[name].extend(found)
            if not found:
                times[name].append(elapsed[name])
        if iterations == 0:
            for name in ("mc", "mc_shared"):
                if name in outputs:
                    add_trial_counts(counts, outputs[name].trials, outputs[name].failed_trials)
                    add_mc_counts(counts, m, n, outputs[name].trials, name == "mc_shared", False)
        iterations += 1
    if tracer:
        tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "times": times,
        "problems": problems,
        "attempted": attempted,
        "iterations": iterations,
        "peak_rss_mb": peak_rss_mb,
        "stats": stats,
        "counts": counts,
        "environment": environment(),
    }
    if tracer:
        result["spans"] = tracer.spans
        result["probes"] = probes(snaps, noise, req["seed"])
    return result


# ---------------------------------------------------------------------------
# The CLI workflow: checks on its files, and the traced command


def run_check(req: dict) -> dict:
    """Check every file the CLI workflow wrote against the library and the rules."""
    rundir, p, seed = Path(req["rundir"]), req["params"], req["seed"]
    stats: dict = {}
    counts: dict = {}
    result = {"problems": {}, "stats": stats, "counts": counts, "environment": environment()}
    try:
        got = dq.load_csv(rundir / "traj.csv")
        snaps = dq.build_snapshots(got)
    except Exception as exc:  # noqa: BLE001 - nothing else can be checked without it
        result["problems"] = {name: [f"no usable traj.csv: {exc}"] for name in req["ran"]}
        return result
    noise = noise_for(snaps.state_count)
    n, m = snaps.states.shape
    pinv = dq.pinv_moments(snaps, noise)
    counts["pinv_moments.elements"] = [m * n, "computed"]

    def parse(name: str) -> dict:
        path = rundir / name
        counts[f"cli.{path.stem}_{path.suffix[1:]}_bytes"] = [path.stat().st_size, "counted"]
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def simulate():
        want = dq.simulate_spring_mass(
            dq.SpringMassParams(x0=spring_x0(seed), duration=p["duration"], dt=p["dt"])
        )
        same = np.array_equal(got.samples, want.samples) and np.array_equal(got.times, want.times)
        return [] if same else ["traj.csv differs from the library trajectory"]

    def moments():
        data = parse("moments.json")
        operator = dq.estimate_operator_moments(snaps, noise, pinv=pinv)
        tables = {
            "pinv_first": pinv.first,
            "pinv_second_raw": pinv.second_raw,
            "operator_first": operator.first,
            "operator_second_central": operator.second_central,
            "operator_point": dq.dmd_point_estimate(snaps).operator,
        }
        found = [f"{key} in moments.json differs from the library"
                 for key, table in tables.items()
                 if not np.array_equal(np.array(data[key], dtype=float), table)]
        return found + check_pinv(pinv, snaps, noise, seed, stats)

    def mc():
        data = parse("mc.json")
        add_trial_counts(counts, data["trials"], data["failed_trials"])
        eigen = data["eigen_samples"]
        add_mc_counts(counts, m, n, data["trials"], False, eigen is not None)
        found = check_mc(pinv.first, np.array(data["pinv_mean"]),
                         np.array(data["standard_errors"]["pinv_mean"]), data["trials"],
                         data["failed_trials"], p["trials"], stats, "mc_within_3se")
        if eigen is None or np.shape(eigen["re"]) != (p["trials"], m):
            found.append("eigenvalue samples are not trials x m")
        return found

    def compare():
        cosines = [row["cosine"] for row in parse("report.json")["comparisons"]]
        stats["compare_min_cosine"] = min(cosines)
        ok = len(cosines) == 4 and min(cosines) >= MIN_COSINE
        return [] if ok else [f"cosines {cosines} not all >= {MIN_COSINE}"]

    def spectrum():
        kde_path = rundir / "kde.csv"
        counts["cli.kde_csv_bytes"] = [kde_path.stat().st_size, "counted"]
        kde = np.loadtxt(kde_path, delimiter=",", skiprows=1, ndmin=2)
        side = int(round(np.sqrt(len(kde))))  # rows run over grid_re, then grid_im
        cell = (kde[side, 0] - kde[0, 0]) * (kde[1, 1] - kde[0, 1])
        mass = float(kde[:, 2].sum() * cell)
        stats["kde_mass"] = mass
        found = [] if abs(mass - 1.0) <= KDE_MASS_TOL else [f"KDE integrates to {mass:.4f}"]
        with open(rundir / "kde_bands.csv", encoding="utf-8") as handle:
            bands = sum(1 for _ in handle) - 1
        if bands != m:
            found.append(f"bands file has {bands} rows, not m = {m}")
        return found

    checks = {"simulate": simulate, "moments": moments, "mc": mc, "compare": compare,
              "spectrum": spectrum}
    result["problems"] = {name: guarded(checks[name]) for name in req["ran"]}
    if req["trace"]:
        result["probes"] = probes(snaps, noise, seed)
        config = dq.McConfig(trials=p["trials"], master_seed=seed, compute_eigenvalues=False)
        start = time.perf_counter()
        dq.run_mc(snaps, noise, config)
        result["probes"]["monte_carlo.run_mc_noeig_s"] = time.perf_counter() - start
    return result


def run_cli(spans_path: str, argv: list[str]) -> int:
    """`dmduq ARGV` in this process, spans written to SPANS_PATH when it returns."""
    tracer = Tracer()
    tracer.install(LAYER_FUNCTIONS)
    try:
        return cli.main(argv)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")


def main(argv: list[str]) -> int:
    mode = argv[1]
    if mode == "cli":
        return run_cli(argv[2], argv[3:])
    req = json.loads(argv[2])
    if mode == "check":
        print(json.dumps(run_check(req)))
    else:
        print(json.dumps(run_lib(req, float(argv[3]), setup_only=mode == "setup")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
