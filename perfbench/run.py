"""Run one dmduq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: dmduq is imported from ./src, never
from an installed copy.  The seed fixes every input (the spring-mass initial
state, the network parameters, the Monte Carlo and spectrum seeds and the
elements the spot checks sample).  Work is repeated until S seconds have
passed, at least once; timings are medians over the repeats.

With --trace 0 the commands run untraced and the end-to-end metrics are
reported; with --trace 1 the same commands run with a span around every
call into a dmduq layer, and the per-layer metrics are reported.  The
second-to-last line of output is a JSON report with every metric, its unit,
the environment and each failed check; the last line is the summary named
in BENCHMARK.json.  Both are also kept under perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from tracing import Tracer, root_of, self_times
from workloads import (
    CLI_COMMANDS,
    LAYER_TIMES,
    NOISE_VARIANCE,
    WORKLOADS,
    another_round,
    params,
    spring_x0,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"
TIME_LIMIT_S = 170.0
SETUP_REPEATS = 3
NPROC = len(os.sched_getaffinity(0))


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    """An explicit environment: dmduq from ./src, BLAS capped at the core count.

    DMDUQ_THREADS is left out so an ambient setting cannot change results.
    """
    threads = str(NPROC)
    env = {key: os.environ[key] for key in ("PATH", "HOME", "LANG") if key in os.environ}
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def run_child(argv: list[str], deadline: float, err_path: Path, cwd: Path | None = None):
    """Run one child to completion; returns (exit code, seconds, its peak RSS in MB, stdout)."""
    timeout = max(1.0, deadline - time.perf_counter())
    with open(err_path, "w", encoding="utf-8") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, text=True)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - began
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0, out


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def stderr_tail(path: Path) -> str:
    return " | ".join(path.read_text(encoding="utf-8").strip().splitlines()[-3:])


# ---------------------------------------------------------------------------
# Workloads


def run_cli_workload(p: dict, seed: int, seconds: float, trace: bool, rundir: Path,
                     deadline: float) -> dict:
    """The README workflow, one `dmduq` process per command."""
    noise = ",".join([repr(NOISE_VARIANCE)] * 2)
    argvs = {
        "simulate": ["simulate", "spring-mass", "--duration", repr(p["duration"]),
                     "--dt", repr(p["dt"]), "--x0", ",".join(map(repr, spring_x0(seed))),
                     "--out", "traj.csv"],
        "moments": ["moments", "traj.csv", "--noise-variances", noise,
                    "--config", "config.json", "--out", "moments.json"],
        "mc": ["mc", "traj.csv", "--noise-variances", noise,
               "--config", "config.json", "--out", "mc.json"],
        "compare": ["compare", "moments.json", "mc.json", "--config", "config.json",
                    "--out", "report.json"],
        "spectrum": ["spectrum", "moments.json", "--samples", str(p["samples"]),
                     "--seed", str(seed), "--config", "config.json", "--out", "kde.csv"],
    }
    dmduq = [sys.executable, "-m", "dmduq.cli"]

    # Set-up: write the inputs, then one warm-up `dmduq --version`.
    setups, starts = [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        began = time.perf_counter()
        config = {"mc": {"trials": p["trials"], "master_seed": seed}}
        (rundir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        err = rundir / "version.err"
        code, wall, _, _ = run_child(dmduq + ["--version"], deadline, err, cwd=rundir)
        if code != 0:
            raise HarnessError(f"dmduq --version exited {code}: {stderr_tail(err)}")
        setups.append(time.perf_counter() - began)
        starts.append(wall)

    tracer = Tracer() if trace else None
    result = {"setup_s": setups, "cli_start_s": starts, "times": {c: [] for c in CLI_COMMANDS},
              "problems": {c: [] for c in CLI_COMMANDS}, "attempted": 0, "iterations": 0,
              "peak_rss_mb": 0.0}
    start = last = time.perf_counter()
    while another_round(result["iterations"], start, last, seconds, deadline):
        last = time.perf_counter()
        ran, elapsed = [], {}
        for name in CLI_COMMANDS:
            result["attempted"] += 1
            spans_path = rundir / f"{name}.spans.json"
            argv = ([sys.executable, str(WORKER), "cli", str(spans_path)] if trace else dmduq)
            index = len(tracer.spans) if tracer else None
            with tracer.span(name) if tracer else nullcontext():
                code, wall, peak, _ = run_child(argv + argvs[name], deadline,
                                                rundir / f"{name}.err", cwd=rundir)
            result["peak_rss_mb"] = max(result["peak_rss_mb"], peak)
            if code != 0:
                tail = stderr_tail(rundir / f"{name}.err")
                result["problems"][name].append(f"exit {code}: {tail}")
                continue
            if tracer:
                tracer.adopt(json.loads(spans_path.read_text(encoding="utf-8")), index)
            ran.append(name)
            elapsed[name] = wall
        request = {"rundir": str(rundir), "params": p, "seed": seed, "ran": ran,
                   "trace": trace and result["iterations"] == 0}
        code, _, _, out = run_child([sys.executable, str(WORKER), "check", json.dumps(request)],
                                    deadline, rundir / "check.err")
        if code != 0:
            raise HarnessError(f"output check exited {code}: {stderr_tail(rundir / 'check.err')}")
        checked = last_json(out)
        for name, found in checked.pop("problems").items():
            result["problems"][name].extend(found)
            if not found:
                result["times"][name].append(elapsed[name])
        if result["iterations"] == 0:
            result.update(checked)
        result["iterations"] += 1
    if tracer:
        result["spans"] = tracer.spans
    return result


def run_lib_workload(p: dict, seed: int, seconds: float, trace: bool, rundir: Path,
                     deadline: float) -> dict:
    """Library calls in a child process, after SETUP_REPEATS timed set-ups."""
    request = json.dumps({"params": p, "seed": seed, "seconds": seconds, "trace": trace,
                          "deadline": deadline})
    setups = []
    repeats = 1 if trace else SETUP_REPEATS
    for i in range(repeats):
        mode = "lib" if i == repeats - 1 else "setup"
        err = rundir / f"{mode}.err"
        code, _, _, out = run_child([sys.executable, str(WORKER), mode, request,
                                     repr(time.perf_counter())], deadline, err)
        if code != 0:
            raise HarnessError(f"worker {mode} exited {code}: {stderr_tail(err)}")
        result = last_json(out)
        setups.append(result["setup_s"])
    result["setup_s"] = setups
    return result


# ---------------------------------------------------------------------------
# Metrics


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_bytes", "bytes"), ("_mb", "MB"),
                         ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def end_to_end(result: dict) -> dict:
    times = result["times"]
    medians = {name: statistics.median(v) for name, v in times.items() if v}
    attempted = result["attempted"]
    failed = attempted - sum(len(v) for v in times.values())
    metrics = {
        "setup_s": statistics.median(result["setup_s"]),
        "wall_s": sum(medians.values()) if len(medians) == len(times) else None,
        "peak_rss_mb": result["peak_rss_mb"],
        "ops_failed_frac": failed / attempted,
    }
    metrics.update({f"{name}_s": value for name, value in medians.items()})
    if "cli_start_s" in result:
        metrics["cli_start_s"] = statistics.median(result["cli_start_s"])
    return metrics


def per_layer(result: dict, commands: list[str], untraced_walls: list[float]) -> dict:
    spans, iterations = result["spans"], result["iterations"]
    roots = [spans[root_of(spans, i)]["name"] for i in range(len(spans))]
    durations = [s["end"] - s["start"] for s in spans]
    metrics = {}
    for metric, names, command in LAYER_TIMES:
        picked = [i for i, s in enumerate(spans) if s["name"] in names
                  and (roots[i] == command if command else roots[i] in commands + ["setup"])]
        if picked:
            metrics[metric] = sum(durations[i] for i in picked) / iterations
    node_calls = [i for i, s in enumerate(spans) if s["name"] == "numerics.gauss_laguerre_nodes"
                  and roots[i] in commands]
    metrics["numerics.node_rule_calls"] = len(node_calls) // iterations
    metrics.update(result.get("probes", {}))
    if "monte_carlo.run_mc_s" in metrics:  # on the network, MC already runs eigenvalues off
        metrics.setdefault("monte_carlo.run_mc_noeig_s", metrics["monte_carlo.run_mc_s"])
    if "cli_start_s" in result:
        metrics["cli.start_s"] = statistics.median(result["cli_start_s"])

    # Self time: each span's duration less its traced children.  Summed over
    # the command trees it reproduces the traced wall time exactly.
    own = self_times(spans)
    top = [i for i, s in enumerate(spans) if s["parent"] is None and s["name"] in commands]
    traced_wall = sum(durations[i] for i in top) / iterations
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.self_sum_s"] = sum(own[i] for i in range(len(spans))
                                      if roots[i] in commands) / iterations
    for i in top:
        key = f"trace.{spans[i]['name']}.self_s"
        metrics[key] = metrics.get(key, 0.0) + own[i] / iterations
    if untraced_walls:
        metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced_walls)
        metrics["trace.overhead_base_runs"] = len(untraced_walls)
    metrics["trace.spans"] = len(spans) // iterations
    metrics["trace.span_cost_s"] = metrics["trace.spans"] * span_cost_s()
    return metrics


def span_cost_s(calls: int = 20000) -> float:
    """Time one traced call of a no-op adds, the tracing cost per span."""
    traced = Tracer().wrap("noop", lambda: None)
    began = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - began) / calls


def host_environment() -> dict:
    cpuinfo = Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines()
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo
                if line.startswith("model name")), "unknown")
    meminfo = Path("/proc/meminfo").read_text(encoding="utf-8").splitlines()
    mem_kb = next(int(line.split()[1]) for line in meminfo if line.startswith("MemTotal"))
    return {"nproc": NPROC, "cpu_model": cpu, "ram_gb": round(mem_kb / 2**20, 2),
            "blas_threads_requested": NPROC}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken sizes, for selftest.py")
    args = parser.parse_args()
    if not (SRC / "dmduq" / "__init__.py").is_file():
        sys.stderr.write(f"no dmduq sources under {SRC}; run from a dmduq checkout\n")
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    deadline = time.perf_counter() + TIME_LIMIT_S
    p = params(args.workload, args.tiny)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-tiny" if args.tiny else "")
    rundir = OUT / "runs" / tag
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)

    run = run_cli_workload if p["kind"] == "cli" else run_lib_workload
    try:
        result = run(p, args.seed, args.seconds, bool(args.trace), rundir, deadline)
    except HarnessError as exc:
        sys.stderr.write(f"benchmark could not run: {exc}\n")
        return 1

    commands = list(result["times"])
    if args.trace:
        pattern = f"{args.workload}-s*-t0" + ("-tiny" if args.tiny else "") + ".json"
        walls = [json.loads(f.read_text(encoding="utf-8"))["metrics"]["wall_s"]["value"]
                 for f in sorted(results_dir.glob(pattern))]
        values = per_layer(result, commands, [w for w in walls if w is not None])
        wanted = [m["name"] for m in declared["per_layer"]]
    else:
        values = end_to_end(result)
        wanted = [m["name"] for m in declared["end_to_end"]]
    values.update({name: value for name, (value, _) in result["counts"].items()})
    sources = {name: source for name, (_, source) in result["counts"].items()}

    problems = {name: found for name, found in result["problems"].items() if found}
    attempted = result["attempted"]
    failed = attempted - sum(len(v) for v in result["times"].values())
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": unit_of(name)}
        if name in sources:
            metrics[name]["source"] = sources[name]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "iterations": result["iterations"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "check_stats": result.get("stats", {}),
        "environment": {**host_environment(), **result.get("environment", {})},
        "metrics": metrics,
    }
    summary = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name), "unit": unit_of(name)} for name in wanted},
    }
    saved = dict(report, spans=result.get("spans"))
    (results_dir / f"{tag}.json").write_text(json.dumps(saved), encoding="utf-8")
    print(json.dumps(report))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
