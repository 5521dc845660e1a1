"""Self-test of the benchmark at tiny sizes; takes about a minute.

    python3 perfbench/selftest.py

Runs every workload shrunk (run.py --tiny), untraced and traced, and asserts
that the summary line names exactly the metrics BENCHMARK.json lists, each
with its unit, and that every metric in the report has a unit.  Then feeds
the output checks deliberately perturbed moment tables and asserts they are
rejected, and runs the benchmark without the dmduq sources to assert that it
fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import dmduq as dq  # noqa: E402
import worker  # noqa: E402
from workloads import params  # noqa: E402

SEED = 3


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def check_metrics_emitted(declared: dict) -> None:
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in declared[key]}
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            *_, report_line, summary_line = proc.stdout.strip().splitlines()
            summary, report = json.loads(summary_line), json.loads(report_line)
            assert set(summary) == {"correct", "attempted", "failed", "metrics"}
            assert summary["correct"], report["problems"]
            assert summary["attempted"] >= 1 and summary["failed"] == 0
            names = [m["name"] for m in declared[key]]
            assert list(summary["metrics"]) == names, (workload, trace)
            for name, metric in summary["metrics"].items():
                assert set(metric) == {"value", "unit"} and metric["unit"] == units[name]
                assert isinstance(metric["value"], (int, float)), (workload, name)
            for name, metric in report["metrics"].items():
                assert metric["unit"] and metric["value"] is not None, (workload, name)
            print(f"ok  {workload} trace={trace}: {len(report['metrics'])} metrics")


def check_perturbed_tables_fail() -> None:
    traj = dq.simulate_spring_mass(dq.SpringMassParams(duration=1.0, dt=0.05))
    snaps = dq.build_snapshots(traj)
    noise = worker.noise_for(2)
    pinv = dq.pinv_moments(snaps, noise)
    assert worker.check_pinv(pinv, snaps, noise, SEED, {}) == []
    nudged = SimpleNamespace(first=pinv.first * (1 + 1e-5), second_raw=pinv.second_raw)
    assert worker.check_pinv(nudged, snaps, noise, SEED, {})
    print("ok  a moment table off by 1e-5 relative fails the adaptive spot check")

    # One element of moments.json off in its last digits fails the CLI check.
    rundir = HERE / "out" / "runs" / f"cli-spring-m200-s{SEED}-t0-tiny"
    path = rundir / "moments.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["pinv_first"][0][0] *= 1 + 1e-12
    path.write_text(json.dumps(data), encoding="utf-8")
    request = {"rundir": str(rundir), "params": params("cli-spring-m200", tiny=True),
               "seed": SEED, "ran": ["simulate", "moments"], "trace": False}
    found = worker.run_check(request)["problems"]["moments"]
    assert any("pinv_first" in problem for problem in found), found
    print("ok  a perturbed moments.json fails the library-equality check")


def check_fails_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "lib-spring-m4000", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == "", proc
    print(f"ok  without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics_emitted(declared)
    check_perturbed_tables_fail()
    check_fails_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
