"""Workload definitions and metric names shared by run.py and its workers.

Standard library only: run.py imports this without numpy or dmduq.
"""

from __future__ import annotations

import random
import time

NOISE_VARIANCE = 1e-6  # per state, as in the README workflow

# Sizes of the three workloads.  BENCHMARK.json gives the reason for each;
# README.md in this directory gives the layer predictions and exclusions.
WORKLOADS = {
    "cli-spring-m200": {
        "kind": "cli",
        "duration": 10.0,
        "dt": 0.05,
        "trials": 1000,
        "samples": 500,
    },
    "lib-spring-m4000": {
        "kind": "lib",
        "system": "spring",
        "duration": 200.0,
        "dt": 0.05,
        "commands": ["moments", "point_estimate"],
    },
    "lib-network-n34-m400": {
        "kind": "lib",
        "system": "network",
        "nodes": 17,
        "duration": 120.0,
        "dt": 0.01,
        "stride": 30,
        "trials": 200,
        "commands": ["moments", "mc", "mc_shared"],
    },
}

# The same workloads shrunk to a few seconds, for selftest.py.
TINY = {
    "cli-spring-m200": {"duration": 1.0, "trials": 200, "samples": 40},
    "lib-spring-m4000": {"duration": 2.0},
    "lib-network-n34-m400": {"nodes": 3, "duration": 12.0, "trials": 100},
}

CLI_COMMANDS = ["simulate", "moments", "mc", "compare", "spectrum"]

# Per-layer time metrics from the traced run: (metric, span names, command).
# A metric sums the spans with one of the names whose top-level span is the
# command given (any command, or the input set-up, when None).
LAYER_TIMES = (
    ("numerics.node_rule_s", ("numerics.gauss_laguerre_nodes",), None),
    ("pinv_moments.pinv_moments_s", ("pinv_moments.pinv_moments",), None),
    ("operator_moments.assemble_s", ("operator_moments.estimate_operator_moments",), None),
    ("operator_moments.point_estimate_s", ("operator_moments.dmd_point_estimate",), None),
    ("monte_carlo.run_mc_s", ("monte_carlo.run_mc",), "mc"),
    ("monte_carlo.run_mc_shared_s", ("monte_carlo.run_mc",), "mc_shared"),
    ("monte_carlo.sample_instances_s", ("monte_carlo.sample_operator_instances",), None),
    ("spectral.eigen_samples_s", ("spectral.eigen_samples",), None),
    ("spectral.eigen_moments_s", ("spectral.eigen_moments",), None),
    ("spectral.kde2d_s", ("spectral.kde2d",), None),
    ("metrics.compare_s", ("metrics.compare",), None),
    ("cli.dumps_json_s", ("cli.dumps_json",), None),
    ("cli.json_parse_s", ("cli._load_json",), None),
    ("data_model.load_csv_s", ("data_model.load_csv",), None),
    ("data_model.save_csv_s", ("data_model.save_csv",), None),
    ("data_model.build_snapshots_s", ("data_model.build_snapshots",), None),
    ("data_model.decimate_s", ("data_model.decimate_trajectory",), None),
    (
        "systems.simulate_s",
        ("systems.simulate_spring_mass", "systems.simulate_oscillator_network"),
        None,
    ),
)

# The public dmduq functions the traced run wraps, as "<module>.<function>";
# ``cli._load_json`` is the CLI's JSON parse.
LAYER_FUNCTIONS = sorted({name for _, names, _ in LAYER_TIMES for name in names})


def params(workload: str, tiny: bool = False) -> dict:
    out = dict(WORKLOADS[workload])
    if tiny:
        out.update(TINY[workload])
    return out


def another_round(done: int, start: float, last: float, seconds: float, deadline: float) -> bool:
    """Repeat until `seconds` have passed, unless a repeat like the last would miss the deadline."""
    now = time.perf_counter()
    return done == 0 or (now - start < seconds and now + (now - last) < deadline)


def spring_x0(seed: int) -> tuple[float, float]:
    """The README initial state (0.03, 0.01), moved by up to 1e-3 per component."""
    rng = random.Random(seed)
    return 0.03 + 1e-3 * rng.uniform(-1.0, 1.0), 0.01 + 1e-3 * rng.uniform(-1.0, 1.0)


def sample_elements(seed: int, rows: int, cols: int, count: int) -> list[tuple[int, int]]:
    """A seeded sample of distinct (row, col) positions of a rows x cols table."""
    picks = random.Random(seed).sample(range(rows * cols), min(count, rows * cols))
    return [divmod(p, cols) for p in picks]
