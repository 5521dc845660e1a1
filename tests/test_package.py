"""The package root re-exports what the documented library workflow uses."""

import importlib
import importlib.util
import re
from pathlib import Path

import dmduq

ROOT = Path(__file__).resolve().parents[1]


def readme_library_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_names_are_exported():
    used = set(re.findall(r"\bdq\.(\w+)", readme_library_block()))
    assert used
    assert used <= set(dmduq.__all__), sorted(used - set(dmduq.__all__))


def test_benchmark_names_are_exported():
    used = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= set(re.findall(r"\bdq\.(\w+)", path.read_text(encoding="utf-8")))
    assert used <= set(dmduq.__all__), sorted(used - set(dmduq.__all__))


def test_benchmark_traced_names_resolve():
    # perfbench's tracer wraps each "<module>.<function>" with getattr; one missing
    # name breaks every traced benchmark run.
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.LAYER_FUNCTIONS
    names = [name.split(".") for name in workloads.LAYER_FUNCTIONS]
    missing = [(module, function) for module, function in names
               if not hasattr(importlib.import_module(f"dmduq.{module}"), function)]
    assert not missing, missing


def test_all_names_resolve():
    assert len(dmduq.__all__) == len(set(dmduq.__all__))
    missing = [name for name in dmduq.__all__ if not hasattr(dmduq, name)]
    assert not missing, missing


def test_array_dataclasses_compare_by_identity():
    # A generated __eq__ compares array fields with ==, whose truth value raises.
    import dataclasses
    import inspect

    import numpy as np

    from dmduq.data_model import NoiseModel, RawTrajectory, build_snapshots
    from dmduq.operator_moments import CORRECTED, OperatorMoments
    from dmduq.pinv_moments import PinvMoments

    holders = [
        cls
        for module in (getattr(dmduq, name) for name in dir(dmduq))
        if inspect.ismodule(module) and module.__name__.startswith("dmduq.")
        for cls in vars(module).values()
        if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
        and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))
    ]
    assert len(holders) >= 10
    assert [cls.__name__ for cls in holders if cls.__eq__ is not object.__eq__] == []

    trajectory = RawTrajectory(times=np.arange(4.0), samples=np.arange(8.0).reshape(2, 4))
    pinv = PinvMoments(np.eye(2), np.eye(2))
    pairs = [
        (NoiseModel(np.array([1.0, 2.0])), NoiseModel(np.array([1.0, 2.0]))),
        (trajectory, RawTrajectory(times=trajectory.times, samples=trajectory.samples)),
        (build_snapshots(trajectory), build_snapshots(trajectory)),
        (OperatorMoments(pinv, np.eye(2), np.ones(2), CORRECTED),
         OperatorMoments(pinv, np.eye(2), np.ones(2), CORRECTED)),
    ]
    for a, b in pairs:
        assert (a == b) is False
        assert (a == a) is True
        assert (a != b) is True
