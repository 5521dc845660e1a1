"""The package root re-exports what the documented library workflow uses."""

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


def test_all_names_resolve():
    assert len(dmduq.__all__) == len(set(dmduq.__all__))
    missing = [name for name in dmduq.__all__ if not hasattr(dmduq, name)]
    assert not missing, missing
