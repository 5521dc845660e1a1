"""In-memory spans recorded around calls into dmduq, from outside the package.

A span is ``{"name", "start", "end", "parent"}`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans written by a child
process line up with the parent's) and ``parent`` the index of the enclosing
span or ``None``.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans recorded elsewhere (a child process) under ``parent``."""
        offset = len(self.spans)
        for record in spans:
            own = record["parent"]
            self.spans.append(dict(record, parent=parent if own is None else own + offset))

    def wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def install(self, functions) -> None:
        """Route every dmduq reference to each "<module>.<function>" given through a span."""
        importlib.import_module("dmduq.cli")
        modules = [m for k, m in sys.modules.items() if k == "dmduq" or k.startswith("dmduq.")]
        for qualified in functions:
            module_name, attr = qualified.rsplit(".", 1)
            original = getattr(importlib.import_module("dmduq." + module_name), attr)
            traced = self.wrap(qualified, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append((record["start"], record["end"]))
    out = []
    for index, record in enumerate(spans):
        covered, reach = 0.0, record["start"]
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, reach), min(end, record["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(record["end"] - record["start"] - covered)
    return out


def root_of(spans: list[dict], index: int) -> int:
    """Index of the top-level span that encloses span ``index``."""
    while spans[index]["parent"] is not None:
        index = spans[index]["parent"]
    return index
