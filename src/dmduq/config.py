"""Pipeline configuration: one JSON object shared by all CLI commands.

The JSON schema is the dataclass fields.  Unknown keys are rejected so typos
fail loudly instead of silently falling back to defaults, and every value
must have the JSON type of its field's default: integer fields take JSON
integers, float fields finite JSON numbers, bool fields ``true``/``false`` and
string fields strings; ``kde.bandwidth`` takes a number or ``"auto"``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

from .errors import ConfigError
from .monte_carlo import McConfig
from .operator_moments import CORRECTED, VARIANCE_MODES
from .pinv_moments import QuadratureConfig


@dataclass(frozen=True)
class KdeConfig:
    bandwidth: float | None = None  # None means automatic (Silverman)
    grid_points: int = 256

    def __post_init__(self):
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ConfigError(f"kde bandwidth must be positive, got {self.bandwidth}")
        if self.grid_points < 2:
            raise ConfigError(f"kde grid_points must be >= 2, got {self.grid_points}")


@dataclass(frozen=True)
class PipelineConfig:
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    variance_mode: str = CORRECTED
    mc: McConfig = field(default_factory=McConfig)
    ridge: float = 0.0
    kde: KdeConfig = field(default_factory=KdeConfig)
    decimate_stride: int = 900
    output_precision: int = 17

    def __post_init__(self):
        if self.variance_mode not in VARIANCE_MODES:
            raise ConfigError(f"unknown variance_mode {self.variance_mode!r}")
        if self.ridge < 0:
            raise ConfigError(f"ridge must be >= 0, got {self.ridge}")
        if self.decimate_stride < 1:
            raise ConfigError(f"decimate_stride must be >= 1, got {self.decimate_stride}")
        if not 1 <= self.output_precision <= 17:
            raise ConfigError("output_precision must be in [1, 17]")

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.kde.bandwidth is None:
            out["kde"]["bandwidth"] = "auto"
        return out


def _value(default, value, where: str):
    """``value`` checked against the JSON type of a field's ``default``."""
    if is_dataclass(default):
        return _section(type(default), value, where, where + ".")
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    elif isinstance(default, int):
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif default is None and value == "auto":  # kde.bandwidth
        return None
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok, kind = ok and abs(value) <= sys.float_info.max, "a finite number"
        value = float(value) if ok else value
    if not ok:
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    return value


def _section(cls, data, where: str, prefix: str = ""):
    """Build dataclass ``cls`` from a JSON object, field by field."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    specs = {spec.name: spec for spec in fields(cls)}
    unknown = set(data) - set(specs)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    values = {}
    for name, value in data.items():
        spec = specs[name]
        default = spec.default_factory() if spec.default is MISSING else spec.default
        values[name] = _value(default, value, prefix + name)
    return cls(**values)


def config_from_dict(data: dict) -> PipelineConfig:
    """The config a parsed JSON object describes; ConfigError names any bad key or value."""
    return _section(PipelineConfig, data, "config")


def load_config(path) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)
