import json
import re
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import pytest

from dmduq.cli import dumps_json
from dmduq.config import KdeConfig, PipelineConfig, config_from_dict, load_config
from dmduq.errors import ConfigError
from dmduq.monte_carlo import SHARED_TRAJECTORY, McConfig
from dmduq.operator_moments import PAPER_LITERAL
from dmduq.pinv_moments import ADAPTIVE_TRUNCATED, QuadratureConfig

README = Path(__file__).resolve().parent.parent / "README.md"

NON_DEFAULT = PipelineConfig(
    quadrature=QuadratureConfig(
        method=ADAPTIVE_TRUNCATED, node_count=32, p2_max=50.0, rel_tol=1e-6, cross_check=True
    ),
    variance_mode=PAPER_LITERAL,
    mc=McConfig(
        trials=10, master_seed=7, sampling_mode=SHARED_TRAJECTORY, compute_eigenvalues=False
    ),
    ridge=1e-3,
    kde=KdeConfig(bandwidth=0.25, grid_points=16),
    decimate_stride=3,
    output_precision=12,
)


@pytest.mark.parametrize("config", [PipelineConfig(), NON_DEFAULT])
def test_round_trip(config):
    assert config_from_dict(config.to_dict()) == config
    assert config_from_dict(json.loads(json.dumps(config.to_dict()))) == config


@pytest.mark.parametrize(
    "data",
    [
        {"bogus": 1},
        {"quadrature": {"nodes": 8}},
        {"mc": {"seed": 1}},
        {"kde": {"width": 0.1}},
    ],
)
def test_unknown_key_rejected(data):
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "data, where",
    [
        ({"ridge": "abc"}, "ridge"),
        ({"ridge": True}, "ridge"),
        ({"quadrature": None}, "quadrature"),
        ({"quadrature": {"node_count": 8.0}}, "quadrature.node_count"),
        ({"quadrature": {"cross_check": 1}}, "quadrature.cross_check"),
        ({"quadrature": {"method": 1}}, "quadrature.method"),
        ({"mc": {"trials": 2.5}}, "mc.trials"),
        ({"mc": {"trials": True}}, "mc.trials"),
        ({"mc": {"master_seed": 1.5}}, "mc.master_seed"),
        ({"mc": {"compute_eigenvalues": "no"}}, "mc.compute_eigenvalues"),
        ({"mc": []}, "mc"),
        ({"kde": {"grid_points": "many"}}, "kde.grid_points"),
        ({"kde": {"bandwidth": "wide"}}, "kde.bandwidth"),
        ({"kde": {"bandwidth": None}}, "kde.bandwidth"),
        ({"decimate_stride": 2.5}, "decimate_stride"),
        ({"output_precision": "17"}, "output_precision"),
        ({"variance_mode": None}, "variance_mode"),
        ({"kde": {"bandwidth": 0}}, "kde bandwidth"),
        ({"kde": {"bandwidth": -0.1}}, "kde bandwidth"),
        ({"kde": {"grid_points": 1}}, "kde grid_points"),
        ({"variance_mode": "literal"}, "variance_mode"),
        ({"ridge": -1e-3}, "ridge"),
        ({"decimate_stride": 0}, "decimate_stride"),
        ({"output_precision": 0}, "output_precision"),
        ({"output_precision": 18}, "output_precision"),
    ],
)
def test_malformed_value_names_field(data, where):
    with pytest.raises(ConfigError, match=re.escape(where)):
        config_from_dict(data)


def float_fields(cls, prefix=""):
    """Dotted paths of every float field of config dataclass ``cls``, sections included."""
    for spec in fields(cls):
        default = spec.default_factory() if spec.default is MISSING else spec.default
        if is_dataclass(default):
            yield from float_fields(type(default), f"{prefix}{spec.name}.")
        elif spec.type.startswith("float"):
            yield prefix + spec.name


FLOAT_FIELDS = list(float_fields(PipelineConfig))


def test_float_fields_listed():
    assert FLOAT_FIELDS == ["quadrature.p2_max", "quadrature.rel_tol", "ridge", "kde.bandwidth"]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("where", FLOAT_FIELDS)
def test_non_finite_float_names_field(tmp_path, where, literal):
    # json.load parses NaN and +-Infinity literals; 1e400 overflows to inf.
    section, _, name = where.rpartition(".")
    text = f'{{"{name}": {literal}}}'
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"{section}": {text}}}' if section else text, encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"{where} must be a finite number")):
        load_config(path)


def test_huge_integer_for_float_field_rejected():
    with pytest.raises(ConfigError, match="ridge must be a finite number"):
        config_from_dict({"ridge": 10**400})


@pytest.mark.parametrize("data", [[], "config", None, 3])
def test_non_object_root_rejected(data):
    with pytest.raises(ConfigError):
        config_from_dict(data)


@pytest.mark.parametrize("content", [b"{", b"\xd0\xff"])
def test_invalid_json_file(tmp_path, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError):
        load_config(path)


def test_integers_accepted_for_float_fields():
    config = config_from_dict({"ridge": 0, "kde": {"bandwidth": 1}})
    assert config.ridge == 0.0 and isinstance(config.ridge, float)
    assert config.kde.bandwidth == 1.0 and isinstance(config.kde.bandwidth, float)
    assert dumps_json(config.to_dict()) == (
        '{"quadrature":{"method":"gauss_laguerre","node_count":64,"p2_max":400,'
        '"rel_tol":1e-08,"cross_check":false},"variance_mode":"corrected",'
        '"mc":{"trials":1000,"master_seed":0,"sampling_mode":"independent",'
        '"compute_eigenvalues":true},"ridge":0,"kde":{"bandwidth":1,"grid_points":256},'
        '"decimate_stride":900,"output_precision":17}\n'
    )


def test_auto_bandwidth():
    assert config_from_dict({"kde": {"bandwidth": "auto"}}).kde.bandwidth is None
    assert PipelineConfig().to_dict()["kde"]["bandwidth"] == "auto"


def test_defaults_match_readme():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Config file") :]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert PipelineConfig().to_dict() == json.loads(block)
