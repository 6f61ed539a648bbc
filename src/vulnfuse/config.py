"""Pipeline configuration: the JSON file's parsing and type checks.

Each stage section is the parameter object of the module that reads it
(`bm25.Bm25Params`, `dense.SegmentationParams`, `slora.SloraParams`,
`meta.MetaParams`), which holds the section's defaults and checks its ranges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from .bm25 import Bm25Params
from .dense import SegmentationParams
from .errors import ConfigError, InvalidParameter
from .meta import MetaParams
from .slora import SloraParams

DEFAULT_DETECTORS = ({"kind": "dense"}, {"kind": "bm25"}, {"kind": "slora"})


@dataclass(frozen=True)
class ExternalConfig:
    endpoint: Optional[str] = None
    timeout: float = 30.0
    auth_header: Optional[str] = None
    report_endpoint: Optional[str] = None

    def __post_init__(self):
        if not self.timeout > 0:
            raise InvalidParameter(f"timeout must be positive, got {self.timeout}")


@dataclass
class PipelineConfig:
    taxonomy_path: Optional[str] = None
    train_path: Optional[str] = None
    test_path: Optional[str] = None
    knowledge_path: Optional[str] = None
    prompt_template_path: Optional[str] = None
    seed: int = 0
    bm25: Bm25Params = field(default_factory=Bm25Params)
    dense: SegmentationParams = field(default_factory=SegmentationParams)
    slora: SloraParams = field(default_factory=SloraParams)
    meta: MetaParams = field(default_factory=MetaParams)
    external: ExternalConfig = field(default_factory=ExternalConfig)
    detectors: tuple = DEFAULT_DETECTORS

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidParameter(f"seed must be non-negative, got {self.seed}")


_SECTIONS = {"bm25": Bm25Params, "dense": SegmentationParams, "slora": SloraParams,
             "meta": MetaParams, "external": ExternalConfig}

# the file's path settings: the config field each sets, by key ("datasets.<split>"
# inside the datasets object)
_PATHS = {"taxonomy": "taxonomy_path", "knowledge": "knowledge_path",
          "prompt_template": "prompt_template_path", "datasets.train": "train_path",
          "datasets.test": "test_path"}

_TOP_KEYS = {"taxonomy", "datasets", "knowledge", "prompt_template", "seed",
             "detectors"} | set(_SECTIONS)

# the JSON values a section field accepts, by its annotation
_VALUE_CHECKS = {
    "int": lambda v: _is_type(v, int),
    "float": lambda v: _is_type(v, (int, float)),
    "Optional[int]": lambda v: v is None or _is_type(v, int),
    "Optional[str]": lambda v: v is None or isinstance(v, str),
    "tuple[str, ...]": lambda v: (isinstance(v, list)
                                  and all(isinstance(k, str) and k for k in v)),
}

# the keys a detector spec of each kind may set
_DETECTOR_KEYS = {
    "slora": {"kind"}, "bm25": {"kind"}, "dense": {"kind"}, "external": {"kind"},
    "mock": {"kind", "probabilities", "name", "delay", "fail"},
}


def _is_probability(value) -> bool:
    return _is_type(value, (int, float)) and 0.0 <= value <= 1.0


# the check each valued detector spec key must pass, by kind
_DETECTOR_VALUES = {
    "mock": {
        "probabilities": lambda v: (isinstance(v, list) and v != []
                                    and all(map(_is_probability, v))),
        "name": lambda v: isinstance(v, str) and v != "",
        "delay": lambda v: _is_type(v, (int, float)) and 0.0 <= v < math.inf,
        "fail": lambda v: isinstance(v, bool),
    },
}


def load_config(path) -> PipelineConfig:
    """Parse and validate a JSON config; unknown, ill-typed or out-of-range keys are fatal."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    bad = sorted(set(raw) - _TOP_KEYS)
    if bad:
        raise ConfigError(f"unknown config keys: {bad}", keys=bad)
    datasets = raw.get("datasets", {})
    if not isinstance(datasets, dict):
        raise ConfigError("'datasets' must be an object", keys=["datasets"])
    values = {"datasets." + key: value for key, value in datasets.items()}
    values.update((key, raw[key]) for key in ("taxonomy", "knowledge", "prompt_template")
                  if key in raw)
    offending = [key for key, value in values.items()
                 if key not in _PATHS or not _VALUE_CHECKS["Optional[str]"](value)]
    if "seed" in raw and not _is_type(raw["seed"], int):
        offending.append("seed")

    sections = {}
    for section, params in _SECTIONS.items():
        block = raw.get(section, {})
        if not isinstance(block, dict):
            offending.append(section)
            continue
        checks = {f.name: _VALUE_CHECKS[f.type] for f in fields(params)}
        offending += [f"{section}.{key}" for key, value in block.items()
                      if key not in checks or not checks[key](value)]
        # a list value is bm25.keywords, held as a tuple
        sections[section] = {key: tuple(value) if isinstance(value, list) else value
                             for key, value in block.items()}
    if offending:
        raise ConfigError(f"invalid config keys or values: {sorted(offending)}",
                          keys=offending)
    try:
        config = PipelineConfig(
            seed=raw.get("seed", 0), **{_PATHS[key]: value for key, value in values.items()},
            **{section: _SECTIONS[section](**block) for section, block in sections.items()})
    except InvalidParameter as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc

    if "detectors" in raw:
        detectors = raw["detectors"]
        if not isinstance(detectors, list) or not detectors:
            raise ConfigError("'detectors' must be a non-empty list", keys=["detectors"])
        for spec in detectors:
            kind = spec.get("kind") if isinstance(spec, dict) else None
            if kind not in _DETECTOR_KEYS:
                raise ConfigError(f"unknown detector kind {kind!r}", keys=["detectors"])
            bad = sorted(set(spec) - _DETECTOR_KEYS[kind])
            if bad:
                raise ConfigError(f"{kind} detector spec sets unknown keys {bad}",
                                  keys=["detectors"])
            checks = _DETECTOR_VALUES.get(kind, {})
            bad = sorted(key for key in spec if key in checks and not checks[key](spec[key]))
            if bad:
                raise ConfigError(f"{kind} detector spec sets invalid values for {bad}",
                                  keys=["detectors"])
        # results and timings key by name; a mock is named by its spec, others by kind
        names = [spec.get("name", "mock") if spec["kind"] == "mock" else spec["kind"]
                 for spec in detectors]
        if len(set(names)) != len(names):
            raise ConfigError(f"detector names must be unique, got {names}", keys=["detectors"])
        config.detectors = tuple(detectors)
    return config


def _is_type(value, types) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(value, types) and not isinstance(value, bool)

