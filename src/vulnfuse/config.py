"""Pipeline configuration: JSON schema, defaults, and validation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from . import bm25 as bm25_mod
from . import meta as meta_mod
from . import slora as slora_mod
from .bm25 import DEFAULT_B, DEFAULT_K1, DEFAULT_KEYWORDS, DEFAULT_TOP_K, DEFAULT_VOTE_THRESHOLD
from .dense import (DEFAULT_CHI, DEFAULT_EMBED_DIM, DEFAULT_MIN_LEN, DEFAULT_OVERLAP,
                    DEFAULT_WINDOW, HashingEmbedder, SegmentationParams)
from .errors import ConfigError, InvalidParameter
from .meta import DEFAULT_HIDDEN1, DEFAULT_HIDDEN2, DEFAULT_THRESHOLD

DEFAULT_DETECTORS = ({"kind": "dense"}, {"kind": "bm25"}, {"kind": "slora"})


@dataclass
class Bm25Config:
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    top_k: int = DEFAULT_TOP_K
    vote_threshold: int = DEFAULT_VOTE_THRESHOLD
    keywords: tuple = DEFAULT_KEYWORDS


@dataclass
class DenseConfig:
    window: int = DEFAULT_WINDOW
    overlap: int = DEFAULT_OVERLAP
    min_len: int = DEFAULT_MIN_LEN
    chi: int = DEFAULT_CHI
    embed_dim: int = DEFAULT_EMBED_DIM


@dataclass
class SloraConfig:
    feature_dim: int = 64
    rank: int = 8
    alpha: float = 0.9
    learning_rate: float = 5e-5
    batch_size: int = 8
    epochs: int = 5
    patience: Optional[int] = None


@dataclass
class MetaConfig:
    hidden1: int = DEFAULT_HIDDEN1
    hidden2: int = DEFAULT_HIDDEN2
    threshold: float = DEFAULT_THRESHOLD
    learning_rate: float = 0.1
    batch_size: int = 32
    epochs: int = 300


@dataclass
class ExternalConfig:
    endpoint: Optional[str] = None
    timeout: float = 30.0
    auth_header: Optional[str] = None
    report_endpoint: Optional[str] = None


@dataclass
class PipelineConfig:
    taxonomy_path: Optional[str] = None
    train_path: Optional[str] = None
    test_path: Optional[str] = None
    knowledge_path: Optional[str] = None
    prompt_template_path: Optional[str] = None
    seed: int = 0
    bm25: Bm25Config = field(default_factory=Bm25Config)
    dense: DenseConfig = field(default_factory=DenseConfig)
    slora: SloraConfig = field(default_factory=SloraConfig)
    meta: MetaConfig = field(default_factory=MetaConfig)
    external: ExternalConfig = field(default_factory=ExternalConfig)
    detectors: tuple = DEFAULT_DETECTORS


_SECTIONS = ("bm25", "dense", "slora", "meta", "external")

_TOP_KEYS = {"taxonomy", "datasets", "knowledge", "prompt_template", "seed",
             "detectors"} | set(_SECTIONS)

# JSON value types accepted for the numeric fields, by field annotation
_NUMERIC_TYPES = {"int": int, "float": (int, float), "Optional[int]": (int, type(None))}

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
    """Parse and validate a JSON config; unknown or ill-typed keys are fatal."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    bad = sorted(set(raw) - _TOP_KEYS)
    if bad:
        raise ConfigError(f"unknown config keys: {bad}", keys=bad)

    config = PipelineConfig()
    config.taxonomy_path = raw.get("taxonomy")
    datasets = raw.get("datasets", {})
    if not isinstance(datasets, dict):
        raise ConfigError("'datasets' must be an object", keys=["datasets"])
    config.train_path = datasets.get("train")
    config.test_path = datasets.get("test")
    config.knowledge_path = raw.get("knowledge")
    config.prompt_template_path = raw.get("prompt_template")
    config.seed = raw.get("seed", 0)
    if not _is_type(config.seed, int):
        raise ConfigError("'seed' must be an integer", keys=["seed"])

    offending = []
    for section in _SECTIONS:
        block = raw.get(section, {})
        if not isinstance(block, dict):
            offending.append(section)
            continue
        target = getattr(config, section)
        annotations = {f.name: f.type for f in fields(target)}
        for key, value in block.items():
            numeric = _NUMERIC_TYPES.get(annotations.get(key))
            if (key not in annotations or (numeric and not _is_type(value, numeric))
                    or (key == "keywords" and not _is_keyword_list(value))):
                offending.append(f"{section}.{key}")
                continue
            if key == "keywords":
                value = tuple(value)
            setattr(target, key, value)
    if offending:
        raise ConfigError(f"invalid config keys or values: {sorted(offending)}",
                          keys=offending)
    _check_ranges(config)

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


def _is_keyword_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(k, str) and k for k in value)


def _check_ranges(config: PipelineConfig) -> None:
    """Run the stage parameter validators at load, and in the CLI after its override flags."""
    bm25, dense, slora, meta = config.bm25, config.dense, config.slora, config.meta
    bad = [key for key, ok in (("seed", config.seed >= 0),
                               ("bm25.vote_threshold", bm25.vote_threshold >= 1),
                               ("external.timeout", config.external.timeout > 0)) if not ok]
    if bad:
        raise ConfigError(f"config values out of range: {bad}", keys=bad)
    try:
        bm25_mod.check_params(bm25.k1, bm25.b, bm25.top_k)
        SegmentationParams(dense.window, dense.overlap, dense.min_len, dense.chi)
        HashingEmbedder(dense.embed_dim)
        slora_mod.HashedFeatureExtractor(slora.feature_dim)
        slora_mod.check_adapter_params(slora.feature_dim, slora.rank, slora.alpha)
        meta_mod.check_params(meta.hidden1, meta.hidden2, meta.threshold)
        for section in (slora, meta):
            slora_mod.TrainConfig(section.learning_rate, section.batch_size, section.epochs)
    except InvalidParameter as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
