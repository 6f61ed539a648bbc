import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import vulnfuse
from vulnfuse import pipeline
from vulnfuse.bm25 import Bm25Params
from vulnfuse.cli import (
    EXIT_ALL_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_STAGE,
    _OVERRIDES,
    _config_with_overrides,
    build_parser,
    main,
)
from vulnfuse.config import ExternalConfig, PipelineConfig, load_config
from vulnfuse.corpus import decode_strings
from vulnfuse.dense import SegmentationParams
from vulnfuse.errors import ConfigError, InvalidParameter
from vulnfuse.meta import MetaParams
from vulnfuse.slora import SloraParams
from vulnfuse.synth import generate_corpus, write_corpus


class TestDefaults:
    def test_parameter_defaults(self):
        config = PipelineConfig()
        assert config.slora.learning_rate == 5e-5
        assert config.slora.batch_size == 8
        assert config.slora.epochs == 5
        assert config.slora.rank == 8
        assert config.bm25.top_k == 7
        assert config.dense.chi == 5
        assert config.bm25.vote_threshold == 4
        assert config.bm25.k1 == 1.5
        assert config.bm25.b == 0.9

    def test_detector_lineup_default(self):
        config = PipelineConfig()
        assert [d["kind"] for d in config.detectors] == ["dense", "bm25", "slora"]

    def test_segmentation_defaults(self):
        config = PipelineConfig()
        assert (config.dense.window, config.dense.overlap, config.dense.min_len) \
            == (1500, 300, 100)

    def test_meta_defaults(self):
        config = PipelineConfig()
        assert (config.meta.hidden1, config.meta.hidden2) == (16, 8)
        assert config.meta.threshold == 0.5


# each loads as JSON but carries a value no stage can run with
BAD_VALUES = [
    {"bm25": {"k1": "x"}},
    {"dense": {"overlap": 2000}},
    {"slora": {"epochs": 0}},
    {"slora": {"patience": 1.5}},
    {"meta": {"epochs": True}},
    {"meta": {"lam": 1.0}},   # removed key
    {"seed": "7"},
    {"bm25": {"keywords": "call"}},   # a string, not a list of strings
    {"bm25": {"keywords": [1]}},
    {"bm25": {"keywords": [""]}},
    {"bm25": {"keywords": ["call", None]}},
    # a detector spec sets only the keys its kind reads
    {"detectors": [{"kind": "bm25", "top_k": 3}]},
    {"detectors": [{"kind": "dense", "index_pth": "x"}]},
    {"detectors": [{"kind": "bm25", "index_path": "x"}]},   # removed key
    {"detectors": [{"kind": "slora", "checkpoint_path": "x"}]},   # removed key
    {"detectors": [{"kind": "external", "endpoint": "http://x/"}]},   # removed key
    {"detectors": [{"kind": "mock", "delays": 1.0}]},
    # a mock spec's values have the types MockDetector runs with
    {"detectors": [{"kind": "mock", "delay": "1"}]},
    {"detectors": [{"kind": "mock", "delay": -0.5}]},
    {"detectors": [{"kind": "mock", "delay": True}]},
    {"detectors": [{"kind": "mock", "probabilities": "abcde"}]},
    {"detectors": [{"kind": "mock", "probabilities": []}]},
    {"detectors": [{"kind": "mock", "probabilities": [0.5, 1.5]}]},
    {"detectors": [{"kind": "mock", "probabilities": [0.5, True]}]},
    {"detectors": [{"kind": "mock", "name": 3}]},
    {"detectors": [{"kind": "mock", "name": ""}]},
    {"detectors": [{"kind": "mock", "fail": "no"}]},
    {"detectors": [{"kind": "mock", "fail": 0}]},
    # results and timings key by detector name; a mock's default name is "mock"
    {"detectors": [{"kind": "mock", "probabilities": [0.1]}, {"kind": "mock"}]},
    # values in range for their type but not for the stage that reads them
    {"slora": {"rank": 64, "feature_dim": 32}},
    {"slora": {"rank": 0}},
    {"slora": {"feature_dim": 0}},
    {"slora": {"alpha": 2.0}},
    {"bm25": {"top_k": 0}},
    {"bm25": {"k1": -1}},
    {"bm25": {"b": 2.0}},
    {"dense": {"embed_dim": 0}},
    {"meta": {"hidden1": 0}},
    {"meta": {"hidden2": 0}},
    {"meta": {"threshold": 2.0}},
    {"seed": -5},
    {"bm25": {"vote_threshold": 0}},
    {"bm25": {"vote_threshold": -3}},
    {"external": {"timeout": 0}},
    {"external": {"timeout": -1.5}},
    {"slora": {"patience": 0}},
    {"slora": {"patience": -3}},
    {"meta": {"batch_size": 0}},
    {"meta": {"learning_rate": math.nan}},   # JSON NaN, which json.loads accepts
    # every path and endpoint setting is a string
    {"taxonomy": 5},
    {"knowledge": ["k.json"]},
    {"prompt_template": True},
    {"datasets": {"train": 5}},
    {"datasets": {"test": {"path": "t.jsonl"}}},
    {"datasets": {"tets": "t.jsonl"}},   # unknown split
    {"external": {"endpoint": 5}},
    {"external": {"auth_header": 1.0}},
    {"external": {"report_endpoint": False}},
]


# each section class with one out-of-range value; all must raise on construction
OUT_OF_RANGE = [
    (Bm25Params, {"k1": -0.1}), (Bm25Params, {"k1": math.nan}), (Bm25Params, {"b": 1.5}),
    (Bm25Params, {"b": -0.1}), (Bm25Params, {"top_k": 0}), (Bm25Params, {"vote_threshold": 0}),
    (SegmentationParams, {"overlap": 1500}), (SegmentationParams, {"overlap": -1}),
    (SegmentationParams, {"window": 0, "overlap": 0}), (SegmentationParams, {"min_len": 0}),
    (SegmentationParams, {"chi": 0}), (SegmentationParams, {"embed_dim": 0}),
    (SloraParams, {"feature_dim": 0}), (SloraParams, {"rank": 0}), (SloraParams, {"rank": 65}),
    (SloraParams, {"alpha": -0.1}), (SloraParams, {"alpha": 1.5}),
    (SloraParams, {"learning_rate": -1e-9}), (SloraParams, {"learning_rate": math.nan}),
    (SloraParams, {"batch_size": 0}), (SloraParams, {"epochs": 0}),
    (SloraParams, {"patience": 0}), (SloraParams, {"patience": -3}),
    (MetaParams, {"hidden1": 0}), (MetaParams, {"hidden2": 0}), (MetaParams, {"threshold": -0.1}),
    (MetaParams, {"threshold": 1.5}), (MetaParams, {"learning_rate": -0.1}),
    (MetaParams, {"batch_size": 0}), (MetaParams, {"epochs": 0}),
    (ExternalConfig, {"timeout": 0}), (ExternalConfig, {"timeout": -1.5}),
    (ExternalConfig, {"timeout": math.nan}), (PipelineConfig, {"seed": -1}),
]


class TestSections:
    @pytest.mark.parametrize("section,values", OUT_OF_RANGE,
                             ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
    def test_rejects_out_of_range_value(self, section, values):
        with pytest.raises(InvalidParameter):
            section(**values)

    @pytest.mark.parametrize("section", [Bm25Params, SegmentationParams, SloraParams,
                                         MetaParams, ExternalConfig])
    def test_sections_are_frozen(self, section):
        with pytest.raises(AttributeError):
            setattr(section(), fields(section)[0].name, 1)

    def test_override_flags_name_section_fields(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{}")
        for command, flags in _OVERRIDES.items():
            for flag, (target, kind, _) in flags.items():
                section, _, name = target.partition(".")
                assert name in {f.name for f in fields(getattr(PipelineConfig(), section))}, flag
                value = {int: "3", float: "0.5", str: "http://x/"}[kind]
                config = _config_with_overrides(build_parser().parse_args(
                    [command, "--config", str(path), flag, value]))
                assert getattr(getattr(config, section), name) == kind(value), (command, flag)


class TestLoadConfig:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "seed": 7,
            "taxonomy": "corpus/taxonomy.json",
            "datasets": {"train": "corpus/train.jsonl", "test": "corpus/test.jsonl"},
            "bm25": {"k1": 1.5, "b": 0.9, "top_k": 7, "vote_threshold": 4},
            "dense": {"window": 1500, "overlap": 300, "min_len": 100, "chi": 5},
            "slora": {"feature_dim": 64, "rank": 8, "alpha": 0.9,
                      "learning_rate": 5e-5, "batch_size": 8, "epochs": 5},
            "meta": {"hidden1": 16, "hidden2": 8, "threshold": 0.5},
            "detectors": [{"kind": "dense"}, {"kind": "bm25"}, {"kind": "slora"}],
        }))
        config = load_config(path)
        assert config.seed == 7
        assert config.train_path.endswith("train.jsonl")

    def test_unknown_top_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"unknown_knob": 1}))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "unknown_knob" in err.value.keys

    def test_unknown_section_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bm25": {"kk1": 2.0}}))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "bm25.kk1" in err.value.keys

    def test_bad_detector_kind(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"detectors": [{"kind": "quantum"}]}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_overrides_applied(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bm25": {"top_k": 3}, "seed": 99}))
        config = load_config(path)
        assert config.bm25.top_k == 3
        assert config.seed == 99
        assert config.bm25.k1 == 1.5  # untouched default

    def test_not_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("not json at all")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("payload", BAD_VALUES)
    def test_bad_value_rejected_at_load(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_detector_spec_keys_accepted(self, tmp_path):
        mock = {"kind": "mock", "probabilities": [0.5] * 5, "name": "m", "delay": 0.0,
                "fail": False}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"detectors": [{"kind": "bm25"}, {"kind": "external"}, mock]}))
        assert load_config(path).detectors[2] == mock

    def test_range_edges_accepted(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "bm25": {"k1": 0, "b": 1.0, "top_k": 1},
            "slora": {"feature_dim": 4, "rank": 4, "alpha": 0.0},
            "meta": {"hidden1": 1, "hidden2": 1, "threshold": 1.0},
            "dense": {"embed_dim": 1},
            "detectors": [{"kind": "mock", "probabilities": [0, 1], "delay": 0, "fail": True}],
        }))
        config = load_config(path)
        assert (config.slora.rank, config.meta.threshold) == (4, 1.0)

    def test_integral_float_field_accepts_int(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bm25": {"k1": 2}, "slora": {"patience": None}}))
        assert load_config(path).bm25.k1 == 2


class TestOverrides:
    @pytest.fixture
    def config_path(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{}")
        return str(path)

    def _config(self, *argv):
        return _config_with_overrides(build_parser().parse_args(list(argv)))

    def test_fields_set(self, config_path):
        config = self._config("detect", "--config", config_path, "--seed", "5", "--k", "3",
                              "--vote-threshold", "2", "--endpoint", "http://x/")
        assert (config.seed, config.bm25.top_k, config.bm25.vote_threshold) == (5, 3, 2)
        assert config.external.endpoint == "http://x/"
        assert config.external.report_endpoint is None
        meta = self._config("train-meta", "--config", config_path, "--threshold", "0.7")
        assert meta.meta.threshold == 0.7

    def test_detect_rejects_threshold(self, config_path, capsys):
        # detect reads the threshold that train-meta wrote into meta_ckpt.npz
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--config", config_path, "--threshold", "0.9"])
        assert exc.value.code == EXIT_CONFIG
        assert "--threshold" in capsys.readouterr().err

    def test_command_picks_field(self, config_path):
        meta = self._config("train-meta", "--config", config_path, "--epochs", "9")
        slora = self._config("train-slora", "--config", config_path, "--epochs", "9",
                             "--alpha", "0.5", "--rank", "2")
        report = self._config("report", "--config", config_path, "--endpoint", "http://r/")
        assert (meta.meta.epochs, meta.slora.epochs) == (9, PipelineConfig().slora.epochs)
        assert (slora.slora.epochs, slora.slora.alpha, slora.slora.rank) == (9, 0.5, 2)
        assert report.external.report_endpoint == "http://r/"
        assert report.external.endpoint is None

    def test_unset_flags_keep_file_values(self, config_path):
        config = self._config("build-index", "--config", config_path, "--k1", "2.0")
        assert config.bm25.k1 == 2.0
        assert config.bm25.b == PipelineConfig().bm25.b
        assert config.seed == 0


class TestSynth:
    def test_deterministic_records(self):
        assert generate_corpus(20, 7) == generate_corpus(20, 7)

    def test_different_seeds_differ(self):
        assert generate_corpus(20, 7) != generate_corpus(20, 8)

    def test_write_corpus_byte_identical(self, tmp_path):
        a = write_corpus(tmp_path / "a", 30, 7)
        b = write_corpus(tmp_path / "b", 30, 7)
        for key in ("taxonomy", "train", "test"):
            assert Path(a[key]).read_bytes() == Path(b[key]).read_bytes()

    def test_split_sizes(self, tmp_path):
        paths = write_corpus(tmp_path / "c", 100, 3, test_fraction=0.3)
        n_train = len(Path(paths["train"]).read_text().splitlines())
        n_test = len(Path(paths["test"]).read_text().splitlines())
        assert n_train == 70 and n_test == 30

    def test_labels_match_planted_patterns(self):
        records = generate_corpus(50, 5)
        marker = {
            0: "msg.sender.call{value: amount}",
            1: "uint8(rewards[msg.sender] + units * 16)",
            2: "target.send(amount)",
            3: "block.timestamp % 7",
            4: "tx.origin == owner",
        }
        for record in records:
            for j, snippet in marker.items():
                assert (snippet in record["source"]) == bool(record["labels"][j]), record["id"]


@pytest.fixture(scope="module")
def mini_project(tmp_path_factory):
    """Small corpus plus config; shared by the CLI flow tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = write_corpus(root / "corpus", 60, 3)
    config = {
        "seed": 3,
        "taxonomy": paths["taxonomy"],
        "datasets": {"train": paths["train"], "test": paths["test"]},
        "slora": {"feature_dim": 64, "rank": 4, "alpha": 0.9,
                  "learning_rate": 1.0, "batch_size": 8, "epochs": 60},
        "meta": {"learning_rate": 0.2, "epochs": 150, "batch_size": 16},
    }
    cfg = root / "config.json"
    cfg.write_text(json.dumps(config))
    return {"root": root, "config": str(cfg), "work": str(root / "work")}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A work directory after train-meta, from cheap training; tests copy it."""
    root = tmp_path_factory.mktemp("trained")
    paths = write_corpus(root / "corpus", 30, 5)
    cfg = root / "config.json"
    cfg.write_text(json.dumps({
        "seed": 5,
        "taxonomy": paths["taxonomy"],
        "datasets": {"train": paths["train"], "test": paths["test"]},
        "slora": {"feature_dim": 32, "rank": 4, "epochs": 2},
        "meta": {"epochs": 5},
    }))
    for command in ("build-index", "train-slora", "train-meta"):
        assert main([command, "--config", str(cfg), "--out", str(root / "work")]) == EXIT_OK
    return {"config": str(cfg), "work": root / "work"}


class TestCliFlow:
    def test_synth_command(self, tmp_path, capsys):
        code = main(["synth", "--n", "10", "--seed", "1", "--out", str(tmp_path / "c")])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert Path(out["train"]).exists()

    def test_full_stage_sequence(self, mini_project, capsys):
        cfg, work = mini_project["config"], mini_project["work"]
        for command in ("ingest", "build-index", "train-slora", "train-meta",
                        "detect", "evaluate"):
            code = main([command, "--config", cfg, "--out", work])
            assert code == EXIT_OK, f"{command} failed"
        output = capsys.readouterr().out
        assert "verified" in output
        work_dir = Path(work)
        for name in pipeline.ARTIFACTS.values():
            assert (work_dir / name).exists(), name

    def test_report_command(self, mini_project, capsys):
        cfg, work = mini_project["config"], mini_project["work"]
        code = main(["report", "--config", cfg, "--out", work])
        assert code == EXIT_OK
        written = json.loads(capsys.readouterr().out)["reports"]
        assert written
        text = Path(written[0]).read_text()
        assert text.startswith("# Vulnerability report")

    def test_results_lines_match_test_set(self, mini_project):
        records = [json.loads(l) for l in
                   (Path(mini_project["work"]) / "results.jsonl").read_text().splitlines()]
        assert len(records) == 18  # 30% of 60
        for rec in records:
            assert set(rec["detectors"]) == {"dense", "bm25", "slora"}
            assert len(rec["verified_labels"]) == 5

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["ingest", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bogus": True}))
        assert main(["ingest", "--config", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command,section", [
        ("build-index", {"bm25": {"k1": "x"}}),
        ("build-index", {"dense": {"overlap": 2000}}),
        ("train-slora", {"slora": {"epochs": 0}}),
        ("train-meta", {"meta": {"lam": 1.0}}),
        ("train-slora", {"slora": {"rank": 65}}),
        ("detect", {"detectors": [{"kind": "mock", "delay": "1"}]}),
        ("train-meta", {"detectors": [{"kind": "bm25"}, {"kind": "mock", "name": "bm25"}]}),
        ("build-index", {"seed": -5}),
        ("detect", {"bm25": {"vote_threshold": -3}}),
        ("detect", {"external": {"timeout": 0}}),
        # a list holds override flags, range-checked like the file's values
        ("train-meta", ["--threshold", "1.5"]),
        ("detect", ["--k", "0"]),
        ("detect", ["--vote-threshold", "0"]),
        ("train-slora", ["--epochs", "0"]),
        ("train-slora", ["--alpha", "1.5"]),
        ("build-index", ["--seed", "-5"]),
        ("build-index", ["--b", "1.5"]),
        ("train-slora", {"slora": {"patience": 0}}),
        ("ingest", {"taxonomy": 5}),
        ("detect", {"external": {"endpoint": 5}}),
        ("train-meta", ["--epochs", "0"]),
        ("train-slora", ["--rank", "0"]),
    ])
    def test_bad_value_exits_2(self, mini_project, tmp_path, capsys, command, section):
        config = json.loads(Path(mini_project["config"]).read_text())
        flags = section if isinstance(section, list) else []
        for name, block in ({} if flags else section).items():
            config[name] = {**config.get(name, {}), **block} if isinstance(block, dict) else block
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code = main([command, "--config", str(bad), "--out", str(tmp_path / "work"), *flags])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("label", [0.7, "1", True, 2])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_bad_dataset_label_exits_3(self, tmp_path, capsys, label, split):
        paths = write_corpus(tmp_path / "corpus", 10, 1)
        records = [json.loads(line) for line in Path(paths[split]).read_text().splitlines()]
        records[1]["labels"][0] = label
        Path(paths[split]).write_text("".join(json.dumps(r) + "\n" for r in records))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"taxonomy": paths["taxonomy"],
                                   "datasets": {"train": paths["train"], "test": paths["test"]}}))
        # evaluate reads the test labels without ingesting the split
        command = "evaluate" if split == "test" else "ingest"
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "w")]) == EXIT_STAGE
        assert f"record 1 ({records[1]['id']!r}): labels must be" in capsys.readouterr().err

    def test_missing_artifact_exits_3(self, mini_project, tmp_path, capsys):
        code = main(["detect", "--config", mini_project["config"],
                     "--out", str(tmp_path / "empty-work")])
        assert code == EXIT_STAGE

    def test_all_detectors_failed_exits_4(self, tmp_path, capsys):
        paths = write_corpus(tmp_path / "corpus", 10, 1)
        config = {
            "taxonomy": paths["taxonomy"],
            "datasets": {"train": paths["train"], "test": paths["test"]},
            "detectors": [{"kind": "mock", "fail": True}],
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        work = tmp_path / "work"
        # meta checkpoint prerequisite; build it against a working mock first
        ok_config = dict(config, detectors=[{"kind": "mock", "probabilities": [0.5] * 5}])
        cfg_ok = tmp_path / "ok.json"
        cfg_ok.write_text(json.dumps(ok_config))
        assert main(["train-meta", "--config", str(cfg_ok), "--out", str(work)]) == EXIT_OK
        assert main(["detect", "--config", str(cfg), "--out", str(work)]) == EXIT_ALL_FAILED

    @pytest.mark.parametrize("delay", [0.0, 0.01])   # batched, then walked
    def test_narrow_detector_exits_3(self, tmp_path, capsys, delay):
        paths = write_corpus(tmp_path / "corpus", 10, 1)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "taxonomy": paths["taxonomy"],
            "datasets": {"train": paths["train"], "test": paths["test"]},
            "detectors": [{"kind": "mock", "probabilities": [0.7], "delay": delay}],
        }))
        assert main(["train-meta", "--config", str(cfg), "--out", str(tmp_path / "w")]) \
            == EXIT_STAGE
        assert "detector 'mock' returned probabilities of shape" in capsys.readouterr().err

    @pytest.mark.parametrize("command,artifact", [("train-slora", "slora_ckpt"),
                                                  ("train-meta", "meta_ckpt")])
    def test_diverged_training_exits_3_without_checkpoint(self, tmp_path, capsys,
                                                          command, artifact):
        paths = write_corpus(tmp_path / "corpus", 20, 4)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "taxonomy": paths["taxonomy"],
            "datasets": {"train": paths["train"], "test": paths["test"]},
            "slora": {"feature_dim": 3, "rank": 3, "learning_rate": 10.0, "batch_size": 1},
            "meta": {"learning_rate": 1e300, "epochs": 5},
            "detectors": [{"kind": "mock", "probabilities": [0.2, 0.9, 0.1, 0.6, 0.4]}],
        }))
        work = tmp_path / "work"
        with np.errstate(all="ignore"):
            assert main([command, "--config", str(cfg), "--out", str(work)]) == EXIT_STAGE
        assert "training loss is not finite" in capsys.readouterr().err
        assert not (work / pipeline.ARTIFACTS[artifact]).exists()

    @pytest.mark.parametrize("changes,code", [
        ({"detectors": [{"kind": "bm25"}, {"kind": "dense"}, {"kind": "slora"}]}, EXIT_STAGE),
        ({"dense": {"window": 1400}}, EXIT_STAGE),
        ({"dense": {"overlap": 200}}, EXIT_STAGE),
        ({"dense": {"min_len": 50}}, EXIT_STAGE),
        ({"bm25": {"keywords": ["call"]}}, EXIT_STAGE),
        ({"dense": {"chi": 3}}, EXIT_OK),   # query-time, not part of the store
        ({"dense": {"embed_dim": 128}}, EXIT_STAGE),
    ], ids=["reordered", "window", "overlap", "min_len", "keywords", "chi", "embed_dim"])
    def test_detect_checks_what_artifacts_were_built_with(self, trained, tmp_path, capsys,
                                                          changes, code):
        config = {**json.loads(Path(trained["config"]).read_text()), **changes}
        cfg = tmp_path / "changed.json"
        cfg.write_text(json.dumps(config))
        work = shutil.copytree(trained["work"], tmp_path / "work")
        assert main(["detect", "--config", str(cfg), "--out", str(work)]) == code
        if code == EXIT_STAGE:
            producer = "train-meta" if "detectors" in changes else "build-index"
            assert f"rerun '{producer}'" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact,producer,damage", [
        (artifact, producer, damage)
        for artifact, producer in (("bm25_index", "build-index"), ("dense_store", "build-index"),
                                   ("meta_ckpt", "train-meta"))
        for damage in ("old format", "truncated")
    ] + [
        (artifact, "build-index", damage) for artifact in ("bm25_index", "dense_store")
        for damage in ("label of 2", "one label row short")
    ] + [("dense_store", "build-index", "metadata blob")] + [
        (artifact, producer, "string array") for artifact, producer in (
            ("dense_store", "build-index"), ("meta_ckpt", "train-meta"))
    ], ids=lambda value: value)
    def test_malformed_artifact_exits_3(self, trained, tmp_path, capsys, artifact, producer,
                                        damage):
        work = shutil.copytree(trained["work"], tmp_path / "work")
        path = work / pipeline.ARTIFACTS[artifact]
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
        elif artifact == "bm25_index" and damage == "old format":
            # per-document token lists, as written before
            path.write_text(json.dumps({"k1": 1.5, "b": 0.9, "keywords": [], "docs": [
                {"id": "c0", "labels": [0] * 5, "tokens": ["a"]}]}))
        elif artifact == "bm25_index":
            payload = json.loads(path.read_text())
            if damage == "label of 2":
                payload["labels"][-1][0] = 2
            else:
                payload["labels"].pop()
            path.write_text(json.dumps(payload))
        else:
            with np.load(path) as data:
                kept = {k: data[k] for k in data.files}
            if damage == "old format":   # without the key this format added
                del kept["segmentation" if artifact == "dense_store" else "detectors"]
            elif damage == "label of 2":
                kept["labels"][-1, 0] = 2
            elif damage == "one label row short":
                kept["labels"] = kept["labels"][:-1]
            elif damage == "string array":   # a NumPy string array, as written before
                key = "parent_ids" if artifact == "dense_store" else "detectors"
                kept[key] = np.array(decode_strings(kept[key]), dtype=str)
            else:   # the fragments' ids and labels in one JSON blob, as written before
                meta = [{"parent_id": p, "frag_index": int(f), "labels": row}
                        for p, f, row in zip(kept.pop("parent_ids").tolist(),
                                             kept.pop("frag_index"),
                                             kept.pop("labels").tolist())]
                kept["metadata"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            np.savez(path, **kept)
        assert main(["detect", "--config", trained["config"], "--out", str(work)]) \
            == EXIT_STAGE
        err = capsys.readouterr().err
        assert f"cannot read {path}" in err and f"rerun '{producer}'" in err

    @pytest.mark.parametrize("command,key,content", [
        ("ingest", "taxonomy", None),
        ("ingest", "taxonomy", "[1, "),
        ("ingest", "taxonomy", '{"reentrancy": 0}'),
        ("ingest", "taxonomy", '["reentrancy", "reentrancy"]'),
        ("ingest", "datasets.train", None),
        ("ingest", "datasets.train", "not json\n"),
        ("ingest", "datasets.train", '{"id": "x", "source": "// only a comment"}\n'),
        ("ingest", "datasets.test", b"\xff\xfe"),
        ("evaluate", "datasets.test", None),
        ("evaluate", "datasets.test", '{"id": "x", "source": "contract X {}", "labels": [2]}\n'),
        ("report", "knowledge", None),
        ("report", "knowledge", "[]"),
        ("report", "knowledge", '{"reentrancy": 5}'),
        ("report", "knowledge", '{"reentrancy": {"root_causes": 5}}'),
        ("report", "prompt_template", None),
        ("report", "prompt_template", "no placeholders"),
    ], ids=["taxonomy-missing", "taxonomy-not-json", "taxonomy-object", "taxonomy-duplicate",
            "train-missing", "train-record-not-json", "train-record-empty-source",
            "test-not-utf8", "test-missing-in-evaluate", "test-record-bad-label-in-evaluate",
            "knowledge-missing", "knowledge-list",
            "knowledge-section-not-object", "knowledge-section-not-string",
            "template-missing", "template-no-slots"])
    def test_bad_input_file_exits_3(self, trained, tmp_path, capsys, command, key, content):
        config = json.loads(Path(trained["config"]).read_text())
        path = tmp_path / "input"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        if key.startswith("datasets."):
            config["datasets"][key.partition(".")[2]] = str(path)
        else:
            config[key] = str(path)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        work = shutil.copytree(trained["work"], tmp_path / "work")
        if command == "report":   # reports render detect's results
            assert main(["detect", "--config", trained["config"], "--out", str(work)]) == EXIT_OK
            capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(work)]) == EXIT_STAGE
        assert str(path) in capsys.readouterr().err

    def test_detector_name_with_trailing_nul_runs_through_detect(self, tmp_path, capsys):
        # a NumPy string array in meta_ckpt.npz would read "m\x00" back as "m"
        paths = write_corpus(tmp_path / "corpus", 10, 1)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "taxonomy": paths["taxonomy"],
            "datasets": {"train": paths["train"], "test": paths["test"]},
            "detectors": [{"kind": "mock", "probabilities": [0.5] * 5, "name": "m\x00"}],
            "meta": {"epochs": 2},
        }))
        work = tmp_path / "work"
        for command in ("train-meta", "detect"):
            assert main([command, "--config", str(cfg), "--out", str(work)]) == EXIT_OK
        records = (work / pipeline.ARTIFACTS["results"]).read_text().splitlines()
        assert all(set(json.loads(line)["detectors"]) == {"m\x00"} for line in records)

    @pytest.mark.parametrize("damage", ["not json", "no verified_labels", "ragged labels",
                                        "short labels", "short probabilities"])
    def test_malformed_results_exit_3(self, trained, tmp_path, capsys, damage):
        work = shutil.copytree(trained["work"], tmp_path / "work")
        assert main(["detect", "--config", trained["config"], "--out", str(work)]) == EXIT_OK
        path = work / pipeline.ARTIFACTS["results"]
        records = [json.loads(line) for line in path.read_text().splitlines()]
        if damage == "no verified_labels":
            del records[0]["verified_labels"]
        elif damage == "ragged labels":
            records[0]["verified_labels"].pop()
        elif damage == "short labels":
            for rec in records:
                rec["verified_labels"].pop()
        elif damage == "short probabilities":
            for rec in records:
                rec["detectors"]["bm25"].pop()
        lines = [json.dumps(rec) for rec in records] + (["{"] if damage == "not json" else [])
        path.write_text("\n".join(lines) + "\n")
        commands = ("evaluate", "report") if damage == "not json" else ("evaluate",)
        for command in commands:
            assert main([command, "--config", trained["config"], "--out", str(work)]) \
                == EXIT_STAGE
            err = capsys.readouterr().err
            assert f"cannot read {path}" in err and "rerun 'detect'" in err

    def test_console_script_installed(self):
        # pytest's `pythonpath` setting reaches only this process, not the child
        parent = str(Path(vulnfuse.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (parent, os.environ.get("PYTHONPATH"))))}
        result = subprocess.run([sys.executable, "-m", "vulnfuse.cli", "--help"],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0
        assert "synth" in result.stdout
