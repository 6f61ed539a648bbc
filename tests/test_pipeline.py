"""Split-scoped dataset loading of the pipeline stages."""

import json
from pathlib import Path

import pytest

from vulnfuse import corpus, pipeline
from vulnfuse.config import load_config
from vulnfuse.errors import ParseError, SchemaError
from vulnfuse.synth import write_corpus


@pytest.fixture
def project(tmp_path):
    """Small corpus whose only detector is a mock, so no index or adapter is needed."""
    paths = write_corpus(tmp_path / "corpus", 20, 4)
    config = {
        "taxonomy": paths["taxonomy"],
        "datasets": {"train": paths["train"], "test": paths["test"]},
        "detectors": [{"kind": "mock", "probabilities": [0.2, 0.9, 0.1, 0.6, 0.4]}],
        "meta": {"epochs": 5},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    sizes = {split: len(corpus.read_ids(paths[split])) for split in ("train", "test")}
    return {"config": load_config(cfg), "work": tmp_path / "work", "paths": paths,
            "sizes": sizes}


@pytest.fixture
def preprocess_calls(monkeypatch):
    calls = []
    real = corpus.preprocess

    def counting(raw):
        calls.append(raw)
        return real(raw)

    monkeypatch.setattr(corpus, "preprocess", counting)
    return calls


def test_each_stage_preprocesses_only_its_split(project, preprocess_calls):
    config, work, sizes = project["config"], project["work"], project["sizes"]
    pipeline.stage_ingest(config)
    assert len(preprocess_calls) == sizes["train"] + sizes["test"]
    for stage, split in (("train_meta", "train"), ("detect", "test"),
                         ("evaluate", "test"), ("report", "test")):
        preprocess_calls.clear()
        getattr(pipeline, f"stage_{stage}")(config, work)
        assert len(preprocess_calls) == sizes[split], stage


def test_shared_id_rejected_in_detect(project):
    paths = project["paths"]
    train_record = Path(paths["train"]).read_text(encoding="utf-8").splitlines()[0]
    with open(paths["test"], "a", encoding="utf-8") as fh:
        fh.write(train_record + "\n")
    with pytest.raises(SchemaError):
        pipeline.stage_detect(project["config"], project["work"])


def test_malformed_other_split_rejected(project, preprocess_calls):
    with open(project["paths"]["train"], "a", encoding="utf-8") as fh:
        fh.write("not json\n")
    with pytest.raises(ParseError) as err:
        pipeline.stage_detect(project["config"], project["work"])
    assert err.value.record_index == project["sizes"]["train"]
    assert len(preprocess_calls) == project["sizes"]["test"]
