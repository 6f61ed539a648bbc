"""Split-scoped dataset loading of the pipeline stages."""

import json
from pathlib import Path

import pytest

from vulnfuse import corpus, pipeline
from vulnfuse.config import load_config
from vulnfuse.errors import ParseError, SchemaError
from vulnfuse.meta import MetaParams, load_meta
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
    # evaluate reads only ids and labels, so it preprocesses nothing
    for stage, expected in (("train_meta", sizes["train"]), ("detect", sizes["test"]),
                            ("evaluate", 0), ("report", sizes["test"])):
        preprocess_calls.clear()
        getattr(pipeline, f"stage_{stage}")(config, work)
        assert len(preprocess_calls) == expected, stage


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


def test_wrong_label_length_rejected_in_evaluate(project):
    with open(project["paths"]["test"], "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "extra", "source": "contract X {}", "labels": [1, 0]}) + "\n")
    with pytest.raises(SchemaError, match="2 labels for taxonomy of 5"):
        pipeline.stage_evaluate(project["config"], project["work"])


def test_train_meta_writes_loss_trace(project):
    config, work = project["config"], project["work"]
    summary = pipeline.stage_train_meta(config, work)
    lines = (Path(work) / pipeline.ARTIFACTS["meta_loss"]).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,train_loss"
    assert [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(config.meta.epochs)]
    assert lines[-1] == f"{config.meta.epochs - 1},{summary['final_loss']:.8f}"


def test_train_meta_reads_the_meta_section(project):
    # the hidden sizes shape the learner, and the threshold goes into the checkpoint
    config, work = project["config"], project["work"]
    config.meta = MetaParams(hidden1=3, hidden2=2, threshold=0.25, epochs=2)
    pipeline.stage_train_meta(config, work)
    learner, threshold, _ = load_meta(Path(work) / pipeline.ARTIFACTS["meta_ckpt"])
    assert (learner.w1.shape, learner.w2.shape, threshold) == ((3, 1), (2, 3), 0.25)


def test_detect_writes_failed_rows_as_null(project):
    config = project["config"]
    config.detectors = ({"kind": "mock", "probabilities": [0.2, 0.9, 0.1, 0.6, 0.4],
                         "name": "good"},
                        {"kind": "mock", "name": "slow", "delay": 0.01, "fail": True})
    work = project["work"]
    pipeline.stage_train_meta(config, work)
    summary = pipeline.stage_detect(config, work)
    records = [json.loads(line) for line in
               (Path(work) / pipeline.ARTIFACTS["results"]).read_text().splitlines()]
    assert len(records) == project["sizes"]["test"]
    assert all(rec["detectors"] == {"good": [0.2, 0.9, 0.1, 0.6, 0.4], "slow": None}
               for rec in records)
    timings = json.loads((Path(work) / pipeline.ARTIFACTS["timings"]).read_text())
    assert timings == summary["mean_seconds"]
    assert set(timings) == {"good", "slow", "verified"}
    # each detector's wall time over the contracts; only the slow one sleeps
    assert timings["good"] < 0.01 <= timings["slow"]
