"""Stage orchestration: artifacts on disk between CLI commands.

Artifacts live under a working directory: BM25 index (JSON), vector store
(npz), adapter and meta checkpoints (npz), loss traces (CSV), detection
results (line-delimited JSON), timing sidecar, metric summary, and reports.
Decision outputs are deterministic for a fixed config and seed; wall-clock
timings go to a separate file so result files stay byte-reproducible.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from . import bm25 as bm25_mod
from . import dense as dense_mod
from . import meta as meta_mod
from . import slora as slora_mod
from .config import PipelineConfig
from .corpus import (Dataset, check_disjoint, ingest, label_matrix, load_taxonomy, read_ids,
                     read_labels)
from .detectors import (
    Bm25Detector,
    DenseDetector,
    ExternalDetector,
    MockDetector,
    SloraDetector,
    batch_detect,
)
from .errors import ConfigError, StageError, VulnfuseError
from .metrics import EvalSummary, compute_metrics
from .report import (
    COT_PROMPT_TEMPLATE,
    load_knowledge,
    load_prompt_template,
    llm_report,
    render_report,
)

ARTIFACTS = {
    "bm25_index": "bm25_index.json",
    "dense_store": "dense_store.npz",
    "slora_ckpt": "slora_ckpt.npz",
    "slora_loss": "slora_loss.csv",
    "meta_ckpt": "meta_ckpt.npz",
    "meta_loss": "meta_loss.csv",
    "meta_rows": "meta_rows.csv",
    "results": "results.jsonl",
    "timings": "timings.json",
    "summary": "summary.json",
}


def _artifact(workdir, name) -> Path:
    return Path(workdir) / ARTIFACTS[name]


def _require(workdir, name, producer: str) -> Path:
    path = _artifact(workdir, name)
    if not path.exists():
        raise StageError(f"missing artifact {path}; run '{producer}' first")
    return path


def _load(workdir, name, producer: str, load):
    """`load(path)` of an artifact; a missing, malformed or old-format file is a StageError."""
    path = _require(workdir, name, producer)
    try:
        return load(path)
    except (KeyError, TypeError, ValueError, BadZipFile, VulnfuseError) as exc:
        raise StageError(f"cannot read {path} ({type(exc).__name__}: {exc}); "
                         f"rerun '{producer}'") from exc


def _check_built(workdir, name, producer: str, what: str, built, configured) -> None:
    """StageError unless the artifact was built with the configured value of `what`."""
    if built != configured:
        raise StageError(f"{_artifact(workdir, name)} was built with {what} {built}, not the "
                         f"configured {configured}; rerun '{producer}'")


def _dataset_files(config: PipelineConfig) -> tuple[tuple[str, ...], dict]:
    """The taxonomy and the dataset path of each split."""
    if not config.taxonomy_path or not config.train_path or not config.test_path:
        raise ConfigError("config must set taxonomy and datasets.train/datasets.test",
                          keys=["taxonomy", "datasets"])
    return (load_taxonomy(config.taxonomy_path),
            {"train": config.train_path, "test": config.test_path})


def _load_split(config: PipelineConfig, split: str) -> Dataset:
    """Ingest the split a stage reads; of the other split read only the ids.

    Every stage still checks that the two splits share no contract id.
    """
    taxonomy, paths = _dataset_files(config)
    (other,) = set(paths) - {split}
    dataset = ingest(paths[split], taxonomy, split)
    check_disjoint(dataset.ids(), read_ids(paths[other]))
    return dataset


def _segmentation(config: PipelineConfig) -> dense_mod.SegmentationParams:
    return dense_mod.SegmentationParams(
        window=config.dense.window,
        overlap=config.dense.overlap,
        min_len=config.dense.min_len,
        chi=config.dense.chi,
    )


META_HOLDOUT_FRACTION = 0.3


def meta_holdout_split(train: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic split of the training set into base and fusion portions.

    Base detectors are fit on the first portion only; the second provides
    out-of-sample detector outputs for fusion training, so the meta-learner
    never sees predictions a base model could have memorized.
    """
    ids = sorted(train.ids())
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    n_holdout = max(1, int(len(ids) * META_HOLDOUT_FRACTION)) if len(ids) > 1 else 0
    holdout_ids = {ids[i] for i in order[:n_holdout]}

    def subset(keep):
        contracts = tuple(c for c in train if keep(c.id))
        return Dataset(contracts=contracts, taxonomy=train.taxonomy,
                       split={c.id: "train" for c in contracts})

    return subset(lambda cid: cid not in holdout_ids), subset(lambda cid: cid in holdout_ids)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_ingest(config: PipelineConfig) -> dict:
    taxonomy, paths = _dataset_files(config)
    train = ingest(paths["train"], taxonomy, "train")
    test = ingest(paths["test"], taxonomy, "test")
    check_disjoint(train.ids(), test.ids())
    return {
        "taxonomy": list(train.taxonomy),
        "train_contracts": len(train),
        "test_contracts": len(test),
    }


def stage_build_index(config: PipelineConfig, workdir) -> dict:
    train = _load_split(config, "train")
    base, _ = meta_holdout_split(train, config.seed)
    Path(workdir).mkdir(parents=True, exist_ok=True)
    index = bm25_mod.build_bm25(base, k1=config.bm25.k1, b=config.bm25.b,
                                keywords=config.bm25.keywords)
    index.save(_artifact(workdir, "bm25_index"))
    store = dense_mod.build_store(
        base, _segmentation(config), dense_mod.HashingEmbedder(config.dense.embed_dim)
    )
    store.save(_artifact(workdir, "dense_store"))
    return {"bm25_documents": index.N, "dense_vectors": len(store)}


def stage_train_slora(config: PipelineConfig, workdir) -> dict:
    train = _load_split(config, "train")
    base, _ = meta_holdout_split(train, config.seed)
    Path(workdir).mkdir(parents=True, exist_ok=True)
    extractor = slora_mod.HashedFeatureExtractor(config.slora.feature_dim, seed=config.seed)
    x, y = slora_mod.features_from_dataset(base, extractor)
    layer = slora_mod.init_adapter(config.slora.feature_dim, config.slora.rank,
                                   config.slora.alpha, seed=config.seed)
    head = slora_mod.init_head(config.slora.feature_dim, len(train.taxonomy), seed=config.seed)
    train_cfg = slora_mod.TrainConfig(
        learning_rate=config.slora.learning_rate,
        batch_size=config.slora.batch_size,
        epochs=config.slora.epochs,
        patience=config.slora.patience,
        seed=config.seed,
    )
    val = None
    if config.slora.patience is not None:
        rng = np.random.default_rng(config.seed)
        order = rng.permutation(x.shape[0])
        n_val = max(1, x.shape[0] // 10)
        val_idx, train_idx = order[:n_val], order[n_val:]
        val = (x[val_idx], y[val_idx])
        x, y = x[train_idx], y[train_idx]
    result = slora_mod.train(layer, head, x, y, train_cfg, val=val)
    slora_mod.save_checkpoint(_artifact(workdir, "slora_ckpt"), layer, head,
                              extractor, train.taxonomy)
    _write_loss_trace(_artifact(workdir, "slora_loss"), result.loss_trace, result.val_trace)
    return {"epochs_run": result.epochs_run, "final_loss": result.loss_trace[-1]}


def _write_loss_trace(path, train_loss, val_loss=()) -> None:
    """CSV of the per-epoch losses; the val_loss column only when there is one."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss" + (",val_loss" if val_loss else "") + "\n")
        for i, loss in enumerate(train_loss):
            row = f"{i},{loss:.8f}"
            if val_loss:
                row += f",{val_loss[i]:.8f}"
            fh.write(row + "\n")


def build_detectors(config: PipelineConfig, taxonomy, workdir) -> list:
    detectors = []
    num_labels = len(taxonomy)
    for spec in config.detectors:
        kind = spec["kind"]
        if kind == "bm25":
            index = _load(workdir, "bm25_index", "build-index", bm25_mod.Bm25Index.load)
            _check_built(workdir, "bm25_index", "build-index", "keywords", index.keywords,
                         tuple(config.bm25.keywords))
            detectors.append(Bm25Detector(index, num_labels, top_k=config.bm25.top_k,
                                          vote_threshold=config.bm25.vote_threshold))
        elif kind == "dense":
            store = _load(workdir, "dense_store", "build-index", dense_mod.VectorStore.load)
            params = _segmentation(config)
            _check_built(workdir, "dense_store", "build-index", "(window, overlap, min_len)",
                         store.segmentation, (params.window, params.overlap, params.min_len))
            detectors.append(DenseDetector(store, num_labels, params))
        elif kind == "slora":
            layer, head, extractor, ck_tax = _load(workdir, "slora_ckpt", "train-slora",
                                                   slora_mod.load_checkpoint)
            if tuple(ck_tax) != tuple(taxonomy):
                raise StageError("adapter checkpoint was trained on a different taxonomy")
            detectors.append(SloraDetector(layer, head, extractor, num_labels))
        elif kind == "external":
            if not config.external.endpoint:
                raise ConfigError("external detector requires an endpoint", keys=["external"])
            detectors.append(ExternalDetector(config.external.endpoint, taxonomy,
                                              timeout=config.external.timeout,
                                              auth_header=config.external.auth_header))
        elif kind == "mock":
            detectors.append(MockDetector(
                spec.get("probabilities", [0.5] * num_labels),
                name=spec.get("name", "mock"),
                delay=spec.get("delay", 0.0),
                fail=spec.get("fail", False),
            ))
        else:
            raise ConfigError(f"unknown detector kind {kind!r}", keys=["detectors"])
    return detectors


def stage_train_meta(config: PipelineConfig, workdir) -> dict:
    train = _load_split(config, "train")
    _, holdout = meta_holdout_split(train, config.seed)
    Path(workdir).mkdir(parents=True, exist_ok=True)
    detectors = build_detectors(config, train.taxonomy, workdir)
    labeled = [c for c in holdout if c.labels is not None]
    record = batch_detect(detectors, labeled, len(train.taxonomy))
    rows, targets = meta_mod.rows_from_results(record,
                                               label_matrix(labeled, len(train.taxonomy)))
    learner, result = meta_mod.train_meta(
        rows, targets,
        meta_mod.MetaTrainConfig(
            learning_rate=config.meta.learning_rate,
            batch_size=config.meta.batch_size,
            epochs=config.meta.epochs,
            seed=config.seed,
        ),
        learner=meta_mod.init_meta(psi=len(detectors), h1=config.meta.hidden1,
                                   h2=config.meta.hidden2, seed=config.seed),
    )
    meta_mod.save_meta(_artifact(workdir, "meta_ckpt"), learner, record.names,
                       config.meta.threshold)
    _write_loss_trace(_artifact(workdir, "meta_loss"), result.loss_trace)
    meta_mod.export_rows_csv(_artifact(workdir, "meta_rows"), rows, targets, record.names)
    return {"rows": rows.shape[0], "final_loss": result.loss_trace[-1]}


def stage_detect(config: PipelineConfig, workdir) -> dict:
    test = _load_split(config, "test")
    detectors = build_detectors(config, test.taxonomy, workdir)
    learner, threshold, trained_on = _load(workdir, "meta_ckpt", "train-meta", meta_mod.load_meta)
    _check_built(workdir, "meta_ckpt", "train-meta", "detectors", trained_on,
                 tuple(detector.name for detector in detectors))
    record = batch_detect(detectors, test.contracts, len(test.taxonomy))
    verify_start = time.perf_counter()
    labels, verified = meta_mod.verify(learner, record, threshold)
    verify_s = time.perf_counter() - verify_start
    probs, failed = record.probs.tolist(), record.failed.tolist()
    labels, verified = labels.tolist(), verified.tolist()
    lines = [json.dumps({
        "id": contract.id,
        "detectors": {name: (None if failed[d][i] else probs[d][i])
                      for d, name in enumerate(record.names)},
        "verified_labels": labels[i],
        "verified_probabilities": verified[i],
    }, sort_keys=True) for i, contract in enumerate(test)]
    _artifact(workdir, "results").write_text("\n".join(lines) + "\n", encoding="utf-8")
    # like each detector's, the one verify call's wall time over the contracts
    timings = {**dict(zip(record.names, record.seconds)),
               "verified": verify_s / len(test) if len(test) else 0.0}
    _artifact(workdir, "timings").write_text(
        json.dumps(timings, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"contracts": len(test), "mean_seconds": timings}


def _read_results(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def _score(records: list[dict], truth_by_id: dict) -> EvalSummary:
    """Each detector's metrics and the verified labels' over the labeled contracts."""
    records = [rec for rec in records if truth_by_id.get(rec["id"]) is not None]
    truths = np.array([truth_by_id[rec["id"]] for rec in records], dtype=np.int64)
    summary = EvalSummary()
    for name in sorted({name for rec in records for name in rec["detectors"]}):
        scored = [i for i, rec in enumerate(records) if rec["detectors"].get(name) is not None]
        if scored:
            probs = np.array([records[i]["detectors"][name] for i in scored])
            summary.per_detector[name] = compute_metrics(probs >= 0.5, truths[scored])
    if records:
        summary.verified = compute_metrics([rec["verified_labels"] for rec in records], truths)
    return summary


def stage_evaluate(config: PipelineConfig, workdir) -> EvalSummary:
    # only ids and labels are read, so the test sources are not preprocessed
    taxonomy, paths = _dataset_files(config)
    truth_by_id = read_labels(paths["test"], taxonomy)
    check_disjoint(truth_by_id, read_ids(paths["train"]))
    # a line that does not parse, or rows that do not fit the taxonomy, is a StageError
    summary = _load(workdir, "results", "detect",
                    lambda path: _score(_read_results(path), truth_by_id))

    timings_path = _artifact(workdir, "timings")
    if timings_path.exists():
        summary.mean_seconds = json.loads(timings_path.read_text(encoding="utf-8"))

    _artifact(workdir, "summary").write_text(
        json.dumps(summary.metrics_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return summary


def stage_report(config: PipelineConfig, workdir, contract_id=None) -> list[str]:
    test = _load_split(config, "test")
    records = _load(workdir, "results", "detect", _read_results)
    knowledge = load_knowledge(config.knowledge_path) if config.knowledge_path else None
    template = (load_prompt_template(config.prompt_template_path)
                if config.prompt_template_path else COT_PROMPT_TEMPLATE)
    report_dir = Path(workdir) / "reports"
    report_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for rec in records:
        if contract_id is not None and rec["id"] != contract_id:
            continue
        contract = test.get(rec["id"])
        labels, probs = rec["verified_labels"], rec["verified_probabilities"]
        if config.external.report_endpoint:
            text, _ = llm_report(contract, labels, probs, test.taxonomy,
                                 config.external.report_endpoint, knowledge,
                                 timeout=config.external.timeout,
                                 prompt_template=template)
        else:
            text = render_report(contract, labels, probs, test.taxonomy, knowledge)
        path = report_dir / f"{rec['id']}.md"
        path.write_text(text, encoding="utf-8")
        written.append(str(path))
    return written


def run_all(config: PipelineConfig, workdir) -> EvalSummary:
    """Every stage in order; convenience for tests and quick experiments."""
    stage_ingest(config)
    stage_build_index(config, workdir)
    stage_train_slora(config, workdir)
    stage_train_meta(config, workdir)
    stage_detect(config, workdir)
    return stage_evaluate(config, workdir)
