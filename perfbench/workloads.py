"""Workloads: inputs from `vulnfuse.synth`, configs, and the stage calls each times.

Every workload is one closed-loop client calling the public `stage_*`
functions of `vulnfuse.pipeline` one after another; the benchmark adds no
concurrency of its own. Sizes keep one repetition near a few seconds on a
2-CPU machine so that a run holds several repetitions.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

TRAIN_STAGES = ("ingest", "build_index", "train_slora", "train_meta")
AUDIT_STAGES = ("detect", "evaluate", "report")

# artifacts written by the training stages, hashed to prove byte-identical reruns
TRAIN_ARTIFACTS = ("bm25_index.json", "dense_store.npz", "slora_ckpt.npz",
                   "slora_loss.csv", "meta_ckpt.npz", "meta_rows.csv")

ACCEPTANCE_SLORA = {"feature_dim": 128, "rank": 8, "alpha": 0.9,
                    "learning_rate": 1.0, "batch_size": 8}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    contracts: int
    test_fraction: float
    slora_epochs: int
    meta_epochs: int
    job: tuple            # stage calls timed as job_s
    after: tuple = ()     # stage calls run after the job, outside job_s
    comments: bool = False
    remote: bool = False

    @property
    def trains_in_setup(self) -> bool:
        return "train_meta" not in self.job

    @property
    def timed(self) -> tuple:
        return self.job + self.after


WORKLOADS = {w.name: w for w in (
    # The model builder's job at the acceptance config; mask selection
    # (slora.sparsify, once per batch) dominates. The validation detect on
    # the test split lies outside job_s, so detect-path changes leave job_s flat.
    Workload("train", "model builder's training chain at the acceptance config; "
             "mask selection dominates",
             contracts=200, test_fraction=0.3, slora_epochs=200, meta_epochs=600,
             job=TRAIN_STAGES, after=("detect", "evaluate")),
    # The auditor's batch over a small index: fixed per-contract costs
    # (preprocess, tokenize, embed, one mask per adapter call, one thread pool
    # per contract, per-label verify, report lookups) dominate. Comments on
    # the test split exercise strip_comments.
    Workload("audit", "auditor's detect-evaluate-report batch of commented contracts "
             "against a small trained index",
             contracts=500, test_fraction=0.6, slora_epochs=10, meta_epochs=100,
             job=AUDIT_STAGES, comments=True),
    # The whole chain on a corpus large enough that ranking, which sorts
    # every candidate per query, grows with the index; training is cheap.
    Workload("scale", "whole chain on a larger corpus with cheap training; "
             "ranking grows with the index",
             contracts=1000, test_fraction=0.1, slora_epochs=2, meta_epochs=30,
             job=TRAIN_STAGES + AUDIT_STAGES),
    # Like audit plus an I/O-bound external detector behind a local HTTP
    # endpoint; concurrent dispatch hides its wait behind the local ones.
    Workload("remote", "audit with a slow external detector; concurrent dispatch "
             "hides its wait",
             contracts=300, test_fraction=1 / 3, slora_epochs=10, meta_epochs=100,
             job=AUDIT_STAGES, remote=True),
)}


def call_stage(pipeline, stage: str, config, workdir):
    """Call `pipeline.stage_<stage>` as looked up now, so trace wrappers apply."""
    fn = getattr(pipeline, f"stage_{stage}")
    return fn(config) if stage == "ingest" else fn(config, workdir)


# ---------------------------------------------------------------------------
# comments for the audit test split
# ---------------------------------------------------------------------------

_NOTES = ("checked by the audit team", "see the design notes", "gas reviewed",
          "keep in sync with the registry", "legacy path", "TODO: revisit limits")


def add_comments(source: str, rng: random.Random) -> str:
    """Insert //, /* */ and NatSpec comments where stripping them restores the text.

    Comments go on their own lines, after the last token of a line, or just
    before the first token of a line; `corpus.preprocess` strips comments,
    per-line whitespace and blank lines, so the preprocessed text is unchanged.
    """
    out = []
    for line in source.split("\n"):
        body = line.strip()
        indent = line[:len(line) - len(line.lstrip())]
        if body.startswith("function "):
            if rng.random() < 0.5:
                out.append(f"{indent}/// @notice {rng.choice(_NOTES)}")
            else:
                out += [f"{indent}/**", f"{indent} * @dev {rng.choice(_NOTES)}",
                        f"{indent} * @param none", f"{indent} */"]
        elif rng.random() < 0.1:
            out.append(f"{indent}// {rng.choice(_NOTES)}")
        roll = rng.random()
        if body and roll < 0.1 and '"' not in body and "'" not in body:
            line = f"{line} // {rng.choice(_NOTES)}"
        elif body and roll < 0.2:
            line = f"{indent}/* {rng.choice(_NOTES)} */ {body}"
        out.append(line)
    return "\n".join(out)


def comment_split(path, seed: int) -> list[tuple[str, str]]:
    """Rewrite a dataset file with comments added; return (plain, commented) pairs."""
    rng = random.Random(seed * 7919 + 17)
    records = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]
    pairs = []
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            plain = record["source"]
            record["source"] = add_comments(plain, rng)
            pairs.append((plain, record["source"]))
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return pairs


# ---------------------------------------------------------------------------
# remote endpoint
# ---------------------------------------------------------------------------

class Endpoint:
    """The stand-in external detector, served from one child process."""

    def __init__(self):
        script = Path(__file__).with_name("endpoint.py")
        self.proc = subprocess.Popen([sys.executable, str(script)],
                                     stdout=subprocess.PIPE, text=True)
        port = self.proc.stdout.readline().strip()
        if not port:
            self.stop()
            raise RuntimeError("remote endpoint did not start")
        self.url = f"http://127.0.0.1:{port}/"

    def stats(self) -> dict:
        """Counters since the previous call."""
        with urllib.request.urlopen(self.url + "stats", timeout=10) as reply:
            return json.loads(reply.read())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# inputs and config
# ---------------------------------------------------------------------------

def write_inputs(w: Workload, seed: int, root: Path, synth, endpoint: Optional[Endpoint]):
    """Corpus and config.json under `root`; returns (config path, comment pairs)."""
    paths = synth.write_corpus(root / "corpus", w.contracts, seed, test_fraction=w.test_fraction)
    pairs = comment_split(paths["test"], seed) if w.comments else []
    detectors = [{"kind": "dense"}, {"kind": "bm25"}, {"kind": "slora"}]
    payload = {
        "seed": seed,
        "taxonomy": paths["taxonomy"],
        "datasets": {"train": paths["train"], "test": paths["test"]},
        "slora": {**ACCEPTANCE_SLORA, "epochs": w.slora_epochs},
        "meta": {"learning_rate": 0.2, "epochs": w.meta_epochs, "batch_size": 16},
    }
    if endpoint is not None:
        detectors.append({"kind": "external"})
        payload["external"] = {"endpoint": endpoint.url, "timeout": 10.0}
    payload["detectors"] = detectors
    config_path = root / "config.json"
    config_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return config_path, pairs


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
