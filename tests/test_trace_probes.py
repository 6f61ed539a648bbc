"""The benchmark's span probes still find every target in the package.

perfbench/tracer.py wraps named functions and methods of vulnfuse; a target
renamed or removed makes its layer metrics absent instead of failing a run.
These checks fail instead, so a refactor cannot blind the benchmark unseen.
"""

import sys
from pathlib import Path

import numpy as np

from vulnfuse import detectors, meta
from vulnfuse.corpus import Contract

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer as tracing  # noqa: E402


def test_every_probe_target_resolves():
    tracer = tracing.Tracer()
    with tracer.patched():
        pass
    assert tracer.absent == {}


def test_walked_detections_and_verify_are_traced():
    waiting = detectors.MockDetector([0.4, 0.6], name="remote", delay=0.001, fail=True)
    local = detectors.MockDetector([0.2, 0.9], name="local")
    contracts = [Contract(id=f"c{i}", source="x;") for i in range(3)]
    tracer = tracing.Tracer()
    with tracer.patched():
        record = detectors.batch_detect([waiting, local], contracts, 2)
        meta.verify(meta.init_meta(psi=2, seed=0), record)
    spans = [s for s in tracer.spans if s.name == "detectors.detect"]
    # only the waiting detector walks its contracts through `detect`
    assert [s.contract for s in spans] == ["c0", "c1", "c2"]
    assert all(s.attrs == {"detector": "remote", "failed": 1} for s in spans)
    assert [s.name for s in tracer.spans].count("meta.forward") == 1
    assert [s.name for s in tracer.spans].count("meta.verify") == 1
    assert np.isnan(record.probs[0]).all()
