"""The benchmark drives refta's public names from outside.

Installing and restoring its tracer here, running a traced pass, and running
the benchmark's untraced smoke runs make a rename or signature change
under ``src/`` that would break the benchmark's set-up, output checks or
stored comparison fail the test suite instead.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys

import pytest

import refta.pipeline
from conftest import FIXTURES, REPO_ROOT
from refta.backends import EmbedderClient
from refta.corpus import load_monolingual, load_parallel
from refta.index import build_index


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_attribute(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    originals = []

    class RecordingTracer(tracing.Tracer):
        def wrap(self, owner, attr, *args, **kwargs):
            originals.append((owner, attr, getattr(owner, attr)))
            super().wrap(owner, attr, *args, **kwargs)

    tracer = RecordingTracer()
    try:
        tracing.install(tracer)
        assert originals
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in originals)
    finally:
        tracer.restore()
    assert [(owner, attr) for owner, attr, orig in originals
            if getattr(owner, attr) is not orig] == []


def test_segment_spans_carry_their_segment_id(monkeypatch, endpoint, tmp_path):
    tracing = _load_tracing(monkeypatch)
    endpoints = {role: endpoint(role) for role in ("drafter", "refiner", "embedder")}
    corpus = list(load_monolingual(FIXTURES / "corpora" / "retrieval_fixture.jsonl", "jsonl"))
    embedder = EmbedderClient(endpoints["embedder"])
    try:
        index, _ = build_index(corpus[:20], embedder)
    finally:
        embedder.close()
    pairs = load_parallel(FIXTURES / "testsets" / "ood_fixture_110.tsv", "tsv")[:2]
    cfg = refta.pipeline.RunConfig(condition="rag", run_id="traced", endpoints=endpoints,
                                   k=2, jaccard_threshold=0.0)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        (result,) = refta.pipeline.translate_corpus(cfg, pairs, index, runs_root=tmp_path)
    finally:
        tracer.restore()
    assert result.succeeded == 2
    spans = [s for s in tracer.spans if s.name == "pipeline.translate_segment"]
    assert sorted(s.trace_id for s in spans) == sorted(p.source.id for p in pairs)


@pytest.mark.parametrize("workload", ["fixture", "scale-rag"])
def test_fixture_smoke_run_is_correct(workload):
    # scale-rag builds its index over HTTP, through EmbedderClient.embed
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke", "--trace", "0"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
