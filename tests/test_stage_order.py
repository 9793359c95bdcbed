"""The order in which ``translate_corpus`` sends and fails: every paid stage
feeds each live segment's own item before any other, and finds all its
failures before the next stage starts."""

from __future__ import annotations

import json

import pytest

from conftest import FIXTURES
from refta.backends import DrafterClient, EmbedderClient
from refta.corpus import load_monolingual, load_parallel
from refta.errors import PipelineError, TransportError, VectorError
from refta.index import ExclusionList, VectorIndex, build_index
from refta.pipeline import RunConfig, read_records, translate_corpus


@pytest.fixture()
def rag(endpoint, mock_server):
    """Endpoints sending one request at a time of at most 4 inputs, so that
    the order of the calls is the order of the feed, and a small index."""
    endpoints = {role: endpoint(role, max_batch=4, request_parallelism=1)
                 for role in ("drafter", "refiner", "embedder")}
    rows = list(load_monolingual(FIXTURES / "corpora" / "retrieval_fixture.jsonl", "jsonl"))
    index, _ = build_index(rows[:60], EmbedderClient(endpoints["embedder"]),
                           ExclusionList.empty())
    return endpoints, index


def _pairs(n):
    return load_parallel(FIXTURES / "testsets" / "ood_fixture_110.tsv", "tsv")[:n]


def _config(endpoints, **overrides):
    return RunConfig(condition="rag", run_id="rag", endpoints=endpoints, k=5,
                     jaccard_threshold=0.0, **overrides)


def _query_fails_for(monkeypatch, text, queried):
    """Wrap ``VectorIndex.query``: record every query's text, and refuse the
    one for ``text`` as a zero query vector would be refused."""
    original = VectorIndex.query

    def query(self, vector, lemmas, **kwargs):
        queried.append(next(iter(kwargs["skip_texts"])))
        if queried[-1] == text:
            raise VectorError("zero or non-finite vector rejected")
        return original(self, vector, lemmas, **kwargs)

    monkeypatch.setattr(VectorIndex, "query", query)


def test_drafter_feed_sends_every_live_source_before_any_neighbor(rag, tmp_path, monkeypatch):
    endpoints, index = rag
    pairs = _pairs(12)
    sources = [p.source.text for p in pairs]
    _query_fails_for(monkeypatch, sources[2], [])  # segment 2 is not live at stage 3
    original, requests = DrafterClient.translate, []

    def spy(self, texts):
        requests.append(list(texts))
        return original(self, texts)

    monkeypatch.setattr(DrafterClient, "translate", spy)
    (result,) = translate_corpus(_config(endpoints), pairs, index, runs_root=tmp_path)
    assert (result.succeeded, result.failed) == (11, 1)
    sent = [text for request in requests for text in request]
    live = sources[:2] + sources[3:]
    assert sent[:len(live)] == live
    neighbors = {n["latin"] for r in read_records(result.run_dir) for n in r["neighbors"]}
    assert neighbors and neighbors <= set(sent[len(live):])
    assert not set(sent[len(live):]) & set(sources)
    assert all(len(request) <= 4 for request in requests)


def test_fail_fast_raises_a_failed_embed_request_before_any_query(rag, tmp_path, monkeypatch):
    endpoints, index = rag
    pairs = _pairs(12)
    queried = []
    # a double fault: the first segment's query is refused, and the second
    # /embed request (segments 4 to 7) fails
    _query_fails_for(monkeypatch, pairs[0].source.text, queried)
    original, calls = EmbedderClient.embed, []

    def second_request_fails(self, texts):
        calls.append(list(texts))
        if len(calls) == 2:
            raise TransportError("backend down")
        return original(self, texts)

    monkeypatch.setattr(EmbedderClient, "embed", second_request_fails)
    with pytest.raises(PipelineError) as raised:
        translate_corpus(_config(endpoints, fail_fast=True), pairs, index, runs_root=tmp_path)
    assert (raised.value.stage, raised.value.segment_id) == ("retrieve", "ood004")
    assert isinstance(raised.value.__cause__, TransportError)
    assert queried == [] and len(calls) == 2
    assert not (tmp_path / "rag").exists()

    # without fail_fast, both faults are rows of errors.jsonl (a new runs root:
    # the first /embed reply is stored under the first)
    calls.clear()
    (result,) = translate_corpus(_config(endpoints), pairs, index, runs_root=tmp_path / "new")
    rows = [json.loads(line) for line in
            (result.run_dir / "errors.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [(row["segment_id"], row["stage"]) for row in rows] == [
        (f"ood{i:03d}", "retrieve") for i in (0, 4, 5, 6, 7)]
    assert "zero or non-finite" in rows[0]["error"]
    assert all("backend down" in row["error"] for row in rows[1:])
