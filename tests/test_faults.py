"""Fault matrix: under the mock's request-keyed faults a run accounts for
every segment, fails the same segments at any parallelism, and under
``fail_fast`` fails loudly and writes nothing. Run again with faults off in
the same runs root, it pays only for the replies the faulty run did not get,
and its records equal those of a fault-free run.

The mock decides each ``fail_rate`` fault from the request's path, body and
attempt, so one draw fails the same requests whatever order they arrive in.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, start_mock_server
from refta.artifacts import read_lines
from refta.backends import DrafterClient, EmbedderClient, EndpointConfig, RefinerClient
from refta.corpus import load_monolingual, load_parallel
from refta.errors import PipelineError
from refta.index import ExclusionList, build_index
from refta.mockserver import MockBehavior
from refta.pipeline import (
    FAILED_SENTINEL,
    RunConfig,
    read_hypotheses,
    read_records,
    translate_corpus,
)
from refta.prompt import CONDITIONS

RUN_ID = "faults"
SEGMENTS = 20
BATCHED = ("/embed", "/translate")  # the paths whose rejected batches are resent
CHAT = "/v1/chat/completions"


class _World:
    """One mock, one index and the fault-free outcome of each condition."""

    def __init__(self, server, index, pairs, roots):
        self.server, self.index, self.pairs, self.roots = server, index, pairs, roots
        self._free: dict = {}
        self.drafted: list = []  # the texts of every draft the drafter served
        self.embedded: list = []  # the texts of every vector the embedder served
        self.refined: list = []  # one entry per chat reply the refiner served

    def run(self, condition, parallelism, max_batch, max_retries, fail_fast,
            fail_rate=0.0, fail_status=500, root=None):
        """``translate_corpus`` on a freshly reset mock, in ``root`` (a new
        runs root when None, else over what runs there); returns the run's
        directory, or the ``PipelineError`` it raised, and the mock's counts
        with the texts drafted and embedded and the number of chat replies
        served."""
        self.server.behavior.fail_rate = fail_rate
        self.server.behavior.fail_status = fail_status
        self.server.stats.reset()
        self.drafted.clear()
        self.embedded.clear()
        self.refined.clear()
        endpoints = {role: EndpointConfig(
            base_url=self.server.base_url, model_id=f"mock-{role}", timeout=10.0,
            max_retries=max_retries, request_parallelism=parallelism, max_batch=max_batch,
        ) for role in ("drafter", "refiner", "embedder")}
        cfg = RunConfig(condition=condition, run_id=RUN_ID, endpoints=endpoints, k=3,
                        jaccard_threshold=0.0, workers=parallelism, fail_fast=fail_fast)
        force = root is not None
        root = root or self.roots.mktemp("runs")
        try:
            (result,) = translate_corpus(cfg, self.pairs, self.index, runs_root=root,
                                         force=force)
            outcome = result.run_dir
        except PipelineError as exc:
            assert force or not (root / RUN_ID).exists()
            outcome = exc
        return outcome, {**self.server.stats.snapshot(), "root": root,
                         "drafted": set(self.drafted), "embedded": set(self.embedded),
                         "refined": len(self.refined)}

    def fault_free(self, condition, max_batch):
        """Each segment's record, and the mock's counts, with faults off."""
        if (condition, max_batch) not in self._free:
            run_dir, stats = self.run(condition, 1, max_batch, 0, False)
            records = {rec["segment_id"]: _comparable(rec) for rec in read_records(run_dir)}
            assert len(records) == SEGMENTS
            self._free[condition, max_batch] = records, stats
        return self._free[condition, max_batch]


def _served(method, into: list, inputs):
    """``method``, which notes the inputs of each call that returns in ``into``."""
    def wrapper(client, arg, *rest):
        out = method(client, arg, *rest)
        into.extend(inputs(arg))
        return out
    return wrapper


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    server = start_mock_server(MockBehavior())
    segments = list(load_monolingual(
        FIXTURES / "corpora" / "retrieval_fixture.jsonl", "jsonl"))[:60]
    embedder = EmbedderClient(EndpointConfig(base_url=server.base_url,
                                             model_id="mock-embedder", timeout=10.0))
    index, _ = build_index(segments, embedder, ExclusionList.empty())
    embedder.close()
    pairs = load_parallel(FIXTURES / "testsets" / "ood_fixture_110.tsv", "tsv")[:SEGMENTS]
    world = _World(server, index, pairs, tmp_path_factory)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DrafterClient, "translate",
                      _served(DrafterClient.translate, world.drafted, lambda texts: texts))
        patch.setattr(EmbedderClient, "embed",
                      _served(EmbedderClient.embed, world.embedded, lambda texts: texts))
        patch.setattr(RefinerClient, "complete",
                      _served(RefinerClient.complete, world.refined, lambda req: [req]))
        yield world
    server.stop()


def _comparable(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in ("timings_ms", "timestamps")}


def _failed(run_dir, pairs, free_records) -> set:
    """The run's ``(index, stage)`` failures, once its files are checked to
    account for every segment."""
    hyps = read_hypotheses(run_dir)
    records = read_records(run_dir)
    errors = [json.loads(line) for _, line in read_lines(run_dir / "errors.jsonl")]
    assert len(hyps) == len(pairs)
    recorded = [rec["segment_id"] for rec in records]
    failed = [row["segment_id"] for row in errors]
    assert sorted(recorded + failed) == sorted(p.source.id for p in pairs)
    assert {i for i, h in enumerate(hyps) if h == FAILED_SENTINEL} == {
        row["index"] for row in errors}
    assert [pairs[row["index"]].source.id for row in errors] == failed
    for rec in records:
        assert _comparable(rec) == free_records[rec["segment_id"]]
    return {(row["index"], row["stage"]) for row in errors}


@settings(max_examples=20, deadline=None)
@given(
    condition=st.sampled_from(CONDITIONS),
    parallelism=st.sampled_from([1, 2, 8]),
    max_batch=st.sampled_from([1, 3, 64]),
    fail_status=st.sampled_from([500, 429, 400]),
    fail_rate=st.floats(min_value=0.0, max_value=1.0),
    max_retries=st.sampled_from([0, 2]),
    fail_fast=st.booleans(),
)
def test_a_run_accounts_for_every_segment_or_fails_loudly(
        world, condition, parallelism, max_batch, fail_status, fail_rate, max_retries,
        fail_fast):
    free_records, free_stats = world.fault_free(condition, max_batch)
    draw = dict(condition=condition, max_batch=max_batch, max_retries=max_retries,
                fail_rate=fail_rate, fail_status=fail_status)
    serial = world.run(parallelism=1, fail_fast=False, **draw)
    serial_failed = _failed(serial[0], world.pairs, free_records)
    outcome, stats = (serial if (parallelism, fail_fast) == (1, False) else
                      world.run(parallelism=parallelism, fail_fast=fail_fast, **draw))
    for path, count in stats["counts"].items():
        # each request is sent at most max_retries + 1 times, and a rejected
        # batch of several inputs is resent one input at a time
        resends = free_stats["inputs"][path] if path in BATCHED and max_batch > 1 else 0
        assert count <= (max_retries + 1) * free_stats["counts"][path] + resends, path
    if fail_fast:
        # it stops on a failure exactly when the run without fail_fast has one
        assert isinstance(outcome, PipelineError) == bool(serial_failed)
    if not isinstance(outcome, PipelineError):
        assert _failed(outcome, world.pairs, free_records) == serial_failed

    # run again with faults off: only what the faulty run was not served is sent
    resumed, again = world.run(condition, parallelism, max_batch, max_retries, fail_fast,
                               root=stats["root"])
    assert _failed(resumed, world.pairs, free_records) == set()
    assert again["embedded"] == free_stats["embedded"] - stats["embedded"]
    assert again["inputs"].get("/embed", 0) == len(again["embedded"])
    assert again["drafted"] == free_stats["drafted"] - stats["drafted"]
    assert again["inputs"].get("/translate", 0) == len(again["drafted"])
    assert again["counts"].get(CHAT, 0) == SEGMENTS - stats["refined"]
