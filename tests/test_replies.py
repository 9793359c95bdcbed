"""The reply store: every backend reply a run paid for is appended under the
runs root as it arrives, and a run served from it sends no request twice, so
resuming a run is running it again."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import threading
from base64 import b64decode
from dataclasses import replace

import pytest

from conftest import DATA, FIXTURES, start_mock_server
from refta.artifacts import AppendFile, read_rows
from refta.backends import (
    DrafterClient, EmbedderClient, EndpointConfig, RefinerClient, estimate_tokens,
)
from refta.corpus import ParallelPair, SourceSegment, load_monolingual, load_parallel
from refta.errors import CorpusFormatError, PipelineError, ProtocolError, ReftaError
from refta.index import ExclusionList, build_index
from refta.mockserver import MockBehavior
from refta.pipeline import (
    REPLIES_DIR, RunConfig, read_hypotheses, read_manifest, read_records, translate_corpus,
)

TEST_SET = FIXTURES / "testsets" / "ood_fixture_110.tsv"
CHAT = "/v1/chat/completions"


def _rows(path) -> list[dict]:
    return [json.loads(raw) for _, raw in read_rows(path)]


def _comparable(run_dir) -> list[dict]:
    return [{k: v for k, v in rec.items() if k not in ("timings_ms", "timestamps")}
            for rec in read_records(run_dir)]


def _config(server, condition, **overrides) -> RunConfig:
    roles = {"zero_shot": ("refiner",), "draft_only": ("drafter", "refiner"),
             "rag": ("drafter", "refiner", "embedder")}[condition]
    endpoints = {role: EndpointConfig(base_url=server.base_url, model_id=f"mock/{role}",
                                      timeout=10.0) for role in roles}
    return RunConfig(condition=condition, run_id=overrides.pop("run_id", condition),
                     endpoints=endpoints, k=3, jaccard_threshold=0.0, **overrides)


def _store_files(root) -> dict:
    """Store file name -> its rows."""
    store = root / REPLIES_DIR
    return {p.name: _rows(p) for p in sorted(store.iterdir())} if store.exists() else {}


@pytest.fixture()
def server():
    srv = start_mock_server(MockBehavior())
    yield srv
    srv.stop()


@pytest.fixture(scope="module")
def pairs():
    return load_parallel(TEST_SET, "tsv")


# -- the append-only file ------------------------------------------------------------

def test_a_torn_final_row_is_skipped_then_cut_by_the_next_append(tmp_path):
    path = tmp_path / "store" / "rows.jsonl"
    rows = AppendFile(path)
    rows.append([json.dumps({"key": "a"}), json.dumps({"key": "b"})])
    with path.open("ab") as fh:
        fh.write(b'{"key": "c", "text": "cut sh')  # a writer killed mid-row
    assert _rows(path) == [{"key": "a"}, {"key": "b"}]
    rows.append([json.dumps({"key": "d"})])
    rows.close()
    assert path.read_bytes() == b'{"key": "a"}\n{"key": "b"}\n{"key": "d"}\n'
    assert _rows(path) == [{"key": "a"}, {"key": "b"}, {"key": "d"}]


def test_an_append_after_its_own_reads_no_tail(tmp_path, monkeypatch):
    original, reads = os.pread, []
    monkeypatch.setattr(os, "pread", lambda *args: reads.append(args) or original(*args))
    rows = AppendFile(tmp_path / "rows.jsonl")
    rows.append([json.dumps({"key": "a"})])
    reads.clear()
    rows.append([json.dumps({"key": "b"})])  # no other writer came between
    rows.close()
    assert reads == []
    assert _rows(tmp_path / "rows.jsonl") == [{"key": "a"}, {"key": "b"}]


@pytest.mark.parametrize("k", [1, 7])
def test_a_short_write_sends_the_rest(tmp_path, monkeypatch, k):
    original = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: original(fd, bytes(data[:k])))
    path = tmp_path / "rows.jsonl"
    rows = AppendFile(path)
    wanted = [{"key": f"k{i}", "text": "x" * i} for i in range(5)]
    rows.append(json.dumps(row) for row in wanted[:3])
    rows.append(json.dumps(row) for row in wanted[3:])
    rows.close()
    assert _rows(path) == wanted


def test_a_disk_filling_part_way_is_an_error_and_the_next_append_cuts_the_torn_row(
        tmp_path, monkeypatch):
    original, calls = os.write, []

    def full_after_3_bytes(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(28, "No space left on device")
        return original(fd, bytes(data[:3]))

    path = tmp_path / "rows.jsonl"
    rows = AppendFile(path)
    rows.append([json.dumps({"key": "a"})])
    monkeypatch.setattr(os, "write", full_after_3_bytes)
    with pytest.raises(ReftaError, match="No space left"):
        rows.append([json.dumps({"key": "b"})])
    monkeypatch.undo()
    assert _rows(path) == [{"key": "a"}]
    rows.append([json.dumps({"key": "c"})])
    rows.close()
    assert _rows(path) == [{"key": "a"}, {"key": "c"}]


def test_the_first_append_makes_the_directory_and_no_file_reads_as_empty(tmp_path):
    path = tmp_path / "a" / "b" / "rows.jsonl"
    assert _rows(path) == []
    rows = AppendFile(path)
    assert not (tmp_path / "a").exists()
    rows.append(["{}"])
    rows.close()
    assert _rows(path) == [{}]


def _append_from_threads(path, proc: int) -> None:
    sys.setswitchinterval(1e-6)  # this process's threads switch as often as they can
    rows = AppendFile(path)

    def append(thread: int):
        for i in range(100):
            # rows far longer than a pipe buffer, so an unlocked write could interleave
            rows.append([json.dumps({"key": f"{proc}-{thread}-{i}", "pad": "x" * 9000})])
    threads = [threading.Thread(target=append, args=(t,)) for t in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    rows.close()


def test_two_processes_append_whole_rows(tmp_path):
    path = tmp_path / "rows.jsonl"
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=_append_from_threads, args=(path, p)) for p in range(2)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    keys = [row["key"] for row in _rows(path)]
    assert len(keys) == 400
    assert set(keys) == {f"{p}-{t}-{i}" for p in range(2) for t in range(2) for i in range(100)}


# -- what the pipeline stores and replays --------------------------------------------

def test_a_failed_refine_leaves_no_row(tmp_path, pairs):
    srv = start_mock_server(MockBehavior(refiner="empty"))
    try:
        (result,) = translate_corpus(_config(srv, "draft_only"), pairs[:4], runs_root=tmp_path)
    finally:
        srv.stop()
    assert result.failed == 4
    (name, rows), = _store_files(tmp_path).items()  # the drafter's file alone
    assert name.startswith("drafter-") and sum(len(row["keys"]) for row in rows) == 4


def test_a_refused_run_leaves_no_store(tmp_path, server, pairs):
    cfg = _config(server, "rag")
    embedder = replace(cfg.endpoints["embedder"], model_id="another-embedder")
    with pytest.raises(ValueError, match="the model the index was built with"):
        translate_corpus(replace(cfg, endpoints={**cfg.endpoints, "embedder": embedder}),
                         pairs[:4], _index(server), runs_root=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_a_prompt_two_segments_share_is_paid_once_and_replayed_once(tmp_path, pairs):
    twins = [ParallelPair(SourceSegment(f"twin{i}", pairs[0].source.text), pairs[0].references)
             for i in range(2)]
    srv = start_mock_server(MockBehavior(latency_ms=50))
    try:
        # two requests may be in flight at once, so both twins could be sent
        cfg = _config(srv, "zero_shot", workers=2)
        cfg = replace(cfg, endpoints={"refiner": replace(cfg.endpoints["refiner"],
                                                         request_parallelism=2)})
        (result,) = translate_corpus(cfg, twins, runs_root=tmp_path)
        assert srv.stats.snapshot()["counts"] == {CHAT: 1}
        srv.stats.reset()
        (again,) = translate_corpus(replace(cfg, run_id="again"), twins, runs_root=tmp_path)
        assert srv.stats.snapshot()["counts"] == {}
    finally:
        srv.stop()
    first, second = read_records(result.run_dir)
    assert (first["segment_id"], second["segment_id"]) == ("twin0", "twin1")
    assert first["refined"] == second["refined"]
    assert first["timings_ms"]["refine"] == second["timings_ms"]["refine"] > 0
    assert read_manifest(again.run_dir)["replayed"] == {"refiner": 1}  # distinct requests
    assert _comparable(again.run_dir) == _comparable(result.run_dir)


@pytest.mark.parametrize("change", [{"seed": 1}, {"temperature": 0.5}], ids=["seed", "temp"])
def test_a_changed_seed_or_temperature_is_a_miss(tmp_path, server, pairs, change):
    (first,) = translate_corpus(_config(server, "zero_shot"), pairs[:6], runs_root=tmp_path)
    server.stats.reset()
    (other,) = translate_corpus(_config(server, "zero_shot", run_id="other", **change),
                                pairs[:6], runs_root=tmp_path)
    assert server.stats.snapshot()["counts"] == {CHAT: 6}
    assert read_manifest(other.run_dir)["replayed"] == {"refiner": 0}
    server.stats.reset()
    (again,) = translate_corpus(_config(server, "zero_shot", run_id="again"), pairs[:6],
                                runs_root=tmp_path)
    assert server.stats.snapshot()["counts"] == {}
    assert read_manifest(again.run_dir)["replayed"] == {"refiner": 6}
    assert _comparable(again.run_dir) == _comparable(first.run_dir)


def test_each_run_of_a_sweep_counts_its_own_replays(tmp_path, server, pairs):
    translate_corpus(_config(server, "draft_only"), pairs[:6], runs_root=tmp_path)
    server.stats.reset()
    (cold,) = translate_corpus(_config(server, "draft_only", run_id="t0.5", temperature=0.5),
                               pairs[:6], runs_root=tmp_path)
    (warm,) = translate_corpus(_config(server, "draft_only", run_id="t0.0"), pairs[:6],
                               runs_root=tmp_path)
    assert server.stats.snapshot()["counts"] == {CHAT: 6}
    assert read_manifest(cold.run_dir)["replayed"] == {"drafter": 6, "refiner": 0}
    assert read_manifest(warm.run_dir)["replayed"] == {"drafter": 6, "refiner": 6}


def _index(server):
    """An index of the first 60 fixture corpus rows, embedded by ``server``."""
    segments = list(load_monolingual(FIXTURES / "corpora" / "retrieval_fixture.jsonl",
                                     "jsonl"))[:60]
    embedder = EmbedderClient(EndpointConfig(base_url=server.base_url,
                                             model_id="mock/embedder", timeout=10.0))
    index, _ = build_index(segments, embedder, ExclusionList.empty())
    embedder.close()
    return index


def test_a_second_identical_run_sends_no_request(tmp_path, server, pairs):
    index = _index(server)
    cfg = _config(server, "rag")
    server.stats.reset()
    (first,) = translate_corpus(cfg, pairs[:12], index, runs_root=tmp_path)
    paid = server.stats.snapshot()
    server.stats.reset()
    (again,) = translate_corpus(cfg, pairs[:12], index, runs_root=tmp_path, force=True)
    assert server.stats.snapshot()["counts"] == {}
    # the replayed query vectors are the paid ones, bit for bit, so are the cosines
    assert _comparable(again.run_dir) == _comparable(first.run_dir)
    assert read_manifest(again.run_dir)["replayed"] == {
        "drafter": paid["inputs"]["/translate"], "embedder": 12, "refiner": 12}
    manifest = read_manifest(again.run_dir)
    assert manifest["tokens"] == read_manifest(first.run_dir)["tokens"]
    for rec in read_records(again.run_dir):
        assert rec["timings_ms"]["refine"] == rec["timings_ms"]["draft"] == 0.0
        assert rec["timings_ms"]["neighbor_drafts"] == 0.0
    endpoint_ids = {role: f"mock/{role}\0{server.base_url}"
                    for role in ("drafter", "refiner", "embedder")}
    assert set(_store_files(tmp_path)) == {
        f"{role}-{hashlib.sha256(endpoint_id.encode()).hexdigest()}.jsonl"
        for role, endpoint_id in endpoint_ids.items()}


def test_a_stored_query_vector_of_another_size_is_paid_again(tmp_path, server, pairs):
    cfg = _config(server, "rag")
    translate_corpus(cfg, pairs[:6], _index(server), runs_root=tmp_path)
    server.behavior.embed_dim = 32  # the same model id and URL now serve another size
    index = _index(server)
    server.stats.reset()
    (result,) = translate_corpus(cfg, pairs[:6], index, runs_root=tmp_path, force=True)
    assert (result.succeeded, result.failed) == (6, 0)
    assert server.stats.snapshot()["inputs"]["/embed"] == 6
    server.stats.reset()
    translate_corpus(cfg, pairs[:6], index, runs_root=tmp_path, force=True)
    assert server.stats.snapshot()["counts"] == {}  # the newer rows win on the next load


def test_an_embedder_serving_another_size_costs_one_round_of_requests(tmp_path, server,
                                                                      pairs):
    server.behavior.embed_dim = 8
    index = _index(server)
    server.behavior.embed_dim = 64  # the same model id and URL now serve another size
    cfg = _config(server, "rag")
    cfg = replace(cfg, endpoints={role: replace(ep, max_batch=8, request_parallelism=4)
                                  for role, ep in cfg.endpoints.items()})
    for force in (False, True):
        server.stats.reset()
        (result,) = translate_corpus(cfg, pairs, index, runs_root=tmp_path, force=force)
        assert (result.succeeded, result.failed) == (0, len(pairs))
        counts = server.stats.snapshot()["counts"]
        assert counts == {"/embed": 1}  # the first batch goes alone, and is refused
        assert not any(_store_files(tmp_path).values())  # no vector of the wrong size is kept
        errors = _rows(result.run_dir / "errors.jsonl")
        assert len(errors) == len(pairs)
        assert {(row["stage"], row["error"]) for row in errors} == {
            ("retrieve", "the embedder serves vectors of dim 64, not the index dim 8")}


def test_every_store_append_runs_on_the_calling_thread(tmp_path, server, pairs, monkeypatch):
    index = _index(server)
    append, threads = AppendFile.append, []

    def recording(self, lines):
        threads.append(threading.get_ident())
        append(self, lines)

    monkeypatch.setattr(AppendFile, "append", recording)
    cfg = _config(server, "rag", workers=4)  # request_parallelism 4 for every role
    assert {ep.request_parallelism for ep in cfg.endpoints.values()} == {4}
    translate_corpus(cfg, pairs, index, runs_root=tmp_path)
    assert [len(rows) > 0 for rows in _store_files(tmp_path).values()] == [True] * 3
    assert set(threads) == {threading.get_ident()}


def test_two_backends_that_serve_one_model_id_share_no_reply(tmp_path, pairs):
    records = {}
    for refiner in ("template", "echo"):
        srv = start_mock_server(MockBehavior(refiner=refiner))
        try:
            (result,) = translate_corpus(_config(srv, "zero_shot", run_id=refiner), pairs[:4],
                                         runs_root=tmp_path)
            assert srv.stats.snapshot()["counts"] == {CHAT: 4}
        finally:
            srv.stop()
        assert read_manifest(result.run_dir)["replayed"] == {"refiner": 0}
        records[refiner] = [rec["refined"] for rec in read_records(result.run_dir)]
    assert records["template"] != records["echo"]
    assert len(_store_files(tmp_path)) == 2


def test_a_store_that_cannot_be_written_ends_the_run_after_one_request(
        tmp_path, server, pairs, monkeypatch):
    complete = RefinerClient.complete

    def complete_then_block_the_store(self, req, body=None):
        (tmp_path / REPLIES_DIR).write_text("a file where the store's directory goes")
        return complete(self, req, body)

    monkeypatch.setattr(RefinerClient, "complete", complete_then_block_the_store)
    with pytest.raises(ReftaError, match="cannot write under"):
        translate_corpus(_config(server, "zero_shot", workers=1), pairs[:4],
                         runs_root=tmp_path)
    assert server.stats.snapshot()["counts"] == {CHAT: 1}
    assert not (tmp_path / "zero_shot").exists()


def test_a_run_interrupted_at_its_61st_call_resumes_with_the_other_50(
        tmp_path, server, pairs, monkeypatch):
    (whole,) = translate_corpus(_config(server, "zero_shot", workers=1), pairs,
                                runs_root=tmp_path / "whole")
    complete = RefinerClient.complete
    calls = []

    def interrupted(self, req, body=None):
        calls.append(req)
        if len(calls) == 61:
            raise RuntimeError("killed")
        return complete(self, req, body)

    monkeypatch.setattr(RefinerClient, "complete", interrupted)
    server.stats.reset()
    with pytest.raises(RuntimeError, match="killed"):
        translate_corpus(_config(server, "zero_shot", workers=1), pairs, runs_root=tmp_path)
    assert server.stats.snapshot()["counts"] == {CHAT: 60}
    assert not (tmp_path / "zero_shot").exists()
    monkeypatch.setattr(RefinerClient, "complete", complete)
    server.stats.reset()
    (resumed,) = translate_corpus(_config(server, "zero_shot", workers=1), pairs,
                                  runs_root=tmp_path)
    assert server.stats.snapshot()["counts"] == {CHAT: 50}
    assert read_manifest(resumed.run_dir)["replayed"] == {"refiner": 60}
    assert _comparable(resumed.run_dir) == _comparable(whole.run_dir)


def test_a_fail_fast_run_keeps_what_it_paid_for(tmp_path, server, pairs):
    cfg = _config(server, "draft_only", fail_fast=True, workers=1)
    server.behavior.refiner = "empty"
    with pytest.raises(PipelineError):
        translate_corpus(cfg, pairs[:5], runs_root=tmp_path)
    server.behavior.refiner = "template"
    server.stats.reset()
    (result,) = translate_corpus(cfg, pairs[:5], runs_root=tmp_path)
    assert result.failed == 0
    assert server.stats.snapshot()["counts"] == {CHAT: 5}  # every draft was kept


def test_under_fail_fast_a_prompt_over_the_budget_costs_no_request(tmp_path, pairs):
    srv = start_mock_server(MockBehavior(latency_ms=20))
    try:
        oversized = ParallelPair(SourceSegment("long", "verbum " * 2000), ("words",))
        with pytest.raises(PipelineError) as raised:
            translate_corpus(_config(srv, "zero_shot", fail_fast=True, workers=4),
                             [oversized, *pairs[:8]], runs_root=tmp_path)
        assert srv.stats.snapshot()["counts"] == {}
    finally:
        srv.stop()
    assert (raised.value.stage, raised.value.segment_id) == ("assemble", "long")
    assert raised.value.__cause__ is raised.value.cause
    assert not (tmp_path / "zero_shot").exists()


def _paid_with_a_row_added(tmp_path, server, pairs, role, line: bytes):
    """A run of pairs[:2] with ``role`` in its config, then ``line`` put into
    the role's store file after its first row, ``KEY`` in it replaced by the
    first key of that row. Returns the condition, the index and the file."""
    condition, index = {"refiner": ("zero_shot", None), "drafter": ("draft_only", None),
                        "embedder": ("rag", _index(server))}[role]
    translate_corpus(_config(server, condition), pairs[:2], index, runs_root=tmp_path)
    (path,) = (tmp_path / REPLIES_DIR).glob(f"{role}-*")
    first, rest = path.read_bytes().split(b"\n", 1)
    key = json.dumps(json.loads(first)["keys"][0]).encode()
    path.write_bytes(first + b"\n" + line.replace(b'"KEY"', key) + b"\n" + rest)
    server.stats.reset()
    return condition, index, path


@pytest.mark.parametrize("role, line", [
    ("refiner", b"not json"), ("refiner", b"[1, 2]"),
    ("refiner", b'{"keys": ["\xff"], "body": {}}'),
    ("refiner", b'{"keys": "KEY", "body": {}}'), ("refiner", b'{"keys": [], "body": {}}'),
    ("refiner", b'{"keys": [7], "body": {}}'), ("drafter", b'{"keys": [""], "body": {}}'),
    ("refiner", b'{"keys": ["KEY"]}'), ("embedder", b'{"keys": ["KEY"], "body": []}'),
    # rows of the shape stores had before they kept bodies, that cannot be read
    ("refiner", b'{"key": "KEY", "text": "t"}'), ("drafter", b'{"key": "KEY"}'),
    ("embedder", b'{"key": "KEY", "text": "t"}'),
], ids=["not-json", "not-an-object", "not-utf8", "keys-not-a-list", "keys-empty",
        "key-not-a-string", "key-empty", "no-body", "body-not-an-object",
        "no-usage", "no-text", "no-vector"])
def test_a_store_row_that_is_not_a_reply_is_refused_before_any_request(tmp_path, server,
                                                                        pairs, role, line):
    condition, index, path = _paid_with_a_row_added(tmp_path, server, pairs, role, line)
    with pytest.raises(CorpusFormatError) as exc:
        translate_corpus(_config(server, condition, run_id="next"), pairs[:2], index,
                         runs_root=tmp_path)
    assert (exc.value.path, exc.value.line_no) == (str(path), 2)
    assert server.stats.snapshot()["counts"] == {}


_CHOICE = b'"choices": [{"message": {"content": "t"}, "finish_reason": "stop"}]'


@pytest.mark.parametrize("role, line", [
    ("refiner", b'{"keys": ["KEY"], "body": {"choices": [{"message": {"content": ""}}]}}'),
    ("refiner", b'{"keys": ["KEY"], "body": {' + _CHOICE
                + b', "usage": {"prompt_tokens": 1.5, "completion_tokens": 2}}}'),
    ("embedder", b'{"keys": ["KEY"], "body": {"vectors": "not base64!", "dim": 64}}'),
    ("drafter", b'{"keys": ["KEY"], "body": {"outputs": [" "]}}'),
    # rows of the shape stores had before they kept bodies, read as the body they imply
    ("refiner", b'{"key": "KEY", "text": "t", "usage": {"input_tokens": 1.5, "output_tokens": 2,'
                b' "source": "backend-reported"}}'),
    ("refiner", b'{"key": "KEY", "text": "t", "usage": {"input_tokens": 1, "output_tokens": true,'
                b' "source": "backend-reported"}}'),
    ("embedder", b'{"key": "KEY", "vector": "not base64!"}'),
    ("embedder", b'{"key": "KEY", "vector": "AAA="}'),
    ("embedder", b'{"key": "KEY", "vector": ""}'),
], ids=["empty-content", "body-usage-float", "body-vector-not-base64", "empty-draft",
        "usage-float", "usage-bool", "vector-not-base64", "vector-not-float32", "vector-empty"])
def test_a_stored_body_the_parser_rejects_is_paid_again_once(tmp_path, server, pairs, role,
                                                             line):
    condition, index, _ = _paid_with_a_row_added(tmp_path, server, pairs, role, line)
    (cold,) = translate_corpus(_config(server, condition), pairs[:2], index,
                               runs_root=tmp_path / "cold")
    server.stats.reset()
    (paid,) = translate_corpus(_config(server, condition, run_id="paid"), pairs[:2], index,
                               runs_root=tmp_path)
    counts = server.stats.snapshot()["counts"]
    assert counts == {{"refiner": CHAT, "drafter": "/translate", "embedder": "/embed"}[role]: 1}
    assert server.stats.snapshot()["inputs"] == counts  # the one key the row carried
    replayed = read_manifest(paid.run_dir)["replayed"]
    assert replayed[role] == len({p.source.text for p in pairs[:2]}) - 1
    assert _comparable(paid.run_dir) == _comparable(cold.run_dir)
    server.stats.reset()
    (again,) = translate_corpus(_config(server, condition, run_id="again"), pairs[:2], index,
                                runs_root=tmp_path)
    assert server.stats.snapshot()["counts"] == {}  # the row paid again is newer
    assert _comparable(again.run_dir) == _comparable(cold.run_dir)


def test_an_embedder_row_holds_the_row_the_embedder_served(tmp_path, server, pairs):
    translate_corpus(_config(server, "rag"), pairs[:6], _index(server), runs_root=tmp_path)
    (rows,) = [rows for name, rows in _store_files(tmp_path).items()
               if name.startswith("embedder-")]
    assert sorted(key for row in rows for key in row["keys"]) == sorted(
        p.source.text for p in pairs[:6])
    embedder = EmbedderClient(EndpointConfig(base_url=server.base_url,
                                             model_id="mock/embedder", timeout=10.0))
    served = [embedder.embed(row["keys"]) for row in rows]
    embedder.close()
    assert [row["body"] for row in rows] == served
    assert [b64decode(row["body"]["vectors"]) for row in rows] == [
        embedder.parse(row["keys"], body).astype("<f4").tobytes()
        for row, body in zip(rows, served)]


# -- rows of the shape stores had before they kept the served body -------------------

OLD_STORE = DATA / "old_store"  # a fixture rag run of pairs[:6], as such a store wrote it


def test_a_store_of_the_old_row_shapes_replays_for_free(tmp_path, server, pairs):
    """``{"key", "text"}`` drafter rows, ``{"key", "text", "usage"}`` refiner
    rows and ``{"key", "vector"}`` embedder rows are read as the bodies they
    imply, so no reply they hold is paid again, and new rows join them in the
    one row shape."""
    index, cfg = _index(server), _config(server, "rag")
    (cold,) = translate_corpus(cfg, pairs[:7], index, runs_root=tmp_path / "cold")
    store = tmp_path / "old" / REPLIES_DIR
    store.mkdir(parents=True)
    for role in cfg.endpoints:
        endpoint_id = f"mock/{role}\0{server.base_url}"
        (store / f"{role}-{hashlib.sha256(endpoint_id.encode()).hexdigest()}.jsonl").write_bytes(
            (OLD_STORE / f"{role}.jsonl").read_bytes())
    server.stats.reset()
    (replayed,) = translate_corpus(cfg, pairs[:6], index, runs_root=tmp_path / "old")
    assert server.stats.snapshot()["counts"] == {}
    assert _comparable(replayed.run_dir) == _comparable(cold.run_dir)[:6]
    assert read_manifest(replayed.run_dir)["replayed"] == {
        "drafter": len(_rows(OLD_STORE / "drafter.jsonl")), "embedder": 6, "refiner": 6}
    (more,) = translate_corpus(cfg, pairs[:7], index, runs_root=tmp_path / "old", force=True)
    assert server.stats.snapshot()["counts"][CHAT] == 1  # the seventh segment's alone
    assert _comparable(more.run_dir) == _comparable(cold.run_dir)
    for name, rows in _store_files(tmp_path / "old").items():
        old = _rows(OLD_STORE / f"{name.split('-')[0]}.jsonl")
        assert rows[:len(old)] == old
        assert rows[len(old):] and all(row.keys() == {"keys", "body"} for row in rows[len(old):])


def test_an_old_refiner_row_of_estimated_usage_is_estimated_again(tmp_path, server, pairs):
    cfg = _config(server, "zero_shot")
    (cold,) = translate_corpus(cfg, pairs[:1], runs_root=tmp_path / "cold")
    ((name, (row,)),) = _store_files(tmp_path / "cold").items()
    (text,) = read_hypotheses(cold.run_dir)
    old = {"key": row["keys"][0], "text": text,
           "usage": {"input_tokens": 1, "output_tokens": 1, "source": "estimated"}}
    rows = AppendFile(tmp_path / REPLIES_DIR / name)
    rows.append([json.dumps(old)])
    rows.close()
    server.stats.reset()
    (replayed,) = translate_corpus(cfg, pairs[:1], runs_root=tmp_path)
    assert server.stats.snapshot()["counts"] == {}
    (record,) = read_records(replayed.run_dir)
    (served,) = read_records(cold.run_dir)
    assert record["refined"] == served["refined"] and record["usage_source"] == "estimated"
    assert record["output_tokens"] == estimate_tokens(text)


def test_a_stricter_parser_reaches_the_replays(tmp_path, server, pairs, monkeypatch):
    cfg = _config(server, "draft_only")
    translate_corpus(cfg, pairs[:8], runs_root=tmp_path)
    parse, refused = DrafterClient.parse, pairs[3].source.text

    def stricter(self, texts, body):
        if refused in texts:
            raise ProtocolError(f"a draft of {refused!r}")
        return parse(self, texts, body)

    monkeypatch.setattr(DrafterClient, "parse", stricter)
    server.stats.reset()
    (cold,) = translate_corpus(cfg, pairs[:8], runs_root=tmp_path / "cold")
    cold_counts = server.stats.snapshot()["counts"]
    server.stats.reset()
    (replayed,) = translate_corpus(replace(cfg, run_id="strict"), pairs[:8], runs_root=tmp_path)
    # the one stored drafter row is rejected, so its batch and its resends go out again
    assert server.stats.snapshot()["counts"] == {"/translate": cold_counts["/translate"]}
    assert cold_counts == {"/translate": 1 + 8, CHAT: 7}
    assert _rows(replayed.run_dir / "errors.jsonl") == _rows(cold.run_dir / "errors.jsonl")
    assert [row["segment_id"] for row in _rows(cold.run_dir / "errors.jsonl")] == ["ood003"]
    assert _comparable(replayed.run_dir) == _comparable(cold.run_dir)
    monkeypatch.setattr(DrafterClient, "parse", parse)
    server.stats.reset()
    (restored,) = translate_corpus(replace(cfg, run_id="restored"), pairs[:8],
                                   runs_root=tmp_path)
    assert server.stats.snapshot()["counts"] == {}
    assert restored.failed == 0
