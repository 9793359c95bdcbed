from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import asdict, replace

import pytest

from conftest import FIXTURES
from refta.backends import DrafterClient, EmbedderClient, EndpointConfig, RefinerClient
from refta.corpus import ParallelPair, SourceSegment, load_monolingual, load_parallel
from refta.errors import PipelineError, ReftaError, RequestError, TransportError
from refta.index import ExclusionList, build_index
from refta.metrics.report import compare_runs
from refta.mockserver import MockBehavior, start_mock_server
from refta.pipeline import (
    FAILED_SENTINEL,
    REPLIES_DIR,
    RunConfig,
    TranslationRecord,
    read_hypotheses,
    read_manifest,
    read_records,
    translate_corpus,
)
from refta.prompt import NeighborExample


@pytest.fixture()
def stack(endpoint, mock_server):
    """Mock-backed endpoints plus a small index over the retrieval fixture."""
    from refta.backends import EmbedderClient

    endpoints = {
        "drafter": endpoint("drafter"),
        "refiner": endpoint("refiner"),
        "embedder": endpoint("embedder"),
    }
    segments = list(load_monolingual(
        FIXTURES / "corpora" / "retrieval_fixture.jsonl", "jsonl"
    ))[:60]
    index, _ = build_index(
        segments, EmbedderClient(endpoints["embedder"]), ExclusionList.empty(),
    )
    mock_server.stats.reset()
    return endpoints, index, mock_server


def _pairs(n=6):
    pairs = load_parallel(FIXTURES / "testsets" / "ood_fixture_110.tsv", "tsv")
    return pairs[:n]


def _config(endpoints, condition="rag", **overrides) -> RunConfig:
    needed = {"zero_shot": ["refiner"], "draft_only": ["drafter", "refiner"],
              "rag": ["drafter", "refiner", "embedder"]}[condition]
    kwargs = dict(
        condition=condition,
        run_id="test-run",
        endpoints={k: endpoints[k] for k in needed},
        k=3,
        jaccard_threshold=0.2,
        workers=4,
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def _offline_endpoints() -> dict:
    return {role: EndpointConfig(base_url="http://127.0.0.1:9", model_id=f"mock-{role}")
            for role in ("drafter", "refiner", "embedder")}


class TestRunConfig:
    def test_rag_requires_k(self, stack):
        endpoints, _, _ = stack
        with pytest.raises(ValueError):
            _config(endpoints, "rag", k=0)

    def test_missing_endpoint(self, stack):
        endpoints, _, _ = stack
        with pytest.raises(ValueError, match="drafter"):
            RunConfig(condition="rag", run_id="x",
                      endpoints={"refiner": endpoints["refiner"],
                                 "embedder": endpoints["embedder"]})

    def test_config_hash_stable_and_secret_free(self, stack):
        endpoints, _, _ = stack
        cfg_a = _config(endpoints)
        cfg_b = _config(endpoints)
        assert cfg_a.config_hash() == cfg_b.config_hash()
        with_token = dict(endpoints)
        with_token["refiner"] = EndpointConfig(
            base_url=endpoints["refiner"].base_url,
            model_id=endpoints["refiner"].model_id,
            auth_token="super-secret",
        )
        cfg_c = _config(with_token)
        assert "super-secret" not in json.dumps(cfg_c.to_canonical_dict())

    def test_config_hash_names_the_model_not_its_address(self):
        endpoints = _offline_endpoints()

        def with_refiner(**changes):
            return _config({**endpoints, "refiner": replace(endpoints["refiner"], **changes)})

        moved = with_refiner(base_url="http://127.0.0.1:1")
        assert moved.config_hash() == _config(endpoints).config_hash()
        assert moved.to_canonical_dict()["endpoints"]["refiner"]["base_url"] == "http://127.0.0.1:1"
        assert with_refiner(model_id="other").config_hash() != _config(endpoints).config_hash()

    @pytest.mark.parametrize("overrides", [
        {"max_output_tokens": 9000}, {"temperature": 2.5}, {"top_p": 0.0},
    ])
    def test_refuses_what_a_later_stage_refuses(self, overrides):
        with pytest.raises(ValueError):
            _config(_offline_endpoints(), **overrides)

    @pytest.mark.parametrize("condition, roles", [
        ("zero_shot", {"refiner"}), ("draft_only", {"drafter", "refiner"}),
        ("rag", {"drafter", "refiner", "embedder"}),
    ])
    def test_keeps_only_the_endpoints_its_condition_calls(self, condition, roles):
        given = _offline_endpoints()
        cfg = RunConfig(condition=condition, run_id="x", endpoints=given)
        assert cfg.endpoints.keys() == roles
        assert cfg.to_canonical_dict()["endpoints"].keys() == roles
        own = RunConfig(condition=condition, run_id="x",
                        endpoints={r: given[r] for r in roles})
        assert cfg.config_hash() == own.config_hash()

    @pytest.mark.parametrize("run_id", ["", ".", "..", "../escaped", "a/b", "/abs", "a\0b",
                                        ".replies"])
    def test_run_id_is_one_plain_path_component(self, run_id):
        with pytest.raises(ValueError, match="one plain path component"):
            _config(_offline_endpoints(), "zero_shot", run_id=run_id)

    @pytest.mark.parametrize("condition, smallest", [
        ("zero_shot", 12), ("draft_only", 72), ("rag", 72),
    ])
    def test_budget_below_the_smallest_prompt_is_refused(self, condition, smallest):
        # ``smallest`` is the estimate of the condition's prompt for a one-character source
        with pytest.raises(ValueError, match="input_budget"):
            _config(_offline_endpoints(), condition, input_budget=smallest - 1)
        assert _config(_offline_endpoints(), condition, input_budget=smallest).input_budget == (
            smallest)


@pytest.mark.parametrize("text, lines", [
    ("a\nb\n", ["a", "b"]), ("a\nb", ["a", "b"]), ("\n", [""]), ("", []),
    ("a\rb\nc\n", ["a\rb", "c"]), ("a\r\nb\r\n", ["a", "b"]),  # only \n ends a line
])
def test_read_hypotheses_final_newline_is_optional(tmp_path, text, lines):
    (tmp_path / "hypotheses.txt").write_text(text, encoding="utf-8")
    assert read_hypotheses(tmp_path) == lines


def _record(cfg, segment, index, tmp_path) -> dict:
    """Run one segment through ``translate_corpus`` and return its record."""
    pair = ParallelPair(source=segment, references=("ref",))
    (result,) = translate_corpus(cfg, [pair], index, runs_root=tmp_path)
    (rec,) = read_records(result.run_dir)
    return rec


class TestTranslationRecord:
    def test_json_dict_dumps_as_asdict_does(self):
        neighbors = tuple(NeighborExample(f"n{i}", f"verbum {i}", f"[draft]verbum {i}",
                                          0.9 - i / 10, 0.5) for i in range(5))
        rec = TranslationRecord(
            segment_id="q1", latin="gallia est", condition="rag", draft="[draft]gallia est",
            neighbors=neighbors, refined="[refined] Gaul is", prompt_tokens=120,
            output_tokens=4, usage_source="backend-reported", truncation_applied="none",
            timings_ms={"draft": 1.5, "refine": 2.0}, timestamps={"start": "t0"})
        assert (json.dumps(rec.to_json_dict(), ensure_ascii=False)
                == json.dumps(asdict(rec), ensure_ascii=False))


class TestTranslateSegment:
    def test_zero_shot_gating(self, stack, tmp_path):
        endpoints, index, server = stack
        server.behavior.refiner = "echo"
        seg = _pairs(1)[0].source
        rec = _record(_config(endpoints, "zero_shot"), seg, None, tmp_path)
        assert rec["draft"] is None
        assert rec["neighbors"] == []
        assert rec["refined"] == f"Translate the following Latin text to English:\n{seg.text}"

    def test_draft_only_has_draft_no_neighbors(self, stack, tmp_path):
        endpoints, index, _ = stack
        seg = _pairs(1)[0].source
        rec = _record(_config(endpoints, "draft_only"), seg, None, tmp_path)
        assert rec["draft"] == f"[draft]{seg.text}"
        assert rec["neighbors"] == []
        assert rec["refined"].startswith("[refined] ")

    def test_rag_survivor_count_bounded_by_filter(self, stack, tmp_path):
        endpoints, _, _ = stack
        from refta.backends import EmbedderClient
        from refta.index import VectorIndex
        import numpy as np

        # 3-entry index where only 2 entries can pass the lemma filter
        embedder = EmbedderClient(endpoints["embedder"])
        texts = ["gallia bellum gerunt", "bellum gallia gerunt", "prorsus alienum verbum"]
        vecs = np.stack(embedder.embed(texts))
        embedder.close()
        index = VectorIndex.from_arrays(["n1", "n2", "n3"], texts, vecs,
                                        model_id=endpoints["embedder"].model_id)
        seg = SourceSegment("q1", "gallia bellum gerunt iterum")
        cfg = _config(endpoints, "rag", k=5, jaccard_threshold=0.3)
        rec = _record(cfg, seg, index, tmp_path)
        assert len(rec["neighbors"]) == 2
        assert {n["segment_id"] for n in rec["neighbors"]} == {"n1", "n2"}

    def test_self_retrieval_guard(self, stack, tmp_path):
        endpoints, index, _ = stack
        seg = SourceSegment("self", index.entry(0).text)
        cfg = _config(endpoints, "rag", k=2, jaccard_threshold=0.0)
        rec = _record(cfg, seg, index, tmp_path)
        assert rec["neighbors"]
        assert all(n["latin"] != seg.text for n in rec["neighbors"])

    def test_rag_needs_index(self, stack, tmp_path):
        endpoints, _, _ = stack
        with pytest.raises(ValueError, match="index"):
            translate_corpus(_config(endpoints, "rag"), _pairs(1), None, runs_root=tmp_path)

    @pytest.mark.parametrize("embedder_model, has_index, match", [
        ("model-B", True, "model-B"), ("mock-embedder", False, "index"),
    ], ids=["embedder-of-another-model", "no-index"])
    def test_rag_refused_before_any_directory_or_request(self, stack, tmp_path,
                                                         embedder_model, has_index, match):
        endpoints, index, server = stack  # the index was built by "mock-embedder"
        endpoints = {**endpoints,
                     "embedder": replace(endpoints["embedder"], model_id=embedder_model)}
        runs_root = tmp_path / "runs"
        with pytest.raises(ValueError, match=match):
            translate_corpus(_config(endpoints, "rag"), _pairs(2), index if has_index else None,
                             runs_root=runs_root)
        assert not runs_root.exists()
        assert server.stats.snapshot()["counts"] == {}


def _drafted_union(records, pairs) -> set:
    union = {p.source.text for p in pairs}
    for rec in records:
        assert rec["truncation_applied"] == "none"
        union.update(nb["latin"] for nb in rec["neighbors"])
    return union


def _errors(run_dir) -> list[dict]:
    text = (run_dir / "errors.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines()]


class TestDraftUnion:
    def test_union_drafted_once(self, stack, tmp_path):
        endpoints, index, server = stack
        pairs = _pairs(6)
        cfg = _config(endpoints, "rag", k=5, jaccard_threshold=0.0)
        (result,) = translate_corpus(cfg, pairs, index, runs_root=tmp_path)
        union = _drafted_union(read_records(result.run_dir), pairs)
        snap = server.stats.snapshot()
        assert snap["inputs"]["/translate"] == len(union)
        assert snap["counts"]["/translate"] == 1
        assert snap["inputs"]["/embed"] == 6 and snap["counts"]["/embed"] == 1

    def test_shared_neighbors_drafted_once_in_bounded_batches(self, stack, tmp_path):
        endpoints, index, server = stack
        server.behavior.latency_ms = 20
        small = {role: EndpointConfig(**{**ep.__dict__, "max_batch": 3})
                 for role, ep in endpoints.items()}
        cfg = _config(small, "rag", k=4, jaccard_threshold=0.0, workers=8)
        # near-identical sources retrieve mostly the same neighbors
        base = _pairs(1)[0].source
        pairs = [
            ParallelPair(
                source=SourceSegment(f"q{i}", base.text + f" verbum{i}"),
                references=("ref one two three",),
            )
            for i in range(8)
        ]
        (result,) = translate_corpus(cfg, pairs, index, runs_root=tmp_path)
        union = _drafted_union(read_records(result.run_dir), pairs)
        snap = server.stats.snapshot()
        assert snap["inputs"]["/translate"] == len(union) < 8 * 5
        assert snap["counts"]["/translate"] == math.ceil(len(union) / 3)
        assert snap["counts"]["/embed"] == math.ceil(8 / 3)

    def test_temperature_sweep_shares_drafts(self, stack, tmp_path):
        # a run at a second temperature pays only for its chat replies
        endpoints, index, server = stack
        pairs = _pairs(4)
        (first,) = translate_corpus(_config(endpoints, "rag", run_id="t0.0"), pairs, index,
                                    runs_root=tmp_path)
        union = _drafted_union(read_records(first.run_dir), pairs)
        snap = server.stats.snapshot()
        assert snap["inputs"]["/translate"] == len(union)
        assert snap["inputs"]["/embed"] == 4
        server.stats.reset()
        (second,) = translate_corpus(_config(endpoints, "rag", run_id="t0.5", temperature=0.5),
                                     pairs, index, runs_root=tmp_path)
        assert server.stats.snapshot()["counts"] == {"/v1/chat/completions": 4}
        neighbors = [[nb["segment_id"] for nb in rec["neighbors"]]
                     for rec in read_records(second.run_dir)]
        assert neighbors == [[nb["segment_id"] for nb in rec["neighbors"]]
                             for rec in read_records(first.run_dir)]


@pytest.fixture()
def faulty(stack):
    """Endpoints on a second, healthy mock, except ``role`` on the stack's
    mock, which injects ``fail_first`` faults; returns (endpoints, healthy).
    The faulty endpoint sends one request at a time, so that the first
    requests to arrive, the ones that fail, are the first ones cut."""
    endpoints, _, server = stack
    healthy = start_mock_server(MockBehavior())

    def make(role: str, fail_status: int, **overrides):
        server.behavior.fail_first = 2
        server.behavior.fail_status = fail_status
        eps = {r: EndpointConfig(**{**ep.__dict__, "base_url": healthy.base_url})
               for r, ep in endpoints.items()}
        eps[role] = EndpointConfig(**{**endpoints[role].__dict__, "request_parallelism": 1,
                                      **overrides})
        return eps, healthy

    yield make
    healthy.stop()


class TestFailureIsolation:
    def test_rejected_batch_isolates_the_bad_source(self, stack, faulty, tmp_path):
        _, _, server = stack
        # the first batch and the first one-input resend are rejected
        endpoints, _ = faulty("drafter", 422, max_batch=2)
        (result,) = translate_corpus(_config(endpoints, "draft_only"), _pairs(5), None,
                                     runs_root=tmp_path)
        assert result.failed == 1
        (row,) = _errors(result.run_dir)
        assert (row["index"], row["stage"]) == (0, "draft")
        hyps = read_hypotheses(result.run_dir)
        assert hyps[0] == FAILED_SENTINEL and FAILED_SENTINEL not in hyps[1:]
        # batch [0, 1] failed, [0] and [1] resent, then [2, 3] and [4]
        assert server.stats.snapshot()["counts"]["/translate"] == 5

    def test_rejected_one_input_batch_is_not_resent(self, stack, tmp_path, monkeypatch):
        endpoints, _, _ = stack
        pairs = _pairs(3)
        bad = pairs[2].source.text
        calls = []
        original = DrafterClient.translate

        def rejecting(self, texts):
            calls.append(list(texts))
            if bad in texts:
                raise RequestError(422, "rejected input")
            return original(self, texts)

        monkeypatch.setattr(DrafterClient, "translate", rejecting)
        small = {role: EndpointConfig(**{**ep.__dict__, "max_batch": 2})
                 for role, ep in endpoints.items()}
        (result,) = translate_corpus(_config(small, "draft_only"), pairs, None,
                                     runs_root=tmp_path)
        assert calls == [[pairs[0].source.text, pairs[1].source.text], [bad]]
        assert [(r["index"], r["stage"]) for r in _errors(result.run_dir)] == [(2, "draft")]
        assert result.succeeded == 2

    def test_exhausted_batch_fails_its_segments_without_resend(self, stack, faulty,
                                                               tmp_path):
        _, _, server = stack
        endpoints, _ = faulty("drafter", 500, max_batch=2, max_retries=1)
        (result,) = translate_corpus(_config(endpoints, "draft_only"), _pairs(5), None,
                                     runs_root=tmp_path)
        assert [(r["index"], r["stage"]) for r in _errors(result.run_dir)] == [
            (0, "draft"), (1, "draft")]
        assert result.succeeded == 3
        # two attempts at batch [0, 1], then [2, 3] and [4]
        assert server.stats.snapshot()["counts"]["/translate"] == 4

    def test_rejected_embedding_fails_retrieve_and_skips_drafting(self, stack, faulty,
                                                                  tmp_path):
        _, index, _ = stack
        endpoints, healthy = faulty("embedder", 422)
        pairs = _pairs(4)
        (result,) = translate_corpus(_config(endpoints, "rag"), pairs, index,
                                     runs_root=tmp_path)
        assert [(r["index"], r["stage"]) for r in _errors(result.run_dir)] == [
            (0, "retrieve")]
        assert result.succeeded == 3
        drafted = _drafted_union(read_records(result.run_dir), pairs[1:])
        assert healthy.stats.snapshot()["inputs"]["/translate"] == len(drafted)

    def test_zero_query_vector_fails_only_its_segment_at_retrieve(self, stack, tmp_path,
                                                                   monkeypatch):
        endpoints, index, _ = stack
        pairs = _pairs(4)
        original = EmbedderClient.embed

        def zero_first(self, texts):
            matrix = original(self, texts)
            matrix[[t == pairs[0].source.text for t in texts]] = 0.0
            return matrix

        monkeypatch.setattr(EmbedderClient, "embed", zero_first)
        (result,) = translate_corpus(_config(endpoints, "rag"), pairs, index,
                                     runs_root=tmp_path)
        (row,) = _errors(result.run_dir)
        assert (row["index"], row["stage"]) == (0, "retrieve")
        assert "zero or non-finite" in row["error"]
        assert result.succeeded == 3
        hyps = read_hypotheses(result.run_dir)
        assert hyps[0] == FAILED_SENTINEL and FAILED_SENTINEL not in hyps[1:]

    def test_rejected_neighbor_fails_every_segment_that_retrieved_it(
            self, stack, tmp_path, monkeypatch):
        endpoints, index, _ = stack
        pairs = _pairs(6)
        cfg = _config(endpoints, "rag", k=5, jaccard_threshold=0.0)
        (clean,) = translate_corpus(cfg, pairs, index, runs_root=tmp_path / "clean")
        records = read_records(clean.run_dir)
        poisoned = records[2]["neighbors"][0]["latin"]
        hit = {i for i, rec in enumerate(records)
               if poisoned in {nb["latin"] for nb in rec["neighbors"]}}

        original = DrafterClient.translate

        def rejecting(self, texts):
            if poisoned in texts:
                raise RequestError(422, "rejected input")
            return original(self, texts)

        monkeypatch.setattr(DrafterClient, "translate", rejecting)
        (result,) = translate_corpus(cfg, pairs, index, runs_root=tmp_path / "bad")
        errors = _errors(result.run_dir)
        assert [(r["index"], r["stage"]) for r in errors] == [
            (i, "neighbor_drafts") for i in sorted(hit)]
        kept = {rec["segment_id"]: rec for rec in records}
        for rec in read_records(result.run_dir):
            assert rec["neighbors"] == kept[rec["segment_id"]]["neighbors"]
        assert result.succeeded == len(pairs) - len(hit)


class TestTranslateCorpus:
    def test_artifacts_aligned(self, stack, tmp_path):
        endpoints, index, _ = stack
        pairs = _pairs(6)
        cfg = _config(endpoints, "rag")
        (result,) = translate_corpus(cfg, pairs, index, runs_root=tmp_path)
        assert result.succeeded == 6 and result.failed == 0
        assert len(read_records(result.run_dir)) == 6
        assert len(read_hypotheses(result.run_dir)) == 6
        manifest = read_manifest(result.run_dir)
        assert manifest["counts"] == {"segments": 6, "succeeded": 6, "failed": 0}

    def test_token_accounting(self, stack, tmp_path):
        endpoints, index, _ = stack
        (result,) = translate_corpus(_config(endpoints), _pairs(4), index,
                                     runs_root=tmp_path)
        records = read_records(result.run_dir)
        manifest = read_manifest(result.run_dir)
        assert manifest["tokens"]["input"] == sum(r["prompt_tokens"] for r in records)
        assert manifest["tokens"]["output"] == sum(r["output_tokens"] for r in records)

    def test_failure_sentinel(self, stack, tmp_path):
        endpoints, index, server = stack
        server.behavior.refiner = "empty"
        cfg = _config(endpoints, "draft_only", workers=2)
        (result,) = translate_corpus(cfg, _pairs(3), None, runs_root=tmp_path)
        assert result.failed == 3
        hyps = read_hypotheses(result.run_dir)
        assert hyps == [FAILED_SENTINEL] * 3
        errors = (result.run_dir / "errors.jsonl").read_text().strip().split("\n")
        assert len(errors) == 3
        assert json.loads(errors[0])["stage"] == "refine"

    def test_malformed_refiner_reply_fails_only_its_segment(self, stack, tmp_path,
                                                            monkeypatch):
        endpoints, _, _ = stack
        original, replies = RefinerClient._send, []

        def second_reply_is_a_list(self, path, body):
            replies.append(body)
            return (200, {}, b"[]") if len(replies) == 2 else original(self, path, body)

        monkeypatch.setattr(RefinerClient, "_send", second_reply_is_a_list)
        cfg = _config(endpoints, "zero_shot", workers=1)
        (result,) = translate_corpus(cfg, _pairs(4), None, runs_root=tmp_path)
        (row,) = _errors(result.run_dir)
        assert (row["index"], row["stage"]) == (1, "refine")
        assert "not a JSON object" in row["error"]
        assert result.succeeded == 3 and len(replies) == 4
        hyps = read_hypotheses(result.run_dir)
        assert hyps[1] == FAILED_SENTINEL and FAILED_SENTINEL not in hyps[:1] + hyps[2:]

    def test_a_slow_refine_holds_only_its_own_worker(self, stack, tmp_path, monkeypatch):
        endpoints, _, server = stack
        pairs = _pairs(6)
        original, seen = RefinerClient._send, []

        def chat_requests():
            return server.stats.snapshot()["counts"].get("/v1/chat/completions", 0)

        def first_reply_waits_for_the_rest(self, path, body):
            reply = original(self, path, body)
            if pairs[0].source.text in json.loads(body)["messages"][1]["content"]:
                deadline = time.monotonic() + 5.0
                while chat_requests() < len(pairs) and time.monotonic() < deadline:
                    time.sleep(0.01)
                seen.append(chat_requests())
            return reply

        monkeypatch.setattr(RefinerClient, "_send", first_reply_waits_for_the_rest)
        cfg = _config(endpoints, "zero_shot", workers=2)
        (result,) = translate_corpus(cfg, pairs, None, runs_root=tmp_path)
        assert result.succeeded == len(pairs)
        # the other segments were all sent while segment 0's reply was held
        assert seen == [len(pairs)]

    def test_line_breaks_in_a_refined_text_stay_on_its_line(self, stack, tmp_path,
                                                            monkeypatch):
        endpoints, _, _ = stack
        original, replies = RefinerClient._send, []

        def second_reply_has_crlf(self, path, body):
            status, headers, data = original(self, path, body)
            replies.append(body)
            if len(replies) == 2:
                reply = json.loads(data)
                reply["choices"][0]["message"]["content"] = "first line\r\nsecond line"
                data = json.dumps(reply).encode("utf-8")
            return status, headers, data

        monkeypatch.setattr(RefinerClient, "_send", second_reply_has_crlf)
        pairs = _pairs(3)
        cfg = _config(endpoints, "zero_shot", workers=1)
        (crlf,) = translate_corpus(cfg, pairs, None, runs_root=tmp_path)
        (other,) = translate_corpus(replace(cfg, run_id="other", temperature=0.5), pairs, None,
                                    runs_root=tmp_path)
        hyps = read_hypotheses(crlf.run_dir)
        assert len(hyps) == 3 and hyps[1] == "first line second line"
        assert compare_runs([crlf.run_dir], pairs, other.run_dir).baseline == other.run_dir.name

    def test_failed_write_leaves_no_partial_run(self, stack, tmp_path, monkeypatch):
        endpoints, _, _ = stack
        cfg = _config(endpoints, "zero_shot")
        original, rows = TranslationRecord.to_json_dict, []

        def fails_on_second_row(self):
            rows.append(self.segment_id)
            if len(rows) == 2:
                raise OSError(28, "No space left on device")
            return original(self)

        monkeypatch.setattr(TranslationRecord, "to_json_dict", fails_on_second_row)
        with pytest.raises(OSError, match="No space left"):
            translate_corpus(cfg, _pairs(3), None, runs_root=tmp_path)
        assert list((tmp_path / cfg.run_id).iterdir()) == []
        monkeypatch.undo()
        (result,) = translate_corpus(cfg, _pairs(3), None, runs_root=tmp_path)
        assert len(read_records(result.run_dir)) == 3

    def test_fail_fast_raises(self, stack, tmp_path):
        endpoints, index, server = stack
        server.behavior.refiner = "empty"
        cfg = _config(endpoints, "draft_only", fail_fast=True)
        with pytest.raises(ReftaError):
            translate_corpus(cfg, _pairs(2), None, runs_root=tmp_path)
        assert not (tmp_path / cfg.run_id).exists()

    def test_fail_fast_stops_dispatching(self, stack, tmp_path):
        endpoints, _, server = stack
        server.behavior.refiner = "empty"
        cfg = _config(endpoints, "draft_only", fail_fast=True, workers=2)
        with pytest.raises(PipelineError, match="refine") as raised:
            translate_corpus(cfg, _pairs(40), None, runs_root=tmp_path)
        assert raised.value.__cause__ is raised.value.cause
        # the first failed call, then at most one further call per worker
        assert server.stats.snapshot()["counts"]["/v1/chat/completions"] <= 1 + 2

    @pytest.mark.parametrize("condition, role, failing, sent, stage, segment_id", [
        ("draft_only", "drafter", 1, 1, "draft", "ood000"),
        ("rag", "drafter", 3, 3, "draft", "ood008"),
        ("rag", "embedder", 1, 1, "retrieve", "ood000"),
        # the first drafter batch after the 5 of the 20 sources
        ("rag", "drafter", 6, 6, "neighbor_drafts", "ood000"),
    ], ids=["draft_only-first-draft", "rag-third-draft", "rag-first-embed",
            "rag-first-neighbor-draft"])
    def test_fail_fast_sends_no_batch_after_a_failed_one(
            self, stack, tmp_path, monkeypatch, condition, role, failing, sent, stage,
            segment_id):
        endpoints, index, _ = stack
        cls, method = {"drafter": (DrafterClient, "translate"),
                       "embedder": (EmbedderClient, "embed")}[role]
        original, calls = getattr(cls, method), []

        def one_request_fails(self, texts):
            calls.append(list(texts))
            if len(calls) == failing:
                raise TransportError("backend down")
            return original(self, texts)

        monkeypatch.setattr(cls, method, one_request_fails)
        # one request at a time, so that "the n-th call" names one batch
        small = {r: replace(ep, max_batch=4, request_parallelism=1)
                 for r, ep in endpoints.items()}
        cfg = _config(small, condition, k=5, jaccard_threshold=0.0, fail_fast=True)
        with pytest.raises(PipelineError) as raised:
            translate_corpus(cfg, _pairs(20), index, runs_root=tmp_path)
        assert (raised.value.stage, raised.value.segment_id) == (stage, segment_id)
        assert raised.value.__cause__ is raised.value.cause
        assert len(calls) == sent
        assert not (tmp_path / cfg.run_id).exists()

    def test_fail_fast_splits_a_rejected_batch_up_to_its_bad_input(self, stack, tmp_path,
                                                                   monkeypatch):
        endpoints, _, _ = stack
        pairs = _pairs(20)
        bad = pairs[2].source.text
        original, calls = DrafterClient.translate, []

        def rejecting(self, texts):
            calls.append(list(texts))
            if bad in texts:
                raise RequestError(422, "rejected input")
            return original(self, texts)

        monkeypatch.setattr(DrafterClient, "translate", rejecting)
        # one request at a time, so that "the n-th call" names one batch
        small = {r: replace(ep, max_batch=4, request_parallelism=1)
                 for r, ep in endpoints.items()}
        with pytest.raises(PipelineError) as raised:
            translate_corpus(_config(small, "draft_only", fail_fast=True), pairs, None,
                             runs_root=tmp_path)
        assert (raised.value.stage, raised.value.segment_id) == ("draft", "ood002")
        sources = [p.source.text for p in pairs]
        assert calls == [sources[:4], sources[:1], sources[1:2], [bad]]

    def test_refuses_overwrite_without_force(self, stack, tmp_path):
        endpoints, index, _ = stack
        cfg = _config(endpoints, "zero_shot")
        translate_corpus(cfg, _pairs(2), None, runs_root=tmp_path)
        with pytest.raises(ReftaError, match="force"):
            translate_corpus(cfg, _pairs(2), None, runs_root=tmp_path)
        translate_corpus(cfg, _pairs(2), None, runs_root=tmp_path, force=True)

    def test_bad_sweep_temperature_refused_before_any_request(self, stack, tmp_path):
        endpoints, index, server = stack
        with pytest.raises(ValueError, match="temperature"):
            _config(endpoints, "draft_only", temperature=3.0)
        assert server.stats.snapshot()["counts"] == {}
        assert list(tmp_path.iterdir()) == []

    def test_determinism_modulo_timestamps(self, stack, tmp_path):
        endpoints, index, _ = stack
        cfg = _config(endpoints, "rag")
        (a,) = translate_corpus(cfg, _pairs(5), index, runs_root=tmp_path / "a")
        (b,) = translate_corpus(cfg, _pairs(5), index, runs_root=tmp_path / "b")

        def normalized(run_dir):
            rows = []
            for row in read_records(run_dir):
                row.pop("timings_ms")
                row.pop("timestamps")
                rows.append(json.dumps(row, sort_keys=True))
            return rows

        assert normalized(a.run_dir) == normalized(b.run_dir)
        assert read_hypotheses(a.run_dir) == read_hypotheses(b.run_dir)

    def test_no_leaked_neighbors_when_excluded(self, endpoint, tmp_path):
        # build the index with the evaluation set excluded, then check records
        from refta.backends import EmbedderClient

        server = start_mock_server(MockBehavior())
        try:
            ep = {
                "drafter": EndpointConfig(base_url=server.base_url, model_id="d", timeout=10),
                "refiner": EndpointConfig(base_url=server.base_url, model_id="r", timeout=10),
                "embedder": EndpointConfig(base_url=server.base_url, model_id="e", timeout=10),
            }
            pairs = _pairs(5)
            eval_segments = [p.source for p in pairs]
            corpus = list(load_monolingual(
                FIXTURES / "corpora" / "retrieval_fixture.jsonl", "jsonl"
            ))[:50] + eval_segments
            exclusions = ExclusionList.from_pairs(pairs)
            index, report = build_index(
                corpus, EmbedderClient(ep["embedder"]), exclusions,
            )
            assert report.excluded_exact >= len(pairs)
            cfg = RunConfig(condition="rag", run_id="leak", endpoints=ep,
                            k=4, jaccard_threshold=0.0)
            (result,) = translate_corpus(cfg, pairs, index, runs_root=tmp_path)
            banned_ids = exclusions.ids
            banned_texts = exclusions.exact_texts
            for rec in read_records(result.run_dir):
                for nb in rec["neighbors"]:
                    assert nb["segment_id"] not in banned_ids
                    assert nb["latin"] not in banned_texts
        finally:
            server.stop()


class TestStagesAtRequestParallelism:
    """Stages 1 and 3 keep their endpoint's ``request_parallelism`` in flight,
    and under ``fail_fast`` send nothing after the first failure they take."""

    def test_embed_and_draft_reach_the_endpoint_parallelism(self, stack, tmp_path):
        endpoints, index, server = stack  # the stats were reset after the index build
        server.behavior.latency_ms = 20
        small = {r: replace(ep, max_batch=16) for r, ep in endpoints.items()}
        base = _pairs(1)[0].source.text
        pairs = [ParallelPair(SourceSegment(f"q{i}", f"{base} verbum{i}"), ("ref",))
                 for i in range(200)]
        (result,) = translate_corpus(_config(small, "rag", jaccard_threshold=0.0), pairs,
                                     index, runs_root=tmp_path)
        assert result.failed == 0
        reached = server.stats.snapshot()["max_concurrency"]
        parallelism = small["drafter"].request_parallelism
        assert (reached["/embed"], reached["/translate"]) == (parallelism, parallelism)

    # faults keyed by the request: of the first four batches of four sources
    # to the role's path, each seed fails only the first, in whatever order
    # they arrive
    @pytest.mark.parametrize("role, condition, seed, stage", [
        ("drafter", "draft_only", 0, "draft"),
        ("embedder", "rag", 4, "retrieve"),
    ], ids=["drafter", "embedder"])
    def test_fail_fast_pays_and_stores_only_the_calls_in_flight(
            self, stack, tmp_path, monkeypatch, role, condition, seed, stage):
        endpoints, index, _ = stack
        cls, method, path = {"drafter": (DrafterClient, "translate", "/translate"),
                             "embedder": (EmbedderClient, "embed", "/embed")}[role]
        faulty = start_mock_server(MockBehavior(fail_rate=0.3, seed=seed))
        try:
            ep = replace(endpoints[role], base_url=faulty.base_url, max_batch=4, max_retries=0)
            cfg = _config({**endpoints, role: ep}, condition, fail_fast=True)
            failed_once, original, paid = threading.Event(), getattr(cls, method), []

            def failure_taken_first(self, texts):
                try:
                    out = original(self, texts)  # paid for at the mock
                except TransportError:
                    failed_once.set()
                    raise
                failed_once.wait(timeout=10)
                time.sleep(0.05)  # the failed batch is taken before any reply
                paid.extend(texts)
                return out

            monkeypatch.setattr(cls, method, failure_taken_first)
            pairs = _pairs(40)
            with pytest.raises(PipelineError) as raised:
                translate_corpus(cfg, pairs, index, runs_root=tmp_path)
            assert (raised.value.stage, raised.value.segment_id) == (stage, "ood000")
            snap = faulty.stats.snapshot()
            p = ep.request_parallelism
            assert snap["failures_injected"][path] == 1
            # the first p batches went out together; none after the failure was taken
            assert snap["counts"][path] == p
            stored = {json.loads(line)["key"]
                      for rows in (tmp_path / REPLIES_DIR).glob(f"{role}-*")
                      for line in rows.read_text().splitlines()}
            assert stored == set(paid)
            assert len(stored) == snap["inputs"][path] - ep.max_batch == (p - 1) * ep.max_batch
            monkeypatch.setattr(cls, method, original)

            faulty.behavior.fail_rate = 0.0
            faulty.stats.reset()
            (result,) = translate_corpus(replace(cfg, fail_fast=False), pairs, index,
                                         runs_root=tmp_path)
            assert result.failed == 0
            assert faulty.stats.snapshot()["inputs"][path] == len(pairs) - len(stored)
            assert read_manifest(result.run_dir)["replayed"][role] == len(stored)
        finally:
            faulty.stop()
