from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import requests

import refta.backends as backends_mod
from conftest import DATA
from refta.backends import (
    RETRY_AFTER_CAP_S,
    ChatRequest,
    DrafterClient,
    EmbedderClient,
    EndpointConfig,
    RefinerClient,
    ScorerClient,
    canonical_json,
    estimate_tokens,
    send_batches,
)
from refta.errors import (
    CapabilityError,
    ProtocolError,
    RequestError,
    TransportError,
)
from refta.mockserver import hash_embedding


class TestEstimateTokens:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_eight_chars(self):
        assert estimate_tokens("abcdefgh") == 2

    def test_ceiling(self):
        assert estimate_tokens("abcde") == 2


class TestConfigValidation:
    def test_timeout_positive(self):
        with pytest.raises(ValueError):
            EndpointConfig(base_url="http://x", model_id="m", timeout=0)

    def test_parallelism_at_least_one(self):
        with pytest.raises(ValueError):
            EndpointConfig(base_url="http://x", model_id="m", request_parallelism=0)

    def test_chat_request_ranges(self):
        with pytest.raises(ValueError):
            ChatRequest(system="s", user="u", temperature=2.5)
        with pytest.raises(ValueError):
            ChatRequest(system="s", user="u", top_p=0.0)
        with pytest.raises(ValueError):
            ChatRequest(system="s", user="u", max_output_tokens=0)


class TestSendBatches:
    def test_next_batch_waits_for_the_caller(self):
        log = []

        def call(batch):
            log.append(("sent", batch))
            return len(batch)

        for batch, result, _ in send_batches(call, list("abcde"), 2):
            log.append(("taken", batch, result))
        assert log == [
            ("sent", ["a", "b"]), ("taken", ["a", "b"], 2),
            ("sent", ["c", "d"]), ("taken", ["c", "d"], 2),
            ("sent", ["e"]), ("taken", ["e"], 1),
        ]

    def test_bounded_in_flight_in_order_with_failures(self):
        lock = threading.Lock()
        active, high = [0], [0]

        def call(batch):
            with lock:
                active[0] += 1
                high[0] = max(high[0], active[0])
            time.sleep(0.05)
            with lock:
                active[0] -= 1
            if batch == [4, 5]:
                raise RequestError(422, "rejected")
            return [x * 10 for x in batch]

        sent = list(send_batches(call, list(range(12)), 2, max_in_flight=3))
        assert [batch for batch, _, _ in sent] == [[i, i + 1] for i in range(0, 12, 2)]
        assert isinstance(sent[2][1], RequestError)
        assert [r for _, r, _ in sent[:2] + sent[3:]] == [
            [0, 10], [20, 30], [60, 70], [80, 90], [100, 110]]
        assert high[0] == 3


class TestDrafter:
    def test_echo(self, endpoint):
        client = DrafterClient(endpoint("drafter"))
        texts, usage = client.translate(["Gallia est"])
        assert texts == ["[draft]Gallia est"]
        assert usage.source == "backend-reported"

    def test_empty_input_rejected(self, endpoint):
        client = DrafterClient(endpoint("drafter"))
        with pytest.raises(ValueError):
            client.translate([])
        with pytest.raises(ValueError):
            client.translate(["Gallia", ""])

    def test_batch_splitting_keeps_order_and_sums_usage(self, mock_server, endpoint):
        client = DrafterClient(endpoint("drafter", max_batch=4))
        texts = [f"textus {i}" for i in range(10)]
        sent = list(send_batches(client.translate, texts, 4, max_in_flight=3))
        assert [batch for batch, _, _ in sent] == [texts[0:4], texts[4:8], texts[8:10]]
        drafts = [d for _, (batch_drafts, _), _ in sent for d in batch_drafts]
        assert drafts == [f"[draft]{t}" for t in texts]
        snap = mock_server.stats.snapshot()
        assert snap["counts"]["/translate"] == 3
        assert snap["inputs"]["/translate"] == 10
        usages = [usage for _, (_, usage), _ in sent]
        assert sum(u.input_tokens for u in usages) == sum((len(t) + 3) // 4 for t in texts)
        assert {u.source for u in usages} == {"backend-reported"}

    def test_more_than_max_batch_raises_before_sending(self, mock_server, endpoint):
        with pytest.raises(ValueError, match="max_batch=4"):
            DrafterClient(endpoint("drafter", max_batch=4)).translate(
                [f"textus {i}" for i in range(5)])
        with pytest.raises(ValueError, match="max_batch=4"):
            EmbedderClient(endpoint("embedder", max_batch=4)).embed(
                [f"textus {i}" for i in range(5)])
        assert mock_server.stats.snapshot()["counts"] == {}

    def test_retry_then_recover(self, mock_server, endpoint, monkeypatch):
        sleeps = []
        monkeypatch.setattr(backends_mod, "_sleep", sleeps.append)
        mock_server.behavior.fail_first = 2
        client = DrafterClient(endpoint("drafter", max_retries=3))
        texts, _ = client.translate(["iterum"])
        assert texts == ["[draft]iterum"]
        assert client.stats.retries == 2
        assert mock_server.stats.snapshot()["counts"]["/translate"] == 3
        # exponential backoff: second delay at least twice the base
        assert len(sleeps) == 2 and sleeps[1] >= 2 * 0.01

    def test_4xx_never_retried(self, mock_server, endpoint):
        mock_server.behavior.fail_first = 1
        mock_server.behavior.fail_status = 404
        client = DrafterClient(endpoint("drafter", max_retries=5))
        with pytest.raises(RequestError):
            client.translate(["x"])
        assert mock_server.stats.snapshot()["counts"]["/translate"] == 1

    def test_exhausted_retries(self, mock_server, endpoint, monkeypatch):
        monkeypatch.setattr(backends_mod, "_sleep", lambda s: None)
        mock_server.behavior.fail_first = 10**9
        client = DrafterClient(endpoint("drafter", max_retries=2))
        with pytest.raises(TransportError) as exc:
            client.translate(["x"])
        assert exc.value.attempts == 3
        assert mock_server.stats.snapshot()["counts"]["/translate"] == 3

    def test_parallelism_high_water(self, mock_server, endpoint):
        mock_server.behavior.latency_ms = 30
        client = DrafterClient(endpoint("drafter", request_parallelism=3))
        threads = [
            threading.Thread(target=client.translate, args=([f"textus {i}"],))
            for i in range(10)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = mock_server.stats.snapshot()
        assert snap["counts"]["/translate"] == 10
        assert snap["max_concurrency"]["/translate"] <= 3

    def test_sixteen_way_parallelism_keeps_every_connection(self, mock_server, endpoint,
                                                           caplog):
        # urllib3 pools 10 connections per host by default; past that it logs
        # "Connection pool is full" and drops the extra connections
        mock_server.behavior.latency_ms = 50
        client = DrafterClient(endpoint("drafter", request_parallelism=16))
        try:
            with caplog.at_level(logging.WARNING, logger="urllib3.connectionpool"):
                with ThreadPoolExecutor(max_workers=16) as pool:
                    list(pool.map(client.translate, [[f"textus {i}"] for i in range(64)]))
        finally:
            client.close()
        snap = mock_server.stats.snapshot()
        assert snap["counts"]["/translate"] == 64
        assert 10 < snap["max_concurrency"]["/translate"] <= 16
        assert not [r for r in caplog.records if "pool is full" in r.getMessage()]


class TestRefiner:
    def test_deterministic_across_calls(self, endpoint):
        client = RefinerClient(endpoint("refiner"))
        req = ChatRequest(system="s", user="NMT draft (NLLB): textus", temperature=0.0)
        outputs = {client.complete(req)[0] for _ in range(5)}
        assert len(outputs) == 1

    def test_missing_usage_falls_back_to_estimate(self, mock_server, endpoint):
        mock_server.behavior.include_usage = False
        client = RefinerClient(endpoint("refiner"))
        _, usage = client.complete(ChatRequest(system="sys", user="NMT draft (NLLB): x"))
        assert usage.source == "estimated"
        assert usage.input_tokens == estimate_tokens("sys") + estimate_tokens(
            "NMT draft (NLLB): x"
        )

    def test_empty_content_is_protocol_error(self, mock_server, endpoint):
        mock_server.behavior.refiner = "empty"
        client = RefinerClient(endpoint("refiner"))
        with pytest.raises(ProtocolError):
            client.complete(ChatRequest(system="s", user="u"))

    def test_request_serialization_matches_golden(self):
        client = RefinerClient(EndpointConfig(
            base_url="http://example.invalid", model_id="llama-3.3-70b"
        ))
        req = ChatRequest(
            system=(
                "You are an expert classicist translator. Produce ONE faithful, "
                "English translation. Preserve case roles and polarity. No extra text."
            ),
            user=(
                "- Revise the Draft Translation to be a more accurate and fluent "
                "version of the Latin source text.\n\nLatin text: Gallia est.\n\n"
                "NMT draft (NLLB): Gaul is.\n\nFinal translation:"
            ),
            temperature=0.0,
            top_p=1.0,
            max_output_tokens=256,
            seed=17,
        )
        golden = (DATA / "golden" / "chat_request.json").read_text(encoding="utf-8")
        assert canonical_json(client.build_payload(req)) + "\n" == golden

    def test_seed_omitted_when_unset(self):
        client = RefinerClient(EndpointConfig(base_url="http://x", model_id="m"))
        payload = client.build_payload(ChatRequest(system="s", user="u"))
        assert "seed" not in payload


class TestEmbedder:
    def test_arity_and_uniform_dim(self, endpoint):
        client = EmbedderClient(endpoint("embedder"))
        vecs = client.embed(["a b", "c d", "e f"])
        assert len(vecs) == 3
        assert all(v.shape == (64,) for v in vecs)

    def test_empty_batch_rejected(self, endpoint):
        with pytest.raises(ValueError):
            EmbedderClient(endpoint("embedder")).embed([])

    def test_batch_splitting_request_count(self, mock_server, endpoint):
        client = EmbedderClient(endpoint("embedder", max_batch=64))
        texts = [f"textus {i}" for i in range(130)]
        sent = list(send_batches(client.embed, texts, 64, max_in_flight=2))
        assert [batch for batch, _, _ in sent] == [texts[0:64], texts[64:128], texts[128:]]
        vecs = [v for _, batch_vecs, _ in sent for v in batch_vecs]
        assert all(np.array_equal(v, hash_embedding(t, 64)) for v, t in zip(vecs, texts))
        assert mock_server.stats.snapshot()["counts"]["/embed"] == 3

    def test_identical_text_identical_vector(self, endpoint):
        client = EmbedderClient(endpoint("embedder"))
        a, b = client.embed(["idem textus", "idem textus"])
        assert np.array_equal(a, b)


class TestScorer:
    def test_identity_scores_one(self, endpoint):
        client = ScorerClient(endpoint("scorer"))
        scores = client.score("comet", ["s"], ["same text"], ["same text"])
        assert scores == [1.0]

    def test_length_mismatch_rejected_locally(self, mock_server, endpoint):
        client = ScorerClient(endpoint("scorer"))
        with pytest.raises(ValueError):
            client.score("comet", ["s"], ["h1", "h2"], ["r1"])
        assert mock_server.stats.snapshot()["counts"].get("/score", 0) == 0

    def test_unsupported_metric(self, endpoint):
        client = ScorerClient(endpoint("scorer"))
        with pytest.raises(CapabilityError):
            client.score("meteor", ["s"], ["h"], ["r"])


def test_wall_time_within_bound(mock_server, endpoint, monkeypatch):
    # total wall time <= timeout * (retries + 1) + total backoff
    sleeps = []
    monkeypatch.setattr(backends_mod, "_sleep", sleeps.append)
    mock_server.behavior.fail_first = 2
    client = DrafterClient(endpoint("drafter", max_retries=2, timeout=5.0))
    start = time.perf_counter()
    client.translate(["tempus"])
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0 * 3 + sum(sleeps) + 1.0


def _canned(status: int, headers: dict | None = None) -> requests.Response:
    resp = requests.Response()
    resp.status_code = status
    resp.headers.update(headers or {})
    resp._content = b'{"outputs": ["[draft]x"]}'
    return resp


@pytest.mark.parametrize("status, retry_after, honoured", [
    (429, "7", 7.0),
    (429, "0", 0.0),
    (429, "86400", RETRY_AFTER_CAP_S),
    (429, None, None),
    (429, "Wed, 21 Oct 2015 07:28:00 GMT", None),
    (429, "-3", None),
    (429, "1.5", None),
    (503, "7", None),
])
def test_retry_after_on_429_capped(monkeypatch, status, retry_after, honoured):
    sleeps = []
    monkeypatch.setattr(backends_mod, "_sleep", sleeps.append)
    client = DrafterClient(EndpointConfig(base_url="http://mock.invalid", model_id="m",
                                          backoff_base=0.01, max_retries=1))
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    replies = iter([_canned(status, headers), _canned(200)])
    monkeypatch.setattr(client._session, "post", lambda *a, **kw: next(replies))
    assert client.translate(["x"])[0] == ["[draft]x"]
    assert len(sleeps) == 1
    if honoured is None:  # absent or not delta-seconds: the jittered backoff
        assert 0.01 <= sleeps[0] <= 0.011
    else:
        assert sleeps[0] == honoured
    client.close()
