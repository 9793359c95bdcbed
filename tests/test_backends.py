from __future__ import annotations

import base64
import re
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

import refta.backends as backends_mod
from conftest import DATA
from refta.backends import (
    BACKOFF_BASE_S,
    RETRY_AFTER_CAP_S,
    ChatRequest,
    DrafterClient,
    EmbedderClient,
    EndpointConfig,
    RefinerClient,
    ScorerClient,
    TokenUsage,
    canonical_json,
    estimate_tokens,
    map_batches,
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

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_timeout_finite(self, timeout):
        with pytest.raises(ValueError, match="finite"):
            EndpointConfig(base_url="http://x", model_id="m", timeout=timeout)

    def test_parallelism_at_least_one(self):
        with pytest.raises(ValueError):
            EndpointConfig(base_url="http://x", model_id="m", request_parallelism=0)

    @pytest.mark.parametrize("userinfo", ["alice:s3cret@", "alice@", ":s3cret@"])
    def test_credentials_in_base_url_are_refused(self, userinfo):
        with pytest.raises(ValueError, match="REFTA_<ROLE>_TOKEN") as exc:
            EndpointConfig(base_url=f"http://{userinfo}host:8089", model_id="m")
        assert "s3cret" not in str(exc.value)

    @pytest.mark.parametrize("counts", [(1.5, 2), (1, True), (2.0, 0), (-1, 0)])
    def test_token_counts_are_non_negative_ints(self, counts):
        with pytest.raises(ValueError, match="non-negative integers"):
            TokenUsage(*counts, "backend-reported")

    def test_chat_request_ranges(self):
        with pytest.raises(ValueError):
            ChatRequest(system="s", user="u", temperature=2.5)
        with pytest.raises(ValueError):
            ChatRequest(system="s", user="u", top_p=0.0)
        with pytest.raises(ValueError):
            ChatRequest(system="s", user="u", max_output_tokens=0)


def _sent_and_taken(items) -> list:
    log = []

    def call(batch):
        log.append(("sent", batch))
        return len(batch)

    for batch, result, _ in send_batches(call, items, 2, 1):
        log.append(("taken", batch, result))
    return log


class TestSendBatches:
    def test_next_batch_waits_for_the_caller(self):
        assert _sent_and_taken(list("abcde")) == [
            ("sent", ["a", "b"]), ("taken", ["a", "b"], 2),
            ("sent", ["c", "d"]), ("taken", ["c", "d"], 2),
            ("sent", ["e"]), ("taken", ["e"], 1),
        ]

    def test_a_generator_feed_interleaves_as_a_list_does(self):
        assert _sent_and_taken(c for c in "abcde") == _sent_and_taken(list("abcde"))

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

        sent = sorted(send_batches(call, list(range(12)), 2, max_in_flight=3),
                      key=lambda taken: taken[0])
        assert [batch for batch, _, _ in sent] == [[i, i + 1] for i in range(0, 12, 2)]
        assert isinstance(sent[2][1], RequestError)
        assert [r for _, r, _ in sent[:2] + sent[3:]] == [
            [0, 10], [20, 30], [60, 70], [80, 90], [100, 110]]
        assert high[0] == 3

    def test_a_slow_batch_holds_only_its_own_slot(self):
        def call(batch):
            if batch == [0]:
                time.sleep(0.3)
            return batch

        taken = [batch for batch, _, _ in send_batches(call, list(range(6)), 1, max_in_flight=2)]
        assert taken == [[1], [2], [3], [4], [5], [0]]


class _DictStore(dict):
    def add(self, keys: list, body) -> None:
        self.update(dict.fromkeys(keys, (keys, body)))


def _as_served(batch, body):
    return body


class TestMapBatches:
    def test_fail_fast_takes_serves_and_stores_the_calls_in_flight(self):
        sent, a_sent = [], threading.Event()

        def call(batch):
            sent.append(batch)
            if batch == ["a"]:
                a_sent.set()
                raise TransportError("down")
            if batch != ["z"]:  # "z", the first batch, goes alone
                a_sent.wait(timeout=10)  # so "a" fails first, however the threads start
                time.sleep(0.05)
            return [item.upper() for item in batch]

        store = _DictStore()
        served, failed = map_batches(call, _as_served, list("zabcd"), 1, True, max_in_flight=2,
                                     store=store)
        assert sent[0] == ["z"]
        assert sorted(sent) == [["a"], ["b"], ["z"]]  # no batch went out after "a" was taken
        assert list(failed) == ["a"]
        assert {item: out for item, (out, _ms) in served.items()} == {"z": "Z", "b": "B"}
        assert store == {"z": (["z"], ["Z"]), "b": (["b"], ["B"])}

    def test_a_refusal_in_a_resend_ends_the_feed_without_fail_fast(self):
        sent = []

        def call(batch):
            sent.append(batch)
            if len(batch) > 1:
                raise RequestError(400, "one input is bad")
            if batch == ["b"]:
                raise CapabilityError(400, "not served")
            return [item.upper() for item in batch]

        served, failed = map_batches(call, _as_served, list("abcdefgh"), 4, False,
                                     max_in_flight=1)
        assert sent == [list("abcd"), ["a"], ["b"]]  # nothing after the refusal was taken
        assert {item: out for item, (out, _ms) in served.items()} == {"a": "A"}
        assert failed.keys() == set("bcdefgh")  # every item never sent fails with it
        assert {type(exc) for exc in failed.values()} == {CapabilityError}


class TestDrafter:
    def test_echo(self, endpoint):
        client = DrafterClient(endpoint("drafter"))
        texts, usage = client.parse(["Gallia est"], client.translate(["Gallia est"]))
        assert texts == ["[draft]Gallia est"]
        assert usage.source == "backend-reported"

    def test_batch_splitting_keeps_order_and_sums_usage(self, mock_server, endpoint):
        client = DrafterClient(endpoint("drafter", max_batch=4))
        texts = [f"textus {i}" for i in range(10)]
        sent = sorted(send_batches(lambda b: client.parse(b, client.translate(b)), texts, 4,
                                   max_in_flight=3),
                      key=lambda taken: texts.index(taken[0][0]))
        assert [batch for batch, _, _ in sent] == [texts[0:4], texts[4:8], texts[8:10]]
        drafts = [d for _, (batch_drafts, _), _ in sent for d in batch_drafts]
        assert drafts == [f"[draft]{t}" for t in texts]
        snap = mock_server.stats.snapshot()
        assert snap["counts"]["/translate"] == 3
        assert snap["inputs"]["/translate"] == 10
        usages = [usage for _, (_, usage), _ in sent]
        assert sum(u.input_tokens for u in usages) == sum((len(t) + 3) // 4 for t in texts)
        assert {u.source for u in usages} == {"backend-reported"}

    def test_retry_then_recover(self, mock_server, endpoint, monkeypatch):
        sleeps = []
        monkeypatch.setattr(backends_mod, "_sleep", sleeps.append)
        mock_server.behavior.fail_first = 2
        client = DrafterClient(endpoint("drafter", max_retries=3))
        texts, _ = client.parse(["iterum"], client.translate(["iterum"]))
        assert texts == ["[draft]iterum"]
        assert client.stats.retries == 2
        assert mock_server.stats.snapshot()["counts"]["/translate"] == 3
        # exponential backoff: second delay at least twice the base
        assert len(sleeps) == 2 and sleeps[1] >= 2 * BACKOFF_BASE_S

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
        with pytest.raises(TransportError, match="after 3 attempts"):
            client.translate(["x"])
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

    def test_sixteen_way_parallelism_keeps_every_connection(self, mock_server, endpoint):
        # a connection is opened only when none is idle, so the pool ends
        # with one per request that was ever in flight at once, none dropped
        mock_server.behavior.latency_ms = 50
        client = DrafterClient(endpoint("drafter", request_parallelism=16))
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                list(pool.map(client.translate, [[f"textus {i}"] for i in range(64)]))
            pooled = len(client._idle)
        finally:
            client.close()
        snap = mock_server.stats.snapshot()
        assert snap["counts"]["/translate"] == 64
        assert 10 < snap["max_concurrency"]["/translate"] <= pooled <= 16


class TestRefiner:
    def test_deterministic_across_calls(self, endpoint):
        client = RefinerClient(endpoint("refiner"))
        req = ChatRequest(system="s", user="NMT draft (NLLB): textus", temperature=0.0)
        outputs = {client.parse(req, client.complete(req))[0] for _ in range(5)}
        assert len(outputs) == 1

    def test_missing_usage_falls_back_to_estimate(self, monkeypatch):
        client = RefinerClient(EndpointConfig(base_url="http://mock.invalid", model_id="m"))
        reply = {"choices": [{"message": {"content": "[refined] x"}, "finish_reason": "stop"}]}
        monkeypatch.setattr(client, "_send",
                            lambda path, body: (200, {}, canonical_json(reply).encode()))
        req = ChatRequest(system="sys", user="NMT draft (NLLB): x")
        _, usage = client.parse(req, client.complete(req))
        assert usage.source == "estimated"
        assert usage.input_tokens == estimate_tokens("sys") + estimate_tokens(
            "NMT draft (NLLB): x"
        )

    def test_empty_content_is_protocol_error(self, mock_server, endpoint):
        mock_server.behavior.refiner = "empty"
        client = RefinerClient(endpoint("refiner"))
        req = ChatRequest(system="s", user="u")
        with pytest.raises(ProtocolError):
            client.parse(req, client.complete(req))

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
        vecs = client.parse(["a b", "c d", "e f"], client.embed(["a b", "c d", "e f"]))
        assert vecs.dtype == np.float32 and vecs.shape == (3, 64)
        assert len(vecs) == 3
        assert all(v.shape == (64,) for v in vecs)

    def test_batch_splitting_request_count(self, mock_server, endpoint):
        client = EmbedderClient(endpoint("embedder", max_batch=64))
        texts = [f"textus {i}" for i in range(130)]
        sent = sorted(send_batches(lambda b: client.parse(b, client.embed(b)), texts, 64,
                                   max_in_flight=2),
                      key=lambda taken: texts.index(taken[0][0]))
        assert [batch for batch, _, _ in sent] == [texts[0:64], texts[64:128], texts[128:]]
        vecs = [v for _, batch_vecs, _ in sent for v in batch_vecs]
        assert all(np.array_equal(v, hash_embedding(t, 64)) for v, t in zip(vecs, texts))
        assert mock_server.stats.snapshot()["counts"]["/embed"] == 3

    def test_base64_reply_is_bit_identical_and_compact(self, mock_server, endpoint,
                                                        monkeypatch):
        mock_server.behavior.embed_dim = 256
        client = EmbedderClient(endpoint("embedder"))
        sent, replies = [], []
        send = client._send

        def recording_send(path, body):
            sent.append(body)
            reply = send(path, body)
            replies.append(reply[2])
            return reply

        monkeypatch.setattr(client, "_send", recording_send)
        texts = [f"textus numero {i}" for i in range(64)]
        vecs = client.parse(texts, client.embed(texts))
        expected = np.stack([hash_embedding(t, 256) for t in texts])
        assert vecs.dtype == np.float32 and vecs.flags.writeable
        assert vecs.tobytes() == expected.tobytes()
        assert b'"encoding_format":"base64"' in sent[0]
        assert len(replies) == 1 and len(replies[0]) < 90_000  # JSON decimals: ~338 KB
        client.close()

    def test_identical_text_identical_vector(self, endpoint):
        client = EmbedderClient(endpoint("embedder"))
        a, b = client.parse(["idem textus"] * 2, client.embed(["idem textus", "idem textus"]))
        assert np.array_equal(a, b)


class TestScorer:
    def test_identity_scores_one(self, endpoint):
        client = ScorerClient(endpoint("scorer"))
        triples = [("s", "same text", "same text")]
        scores = client.parse(triples, client.score("comet", triples))
        assert scores == [1.0]

    def test_unsupported_metric(self, endpoint):
        client = ScorerClient(endpoint("scorer"))
        with pytest.raises(CapabilityError):
            client.score("meteor", [("s", "h", "r")])


def _scorer_replying(monkeypatch, body: bytes) -> ScorerClient:
    client = ScorerClient(EndpointConfig(base_url="http://mock.invalid", model_id="m"))
    monkeypatch.setattr(client, "_send", lambda path, sent: (200, {}, body))
    return client


@pytest.mark.parametrize("scores", [
    "NaN, 0.5, 0.5", "Infinity, 0.5, 0.5", "0.5, -Infinity, 0.5", "1e400, 0.5, 0.5",
    pytest.param("1" + "0" * 400 + ", 0.5, 0.5", id="int-past-the-float-range"),
    '"0.5", 0.5, 0.5', "true, 0.5, 1", "null, 0.5, 0.5",
])
def test_scorer_refuses_a_score_that_is_not_a_finite_number(monkeypatch, scores):
    client = _scorer_replying(monkeypatch, f'{{"scores": [{scores}]}}'.encode())
    triples = [("s", "h", "r")] * 3
    with pytest.raises(ProtocolError, match="not a finite number"):
        client.parse(triples, client.score("comet", triples))


def test_scorer_returns_int_and_float_scores_as_floats(monkeypatch):
    client = _scorer_replying(monkeypatch, b'{"scores": [1, 0.25, -2]}')
    triples = [("s", "h", "r")] * 3
    scores = client.parse(triples, client.score("comet", triples))
    assert scores == [1.0, 0.25, -2.0] and all(type(s) is float for s in scores)


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


_OK_BODY = b'{"outputs": ["[draft]x"]}'


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
                                          max_retries=1))
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    replies = iter([(status, headers, _OK_BODY), (200, {}, _OK_BODY)])
    monkeypatch.setattr(client, "_send", lambda path, body: next(replies))
    assert client.parse(["x"], client.translate(["x"]))[0] == ["[draft]x"]
    assert len(sleeps) == 1
    if honoured is None:  # absent or not delta-seconds: the jittered backoff
        assert BACKOFF_BASE_S <= sleeps[0] <= 1.1 * BACKOFF_BASE_S
    else:
        assert sleeps[0] == honoured
    client.close()


def _b64_floats(n: int) -> str:
    """``n`` little-endian float32s, base64-encoded as an embedder sends them."""
    return base64.b64encode(np.arange(n, dtype="<f4").tobytes()).decode("ascii")


_CHAT = {"choices": [{"message": {"content": "ok"}}]}
_CHAT_REQUEST = ChatRequest(system="s", user="u")
_CALLS = {
    "drafter": (DrafterClient, lambda client: client.parse(["x"], client.translate(["x"]))),
    "refiner": (RefinerClient,
                lambda client: client.parse(_CHAT_REQUEST, client.complete(_CHAT_REQUEST))),
    "embedder": (EmbedderClient,
                 lambda client: client.parse(["x", "y"], client.embed(["x", "y"]))),
    "scorer": (ScorerClient, lambda client: client.parse(
        [("s", "h", "r")], client.score("comet", [("s", "h", "r")]))),
}


@pytest.mark.parametrize("role, reply", [
    *[(role, []) for role in _CALLS],
    ("refiner", {"choices": ["x"]}),
    ("refiner", {"choices": [{"message": {"content": None}}]}),
    ("refiner", {"choices": [{"message": {"content": "ok"}, "finish_reason": "length"}]}),
    ("refiner", {**_CHAT, "usage": {"prompt_tokens": None, "completion_tokens": 1}}),
    ("refiner", {**_CHAT, "usage": "many"}),
    ("drafter", {"outputs": ["d"], "usage": {"input_tokens": "many", "output_tokens": 1}}),
    ("drafter", {"outputs": ["d"], "usage": {"input_tokens": -3, "output_tokens": 1}}),
    ("drafter", {"outputs": ["d"], "usage": {"input_tokens": 1.5, "output_tokens": 1}}),
    ("drafter", {"outputs": [None]}),
    ("drafter", {"outputs": [7]}),
    ("embedder", {"vectors": [["x", 1.0], [1.0, 2.0]], "dim": 2}),
    ("embedder", {"vectors": [[1.0, 2.0], [1.0, 2.0]], "dim": "one"}),
    ("embedder", {"vectors": [[1.0, 2.0], [1.0]], "dim": 2}),
    ("embedder", {"vectors": [[1.0, 2.0], [1.0, 2.0]], "dim": 3}),
    ("embedder", {"vectors": [1.0, 2.0]}),
    ("embedder", {"vectors": _b64_floats(4) + "!", "dim": 2}),
    ("embedder", {"vectors": _b64_floats(3), "dim": 2}),
    ("embedder", {"vectors": _b64_floats(5), "dim": 2}),
    ("embedder", {"vectors": _b64_floats(4)}),
    ("embedder", {"vectors": "", "dim": 0}),
    ("embedder", {"vectors": _b64_floats(4), "dim": "one"}),
    ("embedder", {"vectors": _b64_floats(2), "dim": True}),
    ("scorer", {"scores": ["high"]}),
], ids=lambda value: value if isinstance(value, str) else canonical_json(value))
def test_malformed_2xx_reply_is_a_protocol_error(monkeypatch, role, reply):
    kind, call = _CALLS[role]
    client = kind(EndpointConfig(base_url="http://mock.invalid", model_id="m"))
    monkeypatch.setattr(client, "_send",
                        lambda path, body: (200, {}, canonical_json(reply).encode()))
    with pytest.raises(ProtocolError):
        call(client)
    assert client.stats.requests == 1 and client.stats.retries == 0


@pytest.fixture()
def one_shot_server():
    """An HTTP server on a raw socket that answers each connection's first
    request with ``server.reply`` and then closes the connection. The request
    heads go to ``server.heads``; ``server.closed`` is released once per
    connection closed."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    server = SimpleNamespace(
        base_url=f"http://127.0.0.1:{listener.getsockname()[1]}",
        reply=b"", heads=[], closed=threading.Semaphore(0), stop=threading.Event())

    def serve():
        while not server.stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5)
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(65536)
                head, _, body = data.partition(b"\r\n\r\n")
                server.heads.append(head)
                length = int(re.search(rb"(?i)content-length: *(\d+)", head).group(1))
                while len(body) < length:
                    body += conn.recv(65536)
                conn.sendall(server.reply)
            server.closed.release()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield server
    server.stop.set()
    thread.join(timeout=5)
    listener.close()
    assert not thread.is_alive()


_OK_REPLY = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
             b"Content-Length: %d\r\n\r\n%s" % (len(_OK_BODY), _OK_BODY))


def test_idle_connection_closed_by_server_is_replaced(one_shot_server, monkeypatch):
    sleeps = []
    monkeypatch.setattr(backends_mod, "_sleep", sleeps.append)
    one_shot_server.reply = _OK_REPLY
    client = DrafterClient(EndpointConfig(base_url=one_shot_server.base_url, model_id="m"))
    try:
        assert client.parse(["x"], client.translate(["x"]))[0] == ["[draft]x"]
        assert one_shot_server.closed.acquire(timeout=5)  # the pooled connection is dead
        assert client.parse(["x"], client.translate(["x"]))[0] == ["[draft]x"]
        assert one_shot_server.closed.acquire(timeout=5)
    finally:
        client.close()
    assert client.stats.requests == 2 and client.stats.retries == 0
    assert sleeps == []
    assert not one_shot_server.closed.acquire(timeout=0.2)  # two requests, no more


def test_truncated_body_is_a_transport_failure(one_shot_server, monkeypatch):
    sleeps = []
    monkeypatch.setattr(backends_mod, "_sleep", sleeps.append)
    one_shot_server.reply = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + _OK_BODY[:13]
    client = DrafterClient(EndpointConfig(base_url=one_shot_server.base_url, model_id="m",
                                          max_retries=2))
    try:
        with pytest.raises(TransportError, match="after 3 attempts"):
            client.translate(["x"])
    finally:
        client.close()
    assert len(sleeps) == 2
    assert all(one_shot_server.closed.acquire(timeout=5) for _ in range(3))
    assert not one_shot_server.closed.acquire(timeout=0.2)


def test_proxy_from_environment(one_shot_server, monkeypatch):
    for var in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(var, raising=False)
        monkeypatch.delenv(var.upper(), raising=False)
    proxy = one_shot_server.base_url.replace("http://", "http://user:pw@")
    monkeypatch.setenv("http_proxy", proxy)
    monkeypatch.setenv("https_proxy", proxy)
    one_shot_server.reply = _OK_REPLY
    client = DrafterClient(EndpointConfig(base_url="http://backend.invalid:8080/v1",
                                          model_id="m"))
    try:
        assert client.parse(["x"], client.translate(["x"]))[0] == ["[draft]x"]
    finally:
        client.close()
    head = one_shot_server.heads[0]
    assert head.startswith(b"POST http://backend.invalid:8080/v1/translate HTTP/1.1\r\n")
    assert b"\r\nProxy-Authorization: Basic dXNlcjpwdw==" in head
    # HTTPS tunnels through the proxy; NO_PROXY hosts are reached directly
    tls = DrafterClient(EndpointConfig(base_url="https://backend.invalid/v1", model_id="m"))
    assert tls._tunnel == ("backend.invalid", 443,
                           {"Proxy-Authorization": "Basic dXNlcjpwdw=="})
    assert tls._target == "/v1"
    monkeypatch.setenv("no_proxy", "backend.invalid")
    direct = DrafterClient(EndpointConfig(base_url="http://backend.invalid/v1", model_id="m"))
    assert direct._target == "/v1" and "Proxy-Authorization" not in direct._headers


def test_dropped_client_closes_its_connections(endpoint):
    client = DrafterClient(endpoint("drafter"))
    client.translate(["x"])
    sock = client._idle[-1].sock
    del client
    assert sock.fileno() == -1


@pytest.mark.parametrize("url", ["localhost:8080", "ftp://host/x", "http://", "http://h:99999"])
def test_base_url_must_be_http(url):
    with pytest.raises(ValueError):
        EndpointConfig(base_url=url, model_id="m")


@pytest.mark.parametrize("role", ["refiner", "drafter", "embedder", "scorer"])
def test_each_role_reads_its_own_token_variable(monkeypatch, role):
    for other in ("REFINER", "DRAFTER", "EMBEDDER", "SCORER"):
        monkeypatch.delenv(f"REFTA_{other}_TOKEN", raising=False)
    assert backends_mod.resolve_token(role) is None
    monkeypatch.setenv(f"REFTA_{role.upper()}_TOKEN", f"secret-{role}")
    assert backends_mod.resolve_token(role) == f"secret-{role}"
