"""Clients for the four external model services.

Wire protocols
--------------
- Refiner: ``POST {base_url}/v1/chat/completions`` with an OpenAI-compatible
  body (``model``, ``messages``, ``temperature``, ``top_p``, ``max_tokens``,
  optional ``seed``); the first choice's message content is the reply.
- Drafter: ``POST {base_url}/translate`` with
  ``{"model": str, "inputs": [str], "src": "la", "tgt": "en"}`` returning
  ``{"outputs": [str], "usage": {"input_tokens": int, "output_tokens": int}}``.
- Embedder: ``POST {base_url}/embed`` with
  ``{"model": str, "inputs": [str], "encoding_format": "base64"}`` returning
  ``{"vectors": str, "dim": int}``: ``vectors`` is the base64 of the
  little-endian float32 ``(len(inputs), dim)`` matrix in row order, the
  layout of ``vectors.bin``, and ``embed`` returns that matrix. Any other
  reply, JSON lists of decimals included, is a ``ProtocolError``.
- Scorer: ``POST {base_url}/score`` with
  ``{"metric": str, "sources": [...], "hypotheses": [...], "references": [...]}``
  returning ``{"scores": [float]}``; a score that is not a finite JSON number
  is a ``ProtocolError``. An unsupported metric is signalled by
  HTTP 400 with ``{"error": {"type": "unsupported_metric", ...}}``.

A 2xx reply that breaks its protocol (say, a body that is not a JSON object
or a token count that is not a non-negative integer) raises ``ProtocolError``.

Batching: one ``translate``/``embed``/``score`` call is one request of at
most ``max_batch`` inputs, or ``ValueError`` before sending. Every backend
request goes through ``send_batches``, which batches inputs and refills each
slot as its call completes; all but the index build's via ``map_batches``.

Auth tokens come only from the environment (``REFTA_REFINER_TOKEN``,
``REFTA_DRAFTER_TOKEN``, ``REFTA_EMBEDDER_TOKEN``, ``REFTA_SCORER_TOKEN``),
never from config files, and are sent as ``Authorization: Bearer``.

Retry policy: transport failures, HTTP 5xx and 429 are retried up to
``max_retries`` times with exponential backoff (``BACKOFF_BASE_S``, factor 2,
with jitter); a 429 whose ``Retry-After`` is delta-seconds waits that long
instead, at most ``RETRY_AFTER_CAP_S``; one with no such value keeps the backoff.
Any other 4xx fails immediately. Per-endpoint concurrency is capped at
``request_parallelism`` by an internal admission gate, so clients are safe to
share across threads.

Transport: stdlib ``http.client`` keep-alive connections, pooled per client
(at most one per admitted request). ``base_url`` and the proxy variables
(``HTTP_PROXY``, ``HTTPS_PROXY``, ``ALL_PROXY``, ``NO_PROXY``) are read once,
when the client is built. Redirects are not followed, and no compressed
response is asked for.
"""

from __future__ import annotations

import functools
import http.client
import itertools
import json
import math
import os
import queue
import random
import select
import ssl
import sys
import threading
import time
import urllib.request
import weakref
from base64 import b64decode, b64encode
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from urllib.parse import SplitResult, unquote, urlsplit

import numpy as np

from refta.errors import (
    BackendError,
    CapabilityError,
    ProtocolError,
    Refusal,
    RequestError,
    TransportError,
)

MAX_OUTPUT_TOKENS_CEILING = 8192

# patch point for tests; never sleep directly
_sleep = time.sleep


def resolve_token(role: str) -> str | None:
    """Auth token for a backend role, from ``REFTA_<ROLE>_TOKEN`` only."""
    return os.environ.get(f"REFTA_{role.upper()}_TOKEN")


def estimate_tokens(text: str) -> int:
    """Deterministic fallback token estimate: ceil(characters / 4).

    A coarse budgeting heuristic only; subword tokenizers for Latin can
    deviate from it by tens of percent, so exact counts always come from
    the backend when it reports usage.
    """
    return math.ceil(len(text) / 4)


def canonical_json(obj) -> str:
    """Byte-stable JSON used for request bodies, hashes and golden files."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model_id: str
    timeout: float = 30.0
    max_retries: int = 3
    request_parallelism: int = 4
    auth_token: str | None = None
    max_batch: int = 64

    def __post_init__(self):
        if not 0 < self.timeout < math.inf:  # NaN fails both bounds
            raise ValueError(f"timeout must be finite and > 0, not {self.timeout}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.request_parallelism < 1:
            raise ValueError("request_parallelism must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        _split_http_url(self.base_url)


@dataclass(frozen=True)
class TokenUsage:
    input_tokens: int
    output_tokens: int
    source: str  # "backend-reported" or "estimated"

    def __post_init__(self):
        if self.input_tokens < 0 or self.output_tokens < 0:
            raise ValueError("token counts must be non-negative")
        if self.source not in ("backend-reported", "estimated"):
            raise ValueError(f"unknown usage source: {self.source!r}")


@dataclass(frozen=True)
class ChatRequest:
    system: str
    user: str
    temperature: float = 0.0
    top_p: float = 1.0
    max_output_tokens: int = 256
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be in [0, 2]")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if not 0 < self.max_output_tokens <= MAX_OUTPUT_TOKENS_CEILING:
            raise ValueError(
                f"max_output_tokens must be in (0, {MAX_OUTPUT_TOKENS_CEILING}]"
            )


@dataclass
class ClientStats:
    """Thread-safe counters a client accumulates across calls."""

    requests: int = 0
    retries: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, attempts: int) -> None:
        with self._lock:
            self.requests += 1
            self.retries += attempts - 1


def send_batches(call, items, max_batch: int, max_in_flight: int):
    """Call ``call`` on ``items``, any iterable, cut into list batches of at
    most ``max_batch``.

    Yields ``(batch, result, ms)`` as each call completes: ``result`` is
    what ``call(batch)`` returned or the exception it raised, and ``ms`` the
    call's wall time. The caller decides what a failed batch means, and
    passes indices as ``items`` when it needs positions. At most
    ``max_in_flight`` calls are in flight, and the next batch is taken from
    ``items`` only once the caller has taken a result and so freed a slot, so
    a feed the caller ends sends nothing more. Stopping early waits for the
    calls in flight.
    """
    def timed(batch):
        t0 = time.perf_counter()
        try:
            result = call(batch)
        except Exception as exc:  # handed to the caller with its batch
            result = exc
        return batch, result, (time.perf_counter() - t0) * 1000.0

    feed, in_flight = iter(items), 0
    done: queue.SimpleQueue = queue.SimpleQueue()
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        while batch := list(itertools.islice(feed, max_batch)):
            pool.submit(timed, batch).add_done_callback(done.put)
            in_flight += 1
            if in_flight == max_in_flight:  # a slot frees when the caller takes its result
                yield done.get().result()
                in_flight -= 1
        for _ in range(in_flight):
            yield done.get().result()


def map_batches(call, items: list, max_batch: int, fail_fast: bool, max_in_flight: int,
                store=None):
    """``call`` over the distinct ``items``, in batches of at most ``max_batch``
    with ``max_in_flight`` calls in flight: the one rule for what a failed
    request means; the first batch goes alone, so an endpoint that refuses the
    run costs one request. Returns ``item -> (output, ms)``, with ms the wall
    time of the request that served the item, and ``item -> error`` for the
    items whose request failed with a ``BackendError``; any other exception is
    raised. An item ``store`` holds is served from it in 0 ms and sent in no
    request, and each batch paid for is added to ``store`` by the calling
    thread as it takes the result. A batch of several items rejected with
    ``RequestError``/``ProtocolError`` is mapped again, one item per request,
    at the same ``max_in_flight``. Under ``fail_fast`` the feed ends at the
    first failed request taken, so the items after it are in neither map; the
    calls in flight are taken as ever, served and stored, and a resend already
    begun runs until it ends or fails. A ``Refusal``, in a resend too, ends the
    feed in the same way whatever ``fail_fast`` says, and every item never
    sent fails with it."""
    served = {item: (store[item], 0.0) for item in items if store is not None and item in store}
    failed, refusal = {}, None
    unserved = [item for item in dict.fromkeys(items) if item not in served]
    feed = itertools.takewhile(lambda _: not (refusal or fail_fast and failed), unserved)
    first = send_batches(call, itertools.islice(feed, max_batch), max_batch, 1)
    rest = send_batches(call, feed, max_batch, max_in_flight)  # once the first returns
    for batch, result, ms in itertools.chain(first, rest):
        if (isinstance(result, (RequestError, ProtocolError)) and len(batch) > 1
                and not isinstance(result, Refusal)):
            # rejected for an input, not for what it asks: find the inputs it rejects
            resent, rejected = map_batches(call, batch, 1, fail_fast, max_in_flight, store)
            served.update(resent)
        elif isinstance(result, BackendError):
            rejected = dict.fromkeys(batch, result)
        elif isinstance(result, Exception):
            raise result
        else:
            if store is not None:
                store.add(dict(zip(batch, result)))
            served.update((item, (out, ms)) for item, out in zip(batch, result))
            continue
        failed.update(rejected)
        refusal = refusal or next((e for e in rejected.values() if isinstance(e, Refusal)), None)
    if refusal is not None:
        failed.update((item, refusal) for item in unserved
                      if item not in served and item not in failed)
    return served, failed


RETRY_AFTER_CAP_S = 60.0
BACKOFF_BASE_S = 0.5
BACKOFF_FACTOR = 2.0


def _split_http_url(url: str) -> tuple[SplitResult, int]:
    """``url`` split into its parts, and its port; ``ValueError`` unless it
    is http(s) with a host and a valid port."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"not an http(s) URL: {url!r}")
    return parts, parts.port or (443 if parts.scheme == "https" else 80)


def _env_proxy(scheme: str, host: str) -> tuple[SplitResult, int] | None:
    """The proxy the environment names for ``scheme`` requests to ``host``,
    or None when there is none or ``NO_PROXY`` covers the host."""
    proxies = urllib.request.getproxies()
    proxy = proxies.get(scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(host):
        return None
    parts, port = _split_http_url(proxy if "://" in proxy else "http://" + proxy)
    if parts.scheme != "http":
        raise ValueError(f"only http:// proxies are supported, got {proxy!r}")
    return parts, port


def _proxy_auth(proxy: SplitResult) -> dict:
    if proxy.username is None:
        return {}
    cred = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
    return {"Proxy-Authorization": "Basic " + b64encode(cred.encode()).decode("ascii")}


def _close_all(conns: list, lock: threading.Lock) -> None:
    with lock:
        closing, conns[:] = conns[:], []
    for conn in closing:
        conn.close()


class _HttpClient:
    """Shared POST-with-retry machinery behind the four typed clients."""

    def __init__(self, cfg: EndpointConfig):
        self.cfg = cfg
        self.stats = ClientStats()
        self._gate = threading.BoundedSemaphore(cfg.request_parallelism)
        self._rng = random.Random()
        url, port = _split_http_url(cfg.base_url)
        host, https = url.hostname, url.scheme == "https"
        self._headers = {"Content-Type": "application/json"}
        if cfg.auth_token:
            self._headers["Authorization"] = f"Bearer {cfg.auth_token}"
        self._target = url.path.rstrip("/")  # what every request target starts with
        self._tunnel = None
        proxy = _env_proxy(url.scheme, host)
        if proxy is not None:
            proxy_url, proxy_port = proxy
            if https:  # CONNECT through the proxy, then TLS to the host
                self._tunnel = (host, port, _proxy_auth(proxy_url))
            else:  # the proxy takes the absolute URL
                self._target = f"http://{url.netloc.rpartition('@')[2]}{self._target}"
                self._headers.update(_proxy_auth(proxy_url))
            host, port = proxy_url.hostname, proxy_port
        if https:  # the system trust store, as OpenSSL finds it
            self._open = functools.partial(http.client.HTTPSConnection, host, port,
                                           timeout=cfg.timeout,
                                           context=ssl.create_default_context())
        else:
            self._open = functools.partial(http.client.HTTPConnection, host, port,
                                           timeout=cfg.timeout)
        # idle keep-alive connections, most recently used last; the gate caps
        # the pool at request_parallelism
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        # a client dropped without close() still closes its sockets
        weakref.finalize(self, _close_all, self._idle, self._idle_lock)

    def close(self) -> None:
        _close_all(self._idle, self._idle_lock)

    def _idle_connection(self) -> http.client.HTTPConnection | None:
        """The most recently used idle connection the server has not closed."""
        while True:
            with self._idle_lock:
                if not self._idle:
                    return None
                conn = self._idle.pop()
            # an idle connection has nothing to read: any event is EOF, a
            # reset or stray bytes, so sending on it would fail or misparse
            poller = select.poll()
            poller.register(conn.sock, select.POLLIN)
            if not poller.poll(0):
                return conn
            conn.close()

    def _send(self, path: str, body: bytes) -> tuple[int, http.client.HTTPMessage, bytes]:
        """POST ``body`` to ``path`` exactly once; returns the status, the
        response headers and the whole response body."""
        conn = self._idle_connection()
        if conn is None:
            conn = self._open()
            if self._tunnel is not None:
                conn.set_tunnel(*self._tunnel)
        try:
            conn.request("POST", self._target + path, body, self._headers)
            resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._idle_lock:
                self._idle.append(conn)
        return resp.status, resp.headers, data

    def _post(self, path: str, payload: dict | bytes) -> dict:
        url = self.cfg.base_url.rstrip("/") + path
        body = payload if isinstance(payload, bytes) else canonical_json(payload).encode("utf-8")
        attempts = 0
        last_failure = ""
        while True:
            attempts += 1
            retry_after = ""
            try:
                with self._gate:
                    status, headers, data = self._send(path, body)
            except (OSError, http.client.HTTPException) as exc:
                last_failure = f"transport: {exc}"
            else:
                if 200 <= status < 300:
                    self.stats.record(attempts)
                    try:
                        reply = json.loads(data)
                    except ValueError as exc:
                        raise ProtocolError(f"{url}: invalid JSON response: {exc}") from exc
                    if not isinstance(reply, dict):
                        raise ProtocolError(f"{url}: response is not a JSON object")
                    return reply
                if status != 429 and not 500 <= status <= 599:  # not retryable
                    self.stats.record(attempts)
                    self._raise_request_error(status, data.decode("utf-8", "replace"))
                last_failure = f"HTTP {status}"
                if status == 429:
                    retry_after = headers.get("Retry-After", "").strip()
            if attempts > self.cfg.max_retries:
                self.stats.record(attempts)
                raise TransportError(f"{url}: giving up after {attempts} attempts ({last_failure})")
            delay = BACKOFF_BASE_S * (BACKOFF_FACTOR ** (attempts - 1))
            delay *= 1.0 + 0.1 * self._rng.random()
            if retry_after.isascii() and retry_after.isdigit():  # delta-seconds, not a date
                delay = min(float(retry_after), RETRY_AFTER_CAP_S)
            _sleep(delay)

    def _check_batch(self, path: str, inputs: list) -> None:
        """``ValueError`` unless ``inputs`` fit one request: 1 to ``max_batch``."""
        if not 0 < len(inputs) <= self.cfg.max_batch:
            raise ValueError(f"{path} takes 1 to max_batch={self.cfg.max_batch} inputs, "
                             f"got {len(inputs)}; cut them with send_batches")

    def _post_inputs(self, path: str, texts: list[str], **fields) -> dict:
        """POST ``texts`` as one request; returns the response."""
        self._check_batch(path, texts)
        if not all(texts):
            raise ValueError(f"{path} takes no empty text")
        return self._post(path, {"model": self.cfg.model_id, "inputs": texts, **fields})

    def _raise_request_error(self, status: int, body: str) -> None:
        try:
            parsed = json.loads(body)
            err_type = parsed.get("error", {}).get("type", "")
        except (ValueError, AttributeError):
            err_type = ""
        if err_type == "unsupported_metric":
            raise CapabilityError(status, body)
        raise RequestError(status, body)


def _usage(data: dict, keys: tuple[str, str], inputs, outputs) -> TokenUsage:
    """The reply's ``usage`` counts under ``keys`` (input, output) when it
    reports both, else ``estimate_tokens`` over ``inputs`` and ``outputs``."""
    usage = data.get("usage") or {}
    if not isinstance(usage, dict):
        raise ProtocolError(f"usage is not a JSON object: {usage!r}")
    if not all(key in usage for key in keys):
        return TokenUsage(sum(map(estimate_tokens, inputs)),
                          sum(map(estimate_tokens, outputs)), "estimated")
    counts = [usage[key] for key in keys]
    if not all(type(c) is int and c >= 0 for c in counts):
        raise ProtocolError(f"usage {keys} must be non-negative integers, got {counts}")
    return TokenUsage(*counts, "backend-reported")


class DrafterClient(_HttpClient):
    """NMT draft translation backend (Latin to English); one request of at
    most ``cfg.max_batch`` texts per call."""

    def translate(self, texts: list[str]) -> tuple[list[str], TokenUsage]:
        data = self._post_inputs("/translate", texts, src="la", tgt="en")
        outputs = data.get("outputs")
        if not isinstance(outputs, list) or len(outputs) != len(texts):
            raise ProtocolError(f"drafter returned {len(outputs or [])} "
                                f"outputs for {len(texts)} inputs")
        if not all(isinstance(o, str) for o in outputs):
            raise ProtocolError("drafter outputs must all be strings")
        drafts = [o.strip() for o in outputs]
        if not all(drafts):
            raise ProtocolError("drafter returned an empty translation")
        return drafts, _usage(data, ("input_tokens", "output_tokens"), texts, drafts)


class RefinerClient(_HttpClient):
    """OpenAI-compatible chat-completions backend."""

    def build_payload(self, req: ChatRequest) -> dict:
        payload = {
            "model": self.cfg.model_id,
            "messages": [
                {"role": "system", "content": req.system},
                {"role": "user", "content": req.user},
            ],
            "temperature": req.temperature,
            "top_p": req.top_p,
            "max_tokens": req.max_output_tokens,
        }
        if req.seed is not None:
            payload["seed"] = req.seed
        return payload

    def complete(self, req: ChatRequest, body: bytes | None = None) -> tuple[str, TokenUsage]:
        """Send ``req``, or ``body`` when given: its ``build_payload`` already
        encoded by ``canonical_json``."""
        data = self._post("/v1/chat/completions", body or self.build_payload(req))
        try:
            text = data["choices"][0]["message"]["content"].strip()
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise ProtocolError("refiner reply has no choices[0].message.content") from exc
        if not text:
            raise ProtocolError("refiner returned empty content")
        return text, _usage(data, ("prompt_tokens", "completion_tokens"),
                            (req.system, req.user), (text,))


class EmbedderClient(_HttpClient):
    """Dense embedding backend; one request of at most ``cfg.max_batch``
    texts per call."""

    def embed(self, texts: list[str]) -> np.ndarray:
        data = self._post_inputs("/embed", texts, encoding_format="base64")
        vectors, dim = data.get("vectors"), data.get("dim")
        if not isinstance(vectors, str) or type(dim) is not int or dim < 1:
            raise ProtocolError("embedder reply needs base64 str vectors and an int dim >= 1")
        try:
            raw = b64decode(vectors, validate=True)
        except ValueError as exc:
            raise ProtocolError(f"embedder vectors are not base64: {exc}") from exc
        if len(raw) != 4 * len(texts) * dim:
            raise ProtocolError(f"embedder returned {len(raw)} bytes for "
                                f"{len(texts)} inputs of dim {dim}")
        return np.frombuffer(raw, "<f4").astype(np.float32).reshape(len(texts), dim)


class ScorerClient(_HttpClient):
    """Neural metric scorer (COMET, BERTScore, METEOR) treated as opaque;
    one request of at most ``cfg.max_batch`` triples per call."""

    def score(self, metric: str, triples: list[tuple[str, str, str]]) -> list[float]:
        """Scores of (source, hypothesis, reference) triples."""
        self._check_batch("/score", triples)
        sources, hypotheses, references = map(list, zip(*triples))
        data = self._post("/score", {"metric": metric, "sources": sources,
                                     "hypotheses": hypotheses, "references": references})
        scores = data.get("scores")
        if not isinstance(scores, list) or len(scores) != len(triples):
            raise ProtocolError(
                f"scorer returned {len(scores or [])} scores for {len(triples)} segments"
            )
        # NaN fails both comparisons; an int past the float range is refused too
        bad = [s for s in scores if isinstance(s, bool) or not isinstance(s, (int, float))
               or not -sys.float_info.max <= s <= sys.float_info.max]
        if bad:
            raise ProtocolError(f"scorer returned a score that is not a finite number: {bad[0]!r}")
        return [float(s) for s in scores]
