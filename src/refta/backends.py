"""Clients for the four external model services.

Wire protocols
--------------
- Refiner: ``POST {base_url}/v1/chat/completions`` with an OpenAI-compatible
  body (``model``, ``messages``, ``temperature``, ``top_p``, ``max_tokens``,
  optional ``seed``); the first choice's message content is the reply.
- Drafter: ``POST {base_url}/translate`` with
  ``{"model": str, "inputs": [str], "src": "la", "tgt": "en"}`` returning
  ``{"outputs": [str], "usage": {"input_tokens": int, "output_tokens": int}}``.
- Embedder: ``POST {base_url}/embed`` with ``{"model": str, "inputs": [str]}``
  returning ``{"vectors": [[float]], "dim": int}``.
- Scorer: ``POST {base_url}/score`` with
  ``{"metric": str, "sources": [...], "hypotheses": [...], "references": [...]}``
  returning ``{"scores": [float]}``. An unsupported metric is signalled by
  HTTP 400 with ``{"error": {"type": "unsupported_metric", ...}}``.

Auth tokens come only from the environment (``REFTA_REFINER_TOKEN``,
``REFTA_DRAFTER_TOKEN``, ``REFTA_EMBEDDER_TOKEN``, ``REFTA_SCORER_TOKEN``),
never from config files, and are sent as ``Authorization: Bearer``.

Retry policy: transport failures, HTTP 5xx and 429 are retried up to
``max_retries`` times with exponential backoff (base 0.5 s, factor 2, with
jitter); a 429 whose ``Retry-After`` is delta-seconds waits that long instead,
at most ``RETRY_AFTER_CAP_S``, and one with no such value keeps the backoff.
Any other 4xx fails immediately. Per-endpoint concurrency is capped at
``request_parallelism`` by an internal admission gate, so clients are safe to
share across threads.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import requests
from requests.adapters import HTTPAdapter

from refta.errors import (
    CapabilityError,
    ProtocolError,
    RequestError,
    TransportError,
)

ENV_TOKEN_VARS = {
    "refiner": "REFTA_REFINER_TOKEN",
    "drafter": "REFTA_DRAFTER_TOKEN",
    "embedder": "REFTA_EMBEDDER_TOKEN",
    "scorer": "REFTA_SCORER_TOKEN",
}

MAX_OUTPUT_TOKENS_CEILING = 8192

# patch point for tests; never sleep directly
_sleep = time.sleep


def resolve_token(role: str) -> str | None:
    """Auth token for a backend role, from the environment only."""
    var = ENV_TOKEN_VARS.get(role)
    return os.environ.get(var) if var else None


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
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    max_batch: int = 64

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.request_parallelism < 1:
            raise ValueError("request_parallelism must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


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


_RETRYABLE_STATUSES = frozenset({429})
RETRY_AFTER_CAP_S = 60.0


def _is_retryable_status(status: int) -> bool:
    return status in _RETRYABLE_STATUSES or 500 <= status <= 599


class _HttpClient:
    """Shared POST-with-retry machinery behind the four typed clients."""

    def __init__(self, cfg: EndpointConfig):
        self.cfg = cfg
        self.stats = ClientStats()
        self._gate = threading.BoundedSemaphore(cfg.request_parallelism)
        self._session = requests.Session()
        # one pooled connection per admitted request, so none is discarded
        adapter = HTTPAdapter(pool_maxsize=cfg.request_parallelism)
        self._session.mount("http://", adapter)
        self._session.mount("https://", adapter)
        self._rng = random.Random()

    def close(self) -> None:
        self._session.close()

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.cfg.auth_token:
            headers["Authorization"] = f"Bearer {self.cfg.auth_token}"
        return headers

    def _post(self, path: str, payload: dict) -> dict:
        url = self.cfg.base_url.rstrip("/") + path
        body = canonical_json(payload).encode("utf-8")
        attempts = 0
        last_failure = ""
        while True:
            attempts += 1
            retry_after = ""
            try:
                with self._gate:
                    resp = self._session.post(
                        url, data=body, headers=self._headers(), timeout=self.cfg.timeout
                    )
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_failure = f"transport: {exc}"
            else:
                if 200 <= resp.status_code < 300:
                    self.stats.record(attempts)
                    try:
                        return resp.json()
                    except ValueError as exc:
                        raise ProtocolError(f"{url}: invalid JSON response: {exc}") from exc
                if not _is_retryable_status(resp.status_code):
                    self.stats.record(attempts)
                    self._raise_request_error(resp.status_code, resp.text)
                last_failure = f"HTTP {resp.status_code}"
                if resp.status_code == 429:
                    retry_after = resp.headers.get("Retry-After", "").strip()
            if attempts > self.cfg.max_retries:
                self.stats.record(attempts)
                raise TransportError(
                    f"{url}: giving up after {attempts} attempts ({last_failure})",
                    attempts=attempts,
                )
            delay = self.cfg.backoff_base * (self.cfg.backoff_factor ** (attempts - 1))
            delay *= 1.0 + 0.1 * self._rng.random()
            if retry_after.isascii() and retry_after.isdigit():  # delta-seconds, not a date
                delay = min(float(retry_after), RETRY_AFTER_CAP_S)
            _sleep(delay)

    def _post_batches(self, path: str, texts: list[str], outputs_key: str, **fields):
        """POST ``texts`` in batches of at most ``cfg.max_batch``; yields
        (batch, response, the response's ``outputs_key`` list, one per input)."""
        if not texts or not all(texts):
            raise ValueError(f"{path} requires at least one text, none empty")
        for start in range(0, len(texts), self.cfg.max_batch):
            batch = texts[start:start + self.cfg.max_batch]
            data = self._post(path, {"model": self.cfg.model_id, "inputs": batch, **fields})
            outputs = data.get(outputs_key)
            if not isinstance(outputs, list) or len(outputs) != len(batch):
                raise ProtocolError(f"{path} returned {len(outputs or [])} "
                                    f"{outputs_key} for {len(batch)} inputs")
            yield batch, data, outputs

    def _raise_request_error(self, status: int, body: str) -> None:
        try:
            parsed = json.loads(body)
            err_type = parsed.get("error", {}).get("type", "")
        except (ValueError, AttributeError):
            err_type = ""
        if err_type == "unsupported_metric":
            raise CapabilityError(status, body)
        raise RequestError(status, body)


class DrafterClient(_HttpClient):
    """NMT draft translation backend (Latin to English); batches of up to
    ``cfg.max_batch`` texts."""

    def translate(self, texts: list[str]) -> tuple[list[str], TokenUsage]:
        drafts: list[str] = []
        input_tokens = output_tokens = 0
        source = "backend-reported"
        for batch, data, outputs in self._post_batches("/translate", texts, "outputs",
                                                       src="la", tgt="en"):
            batch_drafts = [str(o).strip() for o in outputs]
            if not all(batch_drafts):
                raise ProtocolError("drafter returned an empty translation")
            usage = data.get("usage") or {}
            if "input_tokens" in usage and "output_tokens" in usage:
                input_tokens += int(usage["input_tokens"])
                output_tokens += int(usage["output_tokens"])
            else:
                input_tokens += sum(estimate_tokens(t) for t in batch)
                output_tokens += sum(estimate_tokens(d) for d in batch_drafts)
                source = "estimated"
            drafts.extend(batch_drafts)
        return drafts, TokenUsage(input_tokens, output_tokens, source)


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

    def complete(self, req: ChatRequest) -> tuple[str, TokenUsage]:
        data = self._post("/v1/chat/completions", self.build_payload(req))
        choices = data.get("choices")
        if not choices:
            raise ProtocolError("refiner response has no choices")
        content = (choices[0].get("message") or {}).get("content")
        if content is None:
            raise ProtocolError("refiner response has no message content")
        text = str(content).strip()
        if not text:
            raise ProtocolError("refiner returned empty content")
        usage = data.get("usage") or {}
        if "prompt_tokens" in usage and "completion_tokens" in usage:
            tu = TokenUsage(int(usage["prompt_tokens"]), int(usage["completion_tokens"]),
                            "backend-reported")
        else:
            tu = TokenUsage(
                estimate_tokens(req.system) + estimate_tokens(req.user),
                estimate_tokens(text),
                "estimated",
            )
        return text, tu


class EmbedderClient(_HttpClient):
    """Dense embedding backend; batches of up to ``cfg.max_batch`` texts."""

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        dim: int | None = None
        for _batch, data, vectors in self._post_batches("/embed", texts, "vectors"):
            batch_dim = int(data.get("dim", len(vectors[0])))
            if dim is not None and batch_dim != dim:
                raise ProtocolError(f"embedder dimension drift: {batch_dim} after {dim}")
            dim = batch_dim
            for vec in vectors:
                arr = np.asarray(vec, dtype=np.float32)
                if arr.shape != (dim,):
                    raise ProtocolError(
                        f"embedder vector of dimension {arr.shape} does not match dim {dim}"
                    )
                out.append(arr)
        return out


class ScorerClient(_HttpClient):
    """Neural metric scorer (COMET, BERTScore, METEOR) treated as opaque."""

    def score(
        self,
        metric: str,
        sources: list[str],
        hypotheses: list[str],
        references: list[str],
    ) -> list[float]:
        if not (len(sources) == len(hypotheses) == len(references)):
            raise ValueError(
                f"length mismatch: {len(sources)} sources, "
                f"{len(hypotheses)} hypotheses, {len(references)} references"
            )
        data = self._post("/score", {
            "metric": metric,
            "sources": sources,
            "hypotheses": hypotheses,
            "references": references,
        })
        scores = data.get("scores")
        if not isinstance(scores, list) or len(scores) != len(hypotheses):
            raise ProtocolError(
                f"scorer returned {len(scores or [])} scores for {len(hypotheses)} segments"
            )
        return [float(s) for s in scores]
