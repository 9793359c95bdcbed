"""Deterministic in-repo mock of all four backend wire protocols.

Used by the test suite and the ``refta mock-serve`` subcommand so the whole
pipeline runs with zero external services. Behaviors are pure functions of
the request payload:

- drafter: echoes ``"[draft]" + text``.
- embedder: hash-seeded pseudo-random vector of a fixed dimension, so equal
  text always yields the identical vector; the reply is base64 float32.
- refiner: ``template`` mode extracts the draft (or the source, for the
  baseline instruction) from the prompt and returns ``"[refined] " + it``;
  ``echo`` mode returns the user message verbatim; ``empty`` mode returns
  an empty content string (exercises the client's protocol error path).
- scorer: 1.0 when hypothesis equals reference else 0.7; metrics outside
  ``SCORER_METRICS`` get HTTP 400 with error type ``unsupported_metric``.

A body that is not a JSON object gets HTTP 400 ``bad_json``; ``/translate``
and ``/embed`` answer HTTP 400 ``bad_inputs`` when ``inputs`` is not a list
of strings.

Fault injection: ``fail_rate`` (the share of data requests that fail with
``fail_status``, each decided by the request and its attempt, so a seed
fails the same requests at any parallelism), ``fail_first`` (force the first
N data requests per path to fail) and ``latency_ms``. ``GET /_stats``
exposes per-path request counts, input counts (the length of ``inputs`` for
``/translate`` and ``/embed``, of ``hypotheses`` for ``/score``, one per chat
request) and the concurrency high-water mark; ``POST /_reset`` clears them.

Accepted sockets set ``TCP_NODELAY``, so Nagle's algorithm does not hold a
body written after its headers until the client's delayed ACK (~40 ms).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from base64 import b64encode
from contextlib import suppress
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from refta.backends import estimate_tokens
from refta.prompt import BASELINE_INSTRUCTION, DRAFT_LABEL

DRAFT_PREFIX = "[draft]"
REFINED_PREFIX = "[refined] "
SCORER_METRICS = ("comet", "bertscore")


@dataclass
class MockBehavior:
    embed_dim: int = 64
    refiner: str = "template"  # or "echo", "empty"
    fail_rate: float = 0.0
    fail_first: int = 0
    fail_status: int = 500
    latency_ms: int = 0
    seed: int = 0


@dataclass
class _Stats:
    counts: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    failures_injected: dict = field(default_factory=dict)
    current: dict = field(default_factory=dict)
    max_concurrency: dict = field(default_factory=dict)
    attempts: dict = field(default_factory=dict)  # (seed, path, body) digest -> requests
    lock: threading.Lock = field(default_factory=threading.Lock)

    def enter(self, path: str, inputs: int) -> None:
        with self.lock:
            self.counts[path] = self.counts.get(path, 0) + 1
            self.inputs[path] = self.inputs.get(path, 0) + inputs
            cur = self.current.get(path, 0) + 1
            self.current[path] = cur
            if cur > self.max_concurrency.get(path, 0):
                self.max_concurrency[path] = cur

    def leave(self, path: str) -> None:
        with self.lock:
            self.current[path] = self.current.get(path, 1) - 1

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "counts": dict(self.counts),
                "inputs": dict(self.inputs),
                "failures_injected": dict(self.failures_injected),
                "max_concurrency": dict(self.max_concurrency),
            }

    def reset(self) -> None:
        with self.lock:
            self.counts.clear()
            self.inputs.clear()
            self.failures_injected.clear()
            self.current.clear()
            self.max_concurrency.clear()
            self.attempts.clear()


def hash_embedding(text: str, dim: int) -> np.ndarray:
    """Deterministic unit-free embedding: equal text, equal vector."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "big")
    gen = np.random.Generator(np.random.PCG64(seed))
    return gen.standard_normal(dim).astype(np.float32)


def template_refine(system: str, user: str) -> str:
    for line in user.split("\n"):
        if line.startswith(DRAFT_LABEL + " "):
            return REFINED_PREFIX + line[len(DRAFT_LABEL) + 1:]
    lines = user.split("\n")
    if lines and lines[0] == BASELINE_INSTRUCTION:
        return REFINED_PREFIX + "\n".join(lines[1:]).strip()
    return user


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "refta-mock/0.1"
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def handle(self):  # a client gone before its reply is not an error to print
        with suppress(BrokenPipeError, ConnectionResetError):
            super().handle()

    @property
    def behavior(self) -> MockBehavior:
        return self.server.behavior

    @property
    def stats(self) -> _Stats:
        return self.server.stats

    def _send_json(self, status: int, obj: dict) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> tuple[bytes, dict]:
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length) if length else b""
        payload = json.loads(raw.decode("utf-8") or "{}")  # an empty body reads as {}
        if not isinstance(payload, dict):
            raise ValueError("the body is not a JSON object")
        return raw, payload

    def _maybe_fail(self, path: str, body: bytes) -> bool:
        b = self.behavior
        with self.stats.lock:
            injected = self.stats.failures_injected.get(path, 0)
            fail = injected < b.fail_first
            if b.fail_rate:
                draw = hashlib.sha256(f"{b.seed}\0{path}\0".encode() + body)
                attempt = self.stats.attempts.get(draw.digest(), 0)
                self.stats.attempts[draw.digest()] = attempt + 1
                # sha256(seed, path, body, attempt); its top 53 bits are a fraction in [0, 1)
                draw.update(attempt.to_bytes(8, "big"))
                fail |= (int.from_bytes(draw.digest()[:8], "big") >> 11) / 2**53 < b.fail_rate
            if fail:
                self.stats.failures_injected[path] = injected + 1
        if fail:
            self._send_json(b.fail_status, {"error": {"type": "injected_fault"}})
        return fail

    def do_GET(self):
        if self.path == "/_stats":
            self._send_json(200, self.stats.snapshot())
        else:
            self._send_json(404, {"error": {"type": "not_found"}})

    def do_POST(self):
        path = self.path
        # Drain the body up front: keep-alive connections break if a fault
        # response is sent while request bytes are still unread.
        try:
            body, payload = self._read_json()
        except (ValueError, UnicodeDecodeError):
            self._send_json(400, {"error": {"type": "bad_json"}})
            return
        if path == "/_reset":
            self.stats.reset()
            self._send_json(200, {"ok": True})
            return
        handler = {
            "/translate": self._translate,
            "/embed": self._embed,
            "/score": self._score,
            "/v1/chat/completions": self._chat,
        }.get(path)
        if handler is None:
            self._send_json(404, {"error": {"type": "not_found"}})
            return
        inputs = payload.get("hypotheses" if path == "/score" else "inputs")
        if path in ("/translate", "/embed") and not (
                isinstance(inputs, list) and all(isinstance(t, str) for t in inputs)):
            self._send_json(400, {"error": {"type": "bad_inputs"}})
            return
        self.stats.enter(path, len(inputs) if isinstance(inputs, list) else 1)
        try:
            if self.behavior.latency_ms:
                time.sleep(self.behavior.latency_ms / 1000.0)
            if self._maybe_fail(path, body):
                return
            handler(payload)
        finally:
            self.stats.leave(path)

    def _translate(self, payload: dict) -> None:
        inputs = payload["inputs"]
        outputs = [DRAFT_PREFIX + t for t in inputs]
        in_tok = sum(map(estimate_tokens, inputs))
        out_tok = sum(map(estimate_tokens, outputs))
        self._send_json(200, {
            "outputs": outputs,
            "usage": {"input_tokens": in_tok, "output_tokens": out_tok},
        })

    def _embed(self, payload: dict) -> None:
        inputs = payload["inputs"]
        dim = self.behavior.embed_dim
        matrix = np.array([hash_embedding(t, dim) for t in inputs], "<f4").reshape(-1, dim)
        vectors = b64encode(matrix.tobytes()).decode("ascii")
        self._send_json(200, {"vectors": vectors, "dim": dim})

    def _score(self, payload: dict) -> None:
        metric = payload.get("metric", "")
        if metric not in SCORER_METRICS:
            self._send_json(400, {"error": {
                "type": "unsupported_metric",
                "message": f"metric '{metric}' is not served",
            }})
            return
        hyps = payload.get("hypotheses") or []
        refs = payload.get("references") or []
        if len(hyps) != len(refs):
            self._send_json(400, {"error": {"type": "length_mismatch"}})
            return
        scores = [1.0 if h == r else 0.7 for h, r in zip(hyps, refs)]
        self._send_json(200, {"scores": scores})

    def _chat(self, payload: dict) -> None:
        messages = payload.get("messages") or []
        system = user = ""
        for msg in messages:
            if msg.get("role") == "system":
                system = str(msg.get("content", ""))
            elif msg.get("role") == "user":
                user = str(msg.get("content", ""))
        if self.behavior.refiner == "echo":
            text = user
        elif self.behavior.refiner == "empty":
            text = ""
        else:
            text = template_refine(system, user)
        self._send_json(200, {
            "id": "mock-chat",
            "object": "chat.completion",
            "model": payload.get("model", "mock"),
            "choices": [{
                "index": 0,
                "message": {"role": "assistant", "content": text},
                "finish_reason": "stop",
            }],
            "usage": {
                "prompt_tokens": estimate_tokens(system + user),
                "completion_tokens": estimate_tokens(text),
            },
        })


class MockServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, behavior: MockBehavior, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.behavior = behavior
        self.stats = _Stats()

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self) -> None:
        """Stop serving and close the listening socket."""
        self.shutdown()
        self.server_close()
