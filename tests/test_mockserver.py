from __future__ import annotations

import base64
import socket
import statistics
import threading
import time

import numpy as np
import pytest
import requests
from hypothesis import given, strategies as st

from refta.mockserver import (
    MockBehavior,
    MockServer,
    hash_embedding,
    start_mock_server,
    template_refine,
)


@given(st.text(max_size=60))
def test_hash_embedding_deterministic(text):
    a = hash_embedding(text, 32)
    b = hash_embedding(text, 32)
    assert np.array_equal(a, b)
    assert a.shape == (32,) and a.dtype == np.float32


def test_hash_embedding_distinguishes_texts():
    assert not np.array_equal(hash_embedding("alpha", 16), hash_embedding("beta", 16))


def test_template_refine_extracts_draft():
    user = "Latin text: Gallia.\n\nNMT draft (NLLB): Gaul it is.\n\nFinal translation:"
    assert template_refine("sys", user) == "[refined] Gaul it is."


def test_template_refine_baseline():
    user = "Translate the following Latin text to English:\nGallia est."
    assert template_refine("", user) == "[refined] Gallia est."


def test_stats_and_reset(mock_server):
    url = mock_server.base_url
    requests.post(f"{url}/translate", json={"model": "m", "inputs": ["x"]}, timeout=5)
    snap = requests.get(f"{url}/_stats", timeout=5).json()
    assert snap["counts"]["/translate"] == 1
    requests.post(f"{url}/_reset", json={}, timeout=5)
    snap = requests.get(f"{url}/_stats", timeout=5).json()
    assert snap["counts"] == {}


def test_fail_rate_one_always_fails(mock_server):
    mock_server.behavior.fail_rate = 1.0
    resp = requests.post(
        f"{mock_server.base_url}/translate",
        json={"model": "m", "inputs": ["x"]},
        timeout=5,
    )
    assert resp.status_code == 500


def test_unknown_route_is_404(mock_server):
    resp = requests.post(f"{mock_server.base_url}/nope", json={}, timeout=5)
    assert resp.status_code == 404


def test_stats_count_inputs_per_path(mock_server):
    url = mock_server.base_url
    requests.post(f"{url}/translate", json={"model": "m", "inputs": ["x", "y", "z"]},
                  timeout=5)
    requests.post(f"{url}/embed", json={"model": "m", "inputs": ["x"]}, timeout=5)
    snap = requests.get(f"{url}/_stats", timeout=5).json()
    assert snap["counts"] == {"/translate": 1, "/embed": 1}
    assert snap["inputs"] == {"/translate": 3, "/embed": 1}


@pytest.mark.parametrize("path", ["/translate", "/embed"])
@pytest.mark.parametrize("inputs", ["abc", None, 3, ["x", 7], [["x"]]],
                         ids=["str", "missing", "int", "int-item", "list-item"])
def test_inputs_that_are_not_a_list_of_strings_are_refused(mock_server, path, inputs):
    url = mock_server.base_url
    payload = {"model": "m"} if inputs is None else {"model": "m", "inputs": inputs}
    resp = requests.post(f"{url}{path}", json=payload, timeout=5)
    assert resp.status_code == 400
    assert resp.json() == {"error": {"type": "bad_inputs"}}
    assert requests.get(f"{url}/_stats", timeout=5).json()["inputs"] == {}


def test_embed_reply_is_base64_little_endian_float32(mock_server):
    texts = ["alpha", "beta", "gamma"]
    resp = requests.post(f"{mock_server.base_url}/embed",
                         json={"model": "m", "inputs": texts}, timeout=5)
    reply = resp.json()
    assert reply["dim"] == 64
    expected = np.stack([hash_embedding(t, 64) for t in texts]).astype("<f4").tobytes()
    assert base64.b64decode(reply["vectors"], validate=True) == expected


def test_embed_of_no_inputs_is_an_empty_matrix(mock_server):
    resp = requests.post(f"{mock_server.base_url}/embed",
                         json={"model": "m", "inputs": []}, timeout=5)
    assert resp.json() == {"vectors": "", "dim": 64}


def test_stop_closes_listening_socket():
    server = start_mock_server(MockBehavior())
    assert server.socket.fileno() >= 0
    server.stop()
    assert server.socket.fileno() == -1


class _NoDelayProbe(MockServer):
    """Records TCP_NODELAY on each accepted socket once its handler is done."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.nodelay: list[int] = []
        self.handled = threading.Event()

    def finish_request(self, request, client_address):
        super().finish_request(request, client_address)
        self.nodelay.append(request.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
        self.handled.set()


def test_accepted_socket_sets_nodelay():
    server = _NoDelayProbe(MockBehavior())
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        with requests.Session() as session:
            session.post(f"{server.base_url}/translate",
                         json={"model": "m", "inputs": ["x"]}, timeout=5)
        assert server.handled.wait(5)
        assert server.nodelay and all(server.nodelay)
    finally:
        server.stop()
        thread.join(5)


def test_keep_alive_round_trip_is_not_held_by_delayed_ack(mock_server):
    url = f"{mock_server.base_url}/v1/chat/completions"
    payload = {"model": "m", "messages": [{"role": "user", "content": "salve"}]}
    times = []
    with requests.Session() as session:
        for _ in range(20):
            t0 = time.perf_counter()
            session.post(url, json=payload, timeout=5).raise_for_status()
            times.append(time.perf_counter() - t0)
    # a body held until the client's delayed ACK reads ~44 ms here
    assert statistics.median(times) < 0.020


def test_stop_returns_promptly():
    server = start_mock_server(MockBehavior())
    # a served request restarts the serve loop's wait; stop() must not sit it out
    requests.get(f"{server.base_url}/_stats", timeout=5)
    t0 = time.perf_counter()
    server.stop()
    assert time.perf_counter() - t0 < 0.25
