from __future__ import annotations

import numpy as np
import requests
from hypothesis import given, strategies as st

from refta.mockserver import MockBehavior, hash_embedding, start_mock_server, template_refine


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


def test_stop_closes_listening_socket():
    server = start_mock_server(MockBehavior())
    assert server.socket.fileno() >= 0
    server.stop()
    assert server.socket.fileno() == -1
