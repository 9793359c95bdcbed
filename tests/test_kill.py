"""Kill anywhere: ``refta translate`` killed by SIGKILL at any request, then
run again, finishes with the records of an uninterrupted run and pays again
for at most the requests that were in flight at the kill."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from conftest import FIXTURES, REPO_ROOT, start_mock_server
from refta.backends import EmbedderClient, EndpointConfig
from refta.corpus import load_monolingual, load_parallel
from refta.index import ExclusionList, build_index, save_index
from refta.mockserver import MockBehavior
from refta.pipeline import REPLIES_DIR, read_records

TEST_SET = FIXTURES / "testsets" / "ood_fixture_110.tsv"
CHAT = "/v1/chat/completions"
PARALLELISM = 4
LATENCY_MS = 5


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A mock that answers after ``LATENCY_MS`` and an index it embedded."""
    server = start_mock_server(MockBehavior(latency_ms=LATENCY_MS))
    work = tmp_path_factory.mktemp("kill")
    embedder = EmbedderClient(EndpointConfig(base_url=server.base_url, model_id="mock-embedder"))
    index, _ = build_index(
        load_monolingual(FIXTURES / "corpora" / "retrieval_fixture.jsonl", "jsonl"), embedder,
        ExclusionList.from_pairs(load_parallel(TEST_SET, "tsv")))
    embedder.close()
    save_index(index, work / "idx")
    yield server, work
    server.stop()


def _translate(server, work, root) -> subprocess.Popen:
    url = server.base_url
    return subprocess.Popen(
        [sys.executable, "-c", "from refta.cli import main; main()", "translate",
         "--test-set", str(TEST_SET), "--index", str(work / "idx"), "--condition", "rag",
         "--run-id", "rag", "--runs-root", str(root), "--drafter", url, "--refiner", url,
         "--embedder", url, "--parallelism", str(PARALLELISM)],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def _counts_once_settled(server) -> dict:
    """The mock's request counts once no request has come for a while."""
    counts = server.stats.snapshot()["counts"]
    while True:
        time.sleep(4 * LATENCY_MS / 1000)
        settled, counts = counts, server.stats.snapshot()["counts"]
        if counts == settled:
            return counts


def _paid(server, work, root) -> dict:
    """Run ``translate`` to its end; returns the mock's counts."""
    server.stats.reset()
    proc = _translate(server, work, root)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err.decode()
    return _counts_once_settled(server)


def _comparable(root) -> list[dict]:
    return [{k: v for k, v in rec.items() if k not in ("timings_ms", "timestamps")}
            for rec in read_records(root / "rag")]


@pytest.fixture(scope="module")
def clean(world, tmp_path_factory):
    server, work = world
    root = tmp_path_factory.mktemp("clean")
    return _paid(server, work, root), _comparable(root)


@pytest.mark.parametrize("path, n", [
    ("/embed", 1), ("/translate", 1), ("/translate", 2), (CHAT, 1), (CHAT, 40),
], ids=["embed-1", "translate-1", "translate-2", "chat-1", "chat-40"])
def test_a_run_killed_at_any_request_is_finished_by_running_it_again(world, clean, tmp_path,
                                                                      path, n):
    server, work = world
    clean_counts, clean_records = clean
    assert clean_counts[path] >= n
    server.stats.reset()
    proc = _translate(server, work, tmp_path)
    try:
        deadline = time.monotonic() + 60
        while server.stats.snapshot()["counts"].get(path, 0) < n:
            assert proc.poll() is None and time.monotonic() < deadline, "the run was not killed"
            time.sleep(0.0005)
    finally:
        proc.kill()
        proc.communicate(timeout=60)
    killed = _counts_once_settled(server)
    assert not (tmp_path / "rag").exists()
    rerun = _paid(server, work, tmp_path)
    assert _comparable(tmp_path) == clean_records
    extra = {p: killed.get(p, 0) + rerun.get(p, 0) - clean_counts[p] for p in clean_counts}
    assert all(0 <= paid_again <= PARALLELISM for paid_again in extra.values()), extra
    for store in (tmp_path / REPLIES_DIR).iterdir():
        for line in store.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            assert row.keys() == {"keys", "body"} and isinstance(row["body"], dict)
            assert row["keys"] and all(isinstance(key, str) and key for key in row["keys"])
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
