"""The mock backends in a process of their own, and a client for their stats.

The mock runs apart from the benchmark so that its interpreter lock does not
compete with the program being measured. ``python3 perfbench/mock.py DIM``
serves every backend protocol on an ephemeral port of 127.0.0.1 and prints
that port as its first line of output.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import requests

_STOP_TIMEOUT_S = 10.0


class MockProcess:
    """Context manager owning one fresh mock process on an ephemeral port."""

    def __init__(self, root: Path, embed_dim: int):
        self.root = root
        self.embed_dim = embed_dim
        self.proc: subprocess.Popen | None = None
        self.base_url = ""
        self._session = requests.Session()

    def __enter__(self) -> "MockProcess":
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.embed_dim)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=self.root, env=env,
        )
        try:
            line = self.proc.stdout.readline().strip()
            if not line.isdigit():
                raise RuntimeError(f"mock process did not report a port: {line!r}")
            # the socket listens before the port is printed, so no wait is needed
            self.base_url = f"http://127.0.0.1:{line}"
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        self._session.close()
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None

    def stats(self) -> dict:
        resp = self._session.get(self.base_url + "/_stats", timeout=10)
        resp.raise_for_status()
        return resp.json()

    def reset(self) -> None:
        self._session.post(self.base_url + "/_reset", timeout=10).raise_for_status()

    def take_stats(self) -> dict:
        """Stats since the last reset, then reset, so each phase counts alone."""
        snap = self.stats()
        self.reset()
        return snap

    def probe(self, calls: int) -> list[float]:
        """Milliseconds of sequential 1-input /translate calls on one keep-alive session."""
        payload = {"model": "probe", "inputs": ["salve"], "src": "la", "tgt": "en"}
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            resp = self._session.post(self.base_url + "/translate", json=payload, timeout=10)
            resp.raise_for_status()
            resp.json()
            times.append((time.perf_counter() - t0) * 1000.0)
        self.reset()
        return times


def _serve(embed_dim: int) -> None:
    from refta.mockserver import MockBehavior, MockServer

    server = MockServer(MockBehavior(embed_dim=embed_dim), port=0)
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
