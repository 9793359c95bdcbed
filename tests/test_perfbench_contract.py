"""The benchmark's tracer patches refta's public names from outside.

Installing and restoring it here makes a rename under ``src/`` that would
break the traced benchmark run fail the test suite instead.
"""

from __future__ import annotations

import importlib.util
import sys

from conftest import REPO_ROOT


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_attribute(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    originals = []

    class RecordingTracer(tracing.Tracer):
        def wrap(self, owner, attr, *args, **kwargs):
            originals.append((owner, attr, getattr(owner, attr)))
            super().wrap(owner, attr, *args, **kwargs)

    tracer = RecordingTracer()
    try:
        tracing.install(tracer)
        assert originals
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in originals)
    finally:
        tracer.restore()
    assert [(owner, attr) for owner, attr, orig in originals
            if getattr(owner, attr) is not orig] == []
