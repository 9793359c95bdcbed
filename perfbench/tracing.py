"""In-memory spans around refta's public functions, installed from outside.

The traced run patches the bindings that callers actually use: a name copied
by ``from x import f`` is patched in the importing module, and functions
called through their module (``kernels.search_layer``) are patched there.
Nothing under ``src/`` knows about tracing; ``Tracer.restore`` puts every
original back.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    trace_id: str | None
    name: str
    phase: str
    start: float
    end: float = 0.0
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans with a parent taken from a thread-local stack.

    A span opened on a thread with an empty stack (a pool worker) takes the
    main thread's innermost open span as its parent, so an embedding batch
    sent from ``build_index``'s pool is a child of ``build_index``. A span
    inherits its parent's trace id unless its wrapper supplies one.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, trace_id: str | None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        if trace_id is None and parent is not None:
            trace_id = parent.trace_id
        span = Span(next(self._ids), parent.span_id if parent else None, trace_id,
                    name, self.phase, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span, attrs: dict | None) -> None:
        span.end = time.perf_counter()
        span.attrs = attrs
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, trace_of=None, attrs_of=None) -> None:
        """Replace ``owner.attr`` by a traced version.

        ``trace_of(args, kwargs)`` names the trace; ``attrs_of(args, kwargs,
        result)`` returns the span's attributes.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = tracer._open(name, trace_of(args, kwargs) if trace_of else None)
            result = None
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                tracer._close(span, attrs_of(args, kwargs, result) if attrs_of else None)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "span_id": s.span_id, "parent_id": s.parent_id,
                    "trace_id": s.trace_id, "phase": s.phase,
                    "start_s": s.start - self._t0, "end_s": s.end - self._t0,
                    "attrs": s.attrs,
                }) + "\n")


def _segment_trace(args, kwargs) -> str:
    segment = args[1] if len(args) > 1 else kwargs["segment"]
    return segment.id


def _stats_key(args, kwargs, result) -> dict:
    metric, hyps = args[0], args[1]
    digest = hashlib.sha256("\n".join(hyps).encode("utf-8")).hexdigest()
    return {"key": f"{metric.name}:{digest}"}


def _gather_bytes(args, kwargs, result) -> dict:
    stats, idx = args[0], args[1]
    return {"bytes": int(idx.size) * int(stats.shape[1]) * 8}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the per-layer metrics read."""
    import refta.cost
    import refta.index
    import refta.kernels
    import refta.metrics.report
    import refta.pipeline
    from refta.backends import DrafterClient, EmbedderClient, RefinerClient
    from refta.metrics.bleu import BleuMetric
    from refta.metrics.chrf import ChrfPPMetric

    one_input = lambda args, kwargs, result: {"inputs": 1}  # noqa: E731
    w = tracer.wrap
    w(refta.pipeline, "translate_corpus", "pipeline.translate_corpus")
    w(refta.pipeline, "translate_segment", "pipeline.translate_segment", trace_of=_segment_trace)
    w(refta.pipeline, "neighbor_drafts", "pipeline.neighbor_drafts")
    w(refta.pipeline, "assemble_prompt", "prompt.assemble_prompt")
    w(refta.pipeline, "lemmatize", "corpus.lemmatize")
    w(refta.index, "lemmatize", "corpus.lemmatize")
    w(DrafterClient, "translate", "backends.drafter", attrs_of=one_input)
    w(RefinerClient, "complete", "backends.refiner", attrs_of=one_input)
    w(EmbedderClient, "embed", "backends.embedder",
      attrs_of=lambda args, kwargs, result: {"inputs": len(args[1])})
    w(refta.index, "build_index", "index.build_index")
    w(refta.index, "save_index", "index.save_index")
    w(refta.index, "load_index", "index.load_index")
    w(refta.index.VectorIndex, "query", "index.query",
      attrs_of=lambda args, kwargs, result: {"survivors": len(result or ())})
    w(refta.kernels, "search_layer", "kernels.search_layer")
    w(refta.kernels, "resample_sums", "kernels.resample_sums", attrs_of=_gather_bytes)
    w(refta.metrics.report, "compare_runs", "metrics.compare_runs")
    w(refta.metrics.report, "evaluate_hypotheses", "metrics.evaluate_hypotheses")
    w(refta.metrics.report, "paired_bootstrap", "metrics.paired_bootstrap")
    w(BleuMetric, "segment_stats", "metrics.segment_stats", attrs_of=_stats_key)
    w(ChrfPPMetric, "segment_stats", "metrics.segment_stats", attrs_of=_stats_key)
    w(refta.cost, "cost_report", "cost.cost_report")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given (start, end) pairs."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total
