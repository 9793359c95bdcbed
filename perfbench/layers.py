"""Per-layer metrics of a traced run, from its spans, records and mock stats.

Every workload reports every name, so a layer the workload does not use
reads 0. Setup figures are medians over the set-up repetitions; counts cover
the first set-up and the traced pass, so they repeat exactly between runs.
"""

from __future__ import annotations

import statistics

from tracing import Span, covered
from workloads import CONDITIONS, WORKERS

ROLE_PATHS = {"drafter": "/translate", "embedder": "/embed",
              "refiner": "/v1/chat/completions"}
STAGES = {"draft": ("draft_only", "rag"), "retrieve": ("rag",),
          "neighbor_drafts": ("rag",), "refine": CONDITIONS}


def percentile(values, q: int) -> float:
    """The q-th percentile (0 < q < 100) by the inclusive method; 0 for no values."""
    values = sorted(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class _Spans:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.kids: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent_id is not None:
                self.kids.setdefault(s.parent_id, []).append(s)

    def named(self, name: str, *phases: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.phase in phases]

    def cover(self, span: Span, prefix: str = "") -> float:
        """Time within ``span`` covered by its direct children named ``prefix*``."""
        return covered([(c.start, c.end) for c in self.kids.get(span.span_id, ())
                        if c.name.startswith(prefix)], span.start, span.end)


def layer_metrics(spans: list[Span], *, probe_ms, build_stats: dict, traced,
                  untraced_wall: float, records: dict, n_segments: int,
                  recall: float, setup_reps: int) -> dict:
    """``name -> (value, unit)`` for every per-layer metric.

    ``traced`` is the traced pass (a ``PassResult``), ``records`` its records
    by condition, ``build_stats`` the mock stats of the first set-up.
    """
    out: dict = {}

    def put(name: str, value, unit: str) -> None:
        out[name] = (float(value), unit)

    sp = _Spans(spans)
    setups = [f"setup.{i}" for i in range(setup_reps)]
    translate = [f"pass.{c}" for c in CONDITIONS]
    counted = ["setup.0", *translate, "pass.compare", "pass.cost"]

    put("mockserver.round_trip_ms_p50", percentile(probe_ms, 50), "ms")
    put("mockserver.round_trip_ms_p90", percentile(probe_ms, 90), "ms")
    phase_stats = [build_stats, *traced.mock_stats.values()]
    put("mockserver.max_concurrency",
        max((v for st in phase_stats for v in st["max_concurrency"].values()), default=0),
        "count")

    for role, path in ROLE_PATHS.items():
        calls = sp.named(f"backends.{role}", *translate)
        requests = sum(st["counts"].get(path, 0) for st in traced.mock_stats.values())
        put(f"backends.{role}.inputs_per_request",
            _ratio(sum(s.attrs["inputs"] for s in calls), requests), "in/req")
        ms = [s.duration * 1000.0 for s in calls]
        put(f"backends.{role}.call_ms_p50", percentile(ms, 50), "ms")
        put(f"backends.{role}.call_ms_p90", percentile(ms, 90), "ms")
    for role, cond in (("drafter", "draft_only"), ("drafter", "rag"),
                       ("embedder", "rag"), ("refiner", "rag")):
        counts = traced.mock_stats.get(cond, {}).get("counts", {})
        put(f"backends.{role}.requests_per_seg.{cond}",
            _ratio(counts.get(ROLE_PATHS[role], 0), n_segments), "req/seg")
    put("backends.embedder.requests.build", build_stats["counts"].get("/embed", 0), "count")

    builds = sp.named("index.build_index", *setups)
    put("index.build_self_s", _median([s.duration - sp.cover(s, "backends.embedder")
                                       for s in builds]), "s")
    put("index.embed_s", _median([sp.cover(s, "backends.embedder") for s in builds]), "s")
    put("index.save_s", _median([s.duration for s in sp.named("index.save_index", *setups)]), "s")
    put("index.load_s", _median([s.duration for s in sp.named("index.load_index", *setups)]), "s")
    queries = sp.named("index.query", "pass.rag")
    ms = [s.duration * 1000.0 for s in queries]
    put("index.query_ms_p50", percentile(ms, 50), "ms")
    put("index.query_ms_p90", percentile(ms, 90), "ms")
    survivors = [s.attrs["survivors"] for s in queries]
    put("index.survivors_mean", _mean(survivors), "count")
    put("index.zero_survivor_share", _ratio(survivors.count(0), len(survivors)), "ratio")
    put("index.recall_vs_exact", recall, "ratio")

    search = sp.named("kernels.search_layer", *counted)
    put("kernels.search_layer.calls", len(search), "count")
    put("kernels.search_layer.s_total", sum(s.duration for s in search), "s")
    sums = sp.named("kernels.resample_sums", *counted)
    put("kernels.resample_sums.s_total", sum(s.duration for s in sums), "s")
    put("kernels.resample_sums.bytes_gathered", sum(s.attrs["bytes"] for s in sums), "bytes")

    lem = sp.named("corpus.lemmatize", *counted)
    put("corpus.lemmatize.calls", len(lem), "count")
    put("corpus.lemmatize.s_total", sum(s.duration for s in lem), "s")

    for cond in CONDITIONS:
        recs = records.get(cond, [])
        ms = [s.duration * 1000.0 for s in sp.named("prompt.assemble_prompt", f"pass.{cond}")]
        put(f"prompt.assemble_ms_p50.{cond}", percentile(ms, 50), "ms")
        put(f"prompt.input_tokens_per_seg.{cond}", _mean([r["prompt_tokens"] for r in recs]),
            "tok/seg")
        cost = traced.costs.get(cond)
        put(f"cost.tokens_per_seg.{cond}",
            _ratio(cost.input_tokens + cost.output_tokens, cost.n_segments) if cost else 0.0,
            "tok/seg")

        segs = sp.named("pipeline.translate_segment", f"pass.{cond}")
        ms = [s.duration * 1000.0 for s in segs]
        put(f"pipeline.segment_ms_p50.{cond}", percentile(ms, 50), "ms")
        put(f"pipeline.segment_ms_p90.{cond}", percentile(ms, 90), "ms")
        put(f"pipeline.segment_self_ms_p50.{cond}",
            percentile([(s.duration - sp.cover(s)) * 1000.0 for s in segs], 50), "ms")
        run = sp.named("pipeline.translate_corpus", f"pass.{cond}")
        run_s = run[0].duration if run else 0.0
        put(f"pipeline.seg_per_s.{cond}", _ratio(len(recs), run_s), "seg/s")
        put(f"pipeline.worker_busy_share.{cond}",
            _ratio(sum(s.duration for s in segs), WORKERS * run_s), "ratio")

    for stage, conds in STAGES.items():
        for cond in conds:
            ms = [r["timings_ms"][stage] for r in records.get(cond, [])]
            put(f"pipeline.stage.{stage}_ms_p50.{cond}", percentile(ms, 50), "ms")
            put(f"pipeline.stage.{stage}_ms_p90.{cond}", percentile(ms, 90), "ms")
    rag = records.get("rag", [])
    slots = [nb["segment_id"] for r in rag for nb in r["neighbors"]]
    put("pipeline.neighbor_slots", len(slots), "count")
    put("pipeline.neighbor_distinct", len(set(slots)), "count")
    put("pipeline.neighbor_reuse_share", _ratio(len(slots) - len(set(slots)), len(slots)),
        "ratio")
    put("prompt.truncated_share",
        _ratio(sum(r["truncation_applied"] != "none" for r in rag), len(rag)), "ratio")

    compare = sp.named("metrics.compare_runs", "pass.compare")
    put("metrics.compare_s", sum(s.duration for s in compare), "s")
    stats = sp.named("metrics.segment_stats", "pass.compare")
    put("metrics.segment_stats.calls", len(stats), "count")
    put("metrics.segment_stats.useful_share",
        _ratio(len({s.attrs["key"] for s in stats}), len(stats)), "ratio")
    put("metrics.segment_stats.s_total", sum(s.duration for s in stats), "s")
    put("metrics.bootstrap.self_s",
        sum(s.duration - sp.cover(s) for s in sp.named("metrics.paired_bootstrap",
                                                        "pass.compare")), "s")
    put("metrics.evaluate.s_total",
        sum(s.duration for s in sp.named("metrics.evaluate_hypotheses", "pass.compare")), "s")

    put("trace.overhead_share", _ratio(traced.wall, untraced_wall) - 1.0, "ratio")
    put("trace.spans", len(spans), "count")
    return out
