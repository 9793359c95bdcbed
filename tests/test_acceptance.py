"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Everything runs against in-process mock backends; the final
live-model criterion is optional and skipped unless live endpoint URLs are
exported (see the module tail).
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import refta.backends as backends_mod
from conftest import DATA, FIXTURES, LEMMA_WORDS, brute_force_query, random_index, spell
from refta.backends import DrafterClient, EmbedderClient, EndpointConfig
from refta.corpus import ParallelPair, SourceSegment, load_monolingual, load_parallel
from refta.cost import CostModel, api_cost, local_cost, round_dollars
from refta.errors import PromptBudgetError, RequestError, TransportError
from refta.index import ExclusionList, VectorIndex, build_index, jaccard
from refta.metrics.bleu import BleuMetric, bleu
from refta.metrics.bootstrap import paired_bootstrap
from refta.metrics.chrf import chrf_pp
from refta.mockserver import MockBehavior, start_mock_server
from refta.pipeline import (
    RunConfig,
    read_records,
    translate_corpus,
)
from refta.prompt import NeighborExample, assemble_prompt, render_golden


def _ok(number: int, name: str) -> None:
    print(f"\nACCEPTANCE C{number:02d} {name}: PASS")


@pytest.fixture(scope="module")
def server():
    srv = start_mock_server(MockBehavior())
    yield srv
    srv.stop()


def _endpoint(url: str, role: str, **kw) -> EndpointConfig:
    kw.setdefault("timeout", 15.0)
    return EndpointConfig(base_url=url, model_id=f"mock-{role}", **kw)


def _endpoints(url: str, **kw) -> dict:
    return {role: _endpoint(url, role, **kw) for role in ("drafter", "refiner", "embedder")}


TEST_SET = FIXTURES / "testsets" / "ood_fixture_110.tsv"
RETRIEVAL = FIXTURES / "corpora" / "retrieval_fixture.jsonl"


# -- 1. retrieval oracle equivalence ----------------------------------------

def test_c01_retrieval_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20251102)
    dims = [8, 64, 1024]
    sizes = [int(rng.integers(60, 400)) for _ in range(47)] + [2000, 2000, 1500]
    checked = 0
    for case, n in enumerate(sizes):
        dim = dims[case % 3] if case >= 47 else dims[int(rng.integers(0, 3))]
        if case >= 47:
            dim = dims[case - 47]
        index, lemma_sets, raw = random_index(n, dim, seed=1000 + case)
        ids = [index.entry(i).segment_id for i in range(n)]
        texts = [index.entry(i).text for i in range(n)]
        qvec = rng.standard_normal(dim).astype(np.float32)
        qlem = frozenset({LEMMA_WORDS[int(rng.integers(0, 17))] for _ in range(4)})
        for k in (1, 5, 20):
            for threshold in (0.0, 0.3, 0.9):
                for pool in (k, 51, n // 3, n):
                    got = [r.entry.segment_id for r in index.query(
                        qvec, qlem, k=k, jaccard_threshold=threshold, candidate_pool=pool
                    )]
                    want = brute_force_query(
                        ids, texts, lemma_sets, raw, qvec, qlem, k, threshold, pool=pool
                    )
                    assert got == want, (case, n, dim, k, threshold, pool)
                    checked += 1
    checked += _c01_tied_pool_boundaries(rng)
    elapsed = time.perf_counter() - start
    assert checked == 50 * 9 * 4 + 3 * 2 * (120 + 118 + 114)
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _ok(1, f"retrieval oracle equivalence ({checked} queries, {elapsed:.1f}s)")


def _c01_tied_pool_boundaries(rng) -> int:
    """Rows in groups of identical vectors, ids out of row order: every pool
    size from 1 to n, so ties straddle the pool boundary at most cuts."""
    n, dim = 120, 8
    base = rng.standard_normal((40, dim)).astype(np.float32)
    raw = base[rng.integers(0, 40, size=n)]
    ids = [f"dup{int(i):04d}" for i in rng.permutation(n)]
    lemma_sets = [frozenset({LEMMA_WORDS[int(rng.integers(0, 5))]}) for _ in range(n)]
    texts = [spell(lemmas, i) for i, lemmas in enumerate(lemma_sets)]
    index = VectorIndex.from_arrays(ids, texts, raw)
    checked = 0
    for qvec in (raw[0], raw[77], rng.standard_normal(dim).astype(np.float32)):
        for k in (1, 3, 7):
            # threshold 0.5 keeps only rows whose lemma set is {LEMMA_WORDS[1]}, so the
            # survivors depend on which tied rows the pool cut lets in
            for threshold in (0.0, 0.5):
                for pool in range(k, n + 1):
                    got = [r.entry.segment_id for r in index.query(
                        qvec, frozenset({LEMMA_WORDS[1]}), k=k, jaccard_threshold=threshold,
                        candidate_pool=pool,
                    )]
                    want = brute_force_query(
                        ids, texts, lemma_sets, raw, qvec, frozenset({LEMMA_WORDS[1]}), k,
                        threshold, pool=pool,
                    )
                    assert got == want, ("tied", k, threshold, pool)
                    checked += 1
    return checked


# -- 2. jaccard and threshold semantics --------------------------------------

lemmas = st.frozensets(st.sampled_from(LEMMA_WORDS[:14]), max_size=9)


@settings(max_examples=200, deadline=None)
@given(a=lemmas, b=lemmas)
def _jaccard_properties(a, b):
    assert jaccard(a, b) == jaccard(b, a)
    assert 0.0 <= jaccard(a, b) <= 1.0
    if a:
        assert jaccard(a, a) == 1.0
    if a and b and not (a & b):
        assert jaccard(a, b) == 0.0


_THRESHOLD_INDEX: list = []


@settings(max_examples=60, deadline=None)
@given(query=lemmas, threshold=st.floats(min_value=0.0, max_value=1.0))
def _threshold_respected(query, threshold):
    if not _THRESHOLD_INDEX:
        _THRESHOLD_INDEX.append(random_index(60, 8, seed=4242))
    index, _, raw = _THRESHOLD_INDEX[0]
    results = index.query(raw[3], query, k=10, jaccard_threshold=threshold,
                          candidate_pool=60)
    assert all(r.jaccard >= threshold for r in results)


def test_c02_jaccard_threshold_semantics():
    start = time.perf_counter()
    _jaccard_properties()
    _threshold_respected()
    assert jaccard(frozenset(), frozenset()) == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(2, f"jaccard/threshold property suite ({elapsed:.1f}s)")


# -- 3. metric oracle equivalence ---------------------------------------------

def test_c03_metric_oracle_equivalence():
    fixture = json.loads((DATA / "metric_fixture.json").read_text())
    oracle = json.loads((DATA / "metric_oracle.json").read_text())
    for part in ("primary", "multiref"):
        hyps, refs = fixture[part]["hypotheses"], fixture[part]["references"]
        bc, bs = bleu(hyps, refs)
        cc, cs = chrf_pp(hyps, refs)
        assert abs(bc - oracle[part]["bleu_corpus"]) <= 0.01
        assert abs(cc - oracle[part]["chrf_pp_corpus"]) <= 0.01
        for mine, ref in zip(bs, oracle[part]["bleu_segments"]):
            assert abs(mine - ref) <= 0.01
        for mine, ref in zip(cs, oracle[part]["chrf_pp_segments"]):
            assert abs(mine - ref) <= 0.01
    refs = fixture["primary"]["references"]
    identity = [r[0] for r in refs]
    assert bleu(identity, refs)[0] == 100.0
    assert chrf_pp(identity, refs)[0] == 100.0
    _ok(3, "metric oracle equivalence and exact identity")


# -- 4. prompt bit-exactness ---------------------------------------------------

def test_c04_prompt_bit_exactness():
    latin = "Gallia est omnis divisa in partes tres."
    draft = "[draft]Gaul is all divided into three parts."
    neighbors = [
        NeighborExample(
            latin=f"Senatus populusque romanus bellum gerunt {i}.",
            draft=f"[draft]The senate and the roman people wage war {i}.",
            segment_id=f"ret{i:03d}",
            cosine_similarity=round(0.95 - 0.07 * i, 4),
            jaccard=round(0.8 - 0.1 * i, 4),
        )
        for i in range(1, 6)
    ]
    rag = assemble_prompt(latin, draft, neighbors, "rag")
    golden = (FIXTURES / "prompts" / "rag_k5.txt").read_bytes()
    assert render_golden(rag).encode("utf-8") == golden

    rendered = rag.system_text + "\n" + rag.user_text
    assert "You are an expert classicist translator" in rendered
    assert "Final translation:" in rendered
    assert rag.user_text.count("] LATIN:") == 5
    assert rag.user_text.count("] DRAFT:") == 5

    zero_example = assemble_prompt("Gallia est", None, [], "zero_shot")
    assert zero_example.user_text == (
        "Translate the following Latin text to English:\nGallia est"
    )
    zero = assemble_prompt(latin, None, [], "zero_shot")
    golden_zero = (FIXTURES / "prompts" / "zero_shot.txt").read_bytes()
    assert render_golden(zero).encode("utf-8") == golden_zero
    _ok(4, "prompt bit-exactness against goldens")


# -- 5. budget enforcement ------------------------------------------------------

def test_c05_budget_enforcement():
    start = time.perf_counter()
    latin = "Gallia est omnis divisa in partes tres."
    draft = "[draft]Gaul is divided."
    rng = np.random.default_rng(99)

    def neighbors(n, chars):
        return [
            NeighborExample(
                latin="verbum " * max(2, chars // 7),
                draft="token " * max(2, chars // 6),
                segment_id=f"n{i:02d}",
                cosine_similarity=0.99 - 0.01 * i,
                jaccard=0.5,
            )
            for i in range(n)
        ]

    oversized = neighbors(6, 700)
    bundle = assemble_prompt(latin, draft, oversized, "rag", budget_ceiling=1300)
    assert bundle.estimated_input_tokens <= 1300
    kept = len(bundle.neighbors_used)
    assert bundle.neighbors_used == tuple(oversized[:kept])  # ascending-sim drop order

    for _ in range(100):
        n = int(rng.integers(0, 7))
        chars = int(rng.integers(50, 900))
        low = int(rng.integers(150, 1200))
        high = low + int(rng.integers(1, 700))
        ns = neighbors(n, chars)

        def kept_at(ceiling):
            try:
                b = assemble_prompt(latin, draft, ns, "rag", budget_ceiling=ceiling)
                assert b.estimated_input_tokens <= ceiling
                return len(b.neighbors_used)
            except PromptBudgetError:
                return -1

        assert kept_at(low) <= kept_at(high)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(5, f"budget enforcement and ceiling monotonicity ({elapsed:.1f}s)")


# -- 6. end-to-end determinism ----------------------------------------------------

def _normalized_records(run_dir):
    rows = []
    for row in read_records(run_dir):
        row.pop("timings_ms")
        row.pop("timestamps")
        rows.append(json.dumps(row, sort_keys=True, ensure_ascii=False))
    return "\n".join(rows).encode("utf-8")


def test_c06_end_to_end_determinism(server, tmp_path):
    start = time.perf_counter()
    endpoints = _endpoints(server.base_url)
    pairs = load_parallel(TEST_SET, "tsv")
    assert len(pairs) == 110
    segments = list(load_monolingual(RETRIEVAL, "jsonl"))
    index, _ = build_index(
        segments, EmbedderClient(endpoints["embedder"]), ExclusionList.empty(),
    )

    cfg = RunConfig(condition="rag", run_id="det", endpoints=endpoints,
                    k=5, jaccard_threshold=0.3, temperature=0.0, workers=4)
    (run_a,) = translate_corpus(cfg, pairs, index, runs_root=tmp_path / "a")
    (run_b,) = translate_corpus(cfg, pairs, index, runs_root=tmp_path / "b")
    assert run_a.failed == 0 and run_b.failed == 0
    assert _normalized_records(run_a.run_dir) == _normalized_records(run_b.run_dir)
    hyp_a = (run_a.run_dir / "hypotheses.txt").read_bytes()
    hyp_b = (run_b.run_dir / "hypotheses.txt").read_bytes()
    assert hyp_a == hyp_b
    assert len(hyp_a.decode().splitlines()) == 110

    for rec in read_records(run_a.run_dir):
        assert rec["condition"] == "rag"
        assert rec["draft"] is not None
        assert len(rec["neighbors"]) <= 5

    few = pairs[:10]
    for condition in ("zero_shot", "draft_only"):
        cfg_c = RunConfig(condition=condition, run_id=f"det-{condition}",
                          endpoints=endpoints, workers=4)
        (run_c,) = translate_corpus(cfg_c, few, None, runs_root=tmp_path / condition)
        for rec in read_records(run_c.run_dir):
            if condition == "zero_shot":
                assert rec["draft"] is None and rec["neighbors"] == []
            else:
                assert rec["draft"] and rec["neighbors"] == []
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _ok(6, f"end-to-end determinism over 110 rows ({elapsed:.1f}s)")


# -- 7. set-union drafting and bounded concurrency ----------------------------------

def test_c07_cache_and_concurrency(tmp_path):
    srv = start_mock_server(MockBehavior(latency_ms=15))
    try:
        endpoints = _endpoints(srv.base_url, request_parallelism=4, max_batch=8)
        segments = list(load_monolingual(RETRIEVAL, "jsonl"))[:40]
        index, _ = build_index(
            segments, EmbedderClient(endpoints["embedder"]), ExclusionList.empty(),
        )
        base = load_parallel(TEST_SET, "tsv")[0]
        pairs = [
            ParallelPair(
                source=SourceSegment(f"q{i:02d}", base.source.text + f" verbum{i}"),
                references=("a reference translation",),
            )
            for i in range(16)
        ]
        srv.stats.reset()
        cfg = RunConfig(condition="rag", run_id="conc", endpoints=endpoints,
                        k=5, jaccard_threshold=0.0, workers=8)
        (result,) = translate_corpus(cfg, pairs, index, runs_root=tmp_path)
        assert result.failed == 0

        # every distinct source and neighbor text is drafted exactly once
        records = read_records(result.run_dir)
        assert all(rec["truncation_applied"] == "none" for rec in records)
        union = {p.source.text for p in pairs}
        for rec in records:
            union.update(nb["latin"] for nb in rec["neighbors"])
        assert len(union) > len(pairs)
        snap = srv.stats.snapshot()
        assert snap["inputs"]["/translate"] == len(union)
        assert snap["counts"]["/translate"] <= math.ceil(len(union) / 8)
        assert snap["inputs"]["/embed"] == len(pairs)
        assert snap["counts"]["/embed"] <= math.ceil(len(pairs) / 8)
        for path, high_water in snap["max_concurrency"].items():
            assert high_water <= 4, (path, high_water)
    finally:
        srv.stop()
    _ok(7, "set-union drafting in bounded batches and bounded in-flight concurrency")


# -- 8. retry contract ----------------------------------------------------------

def test_c08_retry_contract(monkeypatch):
    sleeps: list[float] = []
    monkeypatch.setattr(backends_mod, "_sleep", sleeps.append)

    srv = start_mock_server(MockBehavior(fail_first=2))
    try:
        client = DrafterClient(_endpoint(srv.base_url, "drafter", max_retries=3))
        (text,), _ = client.translate(["iterum atque iterum"])
        assert text.startswith("[draft]")
        assert client.stats.retries == 2
        assert srv.stats.snapshot()["counts"]["/translate"] == 3
        # exponential backoff with base 0.5 and factor 2, jitter <= 10%
        assert 0.5 <= sleeps[0] <= 0.55
        assert 1.0 <= sleeps[1] <= 1.1
    finally:
        srv.stop()

    srv = start_mock_server(MockBehavior(fail_first=1, fail_status=422))
    try:
        client = DrafterClient(_endpoint(srv.base_url, "drafter", max_retries=5))
        with pytest.raises(RequestError):
            client.translate(["semel"])
        assert srv.stats.snapshot()["counts"]["/translate"] == 1  # no retry on 4xx
    finally:
        srv.stop()

    srv = start_mock_server(MockBehavior(fail_rate=1.0))
    try:
        client = DrafterClient(_endpoint(srv.base_url, "drafter", max_retries=2))
        with pytest.raises(TransportError, match="after 3 attempts"):
            client.translate(["numquam"])
    finally:
        srv.stop()
    _ok(8, "retry only on 5xx/429/transport with bounded backoff")


# -- 9. cost arithmetic ------------------------------------------------------------

def test_c09_cost_arithmetic():
    from refta.backends import TokenUsage

    model = CostModel(input_rate="1.25", output_rate="10.0")
    cost = api_cost(TokenUsage(23_000, 191_000, "backend-reported"), model)
    assert abs(round_dollars(cost) - 1.9388) <= 1e-6

    local_model = CostModel(input_rate="0", output_rate="0",
                            fixed_hourly="0.50", power_rate="0.10", power_kw="0.3")
    local = local_cost(18 * 60, local_model)
    assert abs(float(local) - 0.159) <= 1e-6
    assert 0.15 <= float(local) <= 0.20

    batched = cost * model.batching_discount
    assert batched == cost / 2  # halved quote reproduced by the 0.5 discount
    _ok(9, "cost arithmetic (1.9388 / 0.159 / batched half)")


# -- 10. significance sanity ---------------------------------------------------------

def test_c10_significance_sanity():
    fixture = json.loads((DATA / "metric_fixture.json").read_text())["primary"]
    hyps, refs = fixture["hypotheses"], fixture["references"]

    metric = BleuMetric()
    stats = metric.segment_stats(hyps, refs)
    (same,) = paired_bootstrap(metric, {"A": stats}, stats, seed=17)
    assert same.delta == 0.0
    assert same.ci_low <= 0.0 <= same.ci_high

    dominant = [r[0] for r in refs]
    dominant_stats = metric.segment_stats(dominant, refs)
    (better,) = paired_bootstrap(metric, {"A": dominant_stats}, stats, seed=17)
    (again,) = paired_bootstrap(metric, {"A": dominant_stats}, stats, seed=17)
    assert better == again
    assert better.p_value < 0.05
    _ok(10, "paired bootstrap sanity (identical, dominated, seed-stable)")


# -- 11. leakage guard ----------------------------------------------------------------

def test_c11_leakage_guard(server, tmp_path):
    endpoints = _endpoints(server.base_url)
    pairs = load_parallel(TEST_SET, "tsv")
    eval_segments = [p.source for p in pairs]
    corpus = list(load_monolingual(RETRIEVAL, "jsonl")) + eval_segments
    exclusions = ExclusionList.from_pairs(pairs)
    index, report = build_index(
        corpus, EmbedderClient(endpoints["embedder"]), exclusions,
    )
    assert report.excluded_exact >= len(pairs)

    cfg = RunConfig(condition="rag", run_id="leak", endpoints=endpoints,
                    k=5, jaccard_threshold=0.0, workers=4)
    (result,) = translate_corpus(cfg, pairs, index, runs_root=tmp_path)
    for rec in read_records(result.run_dir):
        for nb in rec["neighbors"]:
            assert nb["segment_id"] not in exclusions.ids
            assert nb["latin"] not in exclusions.exact_texts
    _ok(11, "no excluded id or text reaches any record's neighbors")


# -- 12. optional live-model trend (documentation only) --------------------------------

LIVE_VARS = ("REFTA_LIVE_DRAFTER_URL", "REFTA_LIVE_REFINER_URL", "REFTA_LIVE_EMBEDDER_URL")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in LIVE_VARS),
    reason="live-model track: export REFTA_LIVE_{DRAFTER,REFINER,EMBEDDER}_URL to enable",
)
def test_c12_live_model_trend(tmp_path):
    from refta.metrics.report import LEXICAL_METRICS, evaluate_hypotheses
    from refta.pipeline import read_hypotheses

    endpoints = {
        "drafter": EndpointConfig(base_url=os.environ["REFTA_LIVE_DRAFTER_URL"],
                                  model_id=os.environ.get("REFTA_LIVE_DRAFTER_MODEL", "nllb-200-1.3b")),
        "refiner": EndpointConfig(base_url=os.environ["REFTA_LIVE_REFINER_URL"],
                                  model_id=os.environ.get("REFTA_LIVE_REFINER_MODEL", "llama-3.3-70b")),
        "embedder": EndpointConfig(base_url=os.environ["REFTA_LIVE_EMBEDDER_URL"],
                                   model_id=os.environ.get("REFTA_LIVE_EMBEDDER_MODEL", "bge-m3")),
    }
    pairs = load_parallel(TEST_SET, "tsv")[:20]
    segments = list(load_monolingual(RETRIEVAL, "jsonl"))
    index, _ = build_index(segments, EmbedderClient(endpoints["embedder"]),
                           ExclusionList.from_pairs(pairs))
    scores = {}
    for condition in ("zero_shot", "draft_only", "rag"):
        cfg = RunConfig(condition=condition, run_id=f"live-{condition}",
                        endpoints=endpoints, k=5)
        (result,) = translate_corpus(cfg, pairs, index if condition == "rag" else None,
                                     runs_root=tmp_path)
        hyps = read_hypotheses(result.run_dir)
        refs = [list(p.references) for p in pairs]
        stats = {m.name: m.segment_stats(hyps, refs) for m in LEXICAL_METRICS}
        report = evaluate_hypotheses(condition, hyps, stats)
        scores[condition] = report.corpus_scores["chrf++"]
    # direction of trend, recorded rather than gated
    print(f"\nlive chrF++ trend: {scores}")
    _ok(12, "live-model run completed (trend recorded above)")
