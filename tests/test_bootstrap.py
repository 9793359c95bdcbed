from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import DATA, FIXTURES, REPO_ROOT
from refta import kernels
from refta.metrics import bleu, bootstrap, chrf
from refta.metrics.bootstrap import N_RESAMPLES, RESAMPLE_BLOCK, paired_bootstrap
from refta.metrics.bleu import BleuMetric
from refta.metrics.chrf import ChrfPPMetric
from refta.metrics.report import (
    SIGNIFICANCE_ALPHA, MeanMetric, RunComparison, format_comparison_table,
)


@pytest.fixture(scope="module")
def fixture():
    return json.loads((DATA / "metric_fixture.json").read_text())["primary"]


def _compare(metric, stats, baseline_stats, system="A", **kwargs):
    """``paired_bootstrap`` of one system against the baseline on one metric."""
    return paired_bootstrap([metric], {system: {metric.name: stats}},
                            {metric.name: baseline_stats}, **kwargs)


def test_identical_systems(fixture):
    hyps, refs = fixture["hypotheses"], fixture["references"]
    stats = BleuMetric().segment_stats(hyps, refs)
    (res,) = _compare(BleuMetric(), stats, stats, seed=7)
    assert res.delta == 0.0
    assert res.p_value == 1.0
    assert res.ci_low <= 0.0 <= res.ci_high
    assert res.ci_low <= res.ci_high


def test_seed_determinism(fixture):
    hyps, refs = fixture["hypotheses"], fixture["references"]
    better = [r[0] for r in refs]
    metric = ChrfPPMetric()
    stats = (metric.segment_stats(better, refs), metric.segment_stats(hyps, refs))
    (a,) = _compare(metric, *stats, seed=11)
    (b,) = _compare(metric, *stats, seed=11)
    assert a == b
    (c,) = _compare(metric, *stats, seed=12)
    assert c != a


def test_dominated_fixture_is_significant(fixture):
    hyps, refs = fixture["hypotheses"], fixture["references"]
    better = [r[0] for r in refs]  # wins on every segment
    metric = BleuMetric()
    stats = (metric.segment_stats(better, refs), metric.segment_stats(hyps, refs))
    (res,) = _compare(metric, *stats, seed=17)
    assert res.delta > 0
    assert res.p_value < 0.05


def test_resample_sums_refuses_sums_past_exact_float64():
    # two draws of a statistic reach n * max|stats|; the GEMM is exact below 2**53
    idx = np.zeros((3, 2), dtype=np.int64)
    for big in (2**52, -(2**52)):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            kernels.resample_sums(np.array([[big], [1]], dtype=np.int64), idx)
    stats = np.array([[2**52 - 1], [1]], dtype=np.int64)
    assert np.array_equal(kernels.resample_sums(stats, idx), stats[idx].sum(axis=1))
    # the bootstrap checks each statistics dtype once, before its one cast
    with pytest.raises(ValueError, match="2\\*\\*53"):
        _compare(MeanMetric("big"), np.array([[2**52, 1], [1, 1]], dtype=np.int64),
                 np.ones((2, 2), dtype=np.int64))


def _neural_stats(scores):
    return np.column_stack([scores, np.ones(len(scores))])


def test_neural_identical_systems():
    stats = _neural_stats(np.random.default_rng(3).random(60))
    (res,) = _compare(MeanMetric("comet"), stats, stats, seed=7)
    assert res.metric == "comet"
    assert res.delta == 0.0
    assert res.p_value == 1.0
    # float sums: the BLAS may order each column's additions differently
    assert [res.ci_low, res.ci_high] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_neural_constant_shift_is_significant():
    scores = np.random.default_rng(4).random(60)
    (res,) = _compare(MeanMetric("comet"), _neural_stats(scores + 0.05),
                      _neural_stats(scores), seed=7)
    assert res.p_value == 0.0
    assert [res.delta, res.ci_low, res.ci_high] == pytest.approx([0.05] * 3, abs=1e-12)


def test_alignment_enforced(fixture):
    hyps, refs = fixture["hypotheses"], fixture["references"]
    stats = BleuMetric().segment_stats(hyps, refs)
    with pytest.raises(ValueError, match="aligned"):
        _compare(BleuMetric(), stats[:-1], stats)
    with pytest.raises(ValueError, match="at least 2"):
        _compare(BleuMetric(), stats[:1], stats[:1])


def test_metric_name_recorded(fixture):
    hyps, refs = fixture["hypotheses"], fixture["references"]
    stats = ChrfPPMetric().segment_stats(hyps, refs)
    (res,) = _compare(ChrfPPMetric(), stats, stats, seed=1)
    assert res.metric == "chrf++"
    assert res.rng_seed == 1
    assert res.n_resamples == 1000


def _synthetic_pair(seed: int, n: int = 1000):
    """Two systems that each replace ~30% of a random reference's words."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(200)]
    refs, hyps_a, hyps_b = [], [], []
    for _ in range(n):
        ref = [vocab[j] for j in rng.integers(0, len(vocab), size=int(rng.integers(5, 15)))]
        refs.append([" ".join(ref)])
        for hyps in (hyps_a, hyps_b):
            hyps.append(" ".join(
                w if rng.random() > 0.3 else vocab[int(rng.integers(0, len(vocab)))]
                for w in ref))
    return hyps_a, hyps_b, refs


# the first two seeds from 0 whose p lies in [0.15, 0.35], where the
# factor of two between the conventions is plain
@pytest.mark.parametrize("seed", [0, 3])
def test_p_value_is_half_a_centred_two_sided_p(seed):
    hyps_a, hyps_b, refs = _synthetic_pair(seed)
    metric = BleuMetric()
    stats = (metric.segment_stats(hyps_a, refs), metric.segment_stats(hyps_b, refs))
    (res,) = _compare(metric, *stats, seed=seed)
    assert 0.15 <= res.p_value <= 0.35

    # the same resample indices as paired_bootstrap draws
    n = len(refs)
    idx = np.random.Generator(np.random.PCG64(seed)).integers(
        0, n, size=(res.n_resamples, n), dtype=np.int64)
    sums_a, sums_b = (kernels.resample_sums(s, idx) for s in stats)
    deltas = metric.corpus_scores(sums_a) - metric.corpus_scores(sums_b)
    two_sided = float(np.mean(np.abs(deltas - res.delta) >= abs(res.delta)))
    assert abs(res.p_value - two_sided / 2) <= 0.03


def test_the_compare_marker_fires_at_alpha_under_the_null():
    # 400 null pairs at n = 100: each system is a shared segment quality plus
    # its own noise, so the true delta is 0 and a two-sided test at alpha
    # marks about alpha of them
    pairs, n = 400, 100
    rows, significance = [{"run": "base", "is_baseline": True, "scores": {"m": 0.0}}], []
    for j in range(pairs):
        rng = np.random.default_rng(j)
        quality = rng.normal(0.0, 1.0, n)
        a, b = (_neural_stats(quality + rng.normal(0.0, 0.5, n)) for _ in range(2))
        (sig,) = _compare(MeanMetric("m"), a, b, seed=j, baseline="base", system=f"s{j}")
        rows.append({"run": f"s{j}", "is_baseline": False, "scores": {"m": sig.delta}})
        significance.append(sig)
    table = format_comparison_table(RunComparison("base", "", 0, rows, significance))
    marked = [line for line in table.splitlines() if line.startswith("s") and line.endswith("*")]
    bound = SIGNIFICANCE_ALPHA * pairs + 2 * (pairs * SIGNIFICANCE_ALPHA * 0.95) ** 0.5
    assert len(marked) <= bound


def _reference_rows(metrics, stats_by_system, baseline_stats, seed):
    """The reference bootstrap, one metric at a time: an int64 draw per metric
    and the gather ``stats[idx].sum(axis=1)`` per system."""
    rows = {}
    for metric in metrics:
        every = [baseline_stats, *stats_by_system.values()]
        n = len(baseline_stats[metric.name])
        idx = np.random.Generator(np.random.PCG64(seed)).integers(
            0, n, size=(N_RESAMPLES, n), dtype=np.int64)
        resampled = [metric.corpus_scores(s[metric.name][idx].sum(axis=1)) for s in every]
        full = metric.corpus_scores(np.stack([s[metric.name].sum(axis=0) for s in every]))
        for name, scores, score in zip(stats_by_system, resampled[1:], full[1:]):
            deltas, delta = scores - resampled[0], score - full[0]
            flips = np.count_nonzero(np.sign(deltas) != np.sign(delta))
            rows[name, metric.name] = (
                float(delta), 1.0 if delta == 0.0 else flips / N_RESAMPLES,
                *(float(q) for q in np.percentile(deltas, [2.5, 97.5])))
    return [(name, metric.name, *rows[name, metric.name])
            for name in stats_by_system for metric in metrics]


@pytest.mark.parametrize("n", [2, 110, 1000])
def test_one_draw_for_every_metric_equals_a_draw_per_metric(n):
    hyps_a, hyps_b, refs = _synthetic_pair(n, n)
    base = [" ".join(r[0].split()[::-1]) for r in refs]
    rng = np.random.default_rng(n)
    metrics = [BleuMetric(), ChrfPPMetric(), MeanMetric("comet"), MeanMetric("bertscore")]

    def stats(hyps):
        # neural scores on a 1/64 grid: their float sums are exact in any order
        return {"bleu": metrics[0].segment_stats(hyps, refs),
                "chrf++": metrics[1].segment_stats(hyps, refs),
                "comet": _neural_stats(rng.integers(0, 64, n) / 64),
                "bertscore": _neural_stats(rng.integers(0, 64, n) / 64)}

    systems, baseline_stats = {"A": stats(hyps_a), "B2": stats(hyps_b)}, stats(base)
    got = paired_bootstrap(metrics, systems, baseline_stats, seed=n, baseline="base")
    assert [(r.system_a, r.metric, r.delta, r.p_value, r.ci_low, r.ci_high) for r in got] == (
        _reference_rows(metrics, systems, baseline_stats, seed=n))
    assert {(r.system_b, r.rng_seed, r.n_resamples) for r in got} == {("base", n, N_RESAMPLES)}


@pytest.mark.parametrize("n", [2, 111, 10**4, 2**31 - 1])
@pytest.mark.parametrize("seed", [0, 42])
def test_the_int32_draw_equals_the_int64_draw(n, seed):
    # below 2**32, both dtypes draw through the same 32-bit bounded generator
    shape = (N_RESAMPLES, min(n, 500))
    draws = [np.random.Generator(np.random.PCG64(seed)).integers(0, n, size=shape, dtype=dtype)
             for dtype in (np.int32, np.int64)]
    assert np.array_equal(*draws)


@pytest.mark.parametrize("n", [2, 7, 111, 10**4])
@pytest.mark.parametrize("rows", [1, 63, 64, 1000])
@pytest.mark.parametrize("seed", [0, 42])
def test_draws_in_blocks_of_resamples_equal_one_draw(n, rows, seed):
    # the bootstrap draws its indices a block of resamples at a time; NumPy
    # does not document that the blocks join into one draw, so pin it here
    whole = np.random.Generator(np.random.PCG64(seed)).integers(
        0, n, size=(N_RESAMPLES, n), dtype=np.int32)
    rng = np.random.Generator(np.random.PCG64(seed))
    blocks = [rng.integers(0, n, size=(min(rows, N_RESAMPLES - lo), n), dtype=np.int32)
              for lo in range(0, N_RESAMPLES, rows)]
    assert np.array_equal(np.concatenate(blocks), whole)


@pytest.mark.parametrize("rows", [1, 3, 1000])
def test_resamples_in_blocks_equal_one_block(monkeypatch, rows):
    # blocks of 1 and of 3 resamples, the last one short, and one block
    hyps_a, hyps_b, refs = _synthetic_pair(5, 110)
    metrics = [BleuMetric(), ChrfPPMetric(), MeanMetric("comet")]
    rng = np.random.default_rng(5)

    def stats(hyps):
        # neural scores on a 1/64 grid: their float sums are exact in any order
        return {"bleu": metrics[0].segment_stats(hyps, refs),
                "chrf++": metrics[1].segment_stats(hyps, refs),
                "comet": _neural_stats(rng.integers(0, 64, len(refs)) / 64)}

    systems, baseline_stats = {"A": stats(hyps_a)}, stats(hyps_b)
    want = paired_bootstrap(metrics, systems, baseline_stats, seed=5)
    monkeypatch.setattr(bootstrap, "RESAMPLE_BLOCK", rows)
    assert paired_bootstrap(metrics, systems, baseline_stats, seed=5) == want


def test_bootstrap_memory_is_bounded_by_one_block():
    # two systems of BLEU and chrF++ statistics at 10^4 segments, where one
    # (1000, n) int32 draw alone would take 40 MB
    n, d = 10**4, 2 * (bleu.STATS_DIM + chrf.STATS_DIM)
    rng = np.random.default_rng(9)

    def stats():
        return {"bleu": rng.integers(1, 30, size=(n, bleu.STATS_DIM)),
                "chrf++": rng.integers(1, 30, size=(n, chrf.STATS_DIM))}

    systems, baseline_stats = {"A": stats()}, stats()
    tracemalloc.start()
    try:
        paired_bootstrap([BleuMetric(), ChrfPPMetric()], systems, baseline_stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block of int32 draws and their float64 counts, one float64 copy of
    # the statistics and the float64 sums, plus 1 MB for per-row temporaries
    block = RESAMPLE_BLOCK * n * (4 + 8)
    assert peak < block + 8 * n * d + 8 * N_RESAMPLES * d + 2**20


def test_compare_scale_rows_equal_the_golden():
    # significance rows of a three-system lexical compare of 301 segments,
    # as the tool printed them before the bootstrap drew in blocks
    golden = json.loads((DATA / "golden" / "compare_scale_301.json").read_text())
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "tools" / "compare_scale.py"),
                           *golden["argv"]], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["significance"] == golden["significance"]


@st.composite
def _deltas(draw):
    """N_RESAMPLES deltas: ties among a few values (one value makes a constant
    array, 0.0 and -0.0 are two), or a normal sample."""
    pool = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324])
                         | st.floats(-1e6, 1e6, allow_subnormal=True), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.choice(pool, N_RESAMPLES) if draw(st.booleans())
            else rng.normal(scale=abs(pool[0]) + 1e-9, size=N_RESAMPLES))


@settings(max_examples=500, deadline=None)
@given(_deltas())
@example(np.zeros(N_RESAMPLES))
@example(np.where(np.arange(N_RESAMPLES) % 3 == 0, -0.0, 0.0))
@example(np.repeat([-1.0, 0.0, -0.0, 2.0], N_RESAMPLES // 4))
def test_interval_is_numpy_percentile_bit_for_bit(deltas):
    want = np.percentile(deltas, [2.5, 97.5])
    got = bootstrap._interval(deltas.copy())
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="NumPy 1 imports numpy.ma with numpy itself")
def test_compare_leaves_numpy_ma_unimported(tmp_path):
    # three runs over the fixture test set: references with words dropped
    script = """
import sys
from pathlib import Path
from refta.corpus import load_parallel
from refta.metrics.report import compare_runs
pairs = load_parallel(sys.argv[1], "tsv")
runs = []
for k in range(3):
    run = Path(sys.argv[2], f"run{k}")
    run.mkdir()
    words = (p.references[0].split() for p in pairs)
    run.joinpath("hypotheses.txt").write_text("".join(" ".join(w[k:]) + "\\n" for w in words))
    runs.append(run)
assert len(compare_runs(runs, pairs, runs[0]).significance) == 4
print("numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script,
                           str(FIXTURES / "testsets" / "ood_fixture_110.tsv"), str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
