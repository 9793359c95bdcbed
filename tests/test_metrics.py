from __future__ import annotations

import json
import math
import random
import re
import string
import threading
import time
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import DATA, FIXTURES
from refta import kernels
from refta.backends import EndpointConfig, ScorerClient
from refta.corpus import ParallelPair, SourceSegment, load_parallel
from refta.errors import ComparisonError
from refta.metrics import bleu as bleu_module
from refta.metrics import chrf as chrf_module
from refta.metrics.bleu import BLOCK_ROWS, BleuMetric, bleu, tokenize_13a
from refta.metrics.bootstrap import N_RESAMPLES, RESAMPLE_BLOCK, paired_bootstrap
from refta.metrics.chrf import ChrfPPMetric, chrf_pp
from refta.metrics.report import (
    LEXICAL_METRICS,
    compare_runs,
    evaluate_hypotheses,
    read_run,
    score_runs,
)
from refta.pipeline import FAILED_SENTINEL, corpus_digest


def test_metric_submodules_import_as_modules():
    import refta.metrics.bleu as bleu_module
    import refta.metrics.chrf as chrf_module

    assert isinstance(bleu_module, types.ModuleType)
    assert isinstance(chrf_module, types.ModuleType)


@pytest.fixture(scope="module")
def fixture():
    return json.loads((DATA / "metric_fixture.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def oracle():
    return json.loads((DATA / "metric_oracle.json").read_text(encoding="utf-8"))


def _lexical_stats(hyps, refs) -> dict:
    """Each lexical metric's segment statistics, as ``evaluate_hypotheses`` takes them."""
    return {m.name: m.segment_stats(hyps, refs) for m in LEXICAL_METRICS}


class TestOracleEquivalence:
    # expected values recorded once from the reference scorers on the frozen
    # fixture set; see tests/data/metric_oracle.json
    @pytest.mark.parametrize("part", ["primary", "multiref"])
    def test_bleu_corpus(self, fixture, oracle, part):
        corpus, _ = bleu(fixture[part]["hypotheses"], fixture[part]["references"])
        assert corpus == pytest.approx(oracle[part]["bleu_corpus"], abs=0.01)

    @pytest.mark.parametrize("part", ["primary", "multiref"])
    def test_bleu_segments(self, fixture, oracle, part):
        _, segments = bleu(fixture[part]["hypotheses"], fixture[part]["references"])
        for mine, recorded in zip(segments, oracle[part]["bleu_segments"]):
            assert mine == pytest.approx(recorded, abs=0.01)

    @pytest.mark.parametrize("part", ["primary", "multiref"])
    def test_chrf_pp_corpus(self, fixture, oracle, part):
        corpus, _ = chrf_pp(fixture[part]["hypotheses"], fixture[part]["references"])
        assert corpus == pytest.approx(oracle[part]["chrf_pp_corpus"], abs=0.01)

    @pytest.mark.parametrize("part", ["primary", "multiref"])
    def test_chrf_pp_segments(self, fixture, oracle, part):
        _, segments = chrf_pp(fixture[part]["hypotheses"], fixture[part]["references"])
        for mine, recorded in zip(segments, oracle[part]["chrf_pp_segments"]):
            assert mine == pytest.approx(recorded, abs=0.01)


class TestIdentityAndDegenerates:
    def test_identity_is_exactly_100(self, fixture):
        refs = fixture["primary"]["references"]
        hyps = [r[0] for r in refs]
        bc, bs = bleu(hyps, refs)
        cc, cs = chrf_pp(hyps, refs)
        assert bc == 100.0 and cc == 100.0
        assert all(s == 100.0 for s in bs)
        assert all(s == 100.0 for s in cs)

    def test_all_empty_hypotheses_score_zero(self):
        corpus, _ = bleu(["", ""], [["a reference text"], ["another reference"]])
        assert corpus == 0.0

    def test_disjoint_alphabets_chrf_zero(self):
        corpus, segments = chrf_pp(["aaaa"], [["zzzz"]])
        assert corpus == 0.0 and segments == [0.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bleu(["a"], [["r"], ["r2"]])
        with pytest.raises(ValueError):
            chrf_pp(["a", "b"], [["r"]])

    def test_empty_reference(self):
        with pytest.raises(ValueError):
            bleu(["a fine text"], [[""]])
        with pytest.raises(ValueError):
            chrf_pp(["a fine text"], [[]])


class TestTokenizer13a:
    def test_punctuation_split(self):
        assert tokenize_13a("Hello, world.") == "Hello , world ."

    def test_decimal_numbers_kept(self):
        assert tokenize_13a("pi is 3.14 always") == "pi is 3.14 always"

    def test_digit_dash(self):
        assert tokenize_13a("war of 1870-1871 ended") == "war of 1870 - 1871 ended"


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_permutation_invariance(self, rng):
        data = json.loads((DATA / "metric_fixture.json").read_text())["primary"]
        hyps, refs = list(data["hypotheses"]), list(data["references"])
        paired = list(zip(hyps, refs))
        rng.shuffle(paired)
        shuffled_h = [h for h, _ in paired]
        shuffled_r = [r for _, r in paired]
        assert bleu(shuffled_h, shuffled_r)[0] == pytest.approx(bleu(hyps, refs)[0], abs=1e-9)
        assert chrf_pp(shuffled_h, shuffled_r)[0] == pytest.approx(
            chrf_pp(hyps, refs)[0], abs=1e-9
        )

    def test_monotone_identity(self):
        # replacing any hypothesis with its reference never lowers corpus BLEU
        data = json.loads((DATA / "metric_fixture.json").read_text())["primary"]
        hyps, refs = data["hypotheses"], data["references"]
        base, _ = bleu(hyps, refs)
        rng = random.Random(13)
        for _ in range(10):
            i = rng.randrange(len(hyps))
            improved = list(hyps)
            improved[i] = refs[i][0]
            better, _ = bleu(improved, refs)
            assert better >= base - 1e-9


class TestNeuralAttachment:
    def _report(self, scorer, metrics, hyps, refs):
        pairs = [ParallelPair(SourceSegment(f"s{i}", "s"), (ref,)) for i, ref in enumerate(refs)]
        ((report, _),) = score_runs({"sys": hyps}, pairs, scorer, metrics)
        return report

    def test_constant_mean(self, endpoint):
        scorer = ScorerClient(endpoint("scorer"))
        hyps = ["different"] * 4
        refs = ["reference"] * 4
        report = self._report(scorer, {"comet"}, hyps, refs)
        assert report.corpus_scores["comet"] == pytest.approx(0.7)
        assert report.segment_scores["comet"] == [0.7] * 4

    def test_mean_equals_hand_computed(self, endpoint):
        scorer = ScorerClient(endpoint("scorer"))
        hyps = ["same", "same", "different"]
        refs = ["same", "same", "reference"]
        report = self._report(scorer, {"comet"}, hyps, refs)
        assert report.corpus_scores["comet"] == pytest.approx((1.0 + 1.0 + 0.7) / 3)

    def test_capability_warning(self, endpoint):
        scorer = ScorerClient(endpoint("scorer"))
        report = self._report(scorer, {"meteor", "comet"}, ["h"] * 4, ["r"] * 4)
        assert "comet" in report.corpus_scores
        assert "meteor" not in report.corpus_scores
        assert any("meteor" in w for w in report.warnings)

    def test_each_distinct_triple_is_scored_once(self, mock_server, endpoint):
        scorer = ScorerClient(endpoint("scorer", max_batch=2))
        refs = ["r0", "r1", "r2", "r3", "r4"]
        pairs = [ParallelPair(SourceSegment(f"s{i}", "s"), (ref,)) for i, ref in enumerate(refs)]
        runs = {"a": ["r0", "x", "r2", "x", "x"], "b": ["r0", "r1", "y", "x", "x"]}
        scored = score_runs(runs, pairs, scorer, {"comet"})
        for (report, _), hyps in zip(scored, runs.values()):
            assert report.segment_scores["comet"] == [
                1.0 if h == r else 0.7 for h, r in zip(hyps, refs)]
        # 7 distinct of the 10 triples, 2 per request
        snap = mock_server.stats.snapshot()
        assert (snap["counts"]["/score"], snap["inputs"]["/score"]) == (4, 7)
        for report, _ in score_runs(runs, pairs, scorer, {"meteor"}):
            assert any("meteor" in w for w in report.warnings)

    def test_refused_metric_is_not_resent_triple_by_triple(self, mock_server, endpoint):
        scorer = ScorerClient(endpoint("scorer", max_batch=2, request_parallelism=4))
        refs = [f"r{i}" for i in range(8)]
        pairs = [ParallelPair(SourceSegment(f"s{i}", "s"), (ref,)) for i, ref in enumerate(refs)]
        for report, _ in score_runs({"a": refs}, pairs, scorer, {"meteor"}):
            assert any("meteor" in w for w in report.warnings)
        # the first batch of 2 goes alone, and its refusal ends the feed
        snap = mock_server.stats.snapshot()
        assert (snap["counts"]["/score"], snap["inputs"]["/score"]) == (1, 2)

    def test_a_rejected_batch_is_resent_at_the_scorers_parallelism(self, monkeypatch):
        lock, in_flight, peak, sent = threading.Lock(), Counter(), Counter(), []

        def send(self, path, body):  # HTTP 413 for more than 3 triples
            n = len(json.loads(body)["hypotheses"])
            with lock:
                sent.append(n)
                in_flight[n] += 1
                peak[n] = max(peak[n], in_flight[n])
            time.sleep(0.01)
            with lock:
                in_flight[n] -= 1
            if n > 3:
                return 413, {}, b'{"error": {"type": "payload_too_large"}}'
            return 200, {}, json.dumps({"scores": [0.5] * n}).encode()

        monkeypatch.setattr(ScorerClient, "_send", send)
        scorer = ScorerClient(EndpointConfig(base_url="http://scorer.invalid", model_id="m",
                                             max_batch=8, request_parallelism=4))
        refs = [f"r{i}" for i in range(64)]
        pairs = [ParallelPair(SourceSegment(f"s{i}", "s"), (ref,)) for i, ref in enumerate(refs)]
        ((report, _),) = score_runs({"a": refs}, pairs, scorer, {"comet"})
        assert report.segment_scores["comet"] == [0.5] * 64
        # 8 rejected batches of 8, then one request per triple, several in flight
        assert sorted(sent) == [1] * 64 + [8] * 8
        assert peak[1] > 1


def test_evaluate_hypotheses_pools_not_averages(fixture):
    hyps = fixture["primary"]["hypotheses"]
    refs = fixture["primary"]["references"]
    report = evaluate_hypotheses("sys", hyps, _lexical_stats(hyps, refs))
    mean_segment_bleu = sum(report.segment_scores["bleu"]) / len(hyps)
    assert report.corpus_scores["bleu"] != pytest.approx(mean_segment_bleu, abs=1e-6)
    assert report.n_segments == len(hyps)


def test_evaluate_hypotheses_counts_failed_lines(fixture):
    hyps = list(fixture["primary"]["hypotheses"])
    refs = fixture["primary"]["references"]
    assert evaluate_hypotheses("sys", hyps, _lexical_stats(hyps, refs)).n_failed == 0
    hyps[1] = FAILED_SENTINEL
    report = evaluate_hypotheses("sys", hyps, _lexical_stats(hyps, refs))
    assert report.n_failed == 1
    assert report.warnings == (f"1 of {len(hyps)} hypotheses are <FAILED>",)
    assert report.to_dict()["n_failed"] == 1


def test_compare_runs_reuses_segment_stats_in_bootstrap(tmp_path, monkeypatch):
    pairs = load_parallel(FIXTURES / "testsets" / "ood_fixture_110.tsv", "tsv")[:40]
    first_refs = [p.references[0] for p in pairs]
    rng = random.Random(5)
    runs = {
        name: [r if rng.random() < keep else " ".join(r.split()[::-1]) for r in first_refs]
        for name, keep in (("base", 0.2), ("mid", 0.5), ("top", 0.8))
    }
    for name, hyps in runs.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "manifest.json").write_text(
            json.dumps({"corpus_digest": corpus_digest(pairs)}), encoding="utf-8")
        (tmp_path / name / "hypotheses.txt").write_text(
            "".join(h + "\n" for h in hyps), encoding="utf-8")
    calls = []

    def counted(orig):
        def segment_stats(self, hypotheses, references):
            calls.append(self.name)
            return orig(self, hypotheses, references)
        return segment_stats

    for cls in (BleuMetric, ChrfPPMetric):
        monkeypatch.setattr(cls, "segment_stats", counted(cls.segment_stats))

    comparison = compare_runs([tmp_path / "mid", tmp_path / "top"], pairs,
                              tmp_path / "base", seed=9)
    # one matrix per metric, over all three runs interleaved segment-major
    assert sorted(calls) == ["bleu", "chrf++"]

    monkeypatch.undo()
    references = [list(p.references) for p in pairs]
    metrics = {m.name: m for m in LEXICAL_METRICS}
    assert [(s.system_a, s.metric) for s in comparison.significance] == [
        ("mid", "bleu"), ("mid", "chrf++"), ("top", "bleu"), ("top", "chrf++")]
    for sig in comparison.significance:
        assert sig.delta > 0.0
        metric = metrics[sig.metric]
        assert [sig] == paired_bootstrap(
            [metric], {sig.system_a: {sig.metric: metric.segment_stats(runs[sig.system_a],
                                                                       references)}},
            {sig.metric: metric.segment_stats(runs["base"], references)}, seed=9,
            baseline="base")


@pytest.mark.parametrize("neural_metrics,sums_calls", [((), 1), (("bertscore", "comet"), 2)],
                         ids=["lexical", "neural"])
def test_compare_runs_resamples_once_per_statistics_dtype(tmp_path, monkeypatch, endpoint,
                                                          neural_metrics, sums_calls):
    pairs = load_parallel(FIXTURES / "testsets" / "ood_fixture_110.tsv", "tsv")[:30]
    first_refs = [p.references[0] for p in pairs]
    for name, keep in (("base", 3), ("mid", 2), ("top", 1)):
        (tmp_path / name).mkdir()
        hyps = [r if i % keep == 0 else " ".join(r.split()[::-1]) for i, r in enumerate(first_refs)]
        (tmp_path / name / "hypotheses.txt").write_text(
            "".join(h + "\n" for h in hyps), encoding="utf-8")
    calls = []

    def resample_sums(stats, idx, out=None):
        calls.append((stats.shape, idx.shape, idx.dtype))
        return original(stats, idx, out=out)

    original = kernels.resample_sums
    monkeypatch.setattr(kernels, "resample_sums", resample_sums)
    comparison = compare_runs([tmp_path / "mid", tmp_path / "top"], pairs, tmp_path / "base",
                              scorer=ScorerClient(endpoint("scorer")),
                              neural_metrics=neural_metrics)
    # per block of resamples, one count block for the integer statistics of
    # every metric and run, and one for the float ones, rather than one per metric
    blocks = -(-N_RESAMPLES // RESAMPLE_BLOCK)
    assert len(calls) == sums_calls * blocks
    widths = [3 * (bleu_module.STATS_DIM + chrf_module.STATS_DIM), 3 * 2 * len(neural_metrics)]
    assert [shape[1] for shape, _, _ in calls] == widths[:sums_calls] * blocks
    assert all(shape[0] == idx[1] == len(pairs) and dtype == np.int32
               for shape, idx, dtype in calls)
    assert sum(idx[0] for _, idx, _ in calls) == sums_calls * N_RESAMPLES
    names = ["bleu", "chrf++", *neural_metrics]
    assert [(s.system_a, s.metric) for s in comparison.significance] == [
        (run, name) for run in ("mid", "top") for name in names]


def test_compare_runs_refuses_duplicate_run_names(tmp_path):
    pairs = load_parallel(FIXTURES / "testsets" / "ood_fixture_110.tsv", "tsv")[:10]
    first_refs = [p.references[0] for p in pairs]
    reversed_refs = [" ".join(r.split()[::-1]) for r in first_refs]
    runs = {"base": first_refs, "a/rag": first_refs, "b/rag": reversed_refs}
    for name, hyps in runs.items():
        (tmp_path / name).mkdir(parents=True)
        (tmp_path / name / "manifest.json").write_text(
            json.dumps({"corpus_digest": corpus_digest(pairs)}), encoding="utf-8")
        (tmp_path / name / "hypotheses.txt").write_text(
            "".join(h + "\n" for h in hyps), encoding="utf-8")
    # keyed by directory name, one rag run's hypotheses would replace the other's
    with pytest.raises(ComparisonError, match="rag"):
        compare_runs([tmp_path / "a/rag", tmp_path / "b/rag"], pairs, tmp_path / "base")
    with pytest.raises(ComparisonError, match="rag"):
        compare_runs([tmp_path / "a/rag"], pairs, tmp_path / "b/rag")


# -- per-row copies of the scalar algorithm that the array code replaced -----
# ``segment_stats`` must give these integers bit for bit, and the array
# scorers these floats, on any input.

def _copy_ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _copy_bleu_row(hyp, refs):
    hyp_tokens = tokenize_13a(hyp).split()
    hyp_counts = [_copy_ngrams(hyp_tokens, n) for n in range(1, 5)]
    ref_counts = [Counter() for _ in range(4)]
    closest_diff, closest_len = None, 0
    for ref in refs:
        ref_tokens = tokenize_13a(ref).split()
        diff = abs(len(hyp_tokens) - len(ref_tokens))
        if closest_diff is None or diff < closest_diff or (
                diff == closest_diff and len(ref_tokens) < closest_len):
            closest_diff, closest_len = diff, len(ref_tokens)
        for n in range(4):
            for gram, cnt in _copy_ngrams(ref_tokens, n + 1).items():
                ref_counts[n][gram] = max(ref_counts[n][gram], cnt)
    correct = [sum(min(c, ref_counts[n][g]) for g, c in hyp_counts[n].items())
               for n in range(4)]
    total = [sum(hyp_counts[n].values()) for n in range(4)]
    return correct + total + [len(hyp_tokens), closest_len]


def _copy_bleu_score(row, effective_order):
    correct, total, sys_len, ref_len = row[:4], row[4:8], int(row[8]), int(row[9])
    precisions, smooth, eff = [0.0] * 4, 1.0, 4
    for n in range(1, 5):
        if total[n - 1] == 0:
            break
        if effective_order:
            eff = n
        if correct[n - 1] == 0:
            smooth *= 2.0
            precisions[n - 1] = 100.0 / (smooth * total[n - 1])
        else:
            precisions[n - 1] = 100.0 * correct[n - 1] / total[n - 1]
    if sys_len == 0:
        return 0.0
    bp = 1.0 if sys_len >= ref_len else math.exp(1.0 - ref_len / sys_len)
    used = precisions[:eff]
    if all(p == used[0] for p in used):
        return bp * used[0]
    log_sum = 0.0  # left to right, as the builtin sum added floats before 3.12
    for p in used:
        log_sum += math.log(p) if p > 0.0 else -9999999999.0
    return bp * math.exp(log_sum / eff)


def _copy_chrf_counters(segment):
    chars = "".join(segment.split())
    tokens = []
    for word in segment.split():
        if len(word) == 1:
            tokens.append(word)
        elif word[-1] in string.punctuation:
            tokens.extend((word[:-1], word[-1]))
        elif word[0] in string.punctuation:
            tokens.extend((word[0], word[1:]))
        else:
            tokens.append(word)
    counters = [Counter(chars[i:i + n] for i in range(len(chars) - n + 1)) for n in range(1, 7)]
    return counters + [_copy_ngrams(tokens, n) for n in (1, 2)]


def _copy_chrf_score(row):
    score, effective = 0.0, 0
    for i in range(8):
        n_hyp, n_ref, n_match = row[3 * i], row[3 * i + 1], row[3 * i + 2]
        if n_hyp > 0 and n_ref > 0:
            effective += 1
            prec, rec = n_match / n_hyp, n_match / n_ref
            denom = 4.0 * prec + rec
            if denom > 0.0:
                score += 5.0 * prec * rec / denom
    return 0.0 if effective == 0 else 100.0 * score / effective


def _copy_chrf_row(hyp, refs):
    hyp_c = _copy_chrf_counters(hyp)
    best_row, best_f = None, -1.0
    for ref in refs:
        ref_c = _copy_chrf_counters(ref)
        row = np.array([v for h, r in zip(hyp_c, ref_c)
                        for v in (sum(h.values()), sum(r.values()), sum((h & r).values()))],
                       dtype=np.int64)
        f = _copy_chrf_score(row)
        if f > best_f:
            best_f, best_row = f, row
    return best_row.tolist()


_words = st.sampled_from(["a", "bb", "ccc", "a,", "bb.", "(d", "e-f", "1.5", "7-8", "x y"])
_sentences = st.lists(_words, max_size=7).map(" ".join)


@st.composite
def _corpora(draw):
    """Rows over a few reference sets and a few hypotheses, so that both
    repeat; a repeated set is sometimes the same list and sometimes a copy."""
    ref_sets = draw(st.lists(st.lists(_sentences.filter(str.strip), min_size=1, max_size=3),
                             min_size=1, max_size=4))
    hyp_pool = draw(st.lists(_sentences, min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(st.integers(0, len(ref_sets) - 1),
                                   st.integers(0, len(hyp_pool) - 1)),
                         min_size=1, max_size=12))
    if draw(st.booleans()):
        rows.sort(key=lambda row: row[0])
    copies = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    refs = [list(ref_sets[r]) if copy else ref_sets[r] for (r, _), copy in zip(rows, copies)]
    return [hyp_pool[h] for _, h in rows], refs


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(_corpora())
# BLEU: both references are 1 token from the hypothesis; the shorter one wins
@example((["a bb ccc x", "a bb ccc x"], [["a bb ccc x y", "a bb ccc"], ["a bb", "a bb ccc"]]))
# chrF++: both references score F = 0; the first one's statistics are kept
@example((["a bb", "a bb"], [["ccc (d", "e-f 7-8 ccc"], ["e-f 7-8 ccc", "ccc (d"]]))
def test_segment_stats_equal_the_per_row_algorithm(corpus):
    hyps, refs = corpus
    bleu_rows = [_copy_bleu_row(h, r) for h, r in zip(hyps, refs)]
    chrf_rows = [_copy_chrf_row(h, r) for h, r in zip(hyps, refs)]
    assert BleuMetric().segment_stats(hyps, refs).tolist() == bleu_rows
    assert ChrfPPMetric().segment_stats(hyps, refs).tolist() == chrf_rows


def test_closest_length_and_first_best_ties_are_exercised():
    # guards the two @example cases above: each tie really happens there
    assert _copy_bleu_row("a bb ccc x", ["a bb ccc x y", "a bb ccc"])[9] == 3
    first, second = (_copy_chrf_row("a bb", [r]) for r in ("ccc (d", "e-f 7-8 ccc"))
    assert _copy_chrf_score(first) == _copy_chrf_score(second) == 0.0 and first != second
    assert _copy_chrf_row("a bb", ["ccc (d", "e-f 7-8 ccc"]) == first


# words of macrons, Greek, astral-plane letters, combining marks, digits and a
# NUL, with punctuation at their edges, between the separators str.split splits on
_unicode_words = st.builds(
    lambda lead, core, tail: lead + core + tail,
    st.sampled_from(["", "(", '"', "¿", "-", ".", "'"]),
    st.text(st.sampled_from("aāēōλόγΩ𝔘𝔞😀e\u0301\u0308x1-.,'\0"), min_size=1, max_size=6),
    st.sampled_from(["", ".", ",", "!", ";", ")", "-", "'s", ".."]),
)
_separators = st.sampled_from([" ", "\t", "\xa0", "\x1c", "\u2003", "\u3000", "\n", "-\n"])


@st.composite
def _unicode_sentences(draw):
    words = draw(st.lists(_unicode_words, max_size=6))
    seps = draw(st.lists(_separators, min_size=len(words) + 1, max_size=len(words) + 1))
    return seps[0] + "".join(w + sep for w, sep in zip(words, seps[1:]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_unicode_sentences(),
                          st.lists(_unicode_sentences().filter(bool), min_size=1, max_size=3)),
                min_size=1, max_size=8))
def test_segment_stats_equal_the_per_row_algorithm_on_unicode(rows):
    hyps, refs = [h for h, _ in rows], [r for _, r in rows]
    assert BleuMetric().segment_stats(hyps, refs).tolist() == [
        _copy_bleu_row(h, r) for h, r in rows]
    assert ChrfPPMetric().segment_stats(hyps, refs).tolist() == [
        _copy_chrf_row(h, r) for h, r in rows]


def test_segment_stats_across_blocks():
    # texts and reference lists recur on both sides of every block boundary
    rng = random.Random(7)
    pool = ["a bb", "ccc (d", "e-f 7-8 ccc", "1.5 a,", "x", "bb. a ā"]
    ref_sets = [[rng.choice(pool) for _ in range(rng.randint(1, 3))] for _ in range(30)]
    rows = [(rng.choice(pool), rng.choice(ref_sets)) for _ in range(2 * BLOCK_ROWS + 3)]
    hyps, refs = [h for h, _ in rows], [r for _, r in rows]
    distinct = {(h, tuple(r)) for h, r in rows}
    bleu_rows = {row: _copy_bleu_row(*row) for row in distinct}
    chrf_rows = {row: _copy_chrf_row(*row) for row in distinct}
    assert BleuMetric().segment_stats(hyps, refs).tolist() == [
        bleu_rows[h, tuple(r)] for h, r in rows]
    assert ChrfPPMetric().segment_stats(hyps, refs).tolist() == [
        chrf_rows[h, tuple(r)] for h, r in rows]


# the regex of 13a rule 1 that a str.translate table replaced
_13A_RULE_1 = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("".join(map(chr, range(0x300))))
def test_13a_rule_1_table_equals_its_regex(text):
    assert text.translate(bleu_module._13A_PAD) == _13A_RULE_1.sub(r" \1 ", text)


def test_segment_stats_memory_is_bounded_by_the_block():
    # every block holds one block's rows under a different letter rotation:
    # distinct texts of the same lengths and n-gram structure
    rng = random.Random(3)
    letters = string.ascii_lowercase
    vocab = ["".join(rng.choices(letters, k=rng.randint(2, 8))) for _ in range(2000)]
    refs = [" ".join(rng.choices(vocab, k=rng.randint(8, 20))) for _ in range(BLOCK_ROWS)]
    hyps = [" ".join(w if rng.random() < 0.6 else rng.choice(vocab) for w in r.split())
            for r in refs]
    rotations = [str.maketrans(letters, letters[k:] + letters[:k]) for k in range(4)]
    all_hyps = [h.translate(rot) for rot in rotations for h in hyps]
    all_refs = [[r.translate(rot)] for rot in rotations for r in refs]
    for metric in (BleuMetric(), ChrfPPMetric()):
        peaks = []
        for rows in (2 * BLOCK_ROWS, 4 * BLOCK_ROWS):
            tracemalloc.start()
            try:
                metric.segment_stats(all_hyps[:rows], all_refs[:rows])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], (metric.name, peaks)


@st.composite
def _bleu_stats(draw):
    total = draw(st.lists(st.integers(0, 10**6), min_size=4, max_size=4))
    correct = [draw(st.integers(0, t)) for t in total]
    return correct + total + draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=2))


@st.composite
def _chrf_stats(draw):
    row = []
    for _ in range(8):
        n_hyp, n_ref = draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6))
        row += (n_hyp, n_ref, draw(st.integers(0, min(n_hyp, n_ref))))
    return row


_BLEU_EDGES = [
    [1, 0, 0, 0, 3, 2, 1, 0, 0, 5],        # sys_len == 0
    [0, 0, 0, 0, 0, 4, 3, 2, 6, 6],        # zero total at order 1
    [2, 0, 0, 0, 3, 0, 1, 1, 3, 2],        # ... at order 2
    [2, 1, 0, 0, 3, 2, 0, 0, 3, 9],        # ... at order 3
    [4, 3, 2, 1, 4, 3, 2, 1, 4, 4],        # all precisions 100
    [2, 2, 2, 2, 4, 4, 4, 4, 4, 7],        # all precisions 50, with a penalty
    [0, 0, 0, 0, 5, 4, 3, 2, 5, 5],        # smoothing at every order
    # log(100 * 44 / 195) is one where a SIMD np.log can round apart from libm
    [44, 1, 7, 3, 195, 194, 193, 192, 195, 195],
]


@settings(max_examples=200, deadline=None)
@given(st.lists(_bleu_stats(), min_size=1, max_size=8), st.lists(_chrf_stats(), max_size=8))
def test_array_scorers_equal_the_scalar_formulas(bleu_rows, chrf_rows):
    bleu_stats = np.array(bleu_rows + _BLEU_EDGES, dtype=np.int64)
    metric = BleuMetric()
    assert _bits(metric.corpus_scores(bleu_stats)) == _bits(
        _copy_bleu_score(row, False) for row in bleu_stats)
    assert _bits(metric.segment_scores(bleu_stats)) == _bits(
        _copy_bleu_score(row, True) for row in bleu_stats)

    no_order = [[0, 3, 0] * 8, [2, 0, 0] * 8, [0] * 24]  # chrF++ with no populated order
    chrf_stats = np.array(chrf_rows + no_order, dtype=np.int64)
    assert _bits(ChrfPPMetric().corpus_scores(chrf_stats)) == _bits(
        _copy_chrf_score(row) for row in chrf_stats)


def test_read_run_checks_the_digest_only_where_a_manifest_exists(tmp_path):
    pairs = load_parallel(FIXTURES / "testsets" / "ood_fixture_110.tsv", "tsv")[:5]
    hyps = [p.references[0] for p in pairs]
    run = tmp_path / "outside"
    run.mkdir()
    (run / "hypotheses.txt").write_text("".join(h + "\n" for h in hyps), encoding="utf-8")
    assert read_run(run, pairs, corpus_digest(pairs)) == hyps  # no manifest: read as is
    with pytest.raises(ComparisonError, match="holds 5 hypotheses for 4 pairs"):
        read_run(run, pairs[:4], corpus_digest(pairs[:4]))
    (run / "manifest.json").write_text(json.dumps({"corpus_digest": "other"}))
    with pytest.raises(ComparisonError, match="digest"):
        read_run(run, pairs, corpus_digest(pairs))
    (run / "manifest.json").write_text(json.dumps(
        {"corpus_digest": corpus_digest(pairs), "checksums": "abc"}))
    with pytest.raises(ComparisonError, match="checksums are not an object") as raised:
        read_run(run, pairs, corpus_digest(pairs))
    assert str(run) in str(raised.value)


@pytest.mark.parametrize("n_pairs", [0, 1])
def test_compare_runs_refuses_fewer_than_two_pairs(tmp_path, n_pairs):
    pairs = load_parallel(FIXTURES / "testsets" / "ood_fixture_110.tsv", "tsv")[:n_pairs]
    for name in ("base", "sys"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "hypotheses.txt").write_text(
            "".join(p.references[0] + "\n" for p in pairs), encoding="utf-8")
    with pytest.raises(ComparisonError, match="at least 2 segments"):
        compare_runs([tmp_path / "sys"], pairs, tmp_path / "base")


def test_score_runs_of_one_run_is_evaluate_hypotheses(tmp_path):
    pairs = load_parallel(FIXTURES / "testsets" / "ood_fixture_110.tsv", "tsv")[:12]
    hyps = [" ".join(p.references[0].split()[1:]) for p in pairs]
    hyps[4] = FAILED_SENTINEL
    (tmp_path / "sys").mkdir()
    (tmp_path / "sys" / "hypotheses.txt").write_text(
        "".join(h + "\n" for h in hyps), encoding="utf-8")
    runs = {"sys": read_run(tmp_path / "sys", pairs, corpus_digest(pairs))}
    ((report, stats),) = score_runs(runs, pairs, None, set())
    assert runs["sys"] == hyps
    direct = _lexical_stats(hyps, [list(p.references) for p in pairs])
    assert sorted(stats) == ["bleu", "chrf++"]
    for name, matrix in direct.items():
        assert np.array_equal(stats[name], matrix)
    assert report == evaluate_hypotheses("sys", hyps, direct)
