from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA, FIXTURES
from refta.backends import ScorerClient
from refta.corpus import load_parallel
from refta.errors import ComparisonError
from refta.metrics import (
    BleuMetric,
    ChrfPPMetric,
    MetricReport,
    attach_neural_scores,
    bleu,
    chrf_pp,
    compare_runs,
    evaluate_hypotheses,
    paired_bootstrap,
)
from refta.metrics.bleu import tokenize_13a
from refta.metrics.report import LEXICAL_METRICS
from refta.pipeline import FAILED_SENTINEL, corpus_digest


@pytest.fixture(scope="module")
def fixture():
    return json.loads((DATA / "metric_fixture.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def oracle():
    return json.loads((DATA / "metric_oracle.json").read_text(encoding="utf-8"))


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
    def _report(self, n=4):
        return MetricReport(
            system_id="sys",
            corpus_scores={"bleu": 10.0},
            segment_scores={"bleu": [10.0] * n},
            n_segments=n,
        )

    def test_constant_mean(self, endpoint):
        scorer = ScorerClient(endpoint("scorer"))
        sources = ["s"] * 4
        hyps = ["different"] * 4
        refs = ["reference"] * 4
        report = attach_neural_scores(self._report(), scorer, {"comet"},
                                      sources, hyps, refs)
        assert report.corpus_scores["comet"] == pytest.approx(0.7)
        assert report.segment_scores["comet"] == [0.7] * 4

    def test_mean_equals_hand_computed(self, endpoint):
        scorer = ScorerClient(endpoint("scorer"))
        sources = ["s"] * 3
        hyps = ["same", "same", "different"]
        refs = ["same", "same", "reference"]
        report = attach_neural_scores(self._report(3), scorer, {"comet"},
                                      sources, hyps, refs)
        assert report.corpus_scores["comet"] == pytest.approx((1.0 + 1.0 + 0.7) / 3)

    def test_capability_warning(self, endpoint):
        scorer = ScorerClient(endpoint("scorer"))
        report = attach_neural_scores(self._report(), scorer, {"meteor", "comet"},
                                      ["s"] * 4, ["h"] * 4, ["r"] * 4)
        assert "comet" in report.corpus_scores
        assert "meteor" not in report.corpus_scores
        assert any("meteor" in w for w in report.warnings)


def test_evaluate_hypotheses_pools_not_averages(fixture):
    hyps = fixture["primary"]["hypotheses"]
    refs = fixture["primary"]["references"]
    report = evaluate_hypotheses("sys", hyps, refs)
    mean_segment_bleu = sum(report.segment_scores["bleu"]) / len(hyps)
    assert report.corpus_scores["bleu"] != pytest.approx(mean_segment_bleu, abs=1e-6)
    assert report.n_segments == len(hyps)


def test_evaluate_hypotheses_counts_failed_lines(fixture):
    hyps = list(fixture["primary"]["hypotheses"])
    refs = fixture["primary"]["references"]
    assert evaluate_hypotheses("sys", hyps, refs).n_failed == 0
    hyps[1] = FAILED_SENTINEL
    report = evaluate_hypotheses("sys", hyps, refs)
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
    # one matrix per (run, metric): 3 runs x 2 metrics
    assert sorted(calls) == ["bleu"] * 3 + ["chrf++"] * 3

    monkeypatch.undo()
    references = [list(p.references) for p in pairs]
    metrics = {m.name: m for m in LEXICAL_METRICS}
    assert [(s.system_a, s.metric) for s in comparison.significance] == [
        ("mid", "bleu"), ("mid", "chrf++"), ("top", "bleu"), ("top", "chrf++")]
    for sig in comparison.significance:
        assert sig.delta > 0.0
        assert sig == paired_bootstrap(
            metrics[sig.metric], runs[sig.system_a], runs["base"], references,
            seed=9, system_a=sig.system_a, system_b="base")


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
