"""Score aggregation over runs and multi-run comparison tables."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from refta.corpus import ParallelPair
from refta.errors import CapabilityError, ComparisonError
from refta.metrics.bleu import BleuMetric
from refta.metrics.bootstrap import paired_bootstrap
from refta.metrics.chrf import ChrfPPMetric
from refta.pipeline import FAILED_SENTINEL, corpus_digest, read_hypotheses, read_manifest

LEXICAL_METRICS = (BleuMetric(), ChrfPPMetric())
SIGNIFICANCE_ALPHA = 0.05


@dataclass(frozen=True)
class MetricReport:
    system_id: str
    corpus_scores: dict
    segment_scores: dict
    n_segments: int
    warnings: tuple = ()
    n_failed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _lexical_stats(hypotheses, references) -> dict:
    return {m.name: m.segment_stats(hypotheses, references) for m in LEXICAL_METRICS}


def evaluate_hypotheses(system_id: str, hypotheses, references, stats=None) -> MetricReport:
    """BLEU and chrF++ for one system; corpus scores are pooled, not averaged.

    ``<FAILED>`` lines are scored as literal text; the report counts them and
    warns when there are any. ``stats`` is the segment-statistics matrix per
    metric name, when the caller has already computed it.
    """
    stats = stats or _lexical_stats(hypotheses, references)
    corpus_scores: dict = {}
    segment_scores: dict = {}
    for metric in LEXICAL_METRICS:
        m_stats = stats[metric.name]
        corpus_scores[metric.name] = metric.corpus_from_sums(m_stats.sum(axis=0))
        segment_scores[metric.name] = [
            metric.segment_score(m_stats[i]) for i in range(m_stats.shape[0])
        ]
    n_failed = sum(1 for h in hypotheses if h == FAILED_SENTINEL)
    return MetricReport(
        system_id=system_id,
        corpus_scores=corpus_scores,
        segment_scores=segment_scores,
        n_segments=len(hypotheses),
        warnings=(
            (f"{n_failed} of {len(hypotheses)} hypotheses are {FAILED_SENTINEL}",)
            if n_failed else ()
        ),
        n_failed=n_failed,
    )


def attach_neural_scores(
    report: MetricReport,
    scorer,
    metrics,
    sources,
    hypotheses,
    references,
) -> MetricReport:
    """Fetch per-segment neural scores; the corpus score is their mean.

    ``references`` is one string per segment (the first reference of a
    multi-reference set). A metric the scorer does not serve leaves the
    report unchanged for that metric and appends a warning.
    """
    corpus_scores = dict(report.corpus_scores)
    segment_scores = dict(report.segment_scores)
    warnings = list(report.warnings)
    for metric in sorted(metrics):
        try:
            scores = scorer.score(metric, sources, hypotheses, references)
        except CapabilityError as exc:
            warnings.append(f"scorer does not serve '{metric}': {exc.status}")
            continue
        corpus_scores[metric] = sum(scores) / len(scores) if scores else 0.0
        segment_scores[metric] = scores
    return replace(
        report,
        corpus_scores=corpus_scores,
        segment_scores=segment_scores,
        warnings=tuple(warnings),
    )


@dataclass
class RunComparison:
    baseline: str
    test_set_digest: str
    seed: int
    rows: list = field(default_factory=list)
    significance: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _check_digest(run_dir: Path, expected: str) -> dict:
    manifest = read_manifest(run_dir)
    digest = manifest.get("corpus_digest")
    if digest != expected:
        raise ComparisonError(
            f"run {run_dir} was produced on a different test set "
            f"(corpus digest {digest} != {expected})"
        )
    return manifest


def compare_runs(
    run_dirs,
    pairs: list[ParallelPair],
    baseline_dir,
    seed: int = 42,
    scorer=None,
    neural_metrics=(),
) -> RunComparison:
    """Score every run on the shared test set and test deltas vs the baseline.

    Refuses to compare runs whose manifest corpus digest does not match the
    given test set. Pairwise significance uses paired bootstrap resampling on
    the lexical metrics at a fixed seed, reusing each run's segment statistics.
    """
    expected = corpus_digest(pairs)
    references = [list(p.references) for p in pairs]
    sources = [p.source.text for p in pairs]
    first_refs = [p.references[0] for p in pairs]

    baseline_dir = Path(baseline_dir)
    all_dirs = [Path(d) for d in run_dirs]
    if baseline_dir not in all_dirs:
        all_dirs.insert(0, baseline_dir)

    comparison = RunComparison(
        baseline=baseline_dir.name, test_set_digest=expected, seed=seed
    )
    hyps_by_run: dict[str, list[str]] = {}
    stats_by_run: dict[str, dict] = {}
    for run_dir in all_dirs:
        _check_digest(run_dir, expected)
        hyps = read_hypotheses(run_dir)
        if len(hyps) != len(pairs):
            raise ComparisonError(
                f"run {run_dir} holds {len(hyps)} hypotheses for {len(pairs)} pairs"
            )
        stats = stats_by_run[run_dir.name] = _lexical_stats(hyps, references)
        report = evaluate_hypotheses(run_dir.name, hyps, references, stats=stats)
        if scorer is not None and neural_metrics:
            report = attach_neural_scores(
                report, scorer, neural_metrics, sources, hyps, first_refs
            )
        hyps_by_run[run_dir.name] = hyps
        comparison.rows.append({
            "run": run_dir.name,
            "is_baseline": run_dir == baseline_dir,
            "scores": report.corpus_scores,
            "warnings": list(report.warnings),
        })

    base_hyps, base_stats = hyps_by_run[baseline_dir.name], stats_by_run[baseline_dir.name]
    for run_dir in all_dirs:
        if run_dir == baseline_dir:
            continue
        for metric in LEXICAL_METRICS:
            comparison.significance.append(paired_bootstrap(
                metric,
                hyps_by_run[run_dir.name],
                base_hyps,
                references,
                seed=seed,
                system_a=run_dir.name,
                system_b=baseline_dir.name,
                stats=(stats_by_run[run_dir.name][metric.name], base_stats[metric.name]),
            ))
    return comparison


def format_comparison_table(comparison: RunComparison) -> str:
    """Aligned plain-text table; '*' marks p < alpha vs the baseline."""
    metric_names: list[str] = []
    for row in comparison.rows:
        for name in row["scores"]:
            if name not in metric_names:
                metric_names.append(name)
    sig_by_run = {}
    for sig in comparison.significance:
        sig_by_run.setdefault(sig.system_a, {})[sig.metric] = sig

    header = ["run"] + metric_names
    lines = []
    for row in comparison.rows:
        cells = [row["run"] + (" (baseline)" if row["is_baseline"] else "")]
        for name in metric_names:
            score = row["scores"].get(name)
            if score is None:
                cells.append("-")
                continue
            mark = ""
            sig = sig_by_run.get(row["run"], {}).get(name)
            if sig is not None and sig.p_value < SIGNIFICANCE_ALPHA:
                mark = "*"
            cells.append(f"{score:.2f}{mark}" if name in ("bleu", "chrf++")
                         else f"{score:.4f}{mark}")
        lines.append(cells)

    widths = [max(len(r[i]) for r in [header] + lines) for i in range(len(header))]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [fmt(header), fmt(["-" * w for w in widths])]
    out.extend(fmt(cells) for cells in lines)
    out.append("")
    out.append(f"* p < {SIGNIFICANCE_ALPHA} (paired bootstrap vs {comparison.baseline}, "
               f"seed {comparison.seed})")
    return "\n".join(out)


def write_comparison(comparison: RunComparison, path) -> None:
    Path(path).write_text(
        json.dumps(comparison.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
