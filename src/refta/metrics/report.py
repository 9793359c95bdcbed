"""Score aggregation over runs and multi-run comparison tables."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from refta.corpus import ParallelPair
from refta.errors import CapabilityError, ComparisonError
from refta.metrics.bleu import BleuMetric
from refta.metrics.bootstrap import COMPARE_SEED, paired_bootstrap
from refta.metrics.chrf import ChrfPPMetric
from refta.pipeline import FAILED_SENTINEL, corpus_digest, read_hypotheses, read_manifest

LEXICAL_METRICS = (BleuMetric(), ChrfPPMetric())
SIGNIFICANCE_ALPHA = 0.05
SCORER_TIMEOUT_S = 120.0  # the neural scorer's timeout in ``evaluate`` and ``compare``


def format_score(name: str, value: float) -> str:
    """A corpus score as ``evaluate`` and ``compare`` print it: BLEU and
    chrF++ to 2 places, every other metric to 4."""
    return f"{value:.2f}" if name in ("bleu", "chrf++") else f"{value:.4f}"


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
        segment_scores[metric.name] = metric.segment_scores(m_stats).tolist()
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


def read_run(run_dir, pairs: list[ParallelPair], digest: str) -> list[str]:
    """A run's hypotheses, one per pair.

    A run whose directory holds ``manifest.json`` must name ``digest`` as its
    corpus digest; a directory holding only ``hypotheses.txt``, such as an
    outside system's outputs, is read as is.
    """
    run_dir = Path(run_dir)
    if (run_dir / "manifest.json").exists():
        found = read_manifest(run_dir).get("corpus_digest")
        if found != digest:
            raise ComparisonError(
                f"run {run_dir} was produced on a different test set "
                f"(corpus digest {found} != {digest})"
            )
    hyps = read_hypotheses(run_dir)
    if len(hyps) != len(pairs):
        raise ComparisonError(f"run {run_dir} holds {len(hyps)} hypotheses for {len(pairs)} pairs")
    return hyps


def score_runs(run_dirs, pairs: list[ParallelPair], scorer, neural_metrics) -> list[tuple]:
    """Read every run with ``read_run`` and score it on the shared test set.

    Returns one ``(report, hypotheses, stats)`` triple per run, in order;
    ``stats`` maps each lexical metric's name to the run's segment statistics.
    One ``segment_stats`` call per metric covers every run, segment-major, so
    each segment's references are counted once and a hypothesis that several
    runs share is scored once. ``scorer`` serves ``neural_metrics``; it may be
    None when that is empty.
    """
    digest = corpus_digest(pairs)
    runs = [read_run(run_dir, pairs, digest) for run_dir in run_dirs]
    references = [list(p.references) for p in pairs]
    sources = [p.source.text for p in pairs]
    first_refs = [p.references[0] for p in pairs]
    stacked = _lexical_stats([hyps[i] for i in range(len(pairs)) for hyps in runs],
                             [refs for refs in references for _ in runs])
    scored = []
    for j, (run_dir, hyps) in enumerate(zip(run_dirs, runs)):
        stats = {name: np.ascontiguousarray(s.reshape(len(pairs), len(runs), s.shape[1])[:, j])
                 for name, s in stacked.items()}
        report = evaluate_hypotheses(Path(run_dir).name, hyps, references, stats=stats)
        if neural_metrics:
            report = attach_neural_scores(
                report, scorer, neural_metrics, sources, hyps, first_refs
            )
        scored.append((report, hyps, stats))
    return scored


def compare_runs(
    run_dirs,
    pairs: list[ParallelPair],
    baseline_dir,
    seed: int = COMPARE_SEED,
    scorer=None,
    neural_metrics=(),
) -> RunComparison:
    """Score every run with ``score_runs`` and test deltas vs the baseline.

    Refuses two runs with the same directory name. Pairwise significance uses
    paired bootstrap resampling on the lexical metrics at a fixed seed,
    reusing each run's segment statistics.
    """
    baseline_dir = Path(baseline_dir)
    all_dirs = [Path(d) for d in run_dirs]
    if baseline_dir not in all_dirs:
        all_dirs.insert(0, baseline_dir)
    names = [d.name for d in all_dirs]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        # rows, significance and the baseline are keyed by directory name
        raise ComparisonError(f"runs share a directory name: {', '.join(duplicates)}")

    scored = score_runs(all_dirs, pairs, scorer, neural_metrics)
    comparison = RunComparison(
        baseline=baseline_dir.name, test_set_digest=corpus_digest(pairs), seed=seed,
        rows=[{"run": run_dir.name, "is_baseline": run_dir == baseline_dir,
               "scores": report.corpus_scores, "warnings": list(report.warnings)}
              for run_dir, (report, _, _) in zip(all_dirs, scored)],
    )
    references = [list(p.references) for p in pairs]
    _, base_hyps, base_stats = scored[all_dirs.index(baseline_dir)]
    for run_dir, (_, hyps, stats) in zip(all_dirs, scored):
        if run_dir == baseline_dir:
            continue
        for metric in LEXICAL_METRICS:
            comparison.significance.append(paired_bootstrap(
                metric, hyps, base_hyps, references, seed=seed,
                system_a=run_dir.name, system_b=baseline_dir.name,
                stats=(stats[metric.name], base_stats[metric.name]),
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
            cells.append(format_score(name, score) + mark)
        lines.append(cells)

    widths = [max(len(r[i]) for r in [header] + lines) for i in range(len(header))]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [fmt(header), fmt(["-" * w for w in widths])]
    out.extend(fmt(cells) for cells in lines)
    out.append("")
    out.append(f"* p < {SIGNIFICANCE_ALPHA} (one-sided paired bootstrap vs "
               f"{comparison.baseline}, seed {comparison.seed})")
    return "\n".join(out)
