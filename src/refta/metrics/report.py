"""Score aggregation over runs and multi-run comparison tables."""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from refta.backends import map_batches
from refta.corpus import ParallelPair
from refta.errors import CapabilityError, ComparisonError
from refta.metrics.bleu import BleuMetric
from refta.metrics.bootstrap import COMPARE_SEED, paired_bootstrap
from refta.metrics.chrf import ChrfPPMetric
from refta.pipeline import FAILED_SENTINEL, corpus_digest, read_hypotheses, read_manifest

LEXICAL_METRICS = (BleuMetric(), ChrfPPMetric())
SIGNIFICANCE_ALPHA = 0.05
SCORER_TIMEOUT_S = 120.0  # the neural scorer's timeout in ``evaluate`` and ``compare``


@dataclass(frozen=True)
class MeanMetric:
    """A neural metric: ``(score, 1)`` segment statistics, scored by their mean."""

    name: str

    def corpus_scores(self, sums) -> np.ndarray:
        return sums[:, 0] / sums[:, 1]

    def segment_scores(self, stats) -> np.ndarray:
        return stats[:, 0]


def metric_named(name: str):
    """The lexical metric called ``name``, or else a ``MeanMetric``."""
    return next((m for m in LEXICAL_METRICS if m.name == name), MeanMetric(name))


def format_score(name: str, value: float) -> str:
    """A corpus score as ``evaluate`` and ``compare`` print it: the lexical
    metrics to 2 places, every other metric to 4."""
    return f"{value:.2f}" if name in {m.name for m in LEXICAL_METRICS} else f"{value:.4f}"


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


def evaluate_hypotheses(system_id: str, hypotheses, stats) -> MetricReport:
    """Every metric for one system; corpus scores are pooled, not averaged.

    ``stats`` maps each metric's name to the system's segment statistics, as
    ``score_runs`` gives them; the hypotheses are read only to count
    ``<FAILED>`` lines. Those are scored as literal text; the report counts
    them and warns when there are any.
    """
    metrics = [metric_named(name) for name in stats]
    corpus_scores = {m.name: float(m.corpus_scores(stats[m.name].sum(axis=0, keepdims=True))[0])
                     for m in metrics}
    segment_scores = {m.name: m.segment_scores(stats[m.name]).tolist() for m in metrics}
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
    corpus digest and, when the manifest records ``checksums``, hold the
    ``hypotheses.txt`` it wrote; a directory holding only ``hypotheses.txt``,
    such as an outside system's outputs, is read as is.
    """
    run_dir, written, sha = Path(run_dir), None, hashlib.sha256()
    if (run_dir / "manifest.json").exists():
        manifest = read_manifest(run_dir)
        found = manifest.get("corpus_digest")
        if found != digest:
            raise ComparisonError(
                f"run {run_dir} was produced on a different test set "
                f"(corpus digest {found} != {digest})"
            )
        checksums = manifest.get("checksums", {})
        if not isinstance(checksums, dict):
            raise ComparisonError(f"run {run_dir}: the manifest's checksums are not an object")
        written = checksums.get("hypotheses.txt")
    hyps = read_hypotheses(run_dir, sha)  # the bytes checked are the bytes scored
    if written and written != sha.hexdigest():
        raise ComparisonError(f"run {run_dir}: hypotheses.txt does not match its checksum")
    if len(hyps) != len(pairs):
        raise ComparisonError(f"run {run_dir} holds {len(hyps)} hypotheses for {len(pairs)} pairs")
    return hyps


def score_runs(runs: dict, pairs: list[ParallelPair], scorer, neural_metrics) -> list[tuple]:
    """Score every run on the shared test set.

    ``runs`` maps each run's name to its hypotheses, as ``read_run`` gives
    them. Returns one ``(report, stats)`` pair per run, in order; ``stats``
    maps each metric's name to the run's segment statistics, lexical first.
    This is the one place hypotheses become numbers: one ``segment_stats``
    call per lexical metric covers every run, segment-major, so each
    segment's references are counted once and a hypothesis that several runs
    share is scored once. Each of ``neural_metrics`` scores the distinct
    (source, hypothesis, first reference) triples of all runs once, through
    ``backends.map_batches``, so a rejected batch is resent triple by triple,
    at the scorer's parallelism, as the pipeline's are; the scores become
    ``(score, 1)`` rows. A metric the scorer refuses (``CapabilityError``) is
    a warning on every report, any other failure is raised. No reply is
    stored: ``/score`` names no checkpoint.
    """
    stacked_hyps = [hyps[i] for i in range(len(pairs)) for hyps in runs.values()]
    stacked_pairs = [p for p in pairs for _ in runs]
    stacked = {m.name: m.segment_stats(stacked_hyps, [p.references for p in stacked_pairs])
               for m in LEXICAL_METRICS}
    triples = [(p.source.text, hyp, p.references[0])
               for p, hyp in zip(stacked_pairs, stacked_hyps)]
    unserved = []
    for metric in sorted(neural_metrics):
        served, failed = map_batches(lambda batch: scorer.score(metric, batch), triples,
                                     scorer.cfg.max_batch, True, scorer.cfg.request_parallelism)
        exc = next(iter(failed.values()), None)
        if exc is None:
            scores = [served[t][0] for t in triples]
            stacked[metric] = np.column_stack([scores, np.ones(len(scores))])
        elif isinstance(exc, CapabilityError):
            unserved.append(f"scorer does not serve '{metric}': {exc.status}")
        else:
            raise exc
    scored = []
    for j, (run_name, hyps) in enumerate(runs.items()):
        stats = {name: np.ascontiguousarray(s.reshape(len(pairs), len(runs), s.shape[1])[:, j])
                 for name, s in stacked.items()}
        report = evaluate_hypotheses(run_name, hyps, stats)
        scored.append((replace(report, warnings=report.warnings + tuple(unserved)), stats))
    return scored


def compare_runs(
    run_dirs,
    pairs: list[ParallelPair],
    baseline_dir,
    seed: int = COMPARE_SEED,
    scorer=None,
    neural_metrics=(),
) -> RunComparison:
    """Read every run with ``read_run``, score them with ``score_runs`` and
    test deltas vs the baseline.

    Refuses two runs with the same directory name, and fewer than 2 pairs
    once the runs are read. Significance is one paired bootstrap over every
    run's and metric's segment statistics at a fixed seed; its rows go run by
    run, each run's lexical metrics first.
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

    digest = corpus_digest(pairs)
    runs = {run_dir.name: read_run(run_dir, pairs, digest) for run_dir in all_dirs}
    if len(pairs) < 2:
        raise ComparisonError(f"a comparison needs at least 2 segments, got {len(pairs)}")
    scored = score_runs(runs, pairs, scorer, neural_metrics)
    comparison = RunComparison(
        baseline=baseline_dir.name, test_set_digest=digest, seed=seed,
        rows=[{"run": run_dir.name, "is_baseline": run_dir == baseline_dir,
               "scores": report.corpus_scores, "warnings": list(report.warnings)}
              for run_dir, (report, _) in zip(all_dirs, scored)],
    )
    _, base_stats = scored[all_dirs.index(baseline_dir)]
    others = {run_dir.name: stats for run_dir, (_, stats) in zip(all_dirs, scored)
              if run_dir != baseline_dir}
    comparison.significance = paired_bootstrap([metric_named(name) for name in base_stats],
                                               others, base_stats, seed=seed,
                                               baseline=baseline_dir.name)
    return comparison


def format_comparison_table(comparison: RunComparison) -> str:
    """Aligned plain-text table; '*' marks a delta vs the baseline whose
    two-sided p, twice the one-sided ``p_value``, is below alpha: ties aside,
    one whose 95% interval leaves out 0."""
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
            if sig is not None and 2 * sig.p_value < SIGNIFICANCE_ALPHA:
                mark = "*"
            cells.append(format_score(name, score) + mark)
        lines.append(cells)

    widths = [max(len(r[i]) for r in [header] + lines) for i in range(len(header))]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [fmt(header), fmt(["-" * w for w in widths])]
    out.extend(fmt(cells) for cells in lines)
    out.append("")
    out.append(f"* two-sided p < {SIGNIFICANCE_ALPHA} (twice the one-sided p in "
               f"comparison.json; paired bootstrap vs {comparison.baseline}, "
               f"seed {comparison.seed})")
    return "\n".join(out)
