"""Paired bootstrap resampling for system comparisons.

Segment indices are resampled with replacement ``n_resamples`` times and the
corpus metric is recomputed for both systems per resample. Two-sided
convention used here: the p-value is the fraction of resampled deltas whose
sign differs from the full-corpus delta (a zero resampled delta counts
against the observed sign; an all-zero full delta yields p = 1.0). The
confidence interval is the 2.5/97.5 percentile band of resampled deltas.
Results are a pure function of (inputs, seed).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from refta import kernels

MIN_RESAMPLES = 100


@dataclass(frozen=True)
class SignificanceResult:
    metric: str
    system_a: str
    system_b: str
    delta: float
    p_value: float
    ci_low: float
    ci_high: float
    n_resamples: int
    rng_seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def _metric_name(metric) -> str:
    return getattr(metric, "name", None) or getattr(metric, "__name__", "metric")


def paired_bootstrap(
    metric,
    hyps_a,
    hyps_b,
    references,
    n_resamples: int = 1000,
    seed: int = 42,
    system_a: str = "A",
    system_b: str = "B",
    stats: tuple | None = None,
) -> SignificanceResult:
    """Compare two systems on the same references.

    ``metric`` is either one of the package's metric objects (exposing
    ``segment_stats``/``corpus_from_sums``, the fast path) or a plain
    ``callable(hypotheses, references) -> float`` recomputed per resample.
    On the fast path, ``stats`` may hand in both ``segment_stats`` matrices.
    """
    n = len(references)
    if not (len(hyps_a) == len(hyps_b) == n):
        raise ValueError(
            f"aligned inputs required: {len(hyps_a)}, {len(hyps_b)}, {n}"
        )
    if n < 2:
        raise ValueError("need at least 2 segments")
    if n_resamples < MIN_RESAMPLES:
        raise ValueError(
            f"n_resamples {n_resamples} is below the minimum {MIN_RESAMPLES}"
        )

    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.integers(0, n, size=(n_resamples, n), dtype=np.int64)

    if hasattr(metric, "segment_stats") and hasattr(metric, "corpus_from_sums"):
        stats_a, stats_b = stats or (metric.segment_stats(hyps_a, references),
                                     metric.segment_stats(hyps_b, references))
        full_a = metric.corpus_from_sums(stats_a.sum(axis=0))
        full_b = metric.corpus_from_sums(stats_b.sum(axis=0))
        sums_a = kernels.resample_sums(stats_a, idx)
        sums_b = kernels.resample_sums(stats_b, idx)
        deltas = np.array([
            metric.corpus_from_sums(sums_a[r]) - metric.corpus_from_sums(sums_b[r])
            for r in range(n_resamples)
        ])
    else:
        full_a = float(metric(hyps_a, references))
        full_b = float(metric(hyps_b, references))
        deltas = np.empty(n_resamples)
        for r in range(n_resamples):
            rows = idx[r]
            res_refs = [references[i] for i in rows]
            deltas[r] = float(metric([hyps_a[i] for i in rows], res_refs)) - float(
                metric([hyps_b[i] for i in rows], res_refs)
            )

    full_delta = full_a - full_b
    if full_delta == 0.0:
        p_value = 1.0
    else:
        flips = int(np.count_nonzero(np.sign(deltas) != np.sign(full_delta)))
        p_value = flips / n_resamples
    ci_low, ci_high = np.percentile(deltas, [2.5, 97.5])

    return SignificanceResult(
        metric=_metric_name(metric),
        system_a=system_a,
        system_b=system_b,
        delta=float(full_delta),
        p_value=float(p_value),
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        n_resamples=n_resamples,
        rng_seed=seed,
    )
