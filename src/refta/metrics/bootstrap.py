"""Paired bootstrap resampling for system comparisons.

Segment indices are resampled with replacement ``N_RESAMPLES`` times and the
corpus metric is recomputed for both systems per resample. One
``kernels.resample_sums`` call over both systems' statistics side by side
gives an ``(N_RESAMPLES, d)`` matrix of sums per system, and the metric's
array scorer, ``corpus_scores``, scores all of its rows in one call. It is
the same scorer that gives the full-corpus and per-segment scores, so the
metric's formula exists once. The p-value is one-sided: the fraction of
resampled deltas whose sign differs from the full-corpus delta (Koehn,
"Statistical Significance Tests for Machine Translation Evaluation", EMNLP
2004). A zero resampled delta counts against the observed sign, and an
all-zero full delta yields p = 1.0. It is about half of a centred two-sided
bootstrap p. The confidence interval is the 2.5/97.5 percentile band of
resampled deltas. Results are a pure function of (inputs, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from refta import kernels

N_RESAMPLES = 1000
COMPARE_SEED = 42  # the seed of ``paired_bootstrap``, ``compare_runs`` and ``refta compare``


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


def paired_bootstrap(
    metric,
    stats_a,
    stats_b,
    seed: int = COMPARE_SEED,
    system_a: str = "A",
    system_b: str = "B",
) -> SignificanceResult:
    """Compare two systems on the same references.

    ``metric`` has a ``name`` and ``corpus_scores``; ``stats_a`` and
    ``stats_b`` are its segment statistics for the two systems, row for row
    on the same segments. Integer statistics give exact sums; float ones, a
    neural metric's, give sums whose last bits depend on BLAS summation order.
    """
    n = len(stats_a)
    if len(stats_b) != n:
        raise ValueError(f"aligned inputs required: {n}, {len(stats_b)}")
    if n < 2:
        raise ValueError("need at least 2 segments")

    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.integers(0, n, size=(N_RESAMPLES, n), dtype=np.int64)

    sums_a, sums_b = np.hsplit(kernels.resample_sums(np.hstack([stats_a, stats_b]), idx), 2)
    deltas = metric.corpus_scores(sums_a) - metric.corpus_scores(sums_b)
    full_a, full_b = metric.corpus_scores(np.stack([stats_a.sum(axis=0), stats_b.sum(axis=0)]))
    full_delta = full_a - full_b
    if full_delta == 0.0:
        p_value = 1.0
    else:
        flips = int(np.count_nonzero(np.sign(deltas) != np.sign(full_delta)))
        p_value = flips / N_RESAMPLES
    ci_low, ci_high = np.percentile(deltas, [2.5, 97.5])

    return SignificanceResult(
        metric=metric.name,
        system_a=system_a,
        system_b=system_b,
        delta=float(full_delta),
        p_value=float(p_value),
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        n_resamples=N_RESAMPLES,
        rng_seed=seed,
    )
