"""Paired bootstrap resampling for system comparisons.

Segment indices are resampled with replacement ``N_RESAMPLES`` times, once
per comparison, as int32 draws from one generator ``RESAMPLE_BLOCK`` at a
time; the blocks joined end to end equal one draw. Each statistics dtype's
columns are cast once to one float64 matrix by ``exact_float64``, which
refuses integer statistics whose sums could pass 2**53. Per block, one
``kernels.resample_sums`` call per matrix sums the block for every metric
and system, and each metric's array scorer, ``corpus_scores``, scores
every system's block sums in one call, into that metric's ``(systems,
N_RESAMPLES)`` scores, so no block's sums outlive it. It is the scorer of
the full-corpus and per-segment scores, so the formula exists once. The
p-value is one-sided: the fraction of resampled deltas whose sign differs
from the full-corpus delta (Koehn, "Statistical Significance Tests for
Machine Translation Evaluation", EMNLP 2004). A zero resampled delta counts
against the observed sign, and an all-zero full delta yields p = 1.0. It is
about half of a centred two-sided bootstrap p. The confidence interval is
NumPy's linear percentile of the resampled deltas at 2.5 and 97.5: the sorted
deltas interpolated at 24.975 and 974.025, taken from one ``np.partition``.
Results are a pure function of (inputs, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from refta import kernels

N_RESAMPLES = 1000
RESAMPLE_BLOCK = 64  # resamples drawn, counted and summed at a time
COMPARE_SEED = 42  # the seed of ``paired_bootstrap``, ``compare_runs`` and ``refta compare``

# the virtual indexes (24.975, 974.025) of NumPy's linear percentile at 2.5, 97.5
_CI_AT = N_RESAMPLES * np.array([0.025, 0.975]) + (1 - np.array([0.025, 0.975])) - 1
_CI_BELOW = np.floor(_CI_AT).astype(np.intp)


def exact_float64(columns, draws: int) -> np.ndarray:
    """Statistics side by side in float64; ``ValueError`` where a sum of
    ``draws`` integer rows could pass ``2**53``, beyond exact float64."""
    values = np.hstack(columns, dtype=np.float64)
    top = max(values.max(initial=0), -values.min(initial=0))
    if any(c.dtype.kind in "iu" for c in columns) and draws * top >= 2**53:
        raise ValueError("resample sums could exceed 2**53, beyond exact float64")
    return values


def _interval(deltas) -> np.ndarray:
    """NumPy's linear percentile of ``deltas`` (no NaN) at [2.5, 97.5], bit for
    bit, from its partition and ``_lerp``: NumPy 2's own imports ``numpy.ma``."""
    part = np.partition(deltas, sorted({-1, 0, *_CI_BELOW, *_CI_BELOW + 1}))  # NumPy's kth
    below, above, gamma = part[_CI_BELOW], part[_CI_BELOW + 1], _CI_AT - _CI_BELOW
    return np.where(gamma >= 0.5, above - (above - below) * (1 - gamma),
                    below + (above - below) * gamma)


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
    metrics,
    stats_by_system: dict,
    baseline_stats: dict,
    seed: int = COMPARE_SEED,
    baseline: str = "B",
) -> list[SignificanceResult]:
    """Compare each system with a baseline on the same references.

    Each of ``metrics`` has a ``name`` and ``corpus_scores``; ``stats_by_system``
    maps each system's name to its segment statistics by metric name, and
    ``baseline_stats`` are the baseline's, row for row on the same segments.
    Returns one result per system and metric, system by system. Integer
    statistics give exact sums; float ones, a neural metric's, give sums
    whose last bits depend on BLAS summation order.
    """
    every = [baseline_stats, *stats_by_system.values()]
    columns = [stats[metric.name] for metric in metrics for stats in every]
    n = len(columns[0])

    groups = []
    for dtype in dict.fromkeys(stats.dtype for stats in columns):
        at = [i for i, stats in enumerate(columns) if stats.dtype == dtype]
        splits = np.cumsum([columns[i].shape[1] for i in at])[:-1]
        groups.append((at, exact_float64([columns[i] for i in at], n), splits))
    resampled = np.empty((len(metrics), len(every), N_RESAMPLES))
    rng = np.random.Generator(np.random.PCG64(seed))
    for lo in range(0, N_RESAMPLES, RESAMPLE_BLOCK):
        idx = rng.integers(0, n, size=(min(RESAMPLE_BLOCK, N_RESAMPLES - lo), n), dtype=np.int32)
        sums = {}
        for at, values, splits in groups:
            sums.update(zip(at, np.hsplit(kernels.resample_sums(values, idx), splits)))
        for k, metric in enumerate(metrics):  # each run's rows one after another
            rows = np.vstack([sums[i] for i in range(k * len(every), (k + 1) * len(every))])
            resampled[k, :, lo:lo + len(idx)] = metric.corpus_scores(rows).reshape(len(every), -1)
    results = []
    for k, metric in enumerate(metrics):
        own = range(k * len(every), (k + 1) * len(every))
        full = metric.corpus_scores(np.stack([columns[i].sum(axis=0) for i in own]))
        for name, scores, score in zip(stats_by_system, resampled[k, 1:], full[1:]):
            deltas = scores - resampled[k, 0]
            full_delta = score - full[0]
            flips = np.count_nonzero(np.sign(deltas) != np.sign(full_delta))
            p_value = 1.0 if full_delta == 0.0 else flips / N_RESAMPLES
            ci_low, ci_high = _interval(deltas)
            results.append(SignificanceResult(
                metric=metric.name, system_a=name, system_b=baseline, delta=float(full_delta),
                p_value=float(p_value), ci_low=float(ci_low), ci_high=float(ci_high),
                n_resamples=N_RESAMPLES, rng_seed=seed))
    # system by system; the sort is stable, so each system's metrics keep their order
    return sorted(results, key=lambda sig: list(stats_by_system).index(sig.system_a))
