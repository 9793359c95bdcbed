"""chrF++: character 6-gram F-score augmented with word 1/2-grams, beta=2.

Character n-grams are taken over the segment with whitespace removed; word
tokens are whitespace-split with one leading or trailing punctuation
character separated. Per order, F_beta combines precision and recall of
matched n-grams; the score averages F over the orders that actually occur
(in hypothesis and reference together), scaled to [0, 100]. With several
references the statistics of the first best-scoring reference per segment
are pooled.

As for BLEU, a reference's counters are built once for each run of
consecutive rows that share it, and each distinct hypothesis among those
rows is counted once. ``scores`` is the one copy of the formula, over an
``(R, STATS_DIM)`` matrix.
"""

from __future__ import annotations

import string
from collections import Counter

import numpy as np

from refta.metrics.bleu import _distinct_rows, _matched

CHAR_ORDER = 6
WORD_ORDER = 2
BETA = 2.0
N_ORDERS = CHAR_ORDER + WORD_ORDER
STATS_DIM = 3 * N_ORDERS  # per order: hyp total, ref total, matched

_PUNCTS = frozenset(string.punctuation)


def _word_tokens(segment: str) -> list[str]:
    tokens: list[str] = []
    for word in segment.split():
        if len(word) == 1:
            tokens.append(word)
        elif word[-1] in _PUNCTS:
            tokens.extend((word[:-1], word[-1]))
        elif word[0] in _PUNCTS:
            tokens.extend((word[0], word[1:]))
        else:
            tokens.append(word)
    return tokens


def _all_ngrams(segment: str) -> tuple[list[Counter], list[int]]:
    """The segment's n-gram counters, characters then words, and their totals."""
    chars = "".join(segment.split())
    tokens = _word_tokens(segment)
    counters = [Counter([chars[i:i + n] for i in range(len(chars) - n + 1)])
                for n in range(1, CHAR_ORDER + 1)]
    counters += [Counter(zip(*(tokens[i:] for i in range(n))))
                 for n in range(1, WORD_ORDER + 1)]
    totals = [max(0, len(chars) - n) for n in range(CHAR_ORDER)]
    totals += [max(0, len(tokens) - n) for n in range(WORD_ORDER)]
    return counters, totals


def _candidates(hyp: str, references) -> list[list[int]]:
    """One statistics row per reference, in reference order."""
    hyp_counters, hyp_totals = _all_ngrams(hyp)
    rows = []
    for ref_counters, ref_totals in references:
        row: list[int] = []
        for hyp_c, hyp_n, ref_c, ref_n in zip(hyp_counters, hyp_totals,
                                              ref_counters, ref_totals):
            row += (hyp_n, ref_n, _matched(hyp_c, ref_c))
        rows.append(row)
    return rows


def scores(stats) -> np.ndarray:
    """F_beta averaged over populated orders, in [0, 100], for each row of an
    ``(R, STATS_DIM)`` matrix of statistics."""
    stats = np.asarray(stats)
    n_hyp, n_ref, n_match = stats[:, 0::3], stats[:, 1::3], stats[:, 2::3]
    factor = BETA * BETA
    populated = (n_hyp > 0) & (n_ref > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        prec = n_match / n_hyp
        rec = n_match / n_ref
        denom = factor * prec + rec
        f = np.where(populated & (denom > 0.0), (1.0 + factor) * prec * rec / denom, 0.0)
    score = np.zeros(len(stats))
    for i in range(N_ORDERS):  # left to right, as the scalar sum adds
        score = score + f[:, i]
    effective = populated.sum(axis=1)
    return np.where(effective > 0, 100.0 * score / np.maximum(effective, 1), 0.0)


class ChrfPPMetric:
    """chrF++ as segment statistics plus pooled corpus scores."""

    name = "chrf++"

    def segment_stats(self, hypotheses, references) -> np.ndarray:
        groups, positions = _distinct_rows(
            hypotheses, references, lambda refs: [_all_ngrams(r) for r in refs], _candidates)
        sizes = np.array([len(g) for g in groups], dtype=np.intp)
        rows = np.array([row for g in groups for row in g], dtype=np.int64).reshape(-1, STATS_DIM)
        starts = np.cumsum(sizes) - sizes
        # each hypothesis keeps its first best-scoring reference: a stable
        # sort by (hypothesis, -F) puts that row at the start of its group
        best = np.lexsort((-scores(rows), np.repeat(np.arange(len(groups)), sizes)))[starts]
        return rows[best[positions]]

    def corpus_scores(self, sums) -> np.ndarray:
        """The corpus score of each row of pooled statistics."""
        return scores(sums)

    def segment_scores(self, stats) -> np.ndarray:
        return scores(stats)


def chrf_pp(hypotheses, references) -> tuple[float, list[float]]:
    """Corpus chrF++ in [0, 100] plus per-segment scores."""
    metric = ChrfPPMetric()
    stats = metric.segment_stats(hypotheses, references)
    (corpus,) = metric.corpus_scores(stats.sum(axis=0, keepdims=True))
    return float(corpus), metric.segment_scores(stats).tolist()
