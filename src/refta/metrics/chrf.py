"""chrF++: character 6-gram F-score augmented with word 1/2-grams, beta=2.

Character n-grams are taken over the segment with whitespace removed; word
tokens are whitespace-split with one leading or trailing punctuation
character separated. Per order, F_beta combines precision and recall of
matched n-grams; the score averages F over the orders that actually occur
(in hypothesis and reference together), scaled to [0, 100]. With several
references the statistics of the best-scoring reference per segment are
pooled.
"""

from __future__ import annotations

import string
from collections import Counter

import numpy as np

from refta.metrics.bleu import _validate

CHAR_ORDER = 6
WORD_ORDER = 2
BETA = 2.0
N_ORDERS = CHAR_ORDER + WORD_ORDER
STATS_DIM = 3 * N_ORDERS  # per order: hyp total, ref total, matched

_PUNCTS = frozenset(string.punctuation)


def _char_ngrams(segment: str, n: int) -> Counter:
    s = "".join(segment.split())
    return Counter(s[i:i + n] for i in range(len(s) - n + 1))


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


def _word_ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _all_ngrams(segment: str) -> list[Counter]:
    counters = [_char_ngrams(segment, n) for n in range(1, CHAR_ORDER + 1)]
    tokens = _word_tokens(segment)
    counters.extend(_word_ngrams(tokens, n) for n in range(1, WORD_ORDER + 1))
    return counters


def _pair_stats(hyp_counters: list[Counter], ref_counters: list[Counter]) -> np.ndarray:
    row = np.zeros(STATS_DIM, dtype=np.int64)
    for i in range(N_ORDERS):
        hyp_c, ref_c = hyp_counters[i], ref_counters[i]
        row[3 * i] = sum(hyp_c.values())
        row[3 * i + 1] = sum(ref_c.values())
        row[3 * i + 2] = sum((hyp_c & ref_c).values())
    return row


def score_from_stats(row) -> float:
    """F_beta averaged over populated orders, in [0, 100]."""
    factor = BETA * BETA
    score = 0.0
    effective = 0
    for i in range(N_ORDERS):
        n_hyp = row[3 * i]
        n_ref = row[3 * i + 1]
        n_match = row[3 * i + 2]
        if n_hyp > 0 and n_ref > 0:
            effective += 1
            prec = n_match / n_hyp
            rec = n_match / n_ref
            denom = factor * prec + rec
            if denom > 0.0:
                score += (1.0 + factor) * prec * rec / denom
    if effective == 0:
        return 0.0
    return 100.0 * score / effective


class ChrfPPMetric:
    """chrF++ as segment statistics plus a pooled corpus score."""

    name = "chrf++"

    def segment_stats(self, hypotheses, references) -> np.ndarray:
        _validate(hypotheses, references)
        rows = np.zeros((len(hypotheses), STATS_DIM), dtype=np.int64)
        for i, (hyp, refs) in enumerate(zip(hypotheses, references)):
            hyp_counters = _all_ngrams(hyp)
            best_row = None
            best_f = -1.0
            for ref in refs:
                row = _pair_stats(hyp_counters, _all_ngrams(ref))
                f = score_from_stats(row)
                if f > best_f:
                    best_f = f
                    best_row = row
            rows[i] = best_row
        return rows

    def corpus_from_sums(self, sums) -> float:
        return score_from_stats(sums)

    def segment_score(self, row) -> float:
        return score_from_stats(row)


def chrf_pp(hypotheses, references) -> tuple[float, list[float]]:
    """Corpus chrF++ in [0, 100] plus per-segment scores."""
    metric = ChrfPPMetric()
    stats = metric.segment_stats(hypotheses, references)
    corpus = metric.corpus_from_sums(stats.sum(axis=0))
    return corpus, [metric.segment_score(stats[i]) for i in range(stats.shape[0])]
