"""Corpus-level BLEU with the standard WMT signature.

Order-4 n-gram precisions pooled over the corpus, geometric mean with
exponential smoothing for zero counts, brevity penalty
``min(1, exp(1 - ref_len/sys_len))``, and the "13a" tokenization
(punctuation splitting compatible with the mteval-v13a script). Reference
counts are clipped with the per-n-gram maximum across references and the
closest reference length is used (ties go to the shorter reference).

Per-segment scores apply the same formula to one segment's statistics with
the effective n-gram order capped at the segment length, which keeps short
segments from scoring zero by construction.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

NGRAM_ORDER = 4
STATS_DIM = 2 * NGRAM_ORDER + 2  # correct[4], total[4], sys_len, ref_len

_LOG_ZERO = -9999999999.0

_13A_RULES = [
    (re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])"), r" \1 "),
    (re.compile(r"([^0-9])([\.,])"), r"\1 \2 "),
    (re.compile(r"([\.,])([^0-9])"), r" \1 \2"),
    (re.compile(r"([0-9])(-)"), r"\1 \2 "),
]
_WS = re.compile(r"\s+")


def tokenize_13a(line: str) -> str:
    norm = (
        line.replace("<skipped>", "")
        .replace("-\n", "")
        .replace("\n", " ")
        .replace("&quot;", '"')
        .replace("&amp;", "&")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
    )
    norm = f" {norm} "
    for pattern, repl in _13A_RULES:
        norm = pattern.sub(repl, norm)
    return _WS.sub(" ", norm).strip()


def _ngram_counts(tokens: list[str]) -> list[Counter]:
    counts = [Counter() for _ in range(NGRAM_ORDER)]
    for n in range(1, NGRAM_ORDER + 1):
        grams = counts[n - 1]
        for i in range(len(tokens) - n + 1):
            grams[tuple(tokens[i:i + n])] += 1
    return counts


def _validate(hypotheses, references) -> None:
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses vs {len(references)} reference rows"
        )
    for i, refs in enumerate(references):
        if not refs:
            raise ValueError(f"segment {i} has no references")
        if any(not r for r in refs):
            raise ValueError(f"segment {i} has an empty reference")


def _score_from_row(
    correct, total, sys_len: int, ref_len: int, effective_order: bool
) -> float:
    precisions = [0.0] * NGRAM_ORDER
    smooth = 1.0
    eff = NGRAM_ORDER
    for n in range(1, NGRAM_ORDER + 1):
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
        # geometric mean of equal values is that value; exact for identity
        return bp * used[0]
    log_sum = sum(math.log(p) if p > 0.0 else _LOG_ZERO for p in used)
    return bp * math.exp(log_sum / eff)


class BleuMetric:
    """BLEU as segment statistics plus a pooled corpus score."""

    name = "bleu"

    def segment_stats(self, hypotheses, references) -> np.ndarray:
        _validate(hypotheses, references)
        rows = np.zeros((len(hypotheses), STATS_DIM), dtype=np.int64)
        for i, (hyp, refs) in enumerate(zip(hypotheses, references)):
            hyp_tokens = tokenize_13a(hyp).split()
            hyp_counts = _ngram_counts(hyp_tokens)

            ref_counts = [Counter() for _ in range(NGRAM_ORDER)]
            closest_diff = None
            closest_len = 0
            for ref in refs:
                ref_tokens = tokenize_13a(ref).split()
                diff = abs(len(hyp_tokens) - len(ref_tokens))
                if closest_diff is None or diff < closest_diff or (
                    diff == closest_diff and len(ref_tokens) < closest_len
                ):
                    closest_diff = diff
                    closest_len = len(ref_tokens)
                for n, counts in enumerate(_ngram_counts(ref_tokens)):
                    for gram, cnt in counts.items():
                        if cnt > ref_counts[n][gram]:
                            ref_counts[n][gram] = cnt

            for n in range(NGRAM_ORDER):
                total = sum(hyp_counts[n].values())
                correct = sum(
                    min(cnt, ref_counts[n][gram])
                    for gram, cnt in hyp_counts[n].items()
                )
                rows[i, n] = correct
                rows[i, NGRAM_ORDER + n] = total
            rows[i, 2 * NGRAM_ORDER] = len(hyp_tokens)
            rows[i, 2 * NGRAM_ORDER + 1] = closest_len
        return rows

    def corpus_from_sums(self, sums) -> float:
        correct = sums[:NGRAM_ORDER]
        total = sums[NGRAM_ORDER:2 * NGRAM_ORDER]
        return _score_from_row(
            correct, total,
            int(sums[2 * NGRAM_ORDER]), int(sums[2 * NGRAM_ORDER + 1]),
            effective_order=False,
        )

    def segment_score(self, row) -> float:
        return _score_from_row(
            row[:NGRAM_ORDER], row[NGRAM_ORDER:2 * NGRAM_ORDER],
            int(row[2 * NGRAM_ORDER]), int(row[2 * NGRAM_ORDER + 1]),
            effective_order=True,
        )


def bleu(hypotheses, references) -> tuple[float, list[float]]:
    """Corpus BLEU in [0, 100] plus per-segment scores.

    ``references`` is one list of reference strings per hypothesis.
    """
    metric = BleuMetric()
    stats = metric.segment_stats(hypotheses, references)
    corpus = metric.corpus_from_sums(stats.sum(axis=0))
    return corpus, [metric.segment_score(stats[i]) for i in range(stats.shape[0])]
