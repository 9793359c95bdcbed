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

``segment_stats`` tokenises and counts a segment's references once for every
run of consecutive rows that share them, and computes one row per distinct
hypothesis among those rows. ``scores`` turns a whole ``(R, STATS_DIM)``
matrix of statistics into R scores; it is the only copy of the formula.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

NGRAM_ORDER = 4
STATS_DIM = 2 * NGRAM_ORDER + 2  # correct[4], total[4], sys_len, ref_len

_LOG_ZERO = -9999999999.0

# libm's log and exp, element-wise: NumPy's own can differ in the last bit
_log = np.frompyfunc(math.log, 1, 1)
_exp = np.frompyfunc(math.exp, 1, 1)

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
    return [Counter(zip(*(tokens[i:] for i in range(n)))) for n in range(1, NGRAM_ORDER + 1)]


def _matched(hyp: Counter, ref: Counter) -> int:
    """Clipped matches: the sum of ``min`` over the n-grams both sides hold."""
    return sum(min(hyp[gram], ref[gram]) for gram in hyp.keys() & ref.keys())


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


def _distinct_rows(hypotheses, references, reference_side, row) -> tuple[list, list[int]]:
    """Rows computed once per distinct (hypothesis, references) pair.

    ``reference_side(refs)`` runs once for each stretch of consecutive
    segments whose references are the same (``is``, then ``==``), and
    ``row(hyp, side)`` once per distinct hypothesis within the stretch.
    Returns the distinct rows and, per segment, its position among them.
    """
    _validate(hypotheses, references)
    rows: list = []
    positions: list[int] = []
    last_refs, side, seen = None, None, {}
    for hyp, refs in zip(hypotheses, references):
        if refs is not last_refs and refs != last_refs:
            last_refs, side, seen = refs, reference_side(refs), {}
        pos = seen.get(hyp)
        if pos is None:
            pos = seen[hyp] = len(rows)
            rows.append(row(hyp, side))
        positions.append(pos)
    return rows, positions


def _reference_side(refs) -> tuple[list[int], list[Counter]]:
    """Token lengths and the per-n-gram maximum counts over the references."""
    lengths: list[int] = []
    max_counts: list[Counter] = []
    for ref in refs:
        tokens = tokenize_13a(ref).split()
        lengths.append(len(tokens))
        counts = _ngram_counts(tokens)
        if not max_counts:
            max_counts = counts
            continue
        for merged, grams in zip(max_counts, counts):
            for gram, cnt in grams.items():
                if cnt > merged[gram]:
                    merged[gram] = cnt
    return lengths, max_counts


def _row(hyp: str, side) -> list[int]:
    ref_lengths, ref_counts = side
    tokens = tokenize_13a(hyp).split()
    length = len(tokens)
    correct = [_matched(h, r) for h, r in zip(_ngram_counts(tokens), ref_counts)]
    total = [max(0, length - n) for n in range(NGRAM_ORDER)]
    closest = min(ref_lengths, key=lambda ref_len: (abs(length - ref_len), ref_len))
    return correct + total + [length, closest]


def scores(stats, effective_order: bool) -> np.ndarray:
    """BLEU of each row of an ``(R, STATS_DIM)`` matrix of statistics.

    Orders count up to the first zero total. With ``effective_order`` the
    geometric mean runs over those orders only, as per-segment scores do.
    """
    stats = np.asarray(stats)
    correct = stats[:, :NGRAM_ORDER]
    total = stats[:, NGRAM_ORDER:2 * NGRAM_ORDER]
    sys_len = stats[:, 2 * NGRAM_ORDER]
    ref_len = stats[:, 2 * NGRAM_ORDER + 1]

    live = np.logical_and.accumulate(total > 0, axis=1)
    # the smoothing factor doubles at each live order with no match
    smooth = 2.0 ** np.cumsum(live & (correct == 0), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        precisions = np.where(correct == 0, 100.0 / (smooth * total), 100.0 * correct / total)
    precisions[~live] = 0.0
    n_live = live.sum(axis=1)
    eff = np.where(effective_order & (n_live > 0), n_live, NGRAM_ORDER)
    used = np.arange(NGRAM_ORDER) < eff[:, None]

    positive = precisions > 0.0
    logs = np.where(positive, _log(np.where(positive, precisions, 1.0)), _LOG_ZERO)
    logs = np.where(used, logs, 0.0).astype(np.float64)
    log_sum = logs[:, 0]
    for n in range(1, NGRAM_ORDER):  # left to right, as the scalar sum adds
        log_sum = log_sum + logs[:, n]
    # the geometric mean of equal values is that value; exact for identity
    equal = np.all((precisions == precisions[:, :1]) | ~used, axis=1)
    mean = np.where(equal, precisions[:, 0], _exp(log_sum / eff).astype(np.float64))
    bp = np.where(sys_len < ref_len,
                  _exp(1.0 - ref_len / np.maximum(sys_len, 1)).astype(np.float64), 1.0)
    return np.where(sys_len > 0, bp * mean, 0.0)


class BleuMetric:
    """BLEU as segment statistics plus pooled corpus scores."""

    name = "bleu"

    def segment_stats(self, hypotheses, references) -> np.ndarray:
        rows, positions = _distinct_rows(hypotheses, references, _reference_side, _row)
        return np.array(rows, dtype=np.int64).reshape(-1, STATS_DIM)[positions]

    def corpus_scores(self, sums) -> np.ndarray:
        """The corpus score of each row of pooled statistics."""
        return scores(sums, effective_order=False)

    def segment_scores(self, stats) -> np.ndarray:
        return scores(stats, effective_order=True)


def bleu(hypotheses, references) -> tuple[float, list[float]]:
    """Corpus BLEU in [0, 100] plus per-segment scores.

    ``references`` is one list of reference strings per hypothesis.
    """
    metric = BleuMetric()
    stats = metric.segment_stats(hypotheses, references)
    (corpus,) = metric.corpus_scores(stats.sum(axis=0, keepdims=True))
    return float(corpus), metric.segment_scores(stats).tolist()
