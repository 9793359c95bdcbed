"""chrF++: character 6-gram F-score augmented with word 1/2-grams, beta=2.

Character n-grams are taken over the segment with whitespace removed; word
tokens are whitespace-split with one leading or trailing punctuation
character separated. Per order, F_beta combines precision and recall of
matched n-grams; the score averages F over the orders that actually occur
(in hypothesis and reference together), scaled to [0, 100]. With several
references the statistics of the first best-scoring reference per segment
are pooled.

Statistics are counted with BLEU's arrays, ``bleu.BLOCK_ROWS`` rows at a
time: characters as code points and words as ids are the two symbol streams
whose n-grams are counted and matched one order at a time; a block's words
are split by two regexes over its joined text. ``scores`` is the one copy of
the formula, over an ``(R, STATS_DIM)`` matrix.
"""

from __future__ import annotations

import re
import string

import numpy as np

from refta.metrics.bleu import _blockwise, _gram_table, _matches, _symbol_ids

CHAR_ORDER = 6
WORD_ORDER = 2
BETA = 2.0
N_ORDERS = CHAR_ORDER + WORD_ORDER
STATS_DIM = 3 * N_ORDERS  # per order: hyp total, ref total, matched

_PUNCT = re.escape(string.punctuation)
# the first character of a word of 2+ that starts but does not end with punctuation
_WORD_FIRST = re.compile(rf"([{_PUNCT}])(?<!\S[{_PUNCT}])(?=\S*[^\s{_PUNCT}](?!\S))")
_WORD_LAST = re.compile(rf"([{_PUNCT}])(?<=\S[{_PUNCT}])(?!\S)")  # ends a word of 2+


def _word_tokens(texts) -> list[list[str]]:
    """Each text's whitespace-split words, a word of 2+ characters split before
    a final punctuation character, else after a first one."""
    block = "\n".join(t.replace("\n", " ") for t in texts)
    block = _WORD_LAST.sub(r" \1", _WORD_FIRST.sub(r"\1 ", block))
    return [line.split() for line in block.split("\n")]


def _chrf_block(texts, hyp_ids, ref_ids, n_refs) -> np.ndarray:
    chars = ["".join(t.split()) for t in texts]
    codes = np.frombuffer("".join(chars).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    char_lens = np.array([len(c) for c in chars], dtype=np.int64)
    words, word_lens = _symbol_ids(_word_tokens(texts))
    tables = _gram_table([(codes.astype(np.int64), char_lens, CHAR_ORDER),
                          (words, word_lens, WORD_ORDER)], len(texts))
    matched = _matches(tables, len(texts), hyp_ids, ref_ids, best_of_refs=False)
    # n-grams per order: characters, then words
    lengths = np.column_stack([char_lens] * CHAR_ORDER + [word_lens] * WORD_ORDER)
    totals = np.maximum(lengths - np.r_[:CHAR_ORDER, :WORD_ORDER], 0)
    hyp_totals = np.broadcast_to(totals[hyp_ids][:, None], matched.shape)
    rows = np.stack([hyp_totals, totals[ref_ids], matched], -1).reshape(*ref_ids.shape, -1)
    f = scores(rows.reshape(-1, STATS_DIM)).reshape(ref_ids.shape)
    f[np.arange(ref_ids.shape[1]) >= n_refs[:, None]] = -1.0  # padding is never chosen
    # argmax keeps the first best-scoring reference
    return rows[np.arange(len(f)), f.argmax(axis=1)]


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
        return _blockwise(hypotheses, references, _chrf_block, STATS_DIM)

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
