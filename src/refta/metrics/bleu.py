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

``segment_stats`` counts with arrays, ``BLOCK_ROWS`` rows at a time, so that
its memory does not grow with the test set; chrF++ counts through the same
functions. A block keeps only the arrays its next step reads: int32 counts,
and one n-gram order's table and one reference column's search at a time.
Its texts are 13a-tokenized in one pass over their joined text. ``scores``
turns an ``(R, STATS_DIM)`` matrix into R scores; it is the only copy of the
formula.
"""

from __future__ import annotations

import math
import re

import numpy as np

NGRAM_ORDER = 4
STATS_DIM = 2 * NGRAM_ORDER + 2  # correct[4], total[4], sys_len, ref_len
BLOCK_ROWS = 128  # rows ``segment_stats`` counts at a time

_LOG_ZERO = -9999999999.0
_INT64_MAX = np.iinfo(np.int64).max

# libm's log and exp, element-wise: NumPy's own can differ in the last bit
_log = np.frompyfunc(math.log, 1, 1)
_exp = np.frompyfunc(math.exp, 1, 1)

# 13a on "\n"-joined texts: a digit's hyphen (rule 4) by ``str.replace``, each
# run of [.,] (rules 2 and 3) in one callback, then rule 1's padding without the
# space. Rules 2-4 see only whether a neighbour is a digit, so the order is free.
_13A_RUN = re.compile(r"([0-9]?)([.,]+)(?=([0-9]?))")
_13A_PAD = re.compile(r"([!\"#$%&()*+/:;<=>?@\[\\\]^_`{|}~])")


def _13a_run(match) -> str:
    """Rules 2 and 3 on a run of [.,] and a digit either side, if any. They
    space off every character but a lone one between digits (3.14), and the
    last before a digit when the run plus a digit before it is even in length."""
    before, run, after = match.groups()
    left = " " if len(run) > 1 or not (before and after) else ""
    right = " " if not after or (len(run) + len(before)) % 2 else ""
    return f"{before}{left}{' '.join(run)}{right}"


def _13a_tokens(texts) -> list[list[str]]:
    """The 13a tokens of each of ``texts``, tokenized in one pass."""
    block = "\n".join(t.replace("<skipped>", "").replace("-\n", "").replace("\n", " ")
                      for t in texts)
    block = (block.replace("&quot;", '"').replace("&amp;", "&").replace("&lt;", "<")
             .replace("&gt;", ">"))
    for digit in "0123456789":
        block = block.replace(f"{digit}-", f"{digit} - ")
    block = _13A_PAD.sub(r" \1 ", _13A_RUN.sub(_13a_run, block))
    return [line.split() for line in block.split("\n")]


def tokenize_13a(line: str) -> str:
    return " ".join(*_13a_tokens([line]))


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


def _blockwise(hypotheses, references, block_stats, dim: int) -> np.ndarray:
    """``block_stats(texts, hyp_ids, ref_ids, n_refs)`` of each block of rows:
    the block's distinct texts (``""`` first) and, per distinct row, its text
    ids, the references' padded with 0, and its number of references."""
    _validate(hypotheses, references)
    out = np.empty((len(hypotheses), dim), dtype=np.int64)
    for start in range(0, len(hypotheses), BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        rows: dict = {}
        inverse = [rows.setdefault((hyp, tuple(refs)), len(rows))
                   for hyp, refs in zip(hypotheses[block], references[block])]
        texts = {"": 0}
        hyp_ids = [texts.setdefault(hyp, len(texts)) for hyp, _ in rows]
        n_refs = np.array([len(refs) for _, refs in rows])
        ref_ids = np.zeros((len(rows), n_refs.max()), dtype=np.int64)
        for i, (_, refs) in enumerate(rows):
            ref_ids[i, :len(refs)] = [texts.setdefault(ref, len(texts)) for ref in refs]
        out[block] = block_stats(list(texts), np.array(hyp_ids), ref_ids, n_refs)[inverse]
    return out


def _symbol_ids(token_lists) -> tuple[np.ndarray, np.ndarray]:
    """Every text's tokens as ids, end to end, and each text's length."""
    vocab: dict = {}
    ids = [vocab.setdefault(token, len(vocab)) for tokens in token_lists for token in tokens]
    return (np.array(ids, dtype=np.int64),
            np.array([len(tokens) for tokens in token_lists], dtype=np.int64))


def _gram_table(streams, n_texts: int):
    """Each order's (text, n-gram) pairs of a block's texts, counted with one
    sort per order, yielded one order at a time.

    ``streams`` holds ``(symbols end to end, text lengths, highest order)``
    per kind of symbol; the orders come stream by stream, lowest first. Each
    order yields its sorted distinct keys ``text * width + gram`` then one
    above them all, their counts (the last 0), and ``width``. An n-gram's id is its
    (n-1)-gram's id times the symbol base plus its last symbol, made dense
    first whenever it could reach ``width``: exact for any alphabet.
    """
    width = _INT64_MAX // (n_texts + 1)  # every key up to text n_texts fits
    for symbols, lengths, orders in streams:
        text = np.repeat(np.arange(n_texts), lengths)
        end = np.cumsum(lengths)[text]
        pos = np.arange(len(symbols))
        gram, bound, base = np.zeros(len(symbols), np.int64), 1, int(symbols.max(initial=0)) + 1
        for n in range(orders):
            keep = pos + n < end  # an (n+1)-gram starts here
            pos, text, end, gram = pos[keep], text[keep], end[keep], gram[keep]
            if bound * base > width:
                distinct, gram = np.unique(gram, return_inverse=True)
                gram, bound = gram.reshape(-1), len(distinct)
            gram = gram * base + symbols[pos + n]
            bound *= base
            keys = text * width + gram
            keys.sort()
            starts = np.ones(len(keys), bool)  # where each run of equal keys starts
            np.not_equal(keys[1:], keys[:-1], out=starts[1:])
            first = np.flatnonzero(starts)
            counts = np.diff(first, append=[len(keys), len(keys)]).astype(np.int32)  # < len(keys)
            # the last key keeps every search inside the table
            keys = np.append(keys[first], _INT64_MAX)
            del keep, starts, first  # not held while the caller reads the table
            yield keys, counts, width


def _matches(tables, n_texts: int, hyp_ids, ref_ids, best_of_refs: bool):
    """``(n_rows, n_cols, orders)`` clipped matches of each row's hypothesis
    with each reference column, one order's table at a time: ``min(count,
    count in the reference)`` summed over its distinct n-grams;
    ``best_of_refs`` takes each n-gram's maximum over the columns first,
    leaving one column."""
    per_order = []
    for keys, counts, width in tables:
        text_start = np.searchsorted(keys, np.arange(n_texts + 1) * width)
        lo, size = text_start[hyp_ids], text_start[hyp_ids + 1] - text_start[hyp_ids]
        start = np.cumsum(size) - size  # of each row's run of n-grams
        entry = np.repeat(lo - start, size) + np.arange(size.sum())
        hyp_keys, hyp_counts = keys[entry], counts[entry]
        del entry
        # a column per hypothesis n-gram, and reduceat's pad
        clipped = np.zeros((ref_ids.shape[1], len(hyp_keys) + 1), dtype=np.int32)
        for j, ref in enumerate(ref_ids.T):
            query = np.repeat((ref - hyp_ids) * width, size)
            query += hyp_keys
            at = np.searchsorted(keys, query)
            row = np.take(counts, at, out=clipped[j, :-1])
            row *= keys[at] == query
            np.minimum(row, hyp_counts, out=row)
            del query, at
        if best_of_refs:
            clipped = clipped.max(axis=0, keepdims=True)
        per_order.append(np.where(size > 0, np.add.reduceat(clipped, start, axis=1), 0))
    return np.stack(per_order, axis=-1).transpose(1, 0, 2)


def _bleu_block(texts, hyp_ids, ref_ids, n_refs) -> np.ndarray:
    symbols, lengths = _symbol_ids(_13a_tokens(texts))
    tables = _gram_table([(symbols, lengths, NGRAM_ORDER)], len(texts))
    correct = _matches(tables, len(texts), hyp_ids, ref_ids, best_of_refs=True)
    sys_len, ref_len = lengths[hyp_ids], lengths[ref_ids]
    # the closest reference length; ties go to the shorter one
    rank = np.abs(ref_len - sys_len[:, None]) * (ref_len.max() + 1) + ref_len
    rank[np.arange(ref_ids.shape[1]) >= n_refs[:, None]] = _INT64_MAX
    closest = np.take_along_axis(ref_len, rank.argmin(axis=1)[:, None], axis=1)
    total = np.maximum(sys_len[:, None] - np.arange(NGRAM_ORDER), 0)
    return np.hstack([correct[:, 0], total, sys_len[:, None], closest])


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
        return _blockwise(hypotheses, references, _bleu_block, STATS_DIM)

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
