"""The two numeric hot spots, as plain NumPy expressions.

``search_layer`` is the retrieval scan: one matrix-vector product per query,
then an exact top-``pool`` selection. ``resample_sums`` is the bootstrap's
per-resample sum of float64 segment statistics. The scan returns the
brute-force prefix in (-similarity, id) order; sums of integer statistics are
exact, because ``bootstrap.exact_float64`` admits only those that float64
holds exactly.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def search_layer(
    vectors: np.ndarray,
    id_rank: np.ndarray,
    query: np.ndarray,
    pool: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``pool`` nearest rows of a float32 matrix for one query vector.

    ``vectors`` is ``(n, d)``, ``query`` is ``(d,)`` and ``id_rank[row]`` is
    the row's position in ascending segment-id order. Returns ``(rows,
    sims)``, both ``(min(pool, n),)``: the most similar rows in descending
    similarity (clipped to [-1, 1]) with ties broken by id rank, which is the
    prefix of a full sort of every row. Rows tied at the pool boundary all
    enter the sort, so the cut never depends on the order ``argpartition``
    happens to leave them in.
    """
    n = vectors.shape[0]
    take = min(pool, n)
    sims = np.clip(vectors @ query, -1.0, 1.0)
    if take < n:
        boundary = np.partition(sims, n - take)[n - take]
        cand = np.flatnonzero(sims >= boundary)
    else:
        cand = np.arange(n)
    rows = cand[np.lexsort((id_rank[cand], -sims[cand]))][:take]
    return rows, sims[rows]


def resample_sums(stats: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Sum float64 segment statistics over each resample's index row.

    Equal to ``stats[idx].sum(axis=1)``: ``counts @ stats`` of each row's
    per-segment counts, a float64 GEMM that returns the block's float64 sums;
    float sums may differ in the last bits.
    """
    counts = np.empty((len(idx), len(stats)))
    for j, row in enumerate(idx):
        counts[j] = np.bincount(row, minlength=len(stats))
    return counts @ stats
