"""The two numeric hot spots, as plain NumPy expressions.

``search_layer`` is the retrieval scan: one BLAS product against every row,
then an exact top-``pool`` selection. ``resample_sums`` is the bootstrap's
per-resample sum of integer segment statistics. Both are exact: the scan
returns the brute-force prefix in (-similarity, id) order, and the sums are
integer arithmetic.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def search_layer(
    vectors: np.ndarray,
    id_rank: np.ndarray,
    queries: np.ndarray,
    pool: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``pool`` nearest rows of a float32 matrix for each query column.

    ``vectors`` is ``(n, d)``, ``queries`` is ``(d, b)`` and ``id_rank[row]``
    is the row's position in ascending segment-id order. Returns ``(rows,
    sims)``, both ``(b, min(pool, n))``: each line holds the most similar rows
    in descending similarity (clipped to [-1, 1]) with ties broken by id
    rank, which is the prefix of a full sort of every row. Rows tied at the
    pool boundary all enter the sort, so the cut never depends on the order
    ``argpartition`` happens to leave them in.
    """
    n = vectors.shape[0]
    take = min(pool, n)
    sims = np.clip(vectors @ queries, -1.0, 1.0)
    out_rows = np.empty((queries.shape[1], take), dtype=np.int64)
    out_sims = np.empty((queries.shape[1], take), dtype=sims.dtype)
    for j in range(queries.shape[1]):
        col = sims[:, j]
        if take < n:
            boundary = np.partition(col, n - take)[n - take]
            cand = np.flatnonzero(col >= boundary)
        else:
            cand = np.arange(n)
        order = cand[np.lexsort((id_rank[cand], -col[cand]))][:take]
        out_rows[j] = order
        out_sims[j] = col[order]
    return out_rows, out_sims


def resample_sums(stats: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Sum int64 segment statistics over each resample's index row.

    Equal to ``stats[idx].sum(axis=1)``: each resample's draw counts per
    segment form a count matrix, and ``counts @ stats`` adds the same
    integers without the ``(R, n, d)`` gather.
    """
    stats = np.ascontiguousarray(stats, dtype=np.int64)
    idx = np.asarray(idx, dtype=np.int64)
    n_resamples, m = idx.shape[0], stats.shape[0]
    offsets = (np.arange(n_resamples, dtype=np.int64) * m)[:, None]
    counts = np.bincount((idx + offsets).ravel(), minlength=n_resamples * m)
    return counts.reshape(n_resamples, m) @ stats
