"""The two numeric hot spots, as plain NumPy expressions.

``search_layer`` is the retrieval scan: one matrix-vector product per query,
then an exact top-``pool`` selection. ``resample_sums`` is the bootstrap's
per-resample sum of segment statistics. The scan returns the brute-force
prefix in (-similarity, id) order; integer sums are exact, because float64
holds them exactly.
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
    """Sum segment statistics over each resample's index row, in their dtype.

    Equal to ``stats[idx].sum(axis=1)``: each resample's draw counts per
    segment form a count matrix, and ``counts @ stats`` adds the same values
    without the ``(R, n, d)`` gather, as a float64 GEMM. Integer sums are
    exact, as no partial sum exceeds ``n * max|stats|`` (a row's counts sum
    to its ``n`` draws); past ``2**53`` it raises ``ValueError``. Float sums
    may differ from the gather's in the last bits.
    """
    stats = np.asarray(stats)
    idx = np.asarray(idx, dtype=np.int64)
    (n_resamples, n), m = idx.shape, stats.shape[0]
    if stats.dtype.kind in "iu" and n * max(int(stats.max(initial=0)),
                                             -int(stats.min(initial=0))) >= 2**53:
        raise ValueError("resample sums could exceed 2**53, beyond exact float64")
    offsets = (np.arange(n_resamples, dtype=np.int64) * m)[:, None]
    counts = np.bincount((idx + offsets).ravel(), minlength=n_resamples * m)
    sums = counts.reshape(n_resamples, m).astype(np.float64) @ stats.astype(np.float64)
    return sums.astype(stats.dtype, copy=False)
