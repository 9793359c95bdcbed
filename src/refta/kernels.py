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
RESAMPLE_BLOCK_COUNTS = 2**20  # count-matrix entries ``resample_sums`` builds at a time


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

    Equal to ``stats[idx].sum(axis=1)``: each row of ``idx``, read in place
    (the bootstrap's is int32), is counted per segment into one reused
    float64 block of ``RESAMPLE_BLOCK_COUNTS`` counts, and ``counts @ stats``
    adds the same values as a float64 GEMM. Integer sums are exact, as no
    partial sum exceeds ``n * max|stats|`` (a row's counts sum to its ``n``
    draws); past ``2**53`` it raises ``ValueError``. Float sums may differ
    from the gather's in the last bits.
    """
    stats, idx = np.asarray(stats), np.asarray(idx)
    (n_resamples, n), m = idx.shape, stats.shape[0]
    if stats.dtype.kind in "iu" and n * max(int(stats.max(initial=0)),
                                             -int(stats.min(initial=0))) >= 2**53:
        raise ValueError("resample sums could exceed 2**53, beyond exact float64")
    values, sums = stats.astype(np.float64), np.empty((n_resamples, stats.shape[1]))
    counts = np.empty((max(1, min(n_resamples, RESAMPLE_BLOCK_COUNTS // max(m, 1))), m))
    for lo in range(0, n_resamples, len(counts)):
        rows = idx[lo:lo + len(counts)]
        for j, row in enumerate(rows):
            counts[j] = np.bincount(row, minlength=m)
        np.matmul(counts[:len(rows)], values, out=sums[lo:lo + len(rows)])
    del counts  # before the cast to the statistics' dtype copies the sums
    return sums.astype(stats.dtype, copy=False)
