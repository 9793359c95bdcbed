from __future__ import annotations

import numpy as np
import pytest

from refta import kernels
from refta.metrics.bootstrap import exact_float64


def test_backend_flag_is_reported():
    assert kernels.BACKEND == "numpy"


def test_resample_sums_equals_numpy_reference():
    rng = np.random.default_rng(5)
    stats = rng.integers(0, 50, size=(30, 10)).astype(np.float64)
    idx = rng.integers(0, 30, size=(200, 30)).astype(np.int64)
    got = kernels.resample_sums(stats, idx)
    want = stats[idx].sum(axis=1)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n_resamples,n,d", [(1, 2, 1), (7, 3, 4), (200, 50, 9), (1000, 110, 10)])
def test_resample_sums_matches_gather_across_shapes(n_resamples, n, d):
    rng = np.random.default_rng(n_resamples * 1000 + n)
    stats = rng.integers(-(2**40), 2**40, size=(n, d)).astype(np.int64)
    idx = rng.integers(0, n, size=(n_resamples, n)).astype(np.int64)
    idx[0] = 0  # one resample that draws the same segment every time
    # integer statistics, cast as the bootstrap casts them, sum exactly
    got = kernels.resample_sums(exact_float64([stats], n), idx)
    assert got.dtype == np.float64
    assert np.array_equal(got, stats[idx].sum(axis=1))


def test_resample_sums_of_float_statistics_are_float64():
    rng = np.random.default_rng(6)
    stats = np.column_stack([rng.random(40), np.ones(40)])  # neural (score, 1) rows
    idx = rng.integers(0, 40, size=(300, 40)).astype(np.int64)
    got = kernels.resample_sums(stats, idx)
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, stats[idx].sum(axis=1), rtol=1e-12)


def _full_order(sims: np.ndarray, id_rank: np.ndarray) -> np.ndarray:
    return np.lexsort((id_rank, -sims))


def test_search_layer_is_prefix_of_full_sort():
    rng = np.random.default_rng(8)
    n, d = 300, 16
    vectors = rng.standard_normal((n, d)).astype(np.float32)
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    id_rank = rng.permutation(n).astype(np.int64)
    for _ in range(3):
        query = rng.standard_normal(d).astype(np.float32)
        query /= np.linalg.norm(query)
        full = np.clip(vectors @ query, -1.0, 1.0)
        for pool in (1, 5, 51, n // 3, n, n + 10):
            rows, sims = kernels.search_layer(vectors, id_rank, query, pool)
            assert rows.shape == sims.shape == (min(pool, n),)
            assert rows.tolist() == _full_order(full, id_rank)[:pool].tolist()
            assert np.array_equal(sims, full[rows])


def test_search_layer_ties_straddling_the_pool_boundary():
    # six identical rows tie at the cut of a pool of 4; the id rank decides
    # which of them enter, whatever order argpartition leaves them in
    vectors = np.array([[1.0, 0.0]] + [[0.6, 0.8]] * 6 + [[0.0, 1.0]], dtype=np.float32)
    id_rank = np.array([7, 5, 3, 6, 1, 4, 2, 0], dtype=np.int64)
    query = np.array([1.0, 0.0], dtype=np.float32)
    rows, _ = kernels.search_layer(vectors, id_rank, query, 4)
    assert rows.tolist() == [0, 4, 6, 2]
