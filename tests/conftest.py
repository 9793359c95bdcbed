from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from refta import backends
from refta.backends import EndpointConfig
from refta.corpus import lemmatize
from refta.index import VectorIndex
from refta.mockserver import MockBehavior, start_mock_server

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(autouse=True)
def _no_backoff_sleep(monkeypatch):
    """Retries wait from ``BACKOFF_BASE_S`` (0.5 s) up; tests skip the
    waits. A test that checks the delays patches ``_sleep`` itself."""
    monkeypatch.setattr(backends, "_sleep", lambda seconds: None)


@pytest.fixture()
def mock_server():
    server = start_mock_server(MockBehavior())
    yield server
    server.stop()


@pytest.fixture()
def endpoint(mock_server):
    def make(role: str = "drafter", **overrides) -> EndpointConfig:
        overrides.setdefault("base_url", mock_server.base_url)
        overrides.setdefault("model_id", f"mock-{role}")
        overrides.setdefault("timeout", 10.0)
        return EndpointConfig(**overrides)

    return make


# Synthetic lemma k is the two-letter word LEMMA_WORDS[k], which lemmatizes to
# itself, so that a row's text can spell its lemma set.
LEMMA_WORDS = tuple(a + b for a in "aeiou" for b in "cdlmnprst")


def spell(lemmas: frozenset, row: int) -> str:
    """A text whose lemmas are exactly ``lemmas``; the row number after the
    words is not a token, and keeps the texts unique."""
    text = " ".join(sorted(lemmas)) + f" {row}"
    assert lemmatize(text) == lemmas, (text, lemmas)
    return text


def random_index(
    n: int,
    dim: int,
    seed: int,
    n_lemma_choices: int = 17,
) -> tuple[VectorIndex, list[frozenset], np.ndarray]:
    """Synthetic index plus its rows' lemma sets and raw (unnormalized) vectors;
    each row's text spells its lemma set."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, dim)).astype(np.float32)
    lemma_sets = []
    for i in range(n):
        size = int(rng.integers(1, 6))
        lemma_sets.append(frozenset(
            LEMMA_WORDS[int(rng.integers(0, n_lemma_choices))] for _ in range(size)
        ))
    ids = [f"seg{i:05d}" for i in range(n)]
    texts = [spell(lemmas, i) for i, lemmas in enumerate(lemma_sets)]
    index = VectorIndex.from_arrays(
        ids, texts, vectors,
        model_id="synthetic",
    )
    return index, lemma_sets, vectors


def brute_force_query(
    ids: list[str],
    texts: list[str],
    lemma_sets: list[frozenset],
    raw_vectors: np.ndarray,
    query_vector: np.ndarray,
    query_lemmas: frozenset,
    k: int,
    threshold: float,
    skip_texts: frozenset = frozenset(),
    pool: int | None = None,
) -> list[str]:
    """Independent exhaustive-scan oracle for filtered retrieval.

    Normalizes raw vectors itself, scores every entry, orders by (descending
    similarity, ascending id), keeps the first ``pool`` entries (all when
    ``pool`` is None), filters by Jaccard, truncates to k.
    """
    def unit(v):
        # same arithmetic path as the index: float64 dot-product norm,
        # float64 division, one rounding to float32
        v64 = np.asarray(v, dtype=np.float32).astype(np.float64)
        return (v64 / np.linalg.norm(v64)).astype(np.float32)

    matrix = np.stack([unit(raw_vectors[i]) for i in range(raw_vectors.shape[0])])
    sims = np.clip(matrix @ unit(query_vector), -1.0, 1.0)
    order = sorted(range(len(ids)), key=lambda j: (-sims[j], ids[j]))[:pool]
    out: list[str] = []
    for j in order:
        if texts[j] in skip_texts:
            continue
        a, b = query_lemmas, lemma_sets[j]
        jac = 0.0 if not a and not b else len(a & b) / len(a | b)
        if jac >= threshold:
            out.append(ids[j])
            if len(out) == k:
                break
    return out
