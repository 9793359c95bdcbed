"""Semantic retrieval index: exact dense search plus a lemma-overlap filter.

The index stores L2-normalized float32 embeddings in a contiguous matrix
and answers every query by an exact scan of it (``kernels.search_layer``).
Query semantics: take the ``candidate_pool`` most similar rows by cosine
similarity, in descending similarity with ties broken by ascending segment
id; drop candidates whose lemma Jaccard against the query falls below the
threshold; return at most ``k`` survivors in that order. No backfill below
the threshold. Every pool size gives the prefix of a full brute-force sort.

On-disk layout (``save_index``/``load_index``), format version 2:

- ``manifest.json``: format version, dimension, embedding model id, count,
  SHA-256 checksums of the data files.
- ``vectors.bin``: little-endian float32, row-major.
- ``meta.jsonl``: one row per entry with ``id``, ``text``, ``lemmas``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from refta import kernels
from refta.backends import send_batches
from refta.corpus import ParallelPair, SourceSegment, lemmatize
from refta.errors import IndexError_

FORMAT_VERSION = 2


def jaccard(a: frozenset, b: frozenset) -> float:
    """Set overlap |a n b| / |a u b|; 0.0 when both sets are empty."""
    if not a and not b:
        return 0.0
    inter = len(a & b)
    union = len(a) + len(b) - inter
    return inter / union


@dataclass(frozen=True)
class IndexEntry:
    segment_id: str
    text: str


@dataclass(frozen=True)
class RetrievalResult:
    entry: IndexEntry
    cosine_similarity: float
    jaccard: float


@dataclass(frozen=True)
class ExclusionList:
    """Segments barred from the index, matched by id or exact normalized text."""

    exact_texts: frozenset
    ids: frozenset

    @classmethod
    def empty(cls) -> "ExclusionList":
        return cls(exact_texts=frozenset(), ids=frozenset())

    @classmethod
    def from_pairs(cls, pairs: Iterable[ParallelPair]) -> "ExclusionList":
        return cls.from_segments(p.source for p in pairs)

    @classmethod
    def from_segments(cls, segments: Iterable[SourceSegment]) -> "ExclusionList":
        texts, ids = set(), set()
        for s in segments:
            texts.add(s.text)
            ids.add(s.id)
        return cls(exact_texts=frozenset(texts), ids=frozenset(ids))

    def matches(self, segment_id: str, text: str) -> bool:
        return segment_id in self.ids or text in self.exact_texts


@dataclass
class BuildReport:
    indexed: int = 0
    excluded_exact: int = 0
    excluded_near_dup: int = 0
    rows_seen: int = 0


def default_candidate_pool(k: int) -> int:
    return max(50, 10 * k)


def _normalize_vector(v, dim: int | None = None) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float32).reshape(-1)
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"vector dimension {arr.shape[0]} does not match index dimension {dim}")
    arr64 = arr.astype(np.float64)
    norm = math.sqrt(float(arr64 @ arr64))
    if not math.isfinite(norm) or norm == 0.0:
        raise ValueError("zero or non-finite vector rejected")
    # divide in float64, round once to float32
    return (arr64 / norm).astype(np.float32)


class VectorIndex:
    """Immutable-after-build vector index answered by an exact scan."""

    def __init__(
        self,
        ids: list[str],
        texts: list[str],
        lemma_sets: list[frozenset],
        vectors: np.ndarray,
        model_id: str,
    ):
        self._ids = ids
        self._texts = texts
        self._lemmas = lemma_sets
        self._vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        self.model_id = model_id
        if len(set(ids)) != len(ids):
            raise IndexError_("duplicate segment ids in index")
        self._id_rank = np.empty(len(ids), dtype=np.int64)
        self._id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))

    # -- construction -------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        ids: Sequence[str],
        texts: Sequence[str],
        lemma_sets: Sequence[frozenset],
        vectors: np.ndarray,
        model_id: str = "unknown",
    ) -> "VectorIndex":
        n = len(ids)
        if not (len(texts) == len(lemma_sets) == n):
            raise ValueError("ids, texts, lemma_sets must have equal lengths")
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[0] != n:
            raise ValueError("vectors must be a (n, dim) matrix")
        rows = [_normalize_vector(vectors[i]) for i in range(n)]
        vectors = np.stack(rows) if rows else vectors.reshape(0, vectors.shape[1])
        return cls(list(ids), list(texts), list(lemma_sets), vectors, model_id)

    @property
    def dim(self) -> int:
        return int(self._vectors.shape[1]) if self._vectors.ndim == 2 else 0

    def __len__(self) -> int:
        return len(self._ids)

    def entry(self, row: int) -> IndexEntry:
        return IndexEntry(segment_id=self._ids[row], text=self._texts[row])

    # -- querying -----------------------------------------------------------

    def query(
        self,
        query_vector,
        query_lemmas: frozenset,
        k: int,
        jaccard_threshold: float,
        candidate_pool: int | None = None,
        skip_texts: frozenset = frozenset(),
    ) -> list[RetrievalResult]:
        """Top-k filtered retrieval; see the module docstring for semantics."""
        if k < 1:
            raise ValueError("k must be >= 1")
        pool = candidate_pool if candidate_pool is not None else default_candidate_pool(k)
        if pool < k:
            raise ValueError(f"candidate_pool {pool} must be >= k {k}")
        if len(self._ids) == 0:
            return []
        qnorm = _normalize_vector(query_vector, dim=self.dim)
        rows, sims = kernels.search_layer(self._vectors, self._id_rank, qnorm, pool)
        out: list[RetrievalResult] = []
        for row, sim in zip(rows.tolist(), sims.tolist()):
            if self._texts[row] in skip_texts:
                continue
            jac = jaccard(query_lemmas, self._lemmas[row])
            if jac >= jaccard_threshold:
                out.append(RetrievalResult(
                    entry=self.entry(row),
                    cosine_similarity=sim,
                    jaccard=jac,
                ))
                if len(out) == k:
                    break
        return out


def build_index(
    segments: Iterable[SourceSegment],
    embedder,
    exclusions: ExclusionList | None = None,
    *,
    near_dup_threshold: float = 0.9,
    max_in_flight: int = 4,
) -> tuple[VectorIndex, BuildReport]:
    """Embed, lemmatize and index every non-excluded segment.

    ``embedder`` must expose ``embed(texts) -> list of vectors`` and a
    ``cfg`` with ``model_id`` and ``max_batch`` (the backends client does).
    Embedding batches of at most ``cfg.max_batch`` texts go out through
    ``send_batches`` with at most ``max_in_flight`` in flight. Exact-text and
    id matches against ``exclusions`` are dropped, as are near-duplicates
    whose lemma Jaccard against any excluded text reaches
    ``near_dup_threshold``, which must lie in [0, 1].
    """
    if not 0.0 <= near_dup_threshold <= 1.0:
        raise ValueError(f"near_dup_threshold must be in [0, 1], got {near_dup_threshold}")
    exclusions = exclusions or ExclusionList.empty()
    report = BuildReport()

    excl_lemmas = [lemmatize(t) for t in sorted(exclusions.exact_texts)]

    kept: list[SourceSegment] = []
    kept_lemmas: list[frozenset] = []
    for seg in segments:
        report.rows_seen += 1
        if exclusions.matches(seg.id, seg.text):
            report.excluded_exact += 1
            continue
        lem = lemmatize(seg.text)
        if any(jaccard(lem, el) >= near_dup_threshold for el in excl_lemmas):
            report.excluded_near_dup += 1
            continue
        kept.append(seg)
        kept_lemmas.append(lem)

    model_id = embedder.cfg.model_id
    if not kept:
        empty = VectorIndex([], [], [], np.zeros((0, 0), dtype=np.float32), model_id)
        return empty, report

    texts = [s.text for s in kept]
    vectors: list[np.ndarray] = []
    dim = None
    for batch_no, (_batch, result, _ms) in enumerate(
            send_batches(embedder.embed, texts, embedder.cfg.max_batch, max_in_flight)):
        if isinstance(result, Exception):
            raise IndexError_(f"embedding batch {batch_no} failed: {result}") from result
        for v in result:
            arr = np.asarray(v, dtype=np.float32).reshape(-1)
            if dim is None:
                dim = arr.shape[0]
            elif arr.shape[0] != dim:
                raise IndexError_(
                    f"dimension drift in batch {batch_no}: got {arr.shape[0]}, expected {dim}"
                )
            vectors.append(arr)

    matrix = np.stack(vectors)
    index = VectorIndex.from_arrays(
        [s.id for s in kept],
        texts,
        kept_lemmas,
        matrix,
        model_id=model_id,
    )
    report.indexed = len(kept)
    return index, report


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def save_index(index: VectorIndex, path: str | Path) -> None:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)

    vec_path = out / "vectors.bin"
    vec_path.write_bytes(index._vectors.astype("<f4").tobytes(order="C"))

    meta_path = out / "meta.jsonl"
    with meta_path.open("w", encoding="utf-8", newline="\n") as fh:
        for i, sid in enumerate(index._ids):
            fh.write(json.dumps(
                {"id": sid, "text": index._texts[i], "lemmas": sorted(index._lemmas[i])},
                ensure_ascii=False,
            ))
            fh.write("\n")

    manifest = {
        "format_version": FORMAT_VERSION,
        "dim": index.dim,
        "model_id": index.model_id,
        "count": len(index),
        "checksums": {
            "vectors.bin": _sha256_file(vec_path),
            "meta.jsonl": _sha256_file(meta_path),
        },
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_index(path: str | Path) -> VectorIndex:
    src = Path(path)
    manifest_path = src / "manifest.json"
    if not manifest_path.exists():
        raise IndexError_(f"no manifest.json under {src}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise IndexError_(f"{manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise IndexError_(f"{manifest_path} is not a JSON object")

    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise IndexError_(
            f"refusing to load index format version {version!r}; this build reads "
            f"version {FORMAT_VERSION} only: rebuild the index with `refta index-build`"
        )

    missing = [key for key in ("checksums", "count", "dim", "model_id") if key not in manifest]
    if missing:
        raise IndexError_(f"{manifest_path} lacks {missing}")
    for name, expected in manifest["checksums"].items():
        if not (src / name).is_file() or _sha256_file(src / name) != expected:
            raise IndexError_(
                f"checksum mismatch for {name}: file is missing, corrupt or truncated"
            )

    count = manifest["count"]
    dim = manifest["dim"]
    raw = np.frombuffer((src / "vectors.bin").read_bytes(), dtype="<f4")
    if raw.size != count * dim:
        raise IndexError_(
            f"vectors.bin holds {raw.size} floats, expected {count * dim}"
        )
    vectors = raw.reshape(count, dim).copy() if count else np.zeros((0, dim), dtype=np.float32)

    ids, texts, lemmas = [], [], []
    with (src / "meta.jsonl").open("r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            ids.append(row["id"])
            texts.append(row["text"])
            lemmas.append(frozenset(row["lemmas"]))
    if len(ids) != count:
        raise IndexError_(f"meta.jsonl holds {len(ids)} rows, expected {count}")

    return VectorIndex(ids, texts, lemmas, vectors, manifest["model_id"])
