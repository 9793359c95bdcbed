"""Semantic retrieval index: exact dense search plus a lemma-overlap filter.

The index stores L2-normalized float32 embeddings in a contiguous matrix
and answers every query by an exact scan of it (``kernels.search_layer``).
Query semantics: take the ``candidate_pool`` most similar rows by cosine
similarity, in descending similarity with ties broken by ascending segment
id; drop candidates whose lemma Jaccard against the query falls below the
threshold; return at most ``k`` survivors in that order. No backfill below
the threshold. Every pool size gives the prefix of a full brute-force sort.

A row's lemmas are ``corpus.lemmatize(text)``, derived as a query's pool
reaches the row (``lemmatize`` is memoised) and never stored.

``build_index`` drops rows whose lemma Jaccard against any excluded text
reaches a threshold t, by an exact set-similarity join rather than a
comparison per (row, excluded text) pair (prefix filtering: Bayardo, Ma and
Srikant, WWW 2007; Xiao et al., PPJoin, WWW 2008). Lemmas are ranked by
ascending frequency among the excluded sets; a set of size n is indexed or
probed by its first n - α(n) + 1 lemmas, where α(n) is the least integer i
with ``i / n >= t``; a pair survives the size filter only if
``min(|a|, |b|) / max(|a|, |b|) >= t``, and survivors are checked by
``jaccard(a, b) >= t``. Each bound is the same float division as that final
test, and rounding is monotone, so the join keeps and drops exactly the
rows a pairwise loop would.

On-disk layout (``save_index``/``load_index``), format version 3:

- ``manifest.json``: format version, dimension, embedding model id, count,
  SHA-256 checksums of both data files, taken as they are written.
- ``vectors.bin``: little-endian float32, row-major.
- ``meta.jsonl``: one row per entry with ``id`` and ``text``. Format 2, still
  read, also wrote each row's ``lemmas``, which a load ignores.

A load reads each file once and hashes what it reads; the manifest must name
both data files and type its fields (a non-negative int count and dim).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from refta import kernels
from refta.artifacts import encode_json, encode_lines, read_json_object, read_lines, write_files
from refta.backends import send_batches
from refta.corpus import ParallelPair, SourceSegment, lemmatize
from refta.errors import CorpusFormatError, IndexError_, VectorError

FORMAT_VERSION = 3
NEAR_DUP_THRESHOLD = 0.9


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


def _normalize_rows(rows: np.ndarray, ids: Sequence[str] = ()) -> np.ndarray:
    """Scale each row of a float32 matrix in place to ``(v64 / sqrt(v64 @
    v64)).astype(float32)``, bit for bit (the stacked ``@`` makes the same
    ``ddot`` call per row), in blocks of about 2^20 float64 elements.

    A zero or non-finite row raises ``VectorError``, naming its segment id
    when ``ids`` holds one per row."""
    step = max(1, (1 << 20) // max(1, rows.shape[1]))
    for start in range(0, rows.shape[0], step):
        block = rows[start:start + step].astype(np.float64)
        norms = np.sqrt(block[:, None, :] @ block[:, :, None])[:, 0]
        if not 0.0 < norms.min() <= norms.max() < np.inf:  # a NaN norm fails too
            row = start + int(np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))[0])
            where = f" for segment {ids[row]!r}" if ids else ""
            raise VectorError(f"zero or non-finite vector rejected{where}")
        rows[start:start + step] = np.divide(block, norms, out=block)
    return rows


class VectorIndex:
    """Immutable-after-build vector index answered by an exact scan."""

    def __init__(self, ids: list[str], texts: list[str], vectors: np.ndarray, model_id: str):
        self._ids = ids
        self._texts = texts
        self._vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        self.model_id = model_id
        if len(set(ids)) != len(ids):
            raise IndexError_("duplicate segment ids in index")
        self._id_rank = np.empty(len(ids), dtype=np.int64)
        self._id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))

    # -- construction -------------------------------------------------------

    @classmethod
    def from_arrays(cls, ids: Sequence[str], texts: Sequence[str], vectors: np.ndarray,
                    model_id: str = "unknown") -> "VectorIndex":
        n = len(ids)
        if len(texts) != n:
            raise ValueError("ids and texts must have equal lengths")
        vectors = np.array(vectors, dtype=np.float32)  # a copy: the caller's rows stay raw
        if vectors.ndim != 2 or vectors.shape[0] != n:
            raise ValueError("vectors must be a (n, dim) matrix")
        ids = list(ids)
        return cls(ids, list(texts), _normalize_rows(vectors, ids), model_id)

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
        candidate_pool: int,
        skip_texts: frozenset = frozenset(),
    ) -> list[RetrievalResult]:
        """Top-k filtered retrieval; see the module docstring for semantics. A
        zero or non-finite ``query_vector`` raises ``VectorError``."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if candidate_pool < k:
            raise ValueError(f"candidate_pool {candidate_pool} must be >= k {k}")
        if len(self._ids) == 0:
            return []
        query = np.array(query_vector, dtype=np.float32, ndmin=2)
        if query.shape != (1, self.dim):
            raise IndexError_(f"query of shape {query.shape} does not fit index dim {self.dim}")
        rows, sims = kernels.search_layer(self._vectors, self._id_rank,
                                          _normalize_rows(query)[0], candidate_pool)
        out: list[RetrievalResult] = []
        for row, sim in zip(rows.tolist(), sims.tolist()):
            if self._texts[row] in skip_texts:
                continue
            jac = jaccard(query_lemmas, lemmatize(self._texts[row]))
            if jac >= jaccard_threshold:
                out.append(RetrievalResult(
                    entry=self.entry(row),
                    cosine_similarity=sim,
                    jaccard=jac,
                ))
                if len(out) == k:
                    break
        return out


def _min_overlap(n: int, t: float) -> int:
    """The least integer ``i`` with ``i / n >= t``, for ``n >= 1`` and ``0 < t <= 1``."""
    i = math.ceil(t * n)
    while (i - 1) / n >= t:
        i -= 1
    while i / n < t:
        i += 1
    return i


def _near_dup_join(excluded: list[frozenset], t: float) -> Callable[[str], bool]:
    """Return a test of whether a row text's lemmas reach Jaccard ``t``
    against any of the ``excluded`` lemma sets, by the join the module
    docstring describes. Lemmas that no excluded set holds rank first, and
    frequency ties go by lemma.

    The filters are exact. If ``jaccard(a, b) >= t``, then ``|a n b| / |a|``
    and ``|a n b| / |b|`` reach ``t`` as floats too, since the union is no
    smaller than either set and division rounds monotonically. So a and b
    share at least max(α(|a|), α(|b|)) lemmas, and the lowest-ranked of them
    lies in both prefixes; and ``min(|a|, |b|) / max(|a|, |b|) >= t``, since
    the overlap is at most the min and the union at least the max. An empty
    set scores 0.0 against any set, so it matches nothing at ``t > 0``; at
    ``t == 0`` every row matches once a text is excluded, unlemmatized.
    """
    if not excluded:
        return lambda text: False
    if t == 0.0:
        return lambda text: True
    sets = [b for b in set(excluded) if b]
    freq = Counter(lem for b in sets for lem in b)
    rank = {lem: r for r, lem in enumerate(sorted(freq, key=lambda lem: (freq[lem], lem)))}
    prefix_len = functools.cache(lambda n: n - _min_overlap(n, t) + 1)
    postings: list[list[int]] = [[] for _ in rank]
    for j, b in enumerate(sets):
        for r in sorted(rank[lem] for lem in b)[:prefix_len(len(b))]:
            postings[r].append(j)

    def is_near_dup(text: str) -> bool:
        a = lemmatize(text)
        n = len(a)
        if not n:
            return False
        shared = sorted(rank[lem] for lem in a if lem in rank)
        # the lemmas of ``a`` that no excluded set holds fill its prefix first
        probe = prefix_len(n) - (n - len(shared))
        seen: set[int] = set()
        for r in shared[:max(0, probe)]:
            for j in postings[r]:
                if j not in seen:
                    seen.add(j)
                    m = len(sets[j])
                    if min(n, m) / max(n, m) >= t and jaccard(a, sets[j]) >= t:
                        return True
        return False

    return is_near_dup


def build_index(
    segments: Iterable[SourceSegment],
    embedder,
    exclusions: ExclusionList | None = None,
    *,
    near_dup_threshold: float = NEAR_DUP_THRESHOLD,
    max_in_flight: int = 4,
) -> tuple[VectorIndex, BuildReport]:
    """Embed and index every non-excluded segment.

    ``embedder`` must expose ``embed(texts)``, returning a ``(len(texts),
    dim)`` float32 matrix, and a ``cfg`` with ``model_id`` and ``max_batch``
    (the backends client does). Embedding batches of at most
    ``cfg.max_batch`` texts go out through ``send_batches`` with at most
    ``max_in_flight`` in flight, and each lands in one preallocated matrix
    that is then normalised in place. Exact-text and id matches against
    ``exclusions`` are dropped, as are near-duplicates whose lemma Jaccard
    against any excluded text reaches ``near_dup_threshold``, which must lie
    in [0, 1]. Near-duplicates are found by the exact prefix-filtered join
    of the module docstring: each row probes the posting lists of its own
    prefix, its first n - α(n) + 1 lemmas in ascending frequency among the
    excluded sets, instead of being compared with every excluded text; the
    pairs that pass the size filter are checked by ``jaccard`` as before.
    With no excluded text no row is lemmatized. A build that keeps no row
    raises ``IndexError_`` before any request.
    """
    if not 0.0 <= near_dup_threshold <= 1.0:
        raise ValueError(f"near_dup_threshold must be in [0, 1], got {near_dup_threshold}")
    exclusions = exclusions or ExclusionList.empty()
    report = BuildReport()

    is_near_dup = _near_dup_join([lemmatize(t) for t in exclusions.exact_texts],
                                 near_dup_threshold)

    kept: list[SourceSegment] = []
    kept_ids: set = set()
    for seg in segments:
        report.rows_seen += 1
        if exclusions.matches(seg.id, seg.text):
            report.excluded_exact += 1
            continue
        if is_near_dup(seg.text):
            report.excluded_near_dup += 1
            continue
        if seg.id in kept_ids:  # refused before any row is embedded
            raise IndexError_(f"duplicate segment id {seg.id!r} in index")
        kept_ids.add(seg.id)
        kept.append(seg)
    if not kept:
        raise IndexError_(f"no row to index: {report.excluded_exact} excluded, "
                          f"{report.excluded_near_dup} near-duplicates dropped")

    texts = [s.text for s in kept]
    max_batch, matrix = embedder.cfg.max_batch, None
    for rows, result, _ms in send_batches(lambda rows: embedder.embed(texts[rows[0]:rows[-1] + 1]),
                                          range(len(texts)), max_batch, max_in_flight):
        batch_no = rows[0] // max_batch
        if isinstance(result, Exception):
            raise IndexError_(f"embedding batch {batch_no} failed: {result}") from result
        if matrix is None:
            matrix = np.empty((len(texts), result.shape[1]), dtype=np.float32)
        elif result.shape[1] != matrix.shape[1]:
            raise IndexError_(f"dimension drift in batch {batch_no}: got {result.shape[1]}, "
                              f"expected {matrix.shape[1]}")
        matrix[rows[0]:rows[-1] + 1] = result

    ids = [s.id for s in kept]
    index = VectorIndex(ids, texts, _normalize_rows(matrix, ids), embedder.cfg.model_id)
    report.indexed = len(kept)
    return index, report


def save_index(index: VectorIndex, path: str | Path) -> None:
    """Write ``index`` under ``path``; the three files replace the old ones
    together once all are written."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    write_files({
        out / "vectors.bin": [index._vectors.astype("<f4", copy=False)],
        out / "meta.jsonl": encode_lines(json.dumps(
            {"id": sid, "text": index._texts[i]}, ensure_ascii=False,
        ) for i, sid in enumerate(index._ids)),
        out / "manifest.json": lambda sums: [encode_json({
            "format_version": FORMAT_VERSION,
            "dim": index.dim,
            "model_id": index.model_id,
            "count": len(index),
            "checksums": {"vectors.bin": sums[0], "meta.jsonl": sums[1]},
        })],
    })


def _read_vectors(path: Path, sha) -> np.ndarray:
    vectors = np.fromfile(path, dtype="<f4")
    sha.update(vectors)
    return vectors


def _read_meta(path: Path, sha) -> tuple[list, list]:
    """Parse ``meta.jsonl`` row by row; ``read_lines`` hashes each line as it is read."""
    ids, texts = [], []
    try:
        for row_no, line in read_lines(path, sha):
            row = json.loads(line)
            ids.append(row["id"])
            texts.append(row["text"])
    except CorpusFormatError as exc:  # unreadable, or a row cut inside a character
        raise IndexError_(str(exc)) from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise IndexError_(f"{path} row {row_no} does not parse: {exc!r}") from exc
    return ids, texts


_DATA_FILES = {"vectors.bin": _read_vectors, "meta.jsonl": _read_meta}
_MANIFEST_CHECKS = {
    "checksums": lambda v: isinstance(v, dict) and _DATA_FILES.keys() <= v.keys(),
    "count": lambda v: type(v) is int and v >= 0,
    "dim": lambda v: type(v) is int and v >= 0,
    "model_id": lambda v: isinstance(v, str),
}


def load_index(path: str | Path) -> VectorIndex:
    src = Path(path)
    manifest_path = src / "manifest.json"
    manifest = read_json_object(manifest_path, IndexError_)

    version = manifest.get("format_version")
    if version not in (2, FORMAT_VERSION):
        raise IndexError_(
            f"refusing to load index format version {version!r}; this build reads version "
            f"2 or {FORMAT_VERSION} only: rebuild the index with `refta index-build`"
        )

    missing = [key for key in _MANIFEST_CHECKS if key not in manifest]
    if missing:
        raise IndexError_(f"{manifest_path} lacks {missing}")
    for key, valid in _MANIFEST_CHECKS.items():
        if not valid(manifest[key]):
            raise IndexError_(f"{manifest_path} has a malformed {key!r}: {manifest[key]!r}")

    # each data file is read once and hashed as it is read
    data = {}
    for name, read in _DATA_FILES.items():
        sha = hashlib.sha256()
        if (src / name).is_file():
            data[name] = read(src / name, sha)
        if name not in data or sha.hexdigest() != manifest["checksums"][name]:
            raise IndexError_(
                f"checksum mismatch for {name}: file is missing, corrupt or truncated"
            )
    vectors, (ids, texts) = data["vectors.bin"], data["meta.jsonl"]
    count, dim = manifest["count"], manifest["dim"]
    if vectors.size != count * dim:
        raise IndexError_(f"vectors.bin holds {vectors.size} floats, expected {count * dim}")
    if len(ids) != count:
        raise IndexError_(f"meta.jsonl holds {len(ids)} rows, expected {count}")
    return VectorIndex(ids, texts, vectors.reshape(count, dim), manifest["model_id"])
