from __future__ import annotations

import builtins
import io
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA, FIXTURES, LEMMA_WORDS, brute_force_query, random_index, spell
from refta.backends import EmbedderClient
from refta.corpus import SourceSegment, lemmatize, load_monolingual, load_parallel
from refta.errors import IndexError_
import refta.index
from refta.index import (
    BuildReport,
    ExclusionList,
    VectorIndex,
    _normalize_rows,
    build_index,
    jaccard,
    load_index,
    save_index,
)
from refta.mockserver import hash_embedding

lemma_sets = st.frozensets(
    st.sampled_from(LEMMA_WORDS[:12]), max_size=8
)

RETRIEVAL = FIXTURES / "corpora" / "retrieval_fixture.jsonl"
TEST_SET = FIXTURES / "testsets" / "ood_fixture_110.tsv"


def _fixture_index(n: int | None, dim: int) -> VectorIndex:
    """The first ``n`` fixture corpus rows with ``hash_embedding`` vectors."""
    segs = list(load_monolingual(RETRIEVAL, "jsonl"))[:n]
    texts = [s.text for s in segs]
    vectors = np.stack([hash_embedding(t, dim) for t in texts])
    return VectorIndex.from_arrays([s.id for s in segs], texts, vectors,
                                   model_id=f"hash-embedding-{dim}")


class TestJaccard:
    def test_identity(self):
        s = frozenset({"x", "y", "z"})
        assert jaccard(s, s) == 1.0

    def test_disjoint(self):
        assert jaccard(frozenset({"x", "y"}), frozenset({"z", "w"})) == 0.0

    def test_half_overlap(self):
        # intersection {b, c} = 2, union {a, b, c, d} = 4
        assert jaccard(frozenset("abc"), frozenset("bcd")) == 0.5

    def test_both_empty(self):
        assert jaccard(frozenset(), frozenset()) == 0.0

    @given(lemma_sets, lemma_sets)
    def test_symmetry_and_range(self, a, b):
        assert jaccard(a, b) == jaccard(b, a)
        assert 0.0 <= jaccard(a, b) <= 1.0

    @given(lemma_sets)
    def test_self_identity(self, a):
        assert jaccard(a, a) == (1.0 if a else 0.0)


class TestQuery:
    def test_exact_vector_ranks_first(self):
        index, lemmas, raw = random_index(120, 16, seed=2)
        res = index.query(raw[17], lemmas[17], k=5, jaccard_threshold=0.0,
                          candidate_pool=120)
        assert res[0].entry.segment_id == "seg00017"
        assert res[0].cosine_similarity == pytest.approx(1.0, abs=1e-6)

    def test_unsatisfiable_threshold(self):
        index, lemmas, raw = random_index(50, 8, seed=3)
        assert index.query(raw[0], lemmas[0], k=5, jaccard_threshold=1.01,
                           candidate_pool=50) == []

    def test_no_backfill_below_threshold(self):
        vecs = np.eye(4, dtype=np.float32)
        index = VectorIndex.from_arrays(
            ["s0", "s1", "s2", "s3"], ["ab 0", "ab 1", "ac 2", "ac 3"], vecs
        )
        res = index.query(vecs[0], frozenset({"ab"}), k=4, jaccard_threshold=0.5,
                          candidate_pool=4)
        assert [r.entry.segment_id for r in res] == ["s0", "s1"]
        assert all(r.jaccard >= 0.5 for r in res)

    def test_tie_break_ascending_id(self):
        v = np.array([[1.0, 0.0]] * 3, dtype=np.float32)
        index = VectorIndex.from_arrays(
            ["sc", "sa", "sb"], ["ex 2", "ex 0", "ex 1"], v,
        )
        res = index.query(np.array([1.0, 0.0], dtype=np.float32), frozenset({"ex"}),
                          k=3, jaccard_threshold=0.0, candidate_pool=3)
        assert [r.entry.segment_id for r in res] == ["sa", "sb", "sc"]

    def test_dimension_mismatch(self):
        index, lemmas, raw = random_index(10, 8, seed=4)
        with pytest.raises(IndexError_, match="dim 8"):
            index.query(np.ones(5, dtype=np.float32), lemmas[0], k=1,
                        jaccard_threshold=0.0, candidate_pool=10)

    def test_pool_must_cover_k(self):
        index, lemmas, raw = random_index(10, 8, seed=4)
        with pytest.raises(ValueError, match="candidate_pool"):
            index.query(raw[0], lemmas[0], k=5, jaccard_threshold=0.0,
                        candidate_pool=3)

    def test_empty_index_answers_empty(self):
        index = VectorIndex.from_arrays([], [], np.zeros((0, 8), dtype=np.float32))
        assert index.query(np.ones(8), frozenset(), k=3, jaccard_threshold=0.0,
                           candidate_pool=10) == []

    def test_skip_texts_promotes_next(self):
        index, lemmas, raw = random_index(60, 8, seed=9)
        full = index.query(raw[5], frozenset(), k=2, jaccard_threshold=0.0,
                           candidate_pool=60)
        skipped = index.query(raw[5], frozenset(), k=1, jaccard_threshold=0.0,
                              candidate_pool=60,
                              skip_texts=frozenset({full[0].entry.text}))
        assert skipped[0].entry.segment_id == full[1].entry.segment_id

    def test_matches_brute_force_oracle(self):
        for seed in (10, 11, 12):
            index, lemmas, raw = random_index(150, 16, seed=seed)
            ids = [index.entry(i).segment_id for i in range(len(index))]
            texts = [index.entry(i).text for i in range(len(index))]
            query_vec = np.random.default_rng(seed + 100).standard_normal(16).astype(np.float32)
            query_lemmas = frozenset(LEMMA_WORDS[1:4])
            for k in (1, 5, 20):
                for thr in (0.0, 0.3, 0.9):
                    got = [r.entry.segment_id for r in index.query(
                        query_vec, query_lemmas, k=k, jaccard_threshold=thr,
                        candidate_pool=len(index),
                    )]
                    want = brute_force_query(
                        ids, texts, lemmas, raw, query_vec, query_lemmas, k, thr
                    )
                    assert got == want

    def test_fixture_latin_matches_brute_force_oracle(self):
        # the index derives each row's lemmas from its text; the oracle is
        # given the real stemmer's sets
        index = _fixture_index(None, 16)
        ids = [index.entry(i).segment_id for i in range(len(index))]
        texts = [index.entry(i).text for i in range(len(index))]
        lemmas = [lemmatize(t) for t in texts]
        raw = np.stack([hash_embedding(t, 16) for t in texts])
        survivors = 0
        for pair in load_parallel(TEST_SET, "tsv"):
            query_vec = hash_embedding(pair.source.text, 16)
            query_lemmas = lemmatize(pair.source.text)
            for k, thr, pool in ((5, 0.0, 51), (5, 0.2, 51), (20, 0.3, len(index))):
                got = [r.entry.segment_id for r in index.query(
                    query_vec, query_lemmas, k=k, jaccard_threshold=thr, candidate_pool=pool,
                )]
                assert got == brute_force_query(ids, texts, lemmas, raw, query_vec,
                                                query_lemmas, k, thr, pool=pool)
                survivors += len(got) if thr else 0
        assert 0 < survivors < 110 * (5 + 20)  # the filter keeps some rows and drops others


class TestNormalizeRows:
    # 600 x 4096 spans three blocks of 256 rows
    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (64, 12), (130, 1024), (600, 4096)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_matches_the_per_row_reference_bit_for_bit(self, shape):
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        raw = rng.standard_normal(shape) * np.exp(rng.uniform(-8.0, 8.0, (shape[0], 1)))
        raw = raw.astype(np.float32)
        want = np.stack([(v / np.sqrt(v @ v)).astype(np.float32)
                         for v in raw.astype(np.float64)])
        got = raw.copy()
        assert _normalize_rows(got) is got
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_zero_or_non_finite_row_rejected(self, bad):
        rows = np.ones((5, 4), dtype=np.float32)
        rows[3] = 0.0
        rows[3, 1] = bad
        with pytest.raises(ValueError, match="zero or non-finite"):
            _normalize_rows(rows)

    def test_from_arrays_leaves_its_input_unchanged(self):
        raw = np.random.default_rng(5).standard_normal((20, 8)).astype(np.float32)
        kept = raw.copy()
        index = VectorIndex.from_arrays([f"s{i}" for i in range(20)], ["t"] * 20, raw)
        assert np.array_equal(raw, kept)
        assert np.allclose(np.linalg.norm(index._vectors, axis=1), 1.0)


class _ArrayEmbedder:
    """Deterministic in-process embedder standing in for the HTTP client."""

    class cfg:
        model_id = "test-embedder"
        max_batch = 16

    def __init__(self, dim=12, fail_for=(), drift_for=(), zero_for=()):
        self.dim = dim
        self.fail_for = set(fail_for)
        self.drift_for = set(drift_for)
        self.zero_for = set(zero_for)

    def embed(self, texts):
        # batches may run concurrently, so a fault follows a batch's texts
        if self.fail_for.intersection(texts):
            raise RuntimeError("backend down")
        dim = self.dim + (1 if self.drift_for.intersection(texts) else 0)
        out = np.zeros((len(texts), dim), dtype=np.float32)
        for row, t in zip(out, texts):
            if t not in self.zero_for:
                row[:] = np.random.default_rng(abs(hash(t)) % (2**32)).standard_normal(dim)
        return out


def _segments(n, prefix="seg"):
    words = ["gallia", "bellum", "senatus", "populus", "roma", "aqua",
             "terra", "ignis", "silva", "flumen", "mons", "ager", "urbs"]
    return [
        SourceSegment(
            f"{prefix}{i:03d}",
            " ".join(words[(2 * i + j) % len(words)] for j in range(5)),
        )
        for i in range(n)
    ]


class TestBuildIndex:
    def test_exclusions_counted(self):
        segs = _segments(10)
        excl = ExclusionList(
            exact_texts=frozenset({segs[0].text}), ids=frozenset({segs[1].id})
        )
        index, report = build_index(segs, _ArrayEmbedder(), excl)
        assert len(index) == 8
        assert report.excluded_exact == 2
        assert report.indexed == 8

    def test_empty_stream(self):
        with pytest.raises(IndexError_, match="no row to index: 0 excluded, 0 near-dup"):
            build_index([], _ArrayEmbedder(), ExclusionList.empty())

    def test_near_duplicate_dropped(self):
        segs = _segments(6)
        # same lemma set as segs[0] via word-order permutation
        twin = SourceSegment("twin", " ".join(reversed(segs[0].text.split())))
        excl = ExclusionList(exact_texts=frozenset({segs[0].text}), ids=frozenset())
        index, report = build_index(segs[1:] + [twin], _ArrayEmbedder(), excl,
                                    near_dup_threshold=0.9)
        assert report.excluded_near_dup == 1
        assert "twin" not in {index.entry(i).segment_id for i in range(len(index))}

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_near_dup_threshold_out_of_range_refused(self, threshold):
        embedder, sent = _ArrayEmbedder(), []
        embedder.embed = sent.append
        with pytest.raises(ValueError, match="near_dup_threshold"):
            build_index(_segments(3), embedder, near_dup_threshold=threshold)
        assert sent == []

    def test_backend_failure_names_batch(self):
        segs = _segments(40)  # 3 batches at max_batch 16
        segs[20] = SourceSegment("odd", "textus singularis")  # batch 1
        with pytest.raises(IndexError_, match="batch 1"):
            build_index(segs, _ArrayEmbedder(fail_for={"textus singularis"}),
                        ExclusionList.empty())

    def test_dimension_drift_aborts(self):
        segs = _segments(40)
        segs[35] = SourceSegment("odd", "textus singularis")  # batch 2
        with pytest.raises(IndexError_, match="drift"):
            build_index(segs, _ArrayEmbedder(drift_for={"textus singularis"}),
                        ExclusionList.empty())

    def test_zero_vector_rejected(self):
        segs = _segments(3)
        with pytest.raises(ValueError, match="zero"):
            build_index(segs, _ArrayEmbedder(zero_for={segs[1].text}),
                        ExclusionList.empty())

    def test_zero_vector_is_an_index_error_naming_its_segment(self):
        segs = _segments(3)
        with pytest.raises(IndexError_, match=f"zero or non-finite .*'{segs[1].id}'"):
            build_index(segs, _ArrayEmbedder(zero_for={segs[1].text}),
                        ExclusionList.empty())

    def test_build_via_http_client(self, mock_server, endpoint):
        segs = _segments(20)
        embedder = EmbedderClient(endpoint("embedder", max_batch=8))
        index, report = build_index(segs, embedder, ExclusionList.empty())
        assert len(index) == 20
        assert index.dim == 64
        assert index.model_id == "mock-embedder"
        # 20 segments at batch size 8 -> 3 requests
        assert mock_server.stats.snapshot()["counts"]["/embed"] == 3

    def test_no_row_lemmatized_without_exclusions(self, monkeypatch):
        calls = []
        monkeypatch.setattr(refta.index, "lemmatize",
                            lambda text: calls.append(text) or lemmatize(text))
        _index, report = build_index(_segments(12), _ArrayEmbedder(), ExclusionList.empty())
        assert report.indexed == 12
        assert calls == []


def _pairwise_build(rows, exclusions, near_dup_threshold):
    """The pairwise near-duplicate loop ``build_index`` ran before its
    prefix-filtered join, kept as the join's oracle."""
    report = BuildReport()
    excl_lemmas = [lemmatize(t) for t in sorted(exclusions.exact_texts)]
    kept = []
    for seg in rows:
        report.rows_seen += 1
        if exclusions.matches(seg.id, seg.text):
            report.excluded_exact += 1
            continue
        lem = lemmatize(seg.text)
        if any(jaccard(lem, el) >= near_dup_threshold for el in excl_lemmas):
            report.excluded_near_dup += 1
            continue
        kept.append(seg.id)
    report.indexed = len(kept)
    return report, kept


def _join_matches_pairwise(rows, excluded_texts, near_dup_threshold):
    exclusions = ExclusionList(exact_texts=frozenset(excluded_texts), ids=frozenset())
    want = _pairwise_build(rows, exclusions, near_dup_threshold)
    if not want[1]:  # a build that keeps no row is refused, naming both counts
        with pytest.raises(IndexError_) as refused:
            build_index(rows, _ArrayEmbedder(), exclusions,
                        near_dup_threshold=near_dup_threshold)
        assert str(refused.value) == (f"no row to index: {want[0].excluded_exact} excluded, "
                                      f"{want[0].excluded_near_dup} near-duplicates dropped")
        return want[0]
    index, report = build_index(rows, _ArrayEmbedder(), exclusions,
                                near_dup_threshold=near_dup_threshold)
    kept = [index.entry(i).segment_id for i in range(len(index))]
    assert (report, kept) == want
    return report


@st.composite
def _join_cases(draw):
    """Rows and excluded texts over a vocabulary of 1-9 lemmas, so that
    shared lemmas and equal sets are common; the excluded sets include
    empty and repeated ones, and some rows are excluded texts verbatim."""
    vocab = LEMMA_WORDS[:draw(st.integers(1, 9))]
    sets = st.frozensets(st.sampled_from(vocab), max_size=len(vocab))
    excluded = draw(st.lists(sets, max_size=6))
    if excluded and draw(st.booleans()):
        excluded += draw(st.lists(st.sampled_from(excluded), min_size=1, max_size=3))
    if draw(st.booleans()):
        excluded.append(frozenset())
    excluded_texts = [spell(b, 1000 + j) for j, b in enumerate(excluded)]
    rows = [SourceSegment(f"r{i:02d}", spell(a, i))
            for i, a in enumerate(draw(st.lists(sets, max_size=20)))]
    rows += [SourceSegment(f"x{j:02d}", text) for j, text in enumerate(excluded_texts)
             if draw(st.booleans())]
    return rows, excluded_texts


class TestNearDupJoin:
    @pytest.mark.parametrize("near_dup_threshold", [0.0, 1.0, 0.9, 0.7, 0.5, 1 / 3, 0.1 * 3])
    @settings(max_examples=60, deadline=None)
    @given(case=_join_cases())
    def test_matches_the_pairwise_loop(self, near_dup_threshold, case):
        rows, excluded_texts = case
        _join_matches_pairwise(rows, excluded_texts, near_dup_threshold)

    def test_superset_at_the_threshold_dropped(self):
        # |a n b| / |a u b| = 7 / 10, which is the float 0.7 itself
        a, b = frozenset(LEMMA_WORDS[:10]), frozenset(LEMMA_WORDS[:7])
        report = _join_matches_pairwise([SourceSegment("a", spell(a, 0))],
                                        [spell(b, 1)], 0.7)
        assert report.excluded_near_dup == 1


class _MatrixEmbedder:
    """In-process embedder answering each batch with one float32 matrix, as
    the HTTP client does; the rows repeat from batch to batch."""

    class cfg:
        model_id = "matrix-embedder"
        max_batch = 64

    def __init__(self, dim):
        self.rows = np.random.default_rng(3).standard_normal((self.cfg.max_batch, dim),
                                                             dtype=np.float32)

    def embed(self, texts):
        return self.rows[:len(texts)].copy()


def _traced_peak(fn) -> tuple[int, float]:
    """Peak bytes allocated above the starting level while ``fn`` runs, and
    its wall time in seconds."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        t0 = time.perf_counter()
        fn()
        seconds = time.perf_counter() - t0
        return tracemalloc.get_traced_memory()[1] - base, seconds
    finally:
        tracemalloc.stop()


def test_build_save_and_load_stay_near_one_matrix(tmp_path):
    n, dim = 4000, 2048
    matrix_bytes = n * dim * 4
    segs = [SourceSegment(f"s{i:05d}", f"textus {i}") for i in range(n)]
    embedder = _MatrixEmbedder(dim)

    def build_and_save():
        index, _ = build_index(segs, embedder)
        save_index(index, tmp_path / "idx")

    peak, seconds = _traced_peak(build_and_save)
    assert peak <= 2.0 * matrix_bytes, peak / matrix_bytes
    assert seconds < 1.0
    assert (tmp_path / "idx" / "vectors.bin").stat().st_size == matrix_bytes

    loaded = []
    peak, seconds = _traced_peak(lambda: loaded.append(load_index(tmp_path / "idx")))
    assert peak <= 1.3 * matrix_bytes, peak / matrix_bytes
    assert seconds < 1.0
    assert loaded[0].dim == dim and len(loaded[0]) == n


class TestPersistence:
    def test_round_trip_identical_queries_and_vectors(self, tmp_path):
        index, lemmas, raw = random_index(1000, 24, seed=21)
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert np.array_equal(index._vectors, loaded._vectors)
        rng = np.random.default_rng(77)
        for _ in range(5):
            q = rng.standard_normal(24).astype(np.float32)
            a = [(r.entry.segment_id, r.cosine_similarity) for r in index.query(
                q, frozenset({LEMMA_WORDS[1]}), k=5, jaccard_threshold=0.0, candidate_pool=30)]
            b = [(r.entry.segment_id, r.cosine_similarity) for r in loaded.query(
                q, frozenset({LEMMA_WORDS[1]}), k=5, jaccard_threshold=0.0, candidate_pool=30)]
            assert a == b

    def test_version_gate(self, tmp_path):
        index, _, _ = random_index(10, 8, seed=22)
        save_index(index, tmp_path / "idx")
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for version in (1, 99):
            manifest["format_version"] = version
            manifest_path.write_text(json.dumps(manifest))
            with pytest.raises(IndexError_, match=r"version 2 or 3 only: rebuild .*refta index-build"):
                load_index(tmp_path / "idx")

    def test_malformed_manifest_names_file_and_key(self, tmp_path):
        index, _, _ = random_index(10, 8, seed=22)
        save_index(index, tmp_path / "idx")
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        cases = [
            ("{not json", "manifest.json is not valid JSON"),
            (json.dumps({k: v for k, v in manifest.items() if k != "checksums"}),
             r"manifest.json lacks \['checksums'\]"),
            (json.dumps({k: v for k, v in manifest.items() if k != "count"}),
             r"manifest.json lacks \['count'\]"),
        ]
        for text, message in cases:
            manifest_path.write_text(text)
            with pytest.raises(IndexError_, match=message):
                load_index(tmp_path / "idx")

    def test_truncated_vectors_fail_checksum(self, tmp_path):
        index, _, _ = random_index(10, 8, seed=23)
        save_index(index, tmp_path / "idx")
        vec_path = tmp_path / "idx" / "vectors.bin"
        vec_path.write_bytes(vec_path.read_bytes()[:-8])
        with pytest.raises(IndexError_, match="vectors.bin"):
            load_index(tmp_path / "idx")

    @pytest.mark.parametrize("cut", [1, 20])  # into the last row's newline or its text
    def test_truncated_meta_is_an_index_error(self, tmp_path, cut):
        index, _, _ = random_index(10, 8, seed=23)
        save_index(index, tmp_path / "idx")
        meta_path = tmp_path / "idx" / "meta.jsonl"
        meta_path.write_bytes(meta_path.read_bytes()[:-cut])
        with pytest.raises(IndexError_, match="meta.jsonl"):
            load_index(tmp_path / "idx")

    @pytest.mark.parametrize("key, value", [
        ("checksums", {}), ("count", "10"), ("dim", -8), ("model_id", None),
    ])
    def test_manifest_fields_are_checked_by_name(self, tmp_path, key, value):
        index, _, _ = random_index(10, 8, seed=22)
        save_index(index, tmp_path / "idx")
        meta_path = tmp_path / "idx" / "meta.jsonl"
        # an edited row that only an unverified load would accept
        meta_path.write_text(meta_path.read_text().replace(json.dumps(index.entry(0).text),
                                                           '"TAMPERED"'))
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps({**manifest, key: value}))
        with pytest.raises(IndexError_, match=f"manifest.json has a malformed '{key}'"):
            load_index(tmp_path / "idx")

    def test_each_file_opened_once_per_save_and_load(self, tmp_path, monkeypatch):
        index, _, _ = random_index(10, 8, seed=25)
        save_index(index, tmp_path / "idx")
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(Path(file).name)
            return real_open(file, *args, **kwargs)

        # pathlib opens through io.open, NumPy's fromfile through builtins.open
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        save_index(index, tmp_path / "idx")
        saved = sorted(opened)
        opened.clear()
        loaded = load_index(tmp_path / "idx")
        monkeypatch.undo()
        assert saved == ["manifest.json.tmp", "meta.jsonl.tmp", "vectors.bin.tmp"]
        assert sorted(opened) == ["manifest.json", "meta.jsonl", "vectors.bin"]
        assert np.array_equal(loaded._vectors, index._vectors)

    @pytest.mark.parametrize("failing",
                             ["vectors.bin.tmp", "meta.jsonl.tmp", "manifest.json.tmp"])
    def test_failed_save_keeps_the_old_index(self, tmp_path, monkeypatch, failing):
        old, _, _ = random_index(10, 8, seed=26)
        new, _, _ = random_index(12, 8, seed=27)
        save_index(old, tmp_path / "idx")
        real_open = builtins.open

        class DiskFull:
            """A binary file whose first write stores a few bytes, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                self.fh.write(bytes(chunk)[:4])
                raise OSError(28, "No space left on device")

        def open_failing(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            return DiskFull(fh) if Path(file).name == failing else fh

        monkeypatch.setattr(builtins, "open", open_failing)
        with pytest.raises(OSError, match="No space left"):
            save_index(new, tmp_path / "idx")
        monkeypatch.undo()
        assert sorted(p.name for p in (tmp_path / "idx").iterdir()) == [
            "manifest.json", "meta.jsonl", "vectors.bin"]
        loaded = load_index(tmp_path / "idx")
        assert loaded._ids == old._ids
        assert np.array_equal(loaded._vectors, old._vectors)

    def test_v2_directory_has_no_graph(self, tmp_path):
        index, _, _ = random_index(10, 8, seed=24)
        save_index(index, tmp_path / "idx")
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        assert manifest["format_version"] == 3
        assert "hnsw" not in manifest
        assert sorted(manifest["checksums"]) == ["meta.jsonl", "vectors.bin"]
        assert not (tmp_path / "idx" / "graph.npz").exists()

    def test_meta_rows_hold_only_id_and_text(self, tmp_path):
        index, _, _ = random_index(10, 8, seed=28)
        save_index(index, tmp_path / "idx")
        lines = (tmp_path / "idx" / "meta.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == [
            {"id": index.entry(i).segment_id, "text": index.entry(i).text} for i in range(10)]

    def test_format_2_index_answers_as_a_fresh_build(self, tmp_path):
        # tests/data/index_v2 was written by the format 2 writer from
        # _fixture_index(20, 8), with each row's lemma set in meta.jsonl
        v2_dir = DATA / "index_v2"
        assert json.loads((v2_dir / "manifest.json").read_text())["format_version"] == 2
        for line in (v2_dir / "meta.jsonl").read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            assert frozenset(row["lemmas"]) == lemmatize(row["text"])
        old = load_index(v2_dir)
        save_index(_fixture_index(20, 8), tmp_path / "idx")
        fresh = load_index(tmp_path / "idx")
        assert (old._ids, old._texts, old.model_id) == (fresh._ids, fresh._texts, fresh.model_id)
        assert np.array_equal(old._vectors, fresh._vectors)
        for pair in load_parallel(TEST_SET, "tsv"):
            query_vec = hash_embedding(pair.source.text, 8)
            query_lemmas = lemmatize(pair.source.text)
            for thr in (0.0, 0.2):
                assert old.query(query_vec, query_lemmas, k=5, jaccard_threshold=thr,
                                 candidate_pool=20) == fresh.query(
                    query_vec, query_lemmas, k=5, jaccard_threshold=thr, candidate_pool=20)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(IndexError_, match="manifest"):
            load_index(tmp_path)

    def test_empty_index_round_trip(self, tmp_path):
        import numpy as np

        empty = VectorIndex.from_arrays([], [], np.zeros((0, 8), dtype=np.float32))
        save_index(empty, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert len(loaded) == 0
        assert loaded.query(np.ones(8), frozenset(), k=1, jaccard_threshold=0.0,
                            candidate_pool=5) == []


@settings(max_examples=30)
@given(st.frozensets(st.sampled_from(LEMMA_WORDS[:8]), max_size=6),
       st.floats(min_value=0.0, max_value=1.0))
def test_no_result_below_threshold(query_lemmas, threshold):
    index, lemmas, raw = random_index(40, 8, seed=31)
    res = index.query(raw[0], query_lemmas, k=10, jaccard_threshold=threshold,
                      candidate_pool=40)
    assert all(r.jaccard >= threshold for r in res)
