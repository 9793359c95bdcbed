from __future__ import annotations

import json
import re
import unicodedata

import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURES
from refta.corpus import (
    _TOKEN_RE,
    ParallelPair,
    SourceSegment,
    lemmatize,
    load_monolingual,
    load_parallel,
    normalize_text,
    schinke_stem,
)
from refta.errors import CorpusFormatError


class TestNormalizeText:
    def test_whitespace_collapse(self):
        assert normalize_text("  Gallia   est ") == "Gallia est"

    def test_idempotent_on_clean_input(self):
        assert normalize_text("Gallia est") == "Gallia est"

    def test_nfc_composition(self):
        # e + combining acute composes to the single precomposed code point
        decomposed = "Café"
        out = normalize_text(decomposed)
        assert out == "Café"
        assert unicodedata.is_normalized("NFC", out)

    def test_newlines_become_spaces_controls_dropped(self):
        # newline and tab act as separators; other controls vanish in place
        assert normalize_text("a\nb\x00c\td") == "a bc d"

    def test_empty_signal(self):
        assert normalize_text(" \x07 \n ") == ""

    @given(st.text(max_size=200))
    def test_idempotence(self, s):
        once = normalize_text(s)
        assert normalize_text(once) == once

    @given(st.text(alphabet=st.one_of(
        st.characters(),
        # Cc (two of them whitespace to \s), Cf, Zs, Zl, Zp, combining, astral
        st.sampled_from("\x00\x1c\x7f\x85\u00ad\u200b\u200e\ufeff\U000e0001"
                        "\u00a0\u3000\u2028\u2029\u0301\u0308\U0001d11e\U0001f600"),
        st.sampled_from(" \n\r\t\v\fe"),
    ), max_size=60))
    def test_equals_the_per_character_rule(self, s):
        assert normalize_text(s) == _per_character_normalize(s)


def _per_character_normalize(raw: str) -> str:
    """``normalize_text`` as a loop over characters, kept as its oracle."""
    s = unicodedata.normalize("NFC", raw)
    chars = []
    for ch in s:
        if ch in "\n\r\t\v\f":
            chars.append(" ")
            continue
        if unicodedata.category(ch) in ("Cc", "Cf"):
            continue
        chars.append(ch)
    return re.sub(r"\s+", " ", "".join(chars)).strip()


class TestLemmatize:
    def test_memoised_stemmer_matches_the_rules(self):
        texts = [seg.text for seg in load_monolingual(
            FIXTURES / "corpora" / "retrieval_fixture.jsonl", "jsonl")]
        texts += [pair.source.text for pair in load_parallel(
            FIXTURES / "testsets" / "ood_fixture_110.tsv", "tsv")]
        tokens = {t.lower() for text in texts for t in _TOKEN_RE.findall(text)}
        assert len(tokens) >= 50
        for _ in range(2):  # cold, then from the cache
            assert all(schinke_stem(t) == schinke_stem.__wrapped__(t) for t in tokens)

    # stems below were derived by applying the published rule tables by hand
    def test_schinke_noun_and_verb_stems(self):
        assert schinke_stem("portas") == frozenset({"port", "porta"})
        assert schinke_stem("portarum") == frozenset({"portar", "portaru"})
        assert schinke_stem("portam") == frozenset({"port", "porta"})
        assert schinke_stem("gallia") == frozenset({"gall", "gallia"})
        assert schinke_stem("est") == frozenset({"est", "es"})

    def test_inflection_conflation(self):
        # portas and portam share both stems under the rule tables
        assert lemmatize("portas") == lemmatize("portam")

    def test_que_enclitic(self):
        # exception list word is left whole
        assert schinke_stem("atque") == frozenset({"atque"})
        # populusque -> populus -> noun 'popul', verb 'populus' (-s removed -> 'populu')
        assert schinke_stem("populusque") == frozenset({"popul", "populu"})

    def test_j_v_conflation(self):
        assert schinke_stem("jus") == schinke_stem("ius")
        assert schinke_stem("veni") == schinke_stem("ueni")

    def test_empty_input(self):
        assert lemmatize("") == frozenset()

    def test_set_dedup(self):
        assert len(lemmatize("Gallia Gallia")) == len(lemmatize("Gallia"))

    def test_short_tokens_dropped(self):
        assert lemmatize("a b c") == frozenset()

    def test_memoised(self):
        # the index derives a pool row's lemmas from its text at every query
        text = "Gallia est omnis divisa in partes tres."
        assert lemmatize(text) is lemmatize(text)
        assert lemmatize.cache_info().maxsize == 1 << 16

    def test_invariants(self):
        out = lemmatize("Senatus Populusque Romanus")
        assert all(s and s == s.lower() and " " not in s for s in out)

    @given(st.lists(st.sampled_from(
        ["gallia", "bellum", "portas", "senatus", "aqua", "dominus"]
    ), min_size=1, max_size=8))
    def test_case_and_whitespace_invariance(self, words):
        base = " ".join(words)
        shouted = "  ".join(w.upper() for w in words)
        assert lemmatize(base) == lemmatize(shouted)


class TestLoadMonolingual:
    def test_plain_lines_ids(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_text("una linea\naltera linea\ntertia linea\n", encoding="utf-8")
        segs = list(load_monolingual(p, "plain-lines"))
        assert [s.id for s in segs] == [f"corpus.txt:{i}" for i in (1, 2, 3)]
        assert [s.text for s in segs] == ["una linea", "altera linea", "tertia linea"]

    def test_jsonl_missing_text(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text('{"id": "a", "text": "bona"}\n{"id": "b"}\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError) as exc:
            list(load_monolingual(p, "jsonl"))
        assert exc.value.line_no == 2
        assert "text" in str(exc.value)

    def test_empty_line_skipped_and_reported(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_text("prima\n   \ntertia\n", encoding="utf-8")
        skipped = []
        segs = list(load_monolingual(p, "plain-lines", skipped=skipped))
        assert len(segs) == 2
        assert skipped == [2]

    def test_duplicate_jsonl_id(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        rows = [{"id": "x", "text": "prima"}, {"id": "x", "text": "altera"}]
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 1"):
            list(load_monolingual(p, "jsonl"))

    def test_reads_parallel_rows_ignoring_references(self, tmp_path):
        p = tmp_path / "set.jsonl"
        row = {"id": "a", "text": " latin  hic", "references": ["a ref"], "note": 1}
        p.write_text(json.dumps(row) + "\n", encoding="utf-8")
        assert list(load_monolingual(p, "jsonl")) == [SourceSegment("a", "latin hic")]

    def test_bare_carriage_return_does_not_end_a_line(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_bytes(b"prima linea\rmedia\nsecunda linea\n")
        segs = list(load_monolingual(p, "plain-lines"))
        assert [s.id for s in segs] == ["corpus.txt:1", "corpus.txt:2"]
        assert [s.text for s in segs] == ["prima linea media", "secunda linea"]

    def test_crlf_line_endings(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_bytes(b"una linea\r\naltera linea\r\n")
        segs = list(load_monolingual(p, "plain-lines"))
        assert [(s.id, s.text) for s in segs] == [
            ("corpus.txt:1", "una linea"), ("corpus.txt:2", "altera linea")]
        tsv = tmp_path / "set.tsv"
        tsv.write_bytes(b"a\tlatin unum\tref one\r\nb\tlatin duo\tref two\r\n")
        assert [p.references for p in load_parallel(tsv, "tsv")] == [("ref one",), ("ref two",)]

    def test_rejects_non_utf8(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_bytes(b"bona\n\xff\xfe latin-1 junk\n")
        with pytest.raises(CorpusFormatError, match="UTF-8") as exc:
            list(load_monolingual(p, "plain-lines"))
        assert exc.value.line_no == 2  # the line that holds the bad byte


class TestLoadParallel:
    def test_fixture_110_rows(self):
        from conftest import FIXTURES

        pairs = load_parallel(FIXTURES / "testsets" / "ood_fixture_110.tsv", "tsv")
        assert len(pairs) == 110
        assert all(len(p.references) >= 1 for p in pairs)

    def test_two_references(self, tmp_path):
        p = tmp_path / "set.tsv"
        p.write_text("a\tlatin hic\tref one\tref two\n", encoding="utf-8")
        pairs = load_parallel(p, "tsv")
        assert pairs[0].references == ("ref one", "ref two")

    def test_bare_carriage_return_inside_a_row(self, tmp_path):
        p = tmp_path / "set.tsv"
        p.write_bytes(b"a1\tGallia est\romnis divisa.\tAll Gaul is divided.\n")
        (pair,) = load_parallel(p, "tsv")
        assert pair.source.text == "Gallia est omnis divisa."
        assert pair.references == ("All Gaul is divided.",)

    def test_too_few_fields(self, tmp_path):
        p = tmp_path / "set.tsv"
        p.write_text("a\tlatin only\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as exc:
            load_parallel(p, "tsv")
        assert exc.value.line_no == 1

    def test_duplicate_id_names_both_lines(self, tmp_path):
        p = tmp_path / "set.tsv"
        p.write_text("a\tlatin unum\tref\nb\tlatin duo\tref\na\tlatin tres\tref\n",
                     encoding="utf-8")
        with pytest.raises(CorpusFormatError) as exc:
            load_parallel(p, "tsv")
        assert exc.value.line_no == 3
        assert "line 1" in str(exc.value)

    def test_jsonl_format(self, tmp_path):
        p = tmp_path / "set.jsonl"
        row = {"id": "a", "text": "latin hic", "references": ["a ref"]}
        p.write_text(json.dumps(row) + "\n", encoding="utf-8")
        pairs = load_parallel(p, "jsonl")
        assert pairs[0].source.id == "a"

    @pytest.mark.parametrize("references", ["abc", [], None])
    def test_jsonl_references_must_be_a_non_empty_list(self, tmp_path, references):
        p = tmp_path / "set.jsonl"
        rows = [{"id": "a", "text": "latin hic", "references": ["a ref"]},
                {"id": "b", "text": "latin illic", "references": references}]
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="references") as exc:
            load_parallel(p, "jsonl")
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("fmt, text", [("tsv", ""), ("jsonl", "\n\n")])
    def test_a_file_without_pairs_is_refused(self, tmp_path, fmt, text):
        p = tmp_path / f"set.{fmt}"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="no pairs") as exc:
            load_parallel(p, fmt)
        assert exc.value.path == str(p)

    def test_empty_reference_rejected(self, tmp_path):
        p = tmp_path / "set.tsv"
        p.write_text("a\tlatin hic\t \n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="empty reference"):
            load_parallel(p, "tsv")


@pytest.mark.parametrize("load", [
    lambda p: list(load_monolingual(p, "jsonl")),
    lambda p: load_parallel(p, "jsonl"),
], ids=["monolingual", "parallel"])
def test_jsonl_non_object_row_names_its_line(tmp_path, load):
    p = tmp_path / "rows.jsonl"
    p.write_text('{"id": "a", "text": "bona", "references": ["good"]}\n\n5\n',
                 encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="not a JSON object") as exc:
        load(p)
    assert exc.value.line_no == 3


@pytest.mark.parametrize("field, value", [
    ("text", None), ("text", ["Gallia", "est"]), ("id", None), ("id", 1.5), ("id", True),
    ("references", [None]), ("references", ["good", 3]),
])
@pytest.mark.parametrize("parallel", [False, True], ids=["monolingual", "parallel"])
def test_jsonl_fields_must_hold_strings(tmp_path, parallel, field, value):
    """``text`` and every reference are strings and ``id`` a string or an
    integer (row 1's id 7 reads as "7"); no other value is read as its ``str()``."""
    p = tmp_path / "rows.jsonl"
    rows = [{"id": 7, "text": "bona", "references": ["good"]},
            {"id": "b", "text": "mala", "references": ["bad"], field: value}]
    p.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    if parallel:
        def load():
            return [pair.source for pair in load_parallel(p, "jsonl")]
    else:
        def load():
            return list(load_monolingual(p, "jsonl"))
    if field == "references" and not parallel:  # the monolingual reader ignores them
        assert [segment.id for segment in load()] == ["7", "b"]
        return
    with pytest.raises(CorpusFormatError, match="JSON strings") as exc:
        load()
    assert exc.value.line_no == 2


def test_source_segment_requires_text():
    with pytest.raises(ValueError, match="empty text"):
        SourceSegment("x", "")


def test_parallel_pair_requires_reference():
    seg = SourceSegment("x", "textus")
    with pytest.raises(ValueError):
        ParallelPair(source=seg, references=())
