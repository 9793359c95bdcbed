"""Corpus ingestion: normalization, segmentation, lemma extraction.

Input formats
-------------
- monolingual jsonl: one object per line with fields ``id`` and ``text``.
- monolingual plain-lines: one segment per line; ids are assigned as
  ``<filename>:<line-number>`` (1-based).
- parallel tsv: ``id \\t latin \\t reference[ \\t reference...]`` with no
  header row and ``\\n`` line endings.
- parallel jsonl: one object per line with fields ``id``, ``text`` and
  ``references`` (non-empty list of strings).

JSONL rows must be objects holding the fields their format needs (``text``
and each reference strings, ``id`` a string or an integer); other fields are
ignored. Blank lines are skipped, and ids must be unique.

Every run, index and corpus file refta reads must be valid UTF-8 and is
read by ``refta.artifacts``; anything else is rejected rather than
transcoded, since silent transcoding corrupts philological text.
"""

from __future__ import annotations

import functools
import json
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from refta.artifacts import read_lines
from refta.errors import CorpusFormatError

_WS_RE = re.compile(r"\s+")
_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
# printable ASCII is never Cc or Cf, so only the other characters are looked at
_NOT_PRINTABLE_ASCII_RE = re.compile(r"[^\x20-\x7e]")


def _control_char(match: re.Match) -> str:
    """Whitespace controls become a space, other Cc and Cf characters go."""
    ch = match.group()
    if ch in "\n\r\t\v\f":
        return " "
    return "" if unicodedata.category(ch) in ("Cc", "Cf") else ch


def normalize_text(raw: str) -> str:
    """Normalize a raw segment to canonical form.

    Applies Unicode NFC, turns newlines and other whitespace into single
    spaces, strips remaining control/format characters, collapses whitespace
    runs and trims. Idempotent. Returns the empty string when nothing
    survives; the caller decides whether to drop the segment.
    """
    s = _NOT_PRINTABLE_ASCII_RE.sub(_control_char, unicodedata.normalize("NFC", raw))
    return _WS_RE.sub(" ", s).strip()


@dataclass(frozen=True)
class SourceSegment:
    """One Latin input unit. ``text`` is NFC-normalized and non-empty."""

    id: str
    text: str

    def __post_init__(self):
        if not self.text:
            raise ValueError(f"segment '{self.id}' has empty text")


@dataclass(frozen=True)
class ParallelPair:
    """A source segment with one or more English references."""

    source: SourceSegment
    references: tuple[str, ...]

    def __post_init__(self):
        if not self.references or any(not r for r in self.references):
            raise ValueError(
                f"pair '{self.source.id}' needs at least one non-empty reference"
            )


# The 'que' enclitic cannot be stripped from these words.
_QUE_EXCEPTIONS = frozenset(
    """
    atque quoque neque itaque absque apsque abusque adaeque adusque denique
    deque susque oblique peraeque plenisque quandoque quisque quaeque
    cuiusque cuique quemque quamque quaque quique quorumque quarumque
    quibusque quosque quasque quotusquisque quousque ubique undique usque
    uterque utique utroque utribique torque coque concoque contorque
    detorque decoque excoque extorque obtorque optorque retorque recoque
    attorque incoque intorque praetorque
    """.split()
)

_NOUN_SUFFIXES = sorted(
    [
        "ibus", "ius", "ae", "am", "as", "em", "es", "ia", "is", "nt",
        "os", "ud", "um", "us", "a", "e", "i", "o", "u",
    ],
    key=len,
    reverse=True,
)

_VERB_SUFFIXES = sorted(
    [
        "iuntur", "beris", "erunt", "untur", "iunt", "mini", "ntur", "stis",
        "bor", "ero", "mur", "mus", "ris", "sti", "tis", "tur", "unt",
        "bo", "ns", "nt", "ri", "m", "r", "s", "t",
    ],
    key=len,
    reverse=True,
)

_VERB_REPLACEMENTS = {
    "iuntur": "i", "erunt": "i", "untur": "i", "iunt": "i", "unt": "i",
    "beris": "bi", "bor": "bi", "bo": "bi",
    "ero": "eri",
}


@functools.lru_cache(maxsize=1 << 16)
def schinke_stem(token: str) -> frozenset:
    """Deterministic rule-based Latin stemmer producing noun and verb stems.

    Each token yields up to two stems. i/j and u/v are conflated first, the
    'que' enclitic is stripped unless the word is on the exception list, and
    the longest matching suffix from each table is removed (or substituted)
    provided at least two characters remain.
    """
    w = token.lower().replace("j", "i").replace("v", "u")
    if w.endswith("que"):
        if w in _QUE_EXCEPTIONS:
            return frozenset((w,))
        w = w[:-3]

    noun = w
    for suf in _NOUN_SUFFIXES:
        if w.endswith(suf):
            if len(w) - len(suf) >= 2:
                noun = w[: -len(suf)]
            break

    verb = w
    for suf in _VERB_SUFFIXES:
        if w.endswith(suf):
            candidate = w[: -len(suf)] + _VERB_REPLACEMENTS.get(suf, "")
            if len(candidate) >= 2:
                verb = candidate
            break

    return frozenset(s for s in (noun, verb) if s)


@functools.lru_cache(maxsize=1 << 16)
def lemmatize(text: str) -> frozenset:
    """Return the set of stems for every alphabetic token of length >= 2."""
    stems: set[str] = set()
    for token in _TOKEN_RE.findall(text):
        if len(token) < 2:
            continue
        stems.update(schinke_stem(token.lower()))
    return frozenset(stems)


def _rows(path: Path, format: str, parallel: bool = False):
    """Yield ``(line_no, id, raw_text, raw_references)`` for each row of ``path``.

    Every row rule lives here. Blank lines are skipped, except in
    plain-lines, where the loader reports them as empty. A JSONL row must be
    an object holding ``id`` and ``text`` and, when ``parallel``, a
    non-empty ``references`` list, with ``text`` and each reference strings
    and ``id`` a string or an integer; other keys are ignored. An id seen
    twice is an error naming both lines. ``raw_references`` is None unless
    ``parallel``.
    """
    keys = ("id", "text", "references") if parallel else ("id", "text")
    seen: dict[str, int] = {}
    for line_no, line in read_lines(path):
        if format == "plain-lines":
            row = {"id": f"{path.name}:{line_no}", "text": line}
        elif not line.strip():
            continue
        elif format == "tsv":
            fields = line.split("\t")
            if len(fields) < 3:
                raise CorpusFormatError(
                    path, line_no,
                    f"expected at least 3 tab-separated fields, got {len(fields)}",
                )
            row = {"id": fields[0], "text": fields[1], "references": fields[2:]}
        else:
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(path, line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise CorpusFormatError(path, line_no, "row is not a JSON object")
            missing = [k for k in keys if k not in row]
            if missing:
                raise CorpusFormatError(path, line_no, f"row missing {missing}")
            if parallel and not (isinstance(row["references"], list) and row["references"]):
                raise CorpusFormatError(
                    path, line_no, "'references' must be a non-empty JSON list")
            strings = [row["text"], *(row["references"] if parallel else ())]
            if type(row["id"]) not in (str, int) or not all(isinstance(s, str) for s in strings):
                raise CorpusFormatError(path, line_no, "'text' and every reference must be "
                                        "JSON strings, and 'id' a string or an integer")
        seg_id = str(row["id"])
        if seg_id in seen:
            raise CorpusFormatError(
                path, line_no,
                f"duplicate id '{seg_id}' (first seen at line {seen[seg_id]})",
            )
        seen[seg_id] = line_no
        yield line_no, seg_id, row["text"], row["references"] if parallel else None


def load_monolingual(
    path: str | Path,
    format: str,
    skipped: list[int] | None = None,
) -> Iterator[SourceSegment]:
    """Stream normalized segments from a monolingual corpus file.

    ``format`` is ``"jsonl"`` or ``"plain-lines"``. Rows that normalize to
    empty text are skipped and, when ``skipped`` is given, their line numbers
    appended to it.
    Malformed rows raise :class:`CorpusFormatError` with the line number.
    """
    if format not in ("jsonl", "plain-lines"):
        raise ValueError(f"unknown monolingual format: {format!r}")
    path = Path(path)
    for line_no, seg_id, raw_text, _ in _rows(path, format):
        text = normalize_text(raw_text)
        if text:
            yield SourceSegment(seg_id, text)
        elif skipped is not None:
            skipped.append(line_no)


def load_parallel(path: str | Path, format: str) -> list[ParallelPair]:
    """Load a parallel test set (``tsv`` or ``jsonl``), preserving file order;
    a file that holds no pair is a ``CorpusFormatError``."""
    if format not in ("tsv", "jsonl"):
        raise ValueError(f"unknown parallel format: {format!r}")
    path = Path(path)
    pairs: list[ParallelPair] = []
    for line_no, seg_id, raw_text, raw_refs in _rows(path, format, parallel=True):
        text = normalize_text(raw_text)
        if not text:
            raise CorpusFormatError(path, line_no, "source normalizes to empty text")
        refs = tuple(normalize_text(r) for r in raw_refs)
        if any(not r for r in refs):
            raise CorpusFormatError(path, line_no, "empty reference")
        pairs.append(ParallelPair(SourceSegment(seg_id, text), refs))
    if not pairs:
        raise CorpusFormatError(path, None, "the test set holds no pairs")
    return pairs
