"""Output checks and an exact retrieval oracle, independent of the index code.

Every check appends a message to a ``Problems`` list instead of raising, so
one run reports every broken property at once. The mock backends are
deterministic templates, which makes each hypothesis and neighbor draft
predictable from its Latin source alone.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from refta.corpus import lemmatize
from refta.mockserver import DRAFT_PREFIX, REFINED_PREFIX, hash_embedding
from refta.pipeline import FAILED_SENTINEL, read_hypotheses, read_records

COSINE_TOLERANCE = 1e-5
SCORE_TOLERANCE = 1e-9
# The fixture comparison as refta computed it when the benchmark was set up,
# keyed by the number of test segments (110, and 12 at smoke size). The mock
# is deterministic and the fixture ignores the seed, so it never changes.
EXPECTED_COMPARISON = Path(__file__).with_name("expected_comparison.json")
_MAX_REPORTED = 20


class Problems(list):
    def add(self, message: str) -> None:
        if len(self) < _MAX_REPORTED:
            self.append(message)
        elif len(self) == _MAX_REPORTED:
            self.append("... further problems not shown")


def expected_hypothesis(condition: str, latin: str) -> str:
    if condition == "zero_shot":
        return REFINED_PREFIX + latin
    return REFINED_PREFIX + DRAFT_PREFIX + latin


def failed_lines(run_dir) -> int:
    return sum(1 for line in read_hypotheses(run_dir) if line == FAILED_SENTINEL)


def check_translation(run_dir, condition: str, pairs, problems: Problems) -> list[dict]:
    """Check one run's hypotheses and neighbor drafts; return its records."""
    hyps = read_hypotheses(run_dir)
    if len(hyps) != len(pairs):
        problems.add(f"{run_dir.name}: {len(hyps)} hypotheses for {len(pairs)} segments")
    for pair, hyp in zip(pairs, hyps):
        if hyp == FAILED_SENTINEL:
            continue  # counted as a failure, never scored as a hypothesis here
        want = expected_hypothesis(condition, pair.source.text)
        if hyp != want:
            problems.add(f"{run_dir.name}/{pair.source.id}: hypothesis {hyp!r} != {want!r}")
    records = read_records(run_dir)
    for rec in records:
        for nb in rec["neighbors"]:
            if nb["draft"] != DRAFT_PREFIX + nb["latin"]:
                problems.add(f"{run_dir.name}/{rec['segment_id']}: neighbor "
                             f"{nb['segment_id']} draft {nb['draft']!r}")
    return records


def _same(got, want, where: str, problems: Problems) -> None:
    """Equal structure; numbers within ``SCORE_TOLERANCE``, everything else exact."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            problems.add(f"{where}: keys {sorted(got)} != {sorted(want)}")
            return
        for key in want:
            _same(got[key], want[key], f"{where}.{key}", problems)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            problems.add(f"{where}: {len(got)} items != {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]", problems)
    elif (isinstance(want, float) and isinstance(got, (int, float))
          and not isinstance(got, bool)):
        if not math.isclose(got, want, rel_tol=SCORE_TOLERANCE, abs_tol=SCORE_TOLERANCE):
            problems.add(f"{where}: {got!r} != stored {want!r}")
    elif got != want:
        problems.add(f"{where}: {got!r} != stored {want!r}")


def check_comparison(comparison, n_segments: int, problems: Problems) -> None:
    """Scores, deltas, p-values and intervals equal the stored comparison."""
    stored = json.loads(EXPECTED_COMPARISON.read_text(encoding="utf-8"))
    want = stored.get(str(n_segments))
    if want is None:
        problems.add(f"compare: no stored comparison for {n_segments} segments")
        return
    _same(json.loads(json.dumps(comparison.to_dict())), want, "compare", problems)


def check_passes(passes, pairs, oracle, problems: Problems):
    """Check every pass; return (attempted, failed, records by condition per pass).

    An operation is a translated segment. A ``<FAILED>`` line counts as a
    failed operation.
    """
    attempted = failed = 0
    records = []
    for p in passes:
        recs = {}
        for cond, run_dir in p.run_dirs.items():
            recs[cond] = check_translation(run_dir, cond, pairs, problems)
            attempted += len(pairs)
            failed += failed_lines(run_dir)
            if cond == "rag":
                oracle.check(recs[cond], problems)
            cost = p.costs.get(cond)
            if cost is not None and (
                    cost.input_tokens != sum(r["prompt_tokens"] for r in recs[cond])
                    or cost.output_tokens != sum(r["output_tokens"] for r in recs[cond])):
                problems.add(f"cost {cond}: token totals differ from the records")
        if p.comparison is not None:
            check_comparison(p.comparison, len(pairs), problems)
        records.append(recs)
    return attempted, failed, records


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def _unit64(text: str, dim: int) -> np.ndarray:
    v = hash_embedding(text, dim).astype(np.float64)
    return v / np.sqrt(v @ v)


class RetrievalOracle:
    """Exact float64 scan over the rows the loaded index holds.

    It keeps the query semantics of the pipeline: the ``pool`` most similar
    rows in exact (-cosine, id) order, then the lemma-Jaccard filter, then at
    most ``k`` survivors. Its recall against the index's answers is the gap
    between the approximate candidate pool and the exact one.
    """

    def __init__(self, index, pairs, dim: int, k: int, pool: int, threshold: float,
                 problems: Problems):
        self.k = k
        self.pool = pool
        self.threshold = threshold
        self.dim = dim
        entries = [index.entry(row) for row in range(len(index))]
        self.ids = [e.segment_id for e in entries]
        self.texts = [e.text for e in entries]
        self.lemmas = [lemmatize(t) for t in self.texts]
        self.row_of = {sid: i for i, sid in enumerate(self.ids)}
        self.id_rank = np.empty(len(self.ids), dtype=np.int64)
        self.id_rank[np.argsort(np.array(self.ids, dtype=str), kind="stable")] = np.arange(len(self.ids))
        self.vectors = (np.stack([_unit64(t, dim) for t in self.texts])
                        if entries else np.zeros((0, dim)))
        test_ids = {p.source.id for p in pairs}
        test_texts = {p.source.text for p in pairs}
        leaked = [sid for sid, text in zip(self.ids, self.texts)
                  if sid in test_ids or text in test_texts]
        if leaked:
            problems.add(f"index holds {len(leaked)} test-set rows, e.g. {leaked[0]}")
        self.slots = 0
        self.found = 0

    def neighbors(self, latin: str, qlem: frozenset) -> tuple[list[str], np.ndarray]:
        """The exact neighbor ids of one query, and its cosine against every row."""
        sims = self.vectors @ _unit64(latin, self.dim)
        out = []
        for row in np.lexsort((self.id_rank, -sims))[:self.pool]:
            if self.texts[row] == latin:
                continue
            if _jaccard(qlem, self.lemmas[row]) >= self.threshold:
                out.append(self.ids[row])
                if len(out) == self.k:
                    break
        return out, sims

    def check(self, records: list[dict], problems: Problems) -> None:
        """Check every record's neighbors and count its overlap with the exact top-k."""
        for rec in records:
            latin, nbs = rec["latin"], rec["neighbors"]
            where = f"retrieval {rec['segment_id']}"
            qlem = lemmatize(latin)
            exact, sims = self.neighbors(latin, qlem)
            if len(nbs) > self.k:
                problems.add(f"{where}: {len(nbs)} neighbors > k={self.k}")
            keys = []
            for nb in nbs:
                row = self.row_of.get(nb["segment_id"])
                if row is None:
                    problems.add(f"{where}: neighbor {nb['segment_id']} is not in the index")
                    continue
                if nb["latin"] == latin:
                    problems.add(f"{where}: self-match {nb['segment_id']}")
                jac = _jaccard(qlem, self.lemmas[row])
                if jac < self.threshold or abs(jac - nb["jaccard"]) > 1e-12:
                    problems.add(f"{where}: {nb['segment_id']} jaccard {nb['jaccard']} "
                                 f"(oracle {jac}, threshold {self.threshold})")
                if abs(nb["cosine_similarity"] - sims[row]) > COSINE_TOLERANCE:
                    problems.add(f"{where}: {nb['segment_id']} cosine "
                                 f"{nb['cosine_similarity']} (oracle {sims[row]})")
                keys.append((-nb["cosine_similarity"], nb["segment_id"]))
            if keys != sorted(keys):
                problems.add(f"{where}: neighbors not in descending (cosine, id) order")
            if rec["truncation_applied"] == "none":
                got = {nb["segment_id"] for nb in nbs}
                self.slots += len(exact)
                self.found += len(got & set(exact))

    def recall(self) -> float:
        """Share of the exact top-k the index returned; 1.0 when that is empty."""
        return self.found / self.slots if self.slots else 1.0
