"""The benchmark's workloads: their inputs, their set-up and their measured flow.

Each workload is a batch job a refta user runs: set up once (load the test
set, then build, save and reload the index), then pass through the flow
(translate under each condition, compare, cost). All
clients share the same closed-loop bounds: two pipeline workers, two
requests in flight per endpoint and two embedding batches in flight during
an index build.
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import refta.cost
import refta.index
import refta.metrics.report
import refta.pipeline
from refta.backends import EmbedderClient, EndpointConfig
from refta.corpus import load_monolingual, load_parallel
from refta.index import ExclusionList
from refta.pipeline import RunConfig

WORKERS = 2
REQUEST_PARALLELISM = 2
MAX_IN_FLIGHT = 2
K = 5
JACCARD_THRESHOLD = 0.3
# the default pool plus the one slot of headroom the pipeline adds for a self-match
CANDIDATE_POOL = refta.index.default_candidate_pool(K) + 1
COMPARE_SEED = 17
COST_MODEL = refta.cost.CostModel(input_rate="1.25", output_rate="10.0")
CONDITIONS = ("zero_shot", "draft_only", "rag")

FIXTURE_TEST_SET = Path("fixtures/testsets/ood_fixture_110.tsv")
FIXTURE_CORPUS = Path("fixtures/corpora/retrieval_fixture.jsonl")

_WORD = re.compile(r"[^\W\d_]+")


@dataclass(frozen=True)
class Spec:
    """Sizes and shape of one workload."""

    name: str
    setup_reps: int  # set-ups per run; setup_s is the fastest
    # Wall seconds of one pass at the commit that set these specs. A run makes
    # round(--seconds / pass_s) passes, at least one, whatever the speed of the
    # code under test, so every commit takes the best of the same number.
    pass_s: float
    conditions: tuple = ()
    embed_dim: int = 64
    compare: bool = False
    cost: bool = False
    corpus_rows: int = 0  # synthetic corpus rows; 0 keeps the bundled corpus
    test_rows: int = 0  # synthetic test rows (a prefix of the bundled set for fixture)

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))


SPECS = {
    "fixture": Spec("fixture", conditions=CONDITIONS, compare=True, cost=True,
                    setup_reps=15, pass_s=11.75),
    "scale-rag": Spec("scale-rag", conditions=("rag",), embed_dim=256,
                      corpus_rows=1000, test_rows=100, setup_reps=3, pass_s=10.9),
}

SMOKE_SIZES = {"fixture": {"test_rows": 12, "setup_reps": 2},
               "scale-rag": {"corpus_rows": 120, "test_rows": 10, "setup_reps": 2}}


def fixture_vocabulary(root: Path) -> tuple[list[str], list[str]]:
    """The 25 commonest Latin words of the bundled corpus and every English reference word."""
    latin: Counter = Counter()
    for line in (root / FIXTURE_CORPUS).read_text(encoding="utf-8").splitlines():
        latin.update(w.lower() for w in _WORD.findall(json.loads(line)["text"]))
    english: set = set()
    for line in (root / FIXTURE_TEST_SET).read_text(encoding="utf-8").splitlines():
        for ref in line.split("\t")[2:]:
            english.update(w.lower() for w in _WORD.findall(ref))
    top = sorted(latin.items(), key=lambda kv: (-kv[1], kv[0]))[:25]
    return [w for w, _ in top], sorted(english)


def _sentence(rng, words, lo: int, hi: int) -> str:
    picked = [words[i] for i in rng.integers(0, len(words), int(rng.integers(lo, hi + 1)))]
    return " ".join(picked).capitalize() + "."


def _write_tsv(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for sid, latin, ref in rows:
            fh.write(f"{sid}\t{latin}\t{ref}\n")


@dataclass
class Inputs:
    test_path: Path
    corpus_path: Path


def make_inputs(spec: Spec, root: Path, seed: int, work: Path) -> Inputs:
    """Write the workload's input files under ``work``; same seed, same bytes."""
    rng = np.random.default_rng(seed)
    latin, english = fixture_vocabulary(root)
    inputs = Inputs(test_path=root / FIXTURE_TEST_SET, corpus_path=root / FIXTURE_CORPUS)
    if spec.name == "fixture":
        if spec.test_rows:  # smoke size: a prefix of the bundled test set
            lines = inputs.test_path.read_text(encoding="utf-8").splitlines(True)
            inputs.test_path = work / "test.tsv"
            inputs.test_path.write_text("".join(lines[:spec.test_rows]), encoding="utf-8")
        return inputs

    refs = [" ".join(english[i] for i in rng.integers(0, len(english), 10))
            for _ in range(spec.test_rows)]
    inputs.test_path = work / "test.tsv"
    _write_tsv(inputs.test_path, [(f"q{i:05d}", _sentence(rng, latin, 5, 14), refs[i])
                                  for i in range(spec.test_rows)])
    inputs.corpus_path = work / "corpus.jsonl"
    with inputs.corpus_path.open("w", encoding="utf-8", newline="\n") as fh:
        for i in range(spec.corpus_rows):
            row = {"id": f"c{i:05d}", "text": _sentence(rng, latin, 5, 14)}
            fh.write(json.dumps(row) + "\n")
    return inputs


def endpoint(base_url: str, role: str) -> EndpointConfig:
    return EndpointConfig(base_url=base_url, model_id=f"mock-{role}",
                          request_parallelism=REQUEST_PARALLELISM)


def setup(inputs: Inputs, base_url: str, out: Path):
    """What a user does before the flow: load the test set, then build, save and
    reload the index. Returns (pairs, index)."""
    pairs = load_parallel(inputs.test_path, "tsv")
    embedder = EmbedderClient(endpoint(base_url, "embedder"))
    try:
        index, _report = refta.index.build_index(
            load_monolingual(inputs.corpus_path, "jsonl"), embedder,
            ExclusionList.from_pairs(pairs), max_in_flight=MAX_IN_FLIGHT)
    finally:
        embedder.close()
    refta.index.save_index(index, out)
    return pairs, refta.index.load_index(out)


@dataclass
class PassResult:
    seconds: dict = field(default_factory=dict)  # phase -> wall seconds
    run_dirs: dict = field(default_factory=dict)  # condition -> run directory
    mock_stats: dict = field(default_factory=dict)  # phase -> mock /_stats
    comparison: object = None
    costs: dict = field(default_factory=dict)  # condition -> CostReport

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())


def run_pass(spec: Spec, pairs, index, mock, out: Path,
             tracer=None) -> PassResult:
    """One pass of the flow; each phase is timed on its own and its mock
    request counts are taken, then reset."""
    res = PassResult()

    def phase(name: str):
        if tracer is not None:
            tracer.phase = f"pass.{name}"
        return time.perf_counter()

    for cond in spec.conditions:
        endpoints = {"refiner": endpoint(mock.base_url, "refiner")}
        if cond != "zero_shot":
            endpoints["drafter"] = endpoint(mock.base_url, "drafter")
        if cond == "rag":
            endpoints["embedder"] = endpoint(mock.base_url, "embedder")
        cfg = RunConfig(condition=cond, run_id=cond, endpoints=endpoints, k=K,
                        jaccard_threshold=JACCARD_THRESHOLD, workers=WORKERS)
        t0 = phase(cond)
        (result,) = refta.pipeline.translate_corpus(
            cfg, pairs, index if cond == "rag" else None, runs_root=out)
        res.seconds[cond] = time.perf_counter() - t0
        res.run_dirs[cond] = result.run_dir
        res.mock_stats[cond] = mock.take_stats()

    if spec.compare:
        run_dirs = list(res.run_dirs.values())
        t0 = phase("compare")
        res.comparison = refta.metrics.report.compare_runs(
            run_dirs, pairs, run_dirs[0], seed=COMPARE_SEED)
        res.seconds["compare"] = time.perf_counter() - t0

    if spec.cost:
        t0 = phase("cost")
        for cond, run_dir in res.run_dirs.items():
            res.costs[cond] = refta.cost.cost_report(run_dir, COST_MODEL)
        res.seconds["cost"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.phase = ""
    return res
