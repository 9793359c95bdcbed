"""Per-segment and per-corpus orchestration of the draft-refine workflow.

For each segment the stages run in order: draft (unless zero-shot), embed
and retrieve neighbors (rag only), draft the neighbors through a shared
single-flight cache, assemble the prompt, call the refiner. Segments run
concurrently under a bounded worker pool; all artifacts are written in
input order, so output is a pure function of (config, corpus, index) when
the backends are deterministic.

Run directory layout (one per temperature):

- ``manifest.json``: resolved config (no secrets), ``config_hash``,
  ``corpus_digest``, code version, counts, aggregate token usage, wall time.
- ``records.jsonl``: one completed TranslationRecord per row, input order.
- ``hypotheses.txt``: one line per input segment (newlines inside a refined
  text are flattened to spaces); failed segments hold the ``<FAILED>``
  sentinel so line counts always align with the test set.
- ``errors.jsonl``: one row per failed segment with stage and cause.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import refta
from refta.backends import (
    ChatRequest,
    DrafterClient,
    EmbedderClient,
    RefinerClient,
    canonical_json,
)
from refta.corpus import ParallelPair, SourceSegment, lemmatize
from refta.errors import PipelineError, ReftaError
from refta.index import VectorIndex, default_candidate_pool
from refta.prompt import (
    CONDITIONS,
    DRAFT_ONLY,
    RAG,
    ZERO_SHOT,
    NeighborExample,
    assemble_prompt,
)

FAILED_SENTINEL = "<FAILED>"

_ROLE_REQUIREMENTS = {
    ZERO_SHOT: ("refiner",),
    DRAFT_ONLY: ("drafter", "refiner"),
    RAG: ("drafter", "refiner", "embedder"),
}


@dataclass(frozen=True)
class RunConfig:
    condition: str
    run_id: str
    endpoints: dict
    k: int = 5
    jaccard_threshold: float = 0.3
    temperature: float = 0.0
    top_p: float = 1.0
    max_output_tokens: int = 256
    input_budget: int = 1300
    candidate_pool: int | None = None
    workers: int = 4
    seed: int | None = None
    fail_fast: bool = False

    def __post_init__(self):
        if self.condition not in CONDITIONS:
            raise ValueError(f"unknown condition: {self.condition!r}")
        if self.condition == RAG and self.k < 1:
            raise ValueError("rag requires k >= 1")
        if not 0.0 <= self.jaccard_threshold <= 1.0:
            raise ValueError("jaccard_threshold must be in [0, 1]")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be in [0, 2]")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        missing = [r for r in _ROLE_REQUIREMENTS[self.condition] if r not in self.endpoints]
        if missing:
            raise ValueError(f"condition {self.condition} needs endpoints {missing}")

    def resolved_pool(self) -> int:
        return self.candidate_pool if self.candidate_pool is not None else (
            default_candidate_pool(self.k)
        )

    def to_canonical_dict(self) -> dict:
        endpoints = {}
        for role, ep in sorted(self.endpoints.items()):
            endpoints[role] = {
                "base_url": ep.base_url,
                "model_id": ep.model_id,
                "timeout": ep.timeout,
                "max_retries": ep.max_retries,
                "request_parallelism": ep.request_parallelism,
                "max_batch": ep.max_batch,
            }
        return {
            "condition": self.condition,
            "run_id": self.run_id,
            "endpoints": endpoints,
            "k": self.k,
            "jaccard_threshold": self.jaccard_threshold,
            "temperature": self.temperature,
            "top_p": self.top_p,
            "max_output_tokens": self.max_output_tokens,
            "input_budget": self.input_budget,
            "candidate_pool": self.resolved_pool(),
            "workers": self.workers,
            "seed": self.seed,
            "fail_fast": self.fail_fast,
        }

    def config_hash(self) -> str:
        return hashlib.sha256(
            canonical_json(self.to_canonical_dict()).encode("utf-8")
        ).hexdigest()


@dataclass(frozen=True)
class TranslationRecord:
    segment_id: str
    latin: str
    condition: str
    draft: str | None
    neighbors: tuple[NeighborExample, ...]
    refined: str
    prompt_tokens: int
    output_tokens: int
    usage_source: str
    truncation_applied: str
    timings_ms: dict
    timestamps: dict

    def to_json_dict(self) -> dict:
        return {
            "segment_id": self.segment_id,
            "latin": self.latin,
            "condition": self.condition,
            "draft": self.draft,
            "neighbors": [
                {
                    "segment_id": nb.segment_id,
                    "latin": nb.latin,
                    "draft": nb.draft,
                    "cosine_similarity": nb.cosine_similarity,
                    "jaccard": nb.jaccard,
                }
                for nb in self.neighbors
            ],
            "refined": self.refined,
            "prompt_tokens": self.prompt_tokens,
            "output_tokens": self.output_tokens,
            "usage_source": self.usage_source,
            "truncation_applied": self.truncation_applied,
            "timings_ms": self.timings_ms,
            "timestamps": self.timestamps,
        }


class NeighborDraftCache:
    """Single-flight cache from (segment_id, drafter model) to draft text.

    Concurrent misses on one key trigger exactly one backend call; all
    waiters receive the identical string. Counters track hits and misses.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._futures: dict[tuple[str, str], Future] = {}
        self.hits = 0
        self.misses = 0

    def get_or_fetch(self, key: tuple[str, str], fetch) -> str:
        owner = False
        with self._lock:
            fut = self._futures.get(key)
            if fut is None:
                fut = Future()
                self._futures[key] = fut
                owner = True
                self.misses += 1
            else:
                self.hits += 1
        if owner:
            try:
                fut.set_result(fetch())
            except Exception as exc:
                with self._lock:
                    del self._futures[key]
                fut.set_exception(exc)
        return fut.result()


@dataclass
class PipelineClients:
    drafter: DrafterClient | None = None
    refiner: RefinerClient | None = None
    embedder: EmbedderClient | None = None

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "PipelineClients":
        ep = cfg.endpoints
        return cls(
            drafter=DrafterClient(ep["drafter"]) if "drafter" in ep else None,
            refiner=RefinerClient(ep["refiner"]) if "refiner" in ep else None,
            embedder=EmbedderClient(ep["embedder"]) if "embedder" in ep else None,
        )

    def close(self) -> None:
        for client in (self.drafter, self.refiner, self.embedder):
            if client is not None:
                client.close()


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


class _StageTimer:
    def __init__(self):
        self.timings: dict[str, float] = {}
        self._t0 = time.perf_counter()

    def stage(self, name: str):
        return _StageSpan(self, name)

    def total(self) -> None:
        self.timings["total"] = round((time.perf_counter() - self._t0) * 1000.0, 3)


class _StageSpan:
    def __init__(self, timer: _StageTimer, name: str):
        self.timer = timer
        self.name = name

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.timer.timings[self.name] = round(
            (time.perf_counter() - self._start) * 1000.0, 3
        )
        return False


def translate_segment(
    cfg: RunConfig,
    segment: SourceSegment,
    index: VectorIndex | None = None,
    clients: PipelineClients | None = None,
    cache: NeighborDraftCache | None = None,
) -> TranslationRecord:
    """Run the full stage sequence for one segment under ``cfg.condition``."""
    clients = clients or PipelineClients.from_config(cfg)
    cache = cache or NeighborDraftCache()
    if cfg.condition == RAG and index is None:
        raise ValueError("rag condition requires a loaded index")

    started = _now_iso()
    timer = _StageTimer()
    draft: str | None = None
    neighbors: tuple[NeighborExample, ...] = ()

    try:
        if cfg.condition != ZERO_SHOT:
            with timer.stage("draft"):
                draft, _usage = clients.drafter.translate(segment.text)
    except ReftaError as exc:
        raise PipelineError("draft", segment.id, exc) from exc

    if cfg.condition == RAG:
        try:
            with timer.stage("retrieve"):
                qvec = clients.embedder.embed([segment.text])[0]
                qlemmas = lemmatize(segment.text)
                # one extra candidate of headroom: a self-match occupies a
                # pool slot before being skipped
                results = index.query(
                    qvec,
                    qlemmas,
                    k=cfg.k,
                    jaccard_threshold=cfg.jaccard_threshold,
                    candidate_pool=cfg.resolved_pool() + 1,
                    skip_texts=frozenset((segment.text,)),
                )
        except ReftaError as exc:
            raise PipelineError("retrieve", segment.id, exc) from exc
        try:
            with timer.stage("neighbor_drafts"):
                neighbors = tuple(
                    neighbor_drafts(cache, results, clients.drafter)
                )
        except ReftaError as exc:
            raise PipelineError("neighbor_drafts", segment.id, exc) from exc

    try:
        bundle = assemble_prompt(
            latin=segment.text,
            draft=draft,
            neighbors=neighbors,
            condition=cfg.condition,
            budget_ceiling=cfg.input_budget,
        )
    except ReftaError as exc:
        raise PipelineError("assemble", segment.id, exc) from exc

    try:
        with timer.stage("refine"):
            refined, usage = clients.refiner.complete(ChatRequest(
                system=bundle.system_text,
                user=bundle.user_text,
                temperature=cfg.temperature,
                top_p=cfg.top_p,
                max_output_tokens=cfg.max_output_tokens,
                seed=cfg.seed,
            ))
    except ReftaError as exc:
        raise PipelineError("refine", segment.id, exc) from exc

    timer.total()
    return TranslationRecord(
        segment_id=segment.id,
        latin=segment.text,
        condition=cfg.condition,
        draft=draft,
        neighbors=bundle.neighbors_used,
        refined=refined,
        prompt_tokens=usage.input_tokens,
        output_tokens=usage.output_tokens,
        usage_source=usage.source,
        truncation_applied=bundle.truncation_applied,
        timings_ms=timer.timings,
        timestamps={"started": started, "finished": _now_iso()},
    )


def neighbor_drafts(
    cache: NeighborDraftCache, results, drafter: DrafterClient
) -> list[NeighborExample]:
    """Pair retrieval results with drafts, calling the drafter only on miss."""
    out: list[NeighborExample] = []
    for res in results:
        key = (res.entry.segment_id, drafter.cfg.model_id)
        try:
            draft = cache.get_or_fetch(
                key, lambda text=res.entry.text: drafter.translate(text)[0]
            )
        except ReftaError as exc:
            raise PipelineError("neighbor_drafts", res.entry.segment_id, exc) from exc
        out.append(NeighborExample(
            latin=res.entry.text,
            draft=draft,
            segment_id=res.entry.segment_id,
            cosine_similarity=res.cosine_similarity,
            jaccard=res.jaccard,
        ))
    return out


def corpus_digest(pairs: list[ParallelPair]) -> str:
    rows = [[p.source.id, p.source.text, list(p.references)] for p in pairs]
    return hashlib.sha256(canonical_json(rows).encode("utf-8")).hexdigest()


@dataclass
class RunResult:
    run_dir: Path
    temperature: float
    succeeded: int
    failed: int
    failures: list = field(default_factory=list)


def translate_corpus(
    cfg: RunConfig,
    pairs: list[ParallelPair],
    index: VectorIndex | None = None,
    runs_root: str | Path = "runs",
    temperatures: list[float] | None = None,
    force: bool = False,
) -> list[RunResult]:
    """Translate every pair; one run directory per requested temperature."""
    temps = temperatures if temperatures else [cfg.temperature]
    runs_root = Path(runs_root)
    clients = PipelineClients.from_config(cfg)
    cache = NeighborDraftCache()
    results: list[RunResult] = []
    try:
        for temp in temps:
            run_cfg = RunConfig(**{**cfg.__dict__, "temperature": float(temp)})
            suffix = "" if len(temps) == 1 else f"-t{temp}"
            run_dir = runs_root / f"{cfg.run_id}{suffix}"
            results.append(
                _run_one(run_cfg, pairs, index, run_dir, clients, cache, force=force)
            )
    finally:
        clients.close()
    return results


def _run_one(
    cfg: RunConfig,
    pairs: list[ParallelPair],
    index: VectorIndex | None,
    run_dir: Path,
    clients: PipelineClients,
    cache: NeighborDraftCache,
    force: bool = False,
) -> RunResult:
    if (run_dir / "records.jsonl").exists() and not force:
        raise ReftaError(f"run directory {run_dir} already holds records; use force")
    run_dir.mkdir(parents=True, exist_ok=True)

    started = _now_iso()
    t0 = time.perf_counter()
    n = len(pairs)
    records: list[TranslationRecord | None] = [None] * n
    failures: list[dict] = []
    failure_lock = threading.Lock()

    def work(i: int) -> None:
        try:
            records[i] = translate_segment(cfg, pairs[i].source, index, clients, cache)
        except PipelineError as exc:
            if cfg.fail_fast:
                raise
            with failure_lock:
                failures.append({
                    "index": i,
                    "segment_id": exc.segment_id,
                    "stage": exc.stage,
                    "error": str(exc.cause),
                })

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [pool.submit(work, i) for i in range(n)]
        for fut in futures:
            fut.result()

    failures.sort(key=lambda f: f["index"])
    wall_ms = round((time.perf_counter() - t0) * 1000.0, 3)

    with (run_dir / "records.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            if rec is not None:
                fh.write(json.dumps(rec.to_json_dict(), ensure_ascii=False))
                fh.write("\n")

    with (run_dir / "hypotheses.txt").open("w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            line = FAILED_SENTINEL if rec is None else " ".join(rec.refined.split("\n"))
            fh.write(line + "\n")

    with (run_dir / "errors.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
        for row in failures:
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")

    succeeded = sum(1 for r in records if r is not None)
    manifest = {
        "run_id": run_dir.name,
        "created_at": started,
        "code_version": refta.__version__,
        "config": cfg.to_canonical_dict(),
        "config_hash": cfg.config_hash(),
        "corpus_digest": corpus_digest(pairs),
        "condition": cfg.condition,
        "temperature": cfg.temperature,
        "model_ids": {
            role: ep.model_id for role, ep in sorted(cfg.endpoints.items())
        },
        "counts": {"segments": n, "succeeded": succeeded, "failed": len(failures)},
        "tokens": {
            "input": sum(r.prompt_tokens for r in records if r is not None),
            "output": sum(r.output_tokens for r in records if r is not None),
        },
        "wall_time_ms": wall_ms,
    }
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return RunResult(
        run_dir=run_dir,
        temperature=cfg.temperature,
        succeeded=succeeded,
        failed=len(failures),
        failures=failures,
    )


def read_manifest(run_dir: str | Path) -> dict:
    path = Path(run_dir) / "manifest.json"
    if not path.exists():
        raise ReftaError(f"no manifest.json under {run_dir}")
    return json.loads(path.read_text(encoding="utf-8"))


def read_hypotheses(run_dir: str | Path) -> list[str]:
    path = Path(run_dir) / "hypotheses.txt"
    if not path.exists():
        raise ReftaError(f"no hypotheses.txt under {run_dir}")
    return path.read_text(encoding="utf-8").split("\n")[:-1]


def read_records(run_dir: str | Path) -> list[dict]:
    path = Path(run_dir) / "records.jsonl"
    if not path.exists():
        raise ReftaError(f"no records.jsonl under {run_dir}")
    out = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                out.append(json.loads(line))
    return out
