"""Corpus-level orchestration of the draft-refine workflow, stage by stage.

``translate_corpus`` runs four stages, each over the whole test set:

1. embed the distinct source texts (rag);
2. retrieve each segment's neighbors with ``VectorIndex.query`` (rag);
3. draft the set union of source and neighbor texts (draft_only, rag);
4. assemble and refine each segment's prompt under a pool of ``workers``.

Stages 1 and 3 send requests of at most ``max_batch`` inputs, one at a
time, through ``backends.send_batches``. Stages 1-3 run once per call, and
every temperature of a sweep reuses them. A batch of several inputs
rejected with ``RequestError``/``ProtocolError`` is resent one input at a
time before the next batch goes out; a rejected one-input batch, or one
that exhausts its transport retries, fails every segment it carried. A
segment that fails retrieval is not drafted. Under ``fail_fast`` a stage
sends no request after its first failed one, and the run leaves no directory.
Artifacts are written in input order, so output is a pure function of
(config, corpus, index) when the backends are deterministic.

A record's ``timings_ms`` holds the wall ms of what served the segment:
``draft``, the drafter request that carried its source; ``retrieve``, its
embedder request plus its query; ``neighbor_drafts``, the slowest drafter
request that carried one of its neighbors (0 without neighbors);
``refine``, its own call; ``total``, all of these plus prompt assembly.

Run directory layout (one per temperature):

- ``manifest.json``: resolved config (no secrets) naming only the backends
  the condition calls, ``config_hash``,
  ``corpus_digest``, code version, counts, aggregate token usage, wall time
  (stages 1-3 included), and the SHA-256 ``checksums`` of the other three
  files, taken as they are written; it is written last.
- ``records.jsonl``: one completed TranslationRecord per row, input order.
- ``hypotheses.txt``: one line per input segment (line breaks of any kind
  inside a refined text are flattened to spaces); failed segments hold the
  ``<FAILED>`` sentinel so line counts always align with the test set.
- ``errors.jsonl``: one row per failed segment with stage and cause.

The four files replace their targets together once all are written
(``refta.artifacts``), so a failed write leaves no partial run.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import refta
from refta.artifacts import encode_json, encode_lines, make_dir, write_files
from refta.backends import (
    ChatRequest,
    DrafterClient,
    EmbedderClient,
    RefinerClient,
    canonical_json,
    send_batches,
)
from refta.corpus import ParallelPair, SourceSegment, lemmatize
from refta.errors import (
    PipelineError,
    PromptBudgetError,
    ProtocolError,
    ReftaError,
    RequestError,
)
from refta.index import VectorIndex, default_candidate_pool
from refta.prompt import (
    CONDITIONS,
    DEFAULT_INPUT_BUDGET,
    DRAFT_ONLY,
    RAG,
    ZERO_SHOT,
    NeighborExample,
    assemble_prompt,
)

FAILED_SENTINEL = "<FAILED>"
METRICS_FILE, COSTS_FILE = "metrics.json", "costs.json"  # reports on a run, beside its files

# auth tokens stay out of manifests and the config hash;
# base_url is in the manifest but not the hash, so a restarted or moved
# backend serving the same model keeps the hash
_MANIFEST_ENDPOINT_FIELDS = (
    "base_url", "model_id", "timeout", "max_retries", "request_parallelism", "max_batch",
)
_ROLE_REQUIREMENTS = {
    ZERO_SHOT: ("refiner",),
    DRAFT_ONLY: ("drafter", "refiner"),
    RAG: ("drafter", "refiner", "embedder"),
}
_CLIENT_CLASSES = {"drafter": DrafterClient, "refiner": RefinerClient, "embedder": EmbedderClient}


@dataclass(frozen=True)
class RunConfig:
    condition: str
    run_id: str
    endpoints: dict
    k: int = 5
    jaccard_threshold: float = 0.3
    temperature: float = ChatRequest.temperature
    top_p: float = ChatRequest.top_p
    max_output_tokens: int = ChatRequest.max_output_tokens
    input_budget: int = DEFAULT_INPUT_BUDGET
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
        self.chat_request("", "")  # the refiner's sampling rules, before any call is paid for
        # the condition's prompt for a one-character source must fit; called through
        # refta.prompt so that a wrapper on stage 4's binding sees only stage 4
        try:
            refta.prompt.assemble_prompt("x", None if self.condition == ZERO_SHOT else "x", (),
                                         self.condition, budget_ceiling=self.input_budget)
        except PromptBudgetError as exc:
            raise ValueError(f"input_budget {self.input_budget} is below the {exc.estimated} "
                             f"tokens of the smallest {self.condition} prompt") from exc
        if self.candidate_pool is None:
            object.__setattr__(self, "candidate_pool", default_candidate_pool(self.k))
        if self.condition == RAG and self.candidate_pool + 1 < self.k:
            # the retrieve stage queries a pool of candidate_pool + 1
            raise ValueError(f"candidate_pool {self.candidate_pool} + 1 must be >= k {self.k}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        roles = _ROLE_REQUIREMENTS[self.condition]
        missing = [r for r in roles if r not in self.endpoints]
        if missing:
            raise ValueError(f"condition {self.condition} needs endpoints {missing}")
        # the run calls only these, so only these enter the manifest and the hash
        object.__setattr__(self, "endpoints", {r: self.endpoints[r] for r in roles})

    def chat_request(self, system: str, user: str) -> ChatRequest:
        """The refiner request for one prompt under this run's sampling settings."""
        return ChatRequest(system=system, user=user, temperature=self.temperature,
                           top_p=self.top_p, max_output_tokens=self.max_output_tokens,
                           seed=self.seed)

    def to_canonical_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["endpoints"] = {
            role: {name: getattr(ep, name) for name in _MANIFEST_ENDPOINT_FIELDS}
            for role, ep in sorted(self.endpoints.items())
        }
        return out

    def config_hash(self) -> str:
        hashed = self.to_canonical_dict()
        for ep in hashed["endpoints"].values():
            del ep["base_url"]
        return hashlib.sha256(canonical_json(hashed).encode("utf-8")).hexdigest()


def sweep_configs(cfg: RunConfig, temperatures) -> list[RunConfig]:
    """One checked config per temperature of a sweep; ``cfg``'s own when
    ``temperatures`` is empty. A value repeated after ``float()`` raises
    ``ValueError``: its runs would share one run directory."""
    temps = [float(t) for t in temperatures] if temperatures else [float(cfg.temperature)]
    if len(set(temps)) < len(temps):
        raise ValueError(f"a sweep's temperatures must differ, got {temps}")
    return [replace(cfg, temperature=t) for t in temps]


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
        # field order is the key order; no deep copies, unlike asdict
        return {**vars(self), "neighbors": [vars(n) for n in self.neighbors]}


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


@dataclass
class _Prepared:
    """One segment's stage 1-3 outputs, or the error that ended it there."""

    draft: str | None = None
    neighbors: tuple[NeighborExample, ...] = ()
    timings_ms: dict = field(default_factory=dict)
    error: PipelineError | None = None


def _map_batches(call, texts: list[str], max_batch: int, fail_fast: bool):
    """``call`` over the distinct ``texts`` in batches of at most ``max_batch``.

    Returns ``text -> (output, ms)``, with ms the wall time of the request
    that served the text, and ``text -> error`` for the texts that failed.
    Under ``fail_fast`` no request follows the first failed one, so the
    texts after it are in neither map.
    """
    served, failed = {}, {}
    for batch, result, ms in send_batches(call, list(dict.fromkeys(texts)), max_batch):
        outcomes = [(batch, result, ms)]
        if isinstance(result, (RequestError, ProtocolError)) and len(batch) > 1:
            # the backend rejected the batch: find the inputs it rejects
            outcomes = send_batches(call, batch, 1)
        for sent, outcome, sent_ms in outcomes:
            if isinstance(outcome, ReftaError):
                failed.update(dict.fromkeys(sent, outcome))
                if fail_fast:
                    return served, failed
            elif isinstance(outcome, Exception):
                raise outcome
            else:
                served.update((text, (out, sent_ms)) for text, out in zip(sent, outcome))
    return served, failed


def _prepare(
    cfg: RunConfig,
    segments: list[SourceSegment],
    index: VectorIndex | None,
    clients: dict,
) -> list[_Prepared]:
    """Stages 1-3 for every segment; a failure is kept on its segment, or
    under ``fail_fast`` raised for the first segment a failed request
    carried. Every stage 3 failure is found before any draft is attached:
    under ``fail_fast`` earlier segments may name neighbors never drafted."""
    preps = [_Prepared() for _ in segments]
    hits: dict[int, list] = {}
    if cfg.condition == RAG:
        embedder = clients["embedder"]
        vectors, failed = _map_batches(embedder.embed, [s.text for s in segments],
                                       embedder.cfg.max_batch, cfg.fail_fast)
        for i, seg in enumerate(segments):
            try:
                if seg.text in failed:
                    raise failed[seg.text]
                qvec, embed_ms = vectors[seg.text]
                t0 = time.perf_counter()
                # one extra candidate of headroom: a self-match occupies a
                # pool slot before being skipped
                hits[i] = index.query(
                    qvec, lemmatize(seg.text), k=cfg.k, jaccard_threshold=cfg.jaccard_threshold,
                    candidate_pool=cfg.candidate_pool + 1, skip_texts=frozenset((seg.text,)),
                )
                preps[i].timings_ms["retrieve"] = round(embed_ms + _ms_since(t0), 3)
            except ReftaError as exc:
                preps[i].error = PipelineError("retrieve", seg.id, exc)
                if cfg.fail_fast:
                    raise preps[i].error from exc

    if cfg.condition != ZERO_SHOT:
        live = [i for i, prep in enumerate(preps) if prep.error is None]
        texts = [segments[i].text for i in live]
        texts += [r.entry.text for i in live for r in hits.get(i, ())]
        drafter = clients["drafter"]
        drafts, failed = _map_batches(lambda batch: drafter.translate(batch)[0],
                                      texts, drafter.cfg.max_batch, cfg.fail_fast)
        for i in live:
            seg = segments[i]
            bad = [t for t in [seg.text] + [r.entry.text for r in hits.get(i, ())]
                   if t in failed]
            if bad:
                stage = "draft" if bad[0] == seg.text else "neighbor_drafts"
                preps[i].error = PipelineError(stage, seg.id, failed[bad[0]])
                if cfg.fail_fast:
                    raise preps[i].error
        for i in [i for i in live if preps[i].error is None]:
            prep = preps[i]
            prep.draft, draft_ms = drafts[segments[i].text]
            prep.timings_ms["draft"] = round(draft_ms, 3)
            if cfg.condition == RAG:
                prep.neighbors = neighbor_drafts(hits[i], drafts)
                prep.timings_ms["neighbor_drafts"] = round(
                    max((drafts[r.entry.text][1] for r in hits[i]), default=0.0), 3)
    return preps


def neighbor_drafts(results, drafts: dict) -> tuple[NeighborExample, ...]:
    """Pair retrieval results with their stage-3 drafts (``text -> (draft, ms)``)."""
    return tuple(
        NeighborExample(
            latin=res.entry.text,
            draft=drafts[res.entry.text][0],
            segment_id=res.entry.segment_id,
            cosine_similarity=res.cosine_similarity,
            jaccard=res.jaccard,
        )
        for res in results
    )


def translate_segment(
    cfg: RunConfig,
    segment: SourceSegment,
    prepared: _Prepared,
    clients: dict,
) -> TranslationRecord:
    """Stage 4 for one segment: assemble its prompt and refine it."""
    started = _now_iso()
    t0 = time.perf_counter()
    try:
        bundle = assemble_prompt(
            latin=segment.text,
            draft=prepared.draft,
            neighbors=prepared.neighbors,
            condition=cfg.condition,
            budget_ceiling=cfg.input_budget,
        )
    except ReftaError as exc:
        raise PipelineError("assemble", segment.id, exc) from exc

    t_refine = time.perf_counter()
    try:
        refined, usage = clients["refiner"].complete(
            cfg.chat_request(bundle.system_text, bundle.user_text))
        refine_ms = _ms_since(t_refine)
    except ReftaError as exc:
        raise PipelineError("refine", segment.id, exc) from exc

    timings = {**prepared.timings_ms, "refine": round(refine_ms, 3),
               "total": round(sum(prepared.timings_ms.values()) + _ms_since(t0), 3)}
    return TranslationRecord(
        segment_id=segment.id,
        latin=segment.text,
        condition=cfg.condition,
        draft=prepared.draft,
        neighbors=bundle.neighbors_used,
        refined=refined,
        prompt_tokens=usage.input_tokens,
        output_tokens=usage.output_tokens,
        usage_source=usage.source,
        truncation_applied=bundle.truncation_applied,
        timings_ms=timings,
        timestamps={"started": started, "finished": _now_iso()},
    )


def corpus_digest(pairs: list[ParallelPair]) -> str:
    rows = [[p.source.id, p.source.text, list(p.references)] for p in pairs]
    return hashlib.sha256(canonical_json(rows).encode("utf-8")).hexdigest()


@dataclass
class RunResult:
    run_dir: Path
    temperature: float
    succeeded: int
    failed: int


def translate_corpus(
    cfg: RunConfig,
    pairs: list[ParallelPair],
    index: VectorIndex | None = None,
    runs_root: str | Path = "runs",
    temperatures: list[float] | None = None,
    force: bool = False,
) -> list[RunResult]:
    """Translate every pair; one run directory per requested temperature."""
    cfgs = sweep_configs(cfg, temperatures)  # before stages 1-3 send a request
    if cfg.condition == RAG and index is None:
        raise ValueError("rag condition requires a loaded index")
    if cfg.condition == RAG and cfg.endpoints["embedder"].model_id != index.model_id:
        raise ValueError(f"embedder model {cfg.endpoints['embedder'].model_id!r} is not "
                         f"{index.model_id!r}, the model the index was built with")
    if cfg.condition == RAG and not len(index):
        raise ReftaError("the index holds no row, so a rag run would retrieve nothing")
    suffixes = [""] if len(cfgs) == 1 else [f"-t{c.temperature}" for c in cfgs]
    run_dirs = [Path(runs_root) / f"{cfg.run_id}{suffix}" for suffix in suffixes]
    make_dir(runs_root)  # an unusable location is refused before any request
    for run_dir in run_dirs:
        if run_dir.exists() and not run_dir.is_dir():
            raise ReftaError(f"run directory {run_dir} exists and is not a directory")
        if (run_dir / "records.jsonl").exists() and not force:
            raise ReftaError(f"run directory {run_dir} already holds records; use force")

    t0 = time.perf_counter()
    clients = {role: _CLIENT_CLASSES[role](ep) for role, ep in cfg.endpoints.items()}
    try:
        preps = _prepare(cfg, [p.source for p in pairs], index, clients)
        prepare_ms = _ms_since(t0)
        return [_run_one(run_cfg, pairs, preps, prepare_ms, run_dir, clients)
                for run_cfg, run_dir in zip(cfgs, run_dirs)]
    finally:
        for client in clients.values():
            client.close()


def _run_one(
    cfg: RunConfig,
    pairs: list[ParallelPair],
    preps: list[_Prepared],
    prepare_ms: float,
    run_dir: Path,
    clients: dict,
) -> RunResult:
    started = _now_iso()
    t0 = time.perf_counter()
    n = len(pairs)
    records: list[TranslationRecord | None] = [None] * n
    errors = [p.error for p in preps]
    stop = threading.Event()

    def work(i: int) -> None:
        if stop.is_set():
            return
        try:
            records[i] = translate_segment(cfg, pairs[i].source, preps[i], clients)
        except PipelineError as exc:
            if cfg.fail_fast:
                stop.set()
                raise
            errors[i] = exc

    # not a with-block: its exit would run every queued segment after a
    # fail-fast error; cancelling them sends no further refiner calls
    pool = ThreadPoolExecutor(max_workers=cfg.workers)
    try:
        for fut in [pool.submit(work, i) for i in range(n) if errors[i] is None]:
            fut.result()
    finally:
        pool.shutdown(cancel_futures=True)
    wall_ms = round(prepare_ms + _ms_since(t0), 3)

    failures = [
        {"index": i, "segment_id": exc.segment_id, "stage": exc.stage, "error": str(exc.cause)}
        for i, exc in enumerate(errors) if exc is not None
    ]
    done = [r for r in records if r is not None]
    manifest = {
        "run_id": run_dir.name,
        "created_at": started,
        "code_version": refta.__version__,
        "config": cfg.to_canonical_dict(),
        "config_hash": cfg.config_hash(),
        "corpus_digest": corpus_digest(pairs),
        "condition": cfg.condition,
        "temperature": cfg.temperature,
        "model_ids": {role: ep.model_id for role, ep in sorted(cfg.endpoints.items())},
        "counts": {"segments": n, "succeeded": len(done), "failed": len(failures)},
        "tokens": {
            "input": sum(r.prompt_tokens for r in done),
            "output": sum(r.output_tokens for r in done),
        },
        "wall_time_ms": wall_ms,
    }
    run_dir.mkdir(parents=True, exist_ok=True)  # a run that fails before this leaves none
    for stale in (METRICS_FILE, COSTS_FILE):  # they describe the run this one replaces
        (run_dir / stale).unlink(missing_ok=True)
    write_files({
        run_dir / "records.jsonl": encode_lines(
            json.dumps(r.to_json_dict(), ensure_ascii=False) for r in done),
        run_dir / "hypotheses.txt": encode_lines(
            FAILED_SENTINEL if r is None else " ".join(r.refined.splitlines()) for r in records),
        run_dir / "errors.jsonl": encode_lines(
            json.dumps(row, ensure_ascii=False) for row in failures),
        run_dir / "manifest.json": lambda sums: [encode_json({**manifest, "checksums": dict(
            zip(("records.jsonl", "hypotheses.txt", "errors.jsonl"), sums))})],
    })
    return RunResult(run_dir, cfg.temperature, len(done), len(failures))


def _run_file(run_dir: str | Path, name: str) -> Path:
    path = Path(run_dir) / name
    if not path.exists():
        raise ReftaError(f"no {name} under {run_dir}")
    return path


def read_manifest(run_dir: str | Path) -> dict:
    path = _run_file(run_dir, "manifest.json")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ReftaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ReftaError(f"{path} is not a JSON object")
    return manifest


def read_hypotheses(run_dir: str | Path) -> list[str]:
    """One hypothesis per line; the final newline is optional."""
    lines = _run_file(run_dir, "hypotheses.txt").read_text(encoding="utf-8").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def read_records(run_dir: str | Path) -> list[dict]:
    text = _run_file(run_dir, "records.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.split("\n") if line.strip()]
