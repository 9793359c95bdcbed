"""Corpus-level orchestration of the draft-refine workflow, stage by stage.

``translate_corpus`` runs one config into one run directory, in four stages,
each over the whole test set:

1. embed the distinct source texts (rag);
2. retrieve each segment's neighbors with ``VectorIndex.query`` (rag);
3. draft the set union of source and neighbor texts (draft_only, rag);
4. assemble each segment's prompt, then refine each distinct prompt,
   ``workers`` requests at a time.

Stages 1, 3 and 4 are one paid step, ``send``: it feeds the items each
live segment needs (its own text or prompt first, then its neighbors'
texts) to ``backends.map_batches``, every segment's own item first, then the
others, each group in segment order, and fails each segment at its first
failed item, so a stage finds all its failures before the next stage starts.
``map_batches`` is the one rule for what a failed request means and for the
reply store under the runs root (``_Replies``): it stores each body paid for
as it takes the reply (a failed one never), and pays only for the items whose
stored body is missing or fails the parse a served one gets (a query vector
not of the index's size fails: a stored one is a miss, a served one a
``DimensionError``, a refusal that ends stage 1), so a run that stopped
part-way is resumed by running it again, and a run at another temperature
pays only for stage 4. Stages 1 and 3 send requests of at most
``max_batch`` inputs, their endpoint's ``request_parallelism`` in flight,
and stage 4 one prompt per request; each stage's first request goes alone,
so an endpoint that refuses the run costs one request. A batch of several
inputs rejected with ``RequestError``/``ProtocolError`` is resent one input
per request; a rejected one-input batch, or one that exhausts its transport
retries, fails every segment it carried. One rule (``_fail``) fails a segment at any stage:
it gets a ``PipelineError`` naming the stage and cause and goes no further
(a segment that fails retrieval is not drafted); under ``fail_fast`` that
error is raised ``from`` its cause, so a prompt over the budget ends the run
before stage 4 sends a request, a stage sends no request after it takes its
first failed one (the rest of its p calls in flight are served and stored),
and the run leaves no directory.
Artifacts are written in input order, so output is a pure function of
(config, corpus, index) when the backends are deterministic.

A record's ``timings_ms`` holds the wall ms of what served the segment:
``draft``, the drafter request that carried its source; ``retrieve``, its
embedder request plus its query; ``neighbor_drafts``, the slowest drafter
request that carried one of its neighbors (0 without neighbors);
``refine``, the refiner request that carried its prompt; ``total``, all of
these plus prompt assembly. A reply served from the store took 0 ms. Its
``timestamps`` mark when its prompt was assembled and when the record was
built.

Run directory layout:

- ``manifest.json``: resolved config (no secrets) naming only the backends
  the condition calls, ``config_hash``,
  ``corpus_digest``, code version, counts, aggregate token usage (replayed
  replies included), the distinct texts (drafter, embedder) and requests
  (refiner) ``replayed`` from the store, wall
  time (stages 1-3 included), and the SHA-256 ``checksums`` of the other
  three files, taken as they are written; it is written last.
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
import time
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import refta
from refta.artifacts import (
    AppendFile, encode_json, encode_lines, make_dir, read_json_object, read_lines, read_rows,
    write_files,
)
from refta.backends import (
    ChatRequest,
    DrafterClient,
    EmbedderClient,
    RefinerClient,
    canonical_json,
    map_batches,
)
from refta.corpus import ParallelPair, SourceSegment, lemmatize
from refta.errors import (
    CorpusFormatError, DimensionError, PipelineError, PromptBudgetError, ReftaError,
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
REPLIES_DIR = ".replies"  # the reply store, beside the run directories of a runs root

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
    workers: int = 4
    seed: int | None = None
    fail_fast: bool = False

    def __post_init__(self):
        if (self.run_id in ("", ".", "..", REPLIES_DIR)
                or "/" in self.run_id or "\0" in self.run_id):
            raise ValueError(f"run_id must be one plain path component, not {self.run_id!r}")
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


class _Replies(dict):
    """The requests one backend has served under a runs root, appended as they
    are paid for to ``.replies/<role>-<sha256 of model_id NUL base_url>.jsonl``
    (so backends that share a model id share no reply): ``{"keys": [the source
    texts, or the SHA-256 of the refiner request body], "body": the JSON object
    served}``, one row per request. Maps each key to the newest row that
    carried it, as ``(keys, body)``; a row of another shape is a
    ``CorpusFormatError``, unless ``_old_row`` reads it."""

    def __init__(self, runs_root, role: str, endpoint):
        endpoint_id = f"{endpoint.model_id}\0{endpoint.base_url.rstrip('/')}"
        digest = hashlib.sha256(endpoint_id.encode("utf-8")).hexdigest()
        self.file = AppendFile(Path(runs_root) / REPLIES_DIR / f"{role}-{digest}.jsonl")
        for line_no, raw in read_rows(self.file.path):
            try:
                row = json.loads(raw.decode("utf-8"))
                keys, body = (row["keys"], row["body"]) if "keys" in row else _old_row(role, row)
                if not (isinstance(keys, list) and keys and isinstance(body, dict)
                        and all(isinstance(key, str) and key for key in keys)):
                    raise ValueError("a row is {\"keys\": [non-empty str], \"body\": {...}}")
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(self.file.path, line_no,
                                        f"not a {role} row: {exc!r}") from exc
            self.update(dict.fromkeys(keys, (keys, body)))

    def add(self, keys: list, body: dict) -> None:
        """Append the row of one paid request in one write, then serve it."""
        self.file.append([json.dumps({"keys": keys, "body": body})])
        self.update(dict.fromkeys(keys, (keys, body)))


def _old_row(role: str, row: dict) -> tuple[list, dict]:
    """A row of the per-role shape stores held before they kept bodies, as the body
    it implies: a refiner's finished with "stop", with its usage if it was reported."""
    if role == "embedder":  # base64 of 4 * dim bytes is 16 * dim / 3 characters, rounded up
        return [row["key"]], {"vectors": row["vector"], "dim": len(row["vector"]) * 3 // 16}
    if role == "drafter":
        return [row["key"]], {"outputs": [row["text"]]}
    usage, body = row["usage"], {"choices": [{"message": {"content": row["text"]},
                                              "finish_reason": "stop"}]}
    if usage["source"] == "backend-reported":
        body["usage"] = {"prompt_tokens": usage["input_tokens"],
                         "completion_tokens": usage["output_tokens"]}
    return [row["key"]], body


def _fail(errors: list, i: int, stage: str, segment: SourceSegment, cause: Exception,
          fail_fast: bool) -> None:
    """The one failure rule: ``errors[i]`` holds segment ``i``'s ``PipelineError``,
    which under ``fail_fast`` is raised, chained from ``cause``."""
    errors[i] = PipelineError(stage, segment.id, cause)
    if fail_fast:
        raise errors[i] from cause


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


def translate_segment(cfg: RunConfig, segment: SourceSegment, draft: str | None,
                      timings: dict, prompt: tuple, served: tuple) -> TranslationRecord:
    """Stage 4's record for one segment, from its ``draft``, its stage 1-3
    ``timings``, its ``prompt`` ``(bundle, assembled at, assembly ms)`` and
    the ``(reply, ms)`` served for the refiner request that carried it."""
    bundle, assembled, assemble_ms = prompt
    (refined, usage), refine_ms = served
    timings = {**timings, "refine": round(refine_ms, 3),
               "total": round(sum(timings.values()) + assemble_ms + refine_ms, 3)}
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
        timings_ms=timings,
        timestamps={"started": assembled, "finished": _now_iso()},
    )


def corpus_digest(pairs: list[ParallelPair]) -> str:
    rows = [[p.source.id, p.source.text, list(p.references)] for p in pairs]
    return hashlib.sha256(canonical_json(rows).encode("utf-8")).hexdigest()


@dataclass
class RunResult:
    run_dir: Path
    succeeded: int
    failed: int


def translate_corpus(
    cfg: RunConfig,
    pairs: list[ParallelPair],
    index: VectorIndex | None = None,
    runs_root: str | Path = "runs",
    force: bool = False,
) -> list[RunResult]:
    """Translate every pair into the run directory ``runs_root/run_id``;
    returns its one ``RunResult``."""
    if cfg.condition == RAG and index is None:
        raise ValueError("rag condition requires a loaded index")
    if cfg.condition == RAG and cfg.endpoints["embedder"].model_id != index.model_id:
        raise ValueError(f"embedder model {cfg.endpoints['embedder'].model_id!r} is not "
                         f"{index.model_id!r}, the model the index was built with")
    if cfg.condition == RAG and not len(index):
        raise ReftaError("the index holds no row, so a rag run would retrieve nothing")
    run_dir = Path(runs_root) / cfg.run_id
    make_dir(runs_root)  # an unusable location is refused before any request
    if run_dir.exists() and not run_dir.is_dir():
        raise ReftaError(f"run directory {run_dir} exists and is not a directory")
    if (run_dir / "records.jsonl").exists() and not force:
        raise ReftaError(f"run directory {run_dir} already holds records; use force")

    stores = {role: _Replies(runs_root, role, ep) for role, ep in cfg.endpoints.items()}
    clients = {role: _CLIENT_CLASSES[role](ep) for role, ep in cfg.endpoints.items()}
    started, t0 = _now_iso(), time.perf_counter()
    segments = [p.source for p in pairs]
    n, errors = len(pairs), [None] * len(pairs)  # segment -> its PipelineError, from _fail
    timings = [{} for _ in segments]  # segment -> the wall ms of what served it
    hits, drafts, replayed = {}, {}, {}  # segment -> results; text -> (draft, ms); role -> replays

    def live():
        return [i for i in range(n) if errors[i] is None]

    def send(role, call, parse, needs, stages, max_batch=None, parallelism=None):
        """``map_batches`` over the items ``needs`` names (segment -> its own item,
        then the others it needs); a segment fails at its first failed item, at
        ``stages[0]`` if it is its own, else ``stages[1]``. Returns item -> (reply, ms)."""
        items = [own for own, *_ in needs.values()]
        items += [item for _, *others in needs.values() for item in others]
        endpoint = clients[role].cfg
        served, failed = map_batches(call, parse, items, max_batch or endpoint.max_batch,
                                     cfg.fail_fast, parallelism or endpoint.request_parallelism,
                                     store=stores[role])
        replayed[role] = len({item for item in items if item in served and not served[item][1]})
        for i, needed in needs.items():
            if (bad := next((x for x in needed if x in failed), None)) is not None:
                _fail(errors, i, stages[bad != needed[0]], segments[i], failed[bad], cfg.fail_fast)
        return served

    try:
        if cfg.condition == RAG:
            def parse_vectors(texts, body):  # another size: a miss if stored, else a refusal
                vectors = clients["embedder"].parse(texts, body)
                if vectors.shape[1] != index.dim:
                    raise DimensionError(f"the embedder serves vectors of dim {vectors.shape[1]}, "
                                         f"not the index dim {index.dim}")
                return vectors

            vectors = send("embedder", clients["embedder"].embed, parse_vectors,
                           {i: (s.text,) for i, s in enumerate(segments)}, ("retrieve",))
            for i in live():
                seg, (qvec, embed_ms) = segments[i], vectors[segments[i].text]
                t_query = time.perf_counter()
                try:  # a self-match takes a pool slot before it is skipped: one more slot
                    hits[i] = index.query(qvec, lemmatize(seg.text), k=cfg.k,
                                          jaccard_threshold=cfg.jaccard_threshold,
                                          candidate_pool=default_candidate_pool(cfg.k) + 1,
                                          skip_texts=frozenset((seg.text,)))
                except ReftaError as exc:
                    _fail(errors, i, "retrieve", seg, exc, cfg.fail_fast)
                    continue
                timings[i]["retrieve"] = round(embed_ms + _ms_since(t_query), 3)
        if cfg.condition != ZERO_SHOT:
            drafts = send("drafter", clients["drafter"].translate,
                          lambda texts, body: clients["drafter"].parse(texts, body)[0],
                          {i: (segments[i].text, *[r.entry.text for r in hits.get(i, ())])
                           for i in live()}, ("draft", "neighbor_drafts"))
        refiner = clients["refiner"]
        prompts, bodies = {}, {}  # segment -> (key, draft, prompt); key -> (request, body)
        for i in live():
            segment, draft, neighbors = segments[i], None, ()
            if cfg.condition != ZERO_SHOT:
                draft, draft_ms = drafts[segment.text]
                timings[i]["draft"] = round(draft_ms, 3)
            if cfg.condition == RAG:
                neighbors = neighbor_drafts(hits[i], drafts)
                timings[i]["neighbor_drafts"] = round(
                    max((drafts[r.entry.text][1] for r in hits[i]), default=0.0), 3)
            assembled, t_segment = _now_iso(), time.perf_counter()
            try:
                bundle = assemble_prompt(latin=segment.text, draft=draft, neighbors=neighbors,
                                         condition=cfg.condition, budget_ceiling=cfg.input_budget)
            except ReftaError as exc:
                _fail(errors, i, "assemble", segment, exc, cfg.fail_fast)
                continue
            req = cfg.chat_request(bundle.system_text, bundle.user_text)
            body = canonical_json(refiner.build_payload(req)).encode("utf-8")
            key = hashlib.sha256(body).hexdigest()
            bodies[key] = (req, body)
            prompts[i] = key, draft, (bundle, assembled, _ms_since(t_segment))
        served = send("refiner", lambda keys: refiner.complete(*bodies[keys[0]]),
                      lambda keys, body: [refiner.parse(bodies[keys[0]][0], body)],
                      {i: (key,) for i, (key, *_) in prompts.items()}, ("refine",),
                      1, cfg.workers)
    finally:
        for opened in [*clients.values(), *(store.file for store in stores.values())]:
            opened.close()
    records = [None] * n
    for i, (key, draft, prompt) in prompts.items():
        if errors[i] is None:
            records[i] = translate_segment(cfg, segments[i], draft, timings[i], prompt,
                                           served[key])

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
        "replayed": replayed,
        "wall_time_ms": round(_ms_since(t0), 3),
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
    return [RunResult(run_dir, len(done), len(failures))]


def read_manifest(run_dir: str | Path) -> dict:
    return read_json_object(Path(run_dir) / "manifest.json")


def read_hypotheses(run_dir: str | Path, sha=None) -> list[str]:
    """One hypothesis per line of ``hypotheses.txt``, read by ``read_lines``."""
    return [line for _, line in read_lines(Path(run_dir) / "hypotheses.txt", sha)]


def read_records(run_dir: str | Path) -> list[dict]:
    return [json.loads(line) for _, line in read_lines(Path(run_dir) / "records.jsonl")
            if line.strip()]
