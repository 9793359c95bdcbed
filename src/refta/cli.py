"""Command-line entry point: index building, runs, evaluation, costs, mocks.

Every command takes ``--json`` for machine-readable stdout; human tables are
the default. Exit codes: 0 success, 1 runtime failure, 2 usage error.
A declarative config file (``.json``; ``.toml`` when the interpreter ships
``tomllib``) supplies per-command defaults; explicit flags win. See
``docs/config.md``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from pathlib import Path

import click

import refta
from refta.artifacts import make_dir, read_utf8, write_json
from refta.backends import EmbedderClient, EndpointConfig, ScorerClient, resolve_token
from refta.corpus import load_monolingual, load_parallel
from refta.errors import ReftaError
from refta.index import NEAR_DUP_THRESHOLD, ExclusionList, build_index, load_index, save_index
from refta.metrics.bootstrap import COMPARE_SEED
from refta.metrics.report import (
    SCORER_TIMEOUT_S,
    compare_runs,
    format_comparison_table,
    format_score,
    read_run,
    score_runs,
)
from refta.cost import CostModel, cost_report
from refta.mockserver import MockBehavior, MockServer
from refta.pipeline import METRICS_FILE, RunConfig, corpus_digest, translate_corpus
from refta.prompt import CONDITIONS

DEFAULT_MODELS = {
    "drafter": "nllb-200-1.3b",
    "refiner": "llama-3.3-70b",
    "embedder": "bge-m3",
    "scorer": "neural-scorer",
}


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    kind = {".json": "JSON", ".toml": "TOML"}.get(p.suffix.lower())
    if kind is None:
        raise click.UsageError(f"config file {path} does not end in .json or .toml")
    loads = json.loads
    if kind == "TOML":
        try:
            import tomllib  # py311+
        except ImportError as exc:
            raise click.UsageError(
                "TOML config requires Python 3.11+; use a JSON config file"
            ) from exc
        loads = tomllib.loads
    try:
        return loads(read_utf8(p, click.UsageError))
    except ValueError as exc:  # bad UTF-8; tomllib.TOMLDecodeError is a ValueError
        raise click.UsageError(f"config file {path} is not valid {kind}: {exc}") from exc


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _runtime_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ReftaError as exc:
            _fail(str(exc))
    return wrapper


def _endpoint(role: str, url: str, model: str | None, **settings) -> EndpointConfig:
    """``settings`` are ``EndpointConfig`` fields; the rest keep its defaults."""
    try:
        return EndpointConfig(base_url=url, model_id=model or DEFAULT_MODELS[role],
                              auth_token=resolve_token(role), **settings)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _neural_metrics(metrics: str, scorer_url: str | None) -> set:
    """The comma-separated neural metrics asked for; metrics without a
    scorer, or a scorer without metrics, is a usage error."""
    wanted = {m.strip() for m in metrics.split(",") if m.strip()}
    if wanted and not scorer_url:
        raise click.UsageError(f"--metrics {','.join(sorted(wanted))} needs --scorer")
    if scorer_url and not wanted:
        raise click.UsageError("--scorer needs --metrics")
    return wanted


def _scorer(url: str | None, timeout: float):
    """A scorer client for ``url``, or None without one; closed on exit."""
    if not url:
        return contextlib.nullcontext()
    return contextlib.closing(ScorerClient(_endpoint("scorer", url, None, timeout=timeout)))


def _warn(warnings) -> None:
    for warning in warnings:
        click.echo(f"warning: {warning}", err=True)


def _emit(as_json: bool, payload, lines) -> None:
    """Print ``payload`` as one sorted JSON document under ``--json``, else
    the human ``lines``."""
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            click.echo(line)


FORMATS = {".tsv": "tsv", ".jsonl": "jsonl", ".txt": "plain-lines"}


def _by_extension(*accepted):
    """A click callback giving each file as ``(path, format)``, the format
    named by its lower-cased extension in ``FORMATS``; any format but
    ``accepted`` is a usage error, raised as the flags are read."""
    def typed(path):
        fmt = FORMATS.get(Path(path).suffix.lower())
        if fmt not in accepted:
            exts = ", ".join(ext for ext, f in FORMATS.items() if f in accepted)
            raise click.BadParameter(f"{path} does not end in one of {exts}")
        return path, fmt
    return lambda ctx, param, value: (
        value if value is None else tuple(map(typed, value)) if param.multiple else typed(value))


def _options(*decorators):
    """One decorator applying ``decorators`` so that they list in this order."""
    return lambda fn: functools.reduce(lambda f, d: d(f), reversed(decorators), fn)


_json_option = click.option("--json", "as_json", is_flag=True)
_test_set_option = click.option("--test-set", required=True, type=click.Path(exists=True),
                                callback=_by_extension("tsv", "jsonl"))
_scorer_options = _options(
    click.option("--scorer", "scorer_url", default=None),
    click.option("--metrics", default="", help="Comma-separated neural metrics."),
)
_scorer_timeout_option = click.option("--timeout", type=float, default=SCORER_TIMEOUT_S,
                                      show_default=True)
_retry_options = _options(
    click.option("--timeout", type=float, default=EndpointConfig.timeout, show_default=True),
    click.option("--max-retries", type=int, default=EndpointConfig.max_retries,
                 show_default=True),
)


@click.group()
@click.version_option(version=refta.__version__, prog_name="refta")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help=".json (or .toml on 3.11+) file with per-command defaults.")
@click.pass_context
def main(ctx, config_path):
    """Retrieval-augmented draft-refinement translation engine."""
    ctx.default_map = _load_config_file(config_path)
    if not isinstance(ctx.default_map, dict):
        raise click.UsageError("a config file maps command names to tables")
    for name, table in ctx.default_map.items():
        command = ctx.command.commands.get(name)
        if command is None:
            raise click.UsageError(f"config file names no command {name!r}")
        if not isinstance(table, dict):
            raise click.UsageError(f"config file: {name} is not a table")
        unknown = sorted(set(table) - {param.name for param in command.params})
        if unknown:
            raise click.UsageError(f"config file: {name} has no parameter {', '.join(unknown)}")


@main.command("index-build")
@click.option("--corpus", "corpora", multiple=True, required=True,
              type=click.Path(exists=True), callback=_by_extension("jsonl", "plain-lines"),
              help="Monolingual corpus file(s).")
@click.option("--exclude", "exclude_path", type=click.Path(exists=True), default=None,
              callback=_by_extension("tsv", "jsonl", "plain-lines"),
              help="Test set whose ids/texts must never enter the index.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--embedder", "embedder_url", required=True, help="Embedder base URL.")
@click.option("--embed-model", default=None)
@click.option("--near-dup-threshold", type=click.FloatRange(0, 1), default=NEAR_DUP_THRESHOLD,
              show_default=True)
@_retry_options
@click.option("--parallelism", type=int, default=EndpointConfig.request_parallelism,
              show_default=True)
@click.option("--force", is_flag=True, help="Allow writing into an existing index dir.")
@_json_option
@_runtime_errors
def cmd_index_build(corpora, exclude_path, out_dir, embedder_url, embed_model,
                    near_dup_threshold, timeout, max_retries, parallelism, force, as_json):
    """Build and persist the retrieval index."""
    if near_dup_threshold != near_dup_threshold:  # NaN passes FloatRange
        raise click.BadParameter("nan is not in [0, 1]", param_hint="'--near-dup-threshold'")
    endpoint = _endpoint("embedder", embedder_url, embed_model, timeout=timeout,
                         max_retries=max_retries, request_parallelism=parallelism)
    out = Path(out_dir)
    make_dir(out)  # an unusable location is refused before any row is embedded
    if any(out.iterdir()) and not force:
        _fail(f"{out} already exists and is not empty; pass --force to rebuild")

    exclusions = _load_exclusions(*exclude_path) if exclude_path else None
    embedder = EmbedderClient(endpoint)

    skipped: list = []

    def segments():
        for corpus_path, fmt in corpora:
            yield from load_monolingual(corpus_path, fmt, skipped=skipped)

    try:
        index, report = build_index(
            segments(), embedder, exclusions, near_dup_threshold=near_dup_threshold,
            max_in_flight=parallelism,
        )
    finally:
        embedder.close()
    save_index(index, out)
    payload = {
        "out": str(out),
        "indexed": report.indexed,
        "excluded": report.excluded_exact,
        "near_dup_dropped": report.excluded_near_dup,
        "rows_seen": report.rows_seen,
        "skipped_empty": len(skipped),
        "dim": index.dim,
        "model_id": index.model_id,
    }
    _emit(as_json, payload, [
        f"indexed {report.indexed} segments into {out} "
        f"(excluded: {report.excluded_exact}, "
        f"near-dup dropped: {report.excluded_near_dup}, "
        f"skipped empty: {len(skipped)}, dim: {index.dim})"
    ])


def _load_exclusions(path: str, fmt: str) -> ExclusionList:
    """A ``.tsv`` test set, or the ``id``/``text`` rows of ``.jsonl`` or ``.txt`` lines."""
    if fmt == "tsv":
        return ExclusionList.from_pairs(load_parallel(path, fmt))
    return ExclusionList.from_segments(load_monolingual(path, fmt))


@main.command("translate")
@_test_set_option
@click.option("--index", "index_dir", type=click.Path(exists=True), default=None)
@click.option("--condition", required=True, type=click.Choice(CONDITIONS))
@click.option("--k", type=int, default=RunConfig.k, show_default=True)
@click.option("--jaccard-threshold", type=float, default=RunConfig.jaccard_threshold,
              show_default=True)
@click.option("--temperature", type=float, default=RunConfig.temperature, show_default=True)
@click.option("--top-p", type=float, default=RunConfig.top_p, show_default=True)
@click.option("--max-output-tokens", type=int, default=RunConfig.max_output_tokens,
              show_default=True)
@click.option("--input-budget", type=int, default=RunConfig.input_budget, show_default=True)
@click.option("--candidate-pool", type=int, default=RunConfig.candidate_pool)
@click.option("--run-id", required=True)
@click.option("--runs-root", type=click.Path(), default="runs", show_default=True)
@click.option("--drafter", "drafter_url", default=None)
@click.option("--refiner", "refiner_url", default=None)
@click.option("--embedder", "embedder_url", default=None)
@click.option("--drafter-model", default=None)
@click.option("--refiner-model", default=None)
@click.option("--seed", type=int, default=RunConfig.seed)
@_retry_options
@click.option("--parallelism", type=int, default=EndpointConfig.request_parallelism,
              show_default=True,
              help="Requests in flight per endpoint, and segments refined at once.")
@click.option("--fail-fast", is_flag=True)
@click.option("--force", is_flag=True, help="Overwrite an existing run directory.")
@_json_option
@_runtime_errors
def cmd_translate(test_set, index_dir, runs_root, drafter_url, refiner_url,
                  embedder_url, drafter_model, refiner_model, timeout, max_retries,
                  parallelism, force, as_json, **run_fields):
    """Translate a test set under one experimental condition."""
    # run_fields are the flags named after RunConfig fields
    if run_fields["condition"] == "rag" and not index_dir:
        raise click.UsageError("--condition rag requires --index")
    # only rag retrieves; its queries are embedded by the model that built the index
    index = load_index(index_dir) if run_fields["condition"] == "rag" else None

    urls = {"refiner": (refiner_url, refiner_model), "drafter": (drafter_url, drafter_model),
            "embedder": (embedder_url, getattr(index, "model_id", None))}
    endpoints = {role: _endpoint(role, url, model, timeout=timeout, max_retries=max_retries,
                                 request_parallelism=parallelism)
                 for role, (url, model) in urls.items() if url}

    try:
        cfg = RunConfig(endpoints=endpoints, workers=parallelism, **run_fields)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc

    pairs = load_parallel(*test_set)
    results = translate_corpus(cfg, pairs, index, runs_root=runs_root, force=force)
    payload = [{**vars(r), "run_dir": str(r.run_dir)} for r in results]
    _emit(as_json, payload, (
        f"{row['run_dir']} (temp {row['temperature']}): "
        f"{row['succeeded']} ok, {row['failed']} failed" for row in payload
    ))
    if any(r.failed for r in results):
        sys.exit(1)


@main.command("evaluate")
@click.option("--run", "run_dir", required=True, type=click.Path())
@_test_set_option
@_scorer_options
@_scorer_timeout_option
@_json_option
@_runtime_errors
def cmd_evaluate(run_dir, test_set, scorer_url, metrics, timeout, as_json):
    """Score a run against its test set; writes metrics.json into the run dir."""
    wanted = _neural_metrics(metrics, scorer_url)
    pairs = load_parallel(*test_set)
    runs = {Path(run_dir).name: read_run(run_dir, pairs, corpus_digest(pairs))}
    with _scorer(scorer_url, timeout) as scorer:
        ((report, _),) = score_runs(runs, pairs, scorer, wanted)
    write_json(Path(run_dir) / METRICS_FILE, report.to_dict())
    scores = report.corpus_scores
    _emit(as_json, scores, [f"{Path(run_dir).name}: " + "  ".join(
        f"{name} {format_score(name, value)}" for name, value in sorted(scores.items()))])
    _warn(report.warnings)


@main.command("compare")
@click.option("--runs", "run_dirs", multiple=True, required=True,
              type=click.Path())
@click.option("--baseline", required=True, type=click.Path())
@_test_set_option
@click.option("--seed", type=click.IntRange(min=0), default=COMPARE_SEED, show_default=True)
@_scorer_options
@click.option("--out", "out_path", type=click.Path(), default="comparison.json",
              show_default=True)
@_scorer_timeout_option
@_json_option
@_runtime_errors
def cmd_compare(run_dirs, baseline, test_set, seed, scorer_url, metrics, out_path, timeout,
                as_json):
    """Compare runs against a baseline with significance tests."""
    wanted = _neural_metrics(metrics, scorer_url)
    if Path(out_path).is_dir() or not Path(out_path).parent.is_dir():
        raise click.BadParameter(f"not a file in an existing directory: {out_path}",
                                 param_hint="'--out'")
    pairs = load_parallel(*test_set)
    with _scorer(scorer_url, timeout) as scorer:
        comparison = compare_runs(list(run_dirs), pairs, baseline, seed=seed,
                                  scorer=scorer, neural_metrics=wanted)
    payload = comparison.to_dict()
    write_json(out_path, payload)
    _emit(as_json, payload, [format_comparison_table(comparison), f"wrote {out_path}"])
    _warn(f"{row['run']}: {warning}" for row in comparison.rows for warning in row["warnings"])


@main.command("cost")
@click.option("--run", "run_dir", required=True, type=click.Path())
@click.option("--input-rate", required=True, help="Dollars per 1M input tokens.")
@click.option("--output-rate", required=True, help="Dollars per 1M output tokens.")
@click.option("--batching-discount", default=str(CostModel.batching_discount),
              show_default=True)
@click.option("--fixed-hourly", default=None, help="Dollars per hour for local serving.")
@click.option("--power-rate", default=None, help="Dollars per kWh.")
@click.option("--power-kw", default=None, help="Measured draw in kW.")
@_json_option
@_runtime_errors
def cmd_cost(run_dir, as_json, **model_fields):
    """Token-based cost figures for a run; writes costs.json into the run dir."""
    try:
        model = CostModel(**model_fields)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    report = cost_report(run_dir, model)
    _emit(as_json, report.to_dict(), report.summary_lines())


@main.command("mock-serve")
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--port", type=int, default=8089, show_default=True)
@click.option("--refiner", type=click.Choice(["template", "echo", "empty"]),
              default=MockBehavior.refiner, show_default=True)
@click.option("--embed-dim", type=int, default=MockBehavior.embed_dim, show_default=True)
@click.option("--fail-rate", type=float, default=MockBehavior.fail_rate, show_default=True)
@click.option("--fail-first", type=int, default=MockBehavior.fail_first, show_default=True)
@click.option("--fail-status", type=int, default=MockBehavior.fail_status, show_default=True)
@click.option("--latency-ms", type=int, default=MockBehavior.latency_ms, show_default=True)
@click.option("--seed", type=int, default=MockBehavior.seed, show_default=True)
@_runtime_errors
def cmd_mock_serve(host, port, **behavior_fields):
    """Serve deterministic mock backends for offline testing."""
    server = MockServer(MockBehavior(**behavior_fields), host=host, port=port)
    click.echo(f"mock backends listening on {server.base_url}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.server_close()


if __name__ == "__main__":
    main()
