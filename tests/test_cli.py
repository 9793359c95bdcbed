from __future__ import annotations

import hashlib
import json
import shutil
import socket

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import FIXTURES, REPO_ROOT
from refta.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workspace(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    lines = (FIXTURES / "corpora" / "retrieval_fixture.jsonl").read_text().splitlines()
    corpus.write_text("\n".join(lines[:50]) + "\n", encoding="utf-8")
    test_set = tmp_path / "test.tsv"
    rows = (FIXTURES / "testsets" / "ood_fixture_110.tsv").read_text().splitlines()
    test_set.write_text("\n".join(rows[:8]) + "\n", encoding="utf-8")
    return tmp_path


def _build_index(runner, workspace, url, out="idx"):
    return runner.invoke(main, [
        "index-build",
        "--corpus", str(workspace / "corpus.jsonl"),
        "--out", str(workspace / out),
        "--embedder", url,
    ])


def _unusable_proxy(monkeypatch) -> None:
    """Name an ``https://`` proxy for every host, which no client can use."""
    for var in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(var, raising=False)
        monkeypatch.delenv(var.upper(), raising=False)
    monkeypatch.setenv("http_proxy", "https://proxy.invalid:3128")


class TestIndexBuild:
    def test_builds_and_reports_counts(self, runner, workspace, mock_server):
        result = _build_index(runner, workspace, mock_server.base_url)
        assert result.exit_code == 0, result.output
        assert "indexed 50 segments" in result.output
        manifest = json.loads((workspace / "idx" / "manifest.json").read_text())
        assert manifest["count"] == 50

    def test_missing_out_is_usage_error(self, runner, workspace, mock_server):
        result = runner.invoke(main, [
            "index-build", "--corpus", str(workspace / "corpus.jsonl"),
            "--embedder", mock_server.base_url,
        ])
        assert result.exit_code == 2

    def test_refuses_rebuild_without_force(self, runner, workspace, mock_server):
        assert _build_index(runner, workspace, mock_server.base_url).exit_code == 0
        again = _build_index(runner, workspace, mock_server.base_url)
        assert again.exit_code == 1
        assert "--force" in again.output or "force" in again.output

    def test_bad_endpoint_value_is_usage_error(self, runner, workspace, mock_server):
        import requests

        result = runner.invoke(main, [
            "index-build", "--corpus", str(workspace / "corpus.jsonl"),
            "--out", str(workspace / "idx"), "--embedder", mock_server.base_url,
            "--timeout", "0",
        ])
        assert result.exit_code == 2
        assert "timeout" in result.output
        assert requests.get(f"{mock_server.base_url}/_stats", timeout=5).json()["counts"] == {}

    def test_unusable_proxy_is_usage_error_before_out_is_made(self, runner, workspace,
                                                               mock_server, monkeypatch):
        _unusable_proxy(monkeypatch)
        result = _build_index(runner, workspace, mock_server.base_url)
        assert result.exit_code == 2, result.output
        assert "only http:// proxies are supported" in result.output
        assert not (workspace / "idx").exists()
        assert mock_server.stats.snapshot()["counts"] == {}

    @pytest.mark.parametrize("out", ["notadir/sub", "notadir"], ids=["under-a-file", "a-file"])
    def test_unusable_out_is_refused_before_any_request(self, runner, workspace, mock_server,
                                                        out):
        (workspace / "notadir").write_text("a file\n", encoding="utf-8")
        result = _build_index(runner, workspace, mock_server.base_url, out=out)
        _assert_refused_before_any_request(result, mock_server.base_url)

    def test_exclusions_applied(self, runner, workspace, mock_server):
        # the first test sentence upper-cased: the same lemmas under another
        # normalized text, so no exact match drops it
        text = (workspace / "test.tsv").read_text(encoding="utf-8").split("\t")[1]
        with (workspace / "corpus.jsonl").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "near-dup", "text": text.upper()}) + "\n")
        result = runner.invoke(main, [
            "index-build",
            "--corpus", str(workspace / "corpus.jsonl"),
            "--exclude", str(workspace / "test.tsv"),
            "--out", str(workspace / "idx2"),
            "--embedder", mock_server.base_url,
            "--json",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["indexed"] == 50  # fixture rows do not overlap the test set
        assert payload["near_dup_dropped"] == 1

    @pytest.mark.parametrize("name, row", [
        ("parallel.jsonl", lambda r: json.dumps({**r, "references": ["ref"]})),
        ("monolingual.jsonl", json.dumps),
        ("lines.txt", lambda r: r["text"]),
    ])
    def test_every_exclude_format_is_read(self, runner, workspace, mock_server, name, row):
        corpus_rows = [json.loads(line) for line in
                       (workspace / "corpus.jsonl").read_text().splitlines()]
        exclude = workspace / name
        exclude.write_text("".join(row(r) + "\n" for r in corpus_rows[:5]), encoding="utf-8")
        result = runner.invoke(main, [
            "index-build", "--corpus", str(workspace / "corpus.jsonl"),
            "--exclude", str(exclude), "--out", str(workspace / "idx3"),
            "--embedder", mock_server.base_url, "--json",
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["excluded"] == 5

    @pytest.mark.parametrize("flag, name", [
        ("--exclude", "test.json"), ("--exclude", "test.csv"), ("--corpus", "corpus.tsv"),
        ("--corpus", "corpus.json"),
    ])
    def test_file_of_another_format_is_usage_error_before_any_request(
            self, runner, workspace, mock_server, flag, name):
        import requests

        rows = [json.loads(line) for line in
                (workspace / "corpus.jsonl").read_text().splitlines()[:5]]
        (workspace / name).write_text("".join(  # parallel JSON lines under another name
            json.dumps({**r, "references": ["ref"]}) + "\n" for r in rows), encoding="utf-8")
        # a --corpus case replaces the readable corpus
        files = {"--corpus": str(workspace / "corpus.jsonl"), flag: str(workspace / name)}
        result = runner.invoke(main, [
            "index-build", *[arg for pair in files.items() for arg in pair],
            "--out", str(workspace / "idx"), "--embedder", mock_server.base_url,
        ])
        assert result.exit_code == 2, result.output
        assert flag in result.output and name in result.output
        assert not (workspace / "idx").exists()
        assert requests.get(f"{mock_server.base_url}/_stats", timeout=5).json()["counts"] == {}

    def test_extension_is_compared_lower_cased(self, runner, workspace, mock_server):
        shutil.copy(workspace / "corpus.jsonl", workspace / "CORPUS.JSONL")
        rows = [json.loads(line) for line in
                (workspace / "corpus.jsonl").read_text().splitlines()[:5]]
        (workspace / "EXCLUDE.Tsv").write_text(
            "".join(f"{r['id']}\t{r['text']}\tref\n" for r in rows), encoding="utf-8")
        result = runner.invoke(main, [
            "index-build", "--corpus", str(workspace / "CORPUS.JSONL"),
            "--exclude", str(workspace / "EXCLUDE.Tsv"), "--out", str(workspace / "idx"),
            "--embedder", mock_server.base_url, "--json",
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["excluded"] == 5

    def test_duplicate_ids_refused_before_any_request(self, runner, workspace, mock_server):
        corpus = workspace / "corpus.jsonl"
        first_id = json.loads(corpus.read_text().splitlines()[0])["id"]
        result = runner.invoke(main, [
            "index-build", "--corpus", str(corpus), "--corpus", str(corpus),
            "--out", str(workspace / "idx"), "--embedder", mock_server.base_url,
        ])
        _assert_refused_before_any_request(result, mock_server.base_url)
        assert repr(first_id) in result.stderr

    def test_corpus_excluded_by_itself_is_refused_before_any_request(self, runner, workspace,
                                                                     mock_server):
        corpus = workspace / "lines.txt"
        corpus.write_text("arma virumque cano\nTroiae qui primus\nab oris\n", encoding="utf-8")
        result = runner.invoke(main, [
            "index-build", "--corpus", str(corpus), "--exclude", str(corpus),
            "--out", str(workspace / "idx"), "--embedder", mock_server.base_url,
        ])
        _assert_refused_before_any_request(result, mock_server.base_url)
        assert "no row to index: 3 excluded, 0 near-duplicates dropped" in result.stderr
        assert list((workspace / "idx").iterdir()) == []

    def test_parallelism_sets_batches_in_flight(self, runner, tmp_path, mock_server):
        corpus = tmp_path / "big.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"r{i:03d}", "text": f"textus numero {i}"}) + "\n"
            for i in range(640)), encoding="utf-8")  # 10 batches at max_batch 64
        mock_server.behavior.latency_ms = 100
        result = runner.invoke(main, [
            "index-build", "--corpus", str(corpus), "--out", str(tmp_path / "idx"),
            "--embedder", mock_server.base_url, "--parallelism", "8",
        ])
        assert result.exit_code == 0, result.output
        snap = mock_server.stats.snapshot()
        assert snap["counts"]["/embed"] == 10
        assert 4 < snap["max_concurrency"]["/embed"] <= 8

    def test_reports_rows_skipped_as_empty(self, runner, workspace, mock_server):
        corpus = workspace / "corpus.jsonl"
        with corpus.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "blank", "text": "  \t "}) + "\n")
        result = runner.invoke(main, [
            "index-build", "--corpus", str(corpus), "--out", str(workspace / "idx"),
            "--embedder", mock_server.base_url, "--json",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["indexed"] == 50
        assert payload["skipped_empty"] == 1
        text = _build_index(runner, workspace, mock_server.base_url, out="idx_text")
        assert "skipped empty: 1" in text.output


def _translate(runner, workspace, url, condition, extra=(), run_id="run1", config=None,
               runs_root="runs"):
    args = [] if config is None else ["--config", str(config)]
    args += [
        "translate",
        "--test-set", str(workspace / "test.tsv"),
        "--condition", condition,
        "--run-id", run_id,
        "--runs-root", str(workspace / runs_root),
        "--refiner", url,
    ]
    if condition in ("draft_only", "rag"):
        args += ["--drafter", url]
    if condition == "rag":
        args += ["--embedder", url, "--index", str(workspace / "idx"),
                 "--jaccard-threshold", "0.2", "--k", "3"]
    args += list(extra)
    return runner.invoke(main, args)


def _unreadable_run(runner, workspace, url, manifest_text):
    """A zero_shot run whose ``manifest.json`` holds ``manifest_text``."""
    assert _translate(runner, workspace, url, "zero_shot", run_id="bad").exit_code == 0
    run_dir = workspace / "runs" / "bad"
    (run_dir / "manifest.json").write_text(manifest_text, encoding="utf-8")
    return run_dir


def _assert_error_line(result, run_dir):
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("error: ") and str(run_dir / "manifest.json") in result.stderr
    assert "Traceback" not in result.output


def _assert_refused_before_any_request(result, url):
    import requests

    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("error: "), result.output
    assert "Traceback" not in result.output
    assert requests.get(f"{url}/_stats", timeout=5).json()["counts"] == {}


def _edited_run(runner, workspace, url):
    """A zero_shot run whose ``hypotheses.txt`` line 1 was overwritten after it was written."""
    assert _translate(runner, workspace, url, "zero_shot", run_id="edited").exit_code == 0
    run_dir = workspace / "runs" / "edited"
    lines = (run_dir / "hypotheses.txt").read_text(encoding="utf-8").splitlines()
    lines[0] = "an edited line"
    (run_dir / "hypotheses.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return run_dir


UNREADABLE_MANIFESTS = pytest.mark.parametrize("manifest_text", ["{", "[]"],
                                               ids=["not-json", "not-an-object"])


class TestTranslate:
    def test_rag_run(self, runner, workspace, mock_server):
        assert _build_index(runner, workspace, mock_server.base_url).exit_code == 0
        result = _translate(runner, workspace, mock_server.base_url, "rag")
        assert result.exit_code == 0, result.output
        assert "8 ok, 0 failed" in result.output
        run_dir = workspace / "runs" / "run1"
        assert (run_dir / "manifest.json").exists()
        assert len((run_dir / "hypotheses.txt").read_text().splitlines()) == 8

    def test_rag_on_an_index_without_rows_is_refused_before_any_request(
            self, runner, workspace, mock_server):
        from refta.index import VectorIndex, save_index

        # what index-build wrote for a corpus it excluded entirely, before it refused one
        save_index(VectorIndex([], [], np.zeros((0, 0)), "bge-m3"), workspace / "idx")
        result = _translate(runner, workspace, mock_server.base_url, "rag")
        _assert_refused_before_any_request(result, mock_server.base_url)
        assert "holds no row" in result.stderr
        assert not (workspace / "runs").exists()

    def test_force_drops_the_reports_of_the_replaced_run(self, runner, workspace,
                                                         mock_server):
        assert _translate(runner, workspace, mock_server.base_url, "draft_only",
                          run_id="d").exit_code == 0
        run_dir = workspace / "runs" / "d"
        for args in (["evaluate", "--run", str(run_dir), "--test-set",
                      str(workspace / "test.tsv")],
                     ["cost", "--run", str(run_dir), "--input-rate", "1", "--output-rate", "1"]):
            assert runner.invoke(main, args).exit_code == 0
        assert (run_dir / "metrics.json").exists() and (run_dir / "costs.json").exists()
        result = _translate(runner, workspace, mock_server.base_url, "zero_shot",
                            run_id="d", extra=["--force"])
        assert result.exit_code == 0, result.output
        assert not (run_dir / "metrics.json").exists()
        assert not (run_dir / "costs.json").exists()

    def test_rag_without_index_is_usage_error(self, runner, workspace, mock_server):
        result = _translate(runner, workspace, mock_server.base_url, "rag",
                            extra=["--index", ""])
        assert result.exit_code == 2

    @pytest.mark.parametrize("condition, extra", [
        ("draft_only", ["--max-output-tokens", "9000"]),
        ("draft_only", ["--top-p", "0"]),
        ("zero_shot", ["--temperature", "3.0"]),
        ("zero_shot", ["--timeout", "0"]),
        ("zero_shot", ["--temp", "0.5"]),  # refused, so no old sweep shrinks to one run
        ("draft_only", ["--input-budget", "71"]),
        ("zero_shot", ["--timeout", "nan"]),
        ("zero_shot", ["--timeout", "inf"]),
    ], ids=["output-ceiling", "top-p", "sweep-temperature", "timeout", "repeated-temperature",
            "budget-below-smallest-prompt", "timeout-nan", "timeout-inf"])
    def test_bad_value_is_usage_error_before_any_request(self, runner, workspace, mock_server,
                                                         condition, extra):
        import requests

        url = mock_server.base_url
        result = _translate(runner, workspace, url, condition, extra=extra)
        assert result.exit_code == 2, result.output
        assert requests.get(f"{url}/_stats", timeout=5).json()["counts"] == {}

    @pytest.mark.parametrize("run_id", ["", ".", "..", "../escaped", "a/b", ".replies", "a\0b"])
    def test_run_id_that_is_not_one_path_component_is_usage_error(self, runner, workspace,
                                                                  mock_server, run_id):
        import requests

        result = _translate(runner, workspace, mock_server.base_url, "zero_shot",
                            run_id=run_id)
        assert result.exit_code == 2, result.output
        assert "one plain path component" in result.output
        assert requests.get(f"{mock_server.base_url}/_stats", timeout=5).json()["counts"] == {}
        assert sorted(p.name for p in workspace.iterdir()) == ["corpus.jsonl", "test.tsv"]

    def test_credentials_in_a_url_are_refused_before_any_request(self, runner, workspace,
                                                                 mock_server):
        import requests

        url = mock_server.base_url.replace("http://", "http://u:p@")
        result = _translate(runner, workspace, url, "zero_shot")
        assert result.exit_code == 2, result.output
        assert "REFTA_REFINER_TOKEN" in result.output
        assert "u:p" not in result.output
        assert requests.get(f"{mock_server.base_url}/_stats", timeout=5).json()["counts"] == {}
        assert sorted(p.name for p in workspace.iterdir()) == ["corpus.jsonl", "test.tsv"]

    def test_unusable_proxy_is_usage_error_before_any_directory_or_request(
            self, runner, workspace, mock_server, monkeypatch):
        _unusable_proxy(monkeypatch)
        result = _translate(runner, workspace, mock_server.base_url, "zero_shot")
        assert result.exit_code == 2, result.output
        assert "only http:// proxies are supported" in result.output
        assert "Traceback" not in result.output
        assert mock_server.stats.snapshot()["counts"] == {}
        assert sorted(p.name for p in workspace.iterdir()) == ["corpus.jsonl", "test.tsv"]
        # the proxy of a host that NO_PROXY covers is never used, so never checked
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        assert _translate(runner, workspace, mock_server.base_url, "zero_shot").exit_code == 0

    @pytest.mark.parametrize("runs_root", ["notadir/sub", "notadir", "runs"],
                             ids=["under-a-file", "a-file", "run-dir-a-file"])
    def test_unusable_runs_root_is_refused_before_any_request(self, runner, workspace,
                                                              mock_server, runs_root):
        (workspace / "notadir").write_text("a file\n", encoding="utf-8")
        (workspace / "runs").mkdir()
        (workspace / "runs" / "run1").write_text("a file\n", encoding="utf-8")
        result = _translate(runner, workspace, mock_server.base_url, "draft_only",
                            runs_root=runs_root)
        _assert_refused_before_any_request(result, mock_server.base_url)

    @pytest.mark.parametrize("condition, given, missing", [
        ("draft_only", [], "drafter"),
        ("rag", ["--drafter"], "embedder"),
    ])
    def test_missing_endpoint_is_usage_error(self, runner, workspace, mock_server,
                                             condition, given, missing):
        assert _build_index(runner, workspace, mock_server.base_url).exit_code == 0
        args = ["translate", "--test-set", str(workspace / "test.tsv"),
                "--condition", condition, "--run-id", "x",
                "--runs-root", str(workspace / "runs"), "--index", str(workspace / "idx"),
                "--refiner", mock_server.base_url]
        args += [arg for flag in given for arg in (flag, mock_server.base_url)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert missing in result.output

    def test_index_of_another_dimension_fails_every_segment_at_retrieve(
            self, runner, workspace, mock_server):
        import requests

        mock_server.behavior.embed_dim = 8
        assert _build_index(runner, workspace, mock_server.base_url).exit_code == 0
        mock_server.behavior.embed_dim = 64
        requests.post(f"{mock_server.base_url}/_reset", json={}, timeout=5)
        result = _translate(runner, workspace, mock_server.base_url, "rag")
        assert result.exit_code == 1, result.output
        errors = [json.loads(line) for line in
                  (workspace / "runs" / "run1" / "errors.jsonl").read_text().splitlines()]
        assert [(e["index"], e["stage"]) for e in errors] == [(i, "retrieve") for i in range(8)]
        assert all("dim 8" in e["error"] for e in errors)
        assert requests.get(f"{mock_server.base_url}/_stats", timeout=5).json()["counts"] == {
            "/embed": 1}

    def test_rag_run_embeds_with_its_index_model(self, runner, workspace, mock_server,
                                                 monkeypatch):
        from refta.backends import EmbedderClient

        result = runner.invoke(main, [
            "index-build", "--corpus", str(workspace / "corpus.jsonl"),
            "--out", str(workspace / "idx"), "--embedder", mock_server.base_url,
            "--embed-model", "model-A",
        ])
        assert result.exit_code == 0, result.output
        sent = []
        embed = EmbedderClient.embed
        monkeypatch.setattr(EmbedderClient, "embed",
                            lambda self, texts: sent.append(self.cfg.model_id) or embed(self, texts))
        result = _translate(runner, workspace, mock_server.base_url, "rag")
        assert result.exit_code == 0, result.output
        assert sent and set(sent) == {"model-A"}
        manifest = json.loads((workspace / "runs" / "run1" / "manifest.json").read_text())
        assert manifest["model_ids"]["embedder"] == "model-A"

    def test_index_is_read_only_under_rag(self, runner, workspace, mock_server):
        # zero_shot never retrieves, so it neither loads nor checks the index
        assert _build_index(runner, workspace, mock_server.base_url).exit_code == 0
        with (workspace / "idx" / "meta.jsonl").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "extra", "text": "textus additus"}) + "\n")
        result = _translate(runner, workspace, mock_server.base_url, "zero_shot",
                            extra=["--index", str(workspace / "idx")])
        assert result.exit_code == 0, result.output
        assert "8 ok, 0 failed" in result.output

    def test_parallelism_sets_refiner_requests_in_flight(self, runner, workspace, mock_server):
        shutil.copy(FIXTURES / "testsets" / "ood_fixture_110.tsv", workspace / "test.tsv")
        mock_server.behavior.latency_ms = 30
        result = _translate(runner, workspace, mock_server.base_url, "zero_shot",
                            extra=["--parallelism", "8"])
        assert result.exit_code == 0, result.output
        assert 4 < mock_server.stats.snapshot()["max_concurrency"]["/v1/chat/completions"] <= 8

    def test_temperature_is_the_run_temperature(self, runner, workspace, mock_server):
        result = _translate(runner, workspace, mock_server.base_url, "zero_shot",
                            extra=["--temperature", "0.5"], run_id="warm")
        assert result.exit_code == 0, result.output
        assert result.output.strip().endswith("(temp 0.5): 8 ok, 0 failed")
        manifest = json.loads((workspace / "runs" / "warm" / "manifest.json").read_text())
        assert manifest["temperature"] == manifest["config"]["temperature"] == 0.5

    def test_json_prints_one_object_for_the_run(self, runner, workspace, mock_server):
        result = _translate(runner, workspace, mock_server.base_url, "zero_shot",
                            extra=["--json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout) == {
            "run_dir": str(workspace / "runs" / "run1"), "succeeded": 8, "failed": 0}

    def test_json_counts_failed_segments_and_exits_1(self, runner, workspace, mock_server):
        mock_server.behavior.refiner = "empty"
        result = _translate(runner, workspace, mock_server.base_url, "zero_shot",
                            extra=["--json"])
        assert result.exit_code == 1, result.output
        payload = json.loads(result.stdout)
        assert sorted(payload) == ["failed", "run_dir", "succeeded"]
        assert payload["failed"] > 0

    def test_manifest_names_only_the_backends_the_condition_calls(self, runner, workspace,
                                                                  mock_server):
        url = mock_server.base_url
        unused = ["--drafter", url, "--drafter-model", "unused-drafter", "--embedder", url]
        manifests = {}
        for name, extra in (("own", []), ("extra", unused)):
            result = _translate(runner, workspace, url, "zero_shot", extra=extra + ["--force"])
            assert result.exit_code == 0, result.output
            manifest = workspace / "runs" / "run1" / "manifest.json"
            manifests[name] = json.loads(manifest.read_text())
        assert manifests["extra"]["model_ids"] == {"refiner": "llama-3.3-70b"}
        assert list(manifests["extra"]["config"]["endpoints"]) == ["refiner"]
        assert manifests["extra"]["config_hash"] == manifests["own"]["config_hash"]
        assert set(mock_server.stats.snapshot()["counts"]) == {"/v1/chat/completions"}

    def test_draft_only_records_shape(self, runner, workspace, mock_server):
        result = _translate(runner, workspace, mock_server.base_url, "draft_only",
                            run_id="draft")
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in
                (workspace / "runs" / "draft" / "records.jsonl").read_text().splitlines()]
        assert all(r["neighbors"] == [] for r in rows)
        assert all(r["draft"] for r in rows)


def _non_finite_scorer(monkeypatch) -> str:
    """Make every scorer reply hold one score per hypothesis sent, NaN first;
    returns a scorer URL that is never contacted."""
    from refta.backends import ScorerClient

    def send(self, path, sent):
        n = len(json.loads(sent)["hypotheses"])
        return 200, {}, json.dumps({"scores": [float("nan")] + [0.5] * (n - 1)}).encode()

    monkeypatch.setattr(ScorerClient, "_send", send)
    return "http://scorer.invalid"


def _assert_one_error_line(result, text: str) -> None:
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert text in result.stderr and "Traceback" not in result.output


class TestEvaluate:
    def _identity_run(self, workspace):
        run_dir = workspace / "runs" / "ident"
        run_dir.mkdir(parents=True)
        refs = [line.split("\t")[2] for line in
                (workspace / "test.tsv").read_text().splitlines()]
        (run_dir / "hypotheses.txt").write_text("\n".join(refs) + "\n")
        return run_dir

    def test_identity_scores_100(self, runner, workspace):
        run_dir = self._identity_run(workspace)
        result = runner.invoke(main, [
            "evaluate", "--run", str(run_dir),
            "--test-set", str(workspace / "test.tsv"),
        ])
        assert result.exit_code == 0, result.output
        assert "bleu 100.00" in result.output
        assert (run_dir / "metrics.json").exists()

    def test_final_newline_is_optional(self, runner, workspace):
        run_dir = self._identity_run(workspace)
        hyps = run_dir / "hypotheses.txt"
        hyps.write_text(hyps.read_text().removesuffix("\n"))
        result = runner.invoke(main, [
            "evaluate", "--run", str(run_dir),
            "--test-set", str(workspace / "test.tsv"),
        ])
        assert result.exit_code == 0, result.output
        assert "bleu 100.00" in result.output

    def test_metrics_without_scorer_is_usage_error(self, runner, workspace):
        run_dir = self._identity_run(workspace)
        result = runner.invoke(main, [
            "evaluate", "--run", str(run_dir),
            "--test-set", str(workspace / "test.tsv"), "--metrics", "comet",
        ])
        assert result.exit_code == 2, result.output
        assert "--scorer" in result.output
        assert not (run_dir / "metrics.json").exists()

    def test_scorer_without_metrics_is_usage_error(self, runner, workspace):
        run_dir = self._identity_run(workspace)
        result = runner.invoke(main, [
            "evaluate", "--run", str(run_dir),
            "--test-set", str(workspace / "test.tsv"), "--scorer", "http://127.0.0.1:9",
        ])
        assert result.exit_code == 2, result.output
        assert "--metrics" in result.output
        assert not (run_dir / "metrics.json").exists()

    def test_run_made_on_another_test_set_refused(self, runner, workspace, mock_server):
        assert _translate(runner, workspace, mock_server.base_url, "zero_shot",
                          run_id="base").exit_code == 0
        run_dir = workspace / "runs" / "base"
        rows = (FIXTURES / "testsets" / "ood_fixture_110.tsv").read_text().splitlines()
        other_set = workspace / "other.tsv"  # as many pairs as test.tsv, other texts
        other_set.write_text("\n".join(rows[8:16]) + "\n", encoding="utf-8")
        result = runner.invoke(main, [
            "evaluate", "--run", str(run_dir), "--test-set", str(other_set),
        ])
        assert result.exit_code == 1, result.output
        assert "digest" in result.output
        assert not (run_dir / "metrics.json").exists()
        result = runner.invoke(main, [
            "evaluate", "--run", str(run_dir), "--test-set", str(workspace / "test.tsv"),
        ])
        assert result.exit_code == 0, result.output
        assert (run_dir / "metrics.json").exists()

    @UNREADABLE_MANIFESTS
    def test_unreadable_manifest_is_an_error_line(self, runner, workspace, mock_server,
                                                  manifest_text):
        run_dir = _unreadable_run(runner, workspace, mock_server.base_url, manifest_text)
        result = runner.invoke(main, [
            "evaluate", "--run", str(run_dir), "--test-set", str(workspace / "test.tsv"),
        ])
        _assert_error_line(result, run_dir)
        assert not (run_dir / "metrics.json").exists()

    def test_edited_hypotheses_refused(self, runner, workspace, mock_server):
        run_dir = _edited_run(runner, workspace, mock_server.base_url)
        result = runner.invoke(main, [
            "evaluate", "--run", str(run_dir), "--test-set", str(workspace / "test.tsv"),
        ])
        assert result.exit_code == 1, result.output
        assert result.stderr.startswith("error: ") and "checksum" in result.stderr
        assert not (run_dir / "metrics.json").exists()

    def test_manifest_without_checksums_read_as_before(self, runner, workspace, mock_server):
        run_dir = _edited_run(runner, workspace, mock_server.base_url)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        del manifest["checksums"]
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        result = runner.invoke(main, [
            "evaluate", "--run", str(run_dir), "--test-set", str(workspace / "test.tsv"),
        ])
        assert result.exit_code == 0, result.output
        assert (run_dir / "metrics.json").exists()

    def test_missing_run_dir_exits_1(self, runner, workspace):
        result = runner.invoke(main, [
            "evaluate", "--run", str(workspace / "missing"),
            "--test-set", str(workspace / "test.tsv"),
        ])
        assert result.exit_code == 1

    def test_neural_metrics_attached(self, runner, workspace, mock_server):
        run_dir = self._identity_run(workspace)
        result = runner.invoke(main, [
            "evaluate", "--run", str(run_dir),
            "--test-set", str(workspace / "test.tsv"),
            "--scorer", mock_server.base_url,
            "--metrics", "comet,bertscore",
            "--json",
        ])
        assert result.exit_code == 0, result.output
        scores = json.loads(result.output)
        assert scores["comet"] == 1.0  # identity pairs at the mock scorer
        assert "bertscore" in scores

    def test_scorer_client_closed(self, runner, workspace, mock_server, monkeypatch):
        from refta.backends import ScorerClient

        closed = []
        monkeypatch.setattr(ScorerClient, "close", lambda self: closed.append(self))
        run_dir = self._identity_run(workspace)
        result = runner.invoke(main, [
            "evaluate", "--run", str(run_dir),
            "--test-set", str(workspace / "test.tsv"),
            "--scorer", mock_server.base_url, "--metrics", "comet",
        ])
        assert result.exit_code == 0, result.output
        assert len(closed) == 1

    def test_failed_lines_counted_and_warned(self, runner, workspace):
        run_dir = self._identity_run(workspace)
        lines = (run_dir / "hypotheses.txt").read_text().splitlines()
        lines[3] = "<FAILED>"
        (run_dir / "hypotheses.txt").write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [
            "evaluate", "--run", str(run_dir),
            "--test-set", str(workspace / "test.tsv"),
        ])
        assert result.exit_code == 0, result.output
        assert "warning: 1 of 8 hypotheses are <FAILED>" in result.output
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["n_failed"] == 1
        assert metrics["warnings"] == ["1 of 8 hypotheses are <FAILED>"]

    def test_failed_lines_warned_on_stderr_in_json_mode(self, runner, workspace):
        run_dir = self._identity_run(workspace)
        lines = (run_dir / "hypotheses.txt").read_text().splitlines()
        lines[3] = "<FAILED>"
        (run_dir / "hypotheses.txt").write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [
            "evaluate", "--run", str(run_dir),
            "--test-set", str(workspace / "test.tsv"), "--json",
        ])
        assert result.exit_code == 0, result.output
        assert sorted(json.loads(result.stdout)) == ["bleu", "chrf++"]
        assert result.stderr == "warning: 1 of 8 hypotheses are <FAILED>\n"

    def test_non_finite_score_is_an_error(self, runner, workspace, monkeypatch):
        run_dir = self._identity_run(workspace)
        result = runner.invoke(main, [
            "evaluate", "--run", str(run_dir),
            "--test-set", str(workspace / "test.tsv"),
            "--scorer", _non_finite_scorer(monkeypatch), "--metrics", "comet",
        ])
        _assert_one_error_line(result, "not a finite number")
        assert not (run_dir / "metrics.json").exists()


def _identity_runs_args(workspace, command) -> list:
    """Write runs ``base`` and ``sys`` that repeat the references; returns
    the arguments that score ``sys`` with ``command``."""
    refs = [line.split("\t")[2] for line in
            (workspace / "test.tsv").read_text().splitlines()]
    for name in ("base", "sys"):
        (workspace / name).mkdir()
        (workspace / name / "hypotheses.txt").write_text("".join(r + "\n" for r in refs))
    runs = {"evaluate": ["--run", str(workspace / "sys")],
            "compare": ["--runs", str(workspace / "sys"), "--baseline", str(workspace / "base"),
                        "--out", str(workspace / "cmp.json")]}[command]
    return [command, *runs, "--test-set", str(workspace / "test.tsv")]


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_undecodable_hypotheses_are_an_error_line(runner, workspace, command):
    args = _identity_runs_args(workspace, command)
    hyps = workspace / "sys" / "hypotheses.txt"
    hyps.write_bytes(hyps.read_bytes().replace(b"\n", b"\n\xff", 1))  # a bad byte on line 2
    result = runner.invoke(main, args)
    _assert_one_error_line(result, f"{hyps}:2: not valid UTF-8")
    assert not (workspace / "cmp.json").exists() and not (workspace / "sys" / "metrics.json").exists()


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_scorer_batch_rejected_as_too_large_is_scored_triple_by_triple(
        runner, workspace, monkeypatch, command):
    from refta.backends import ScorerClient

    sent = []

    def send(self, path, body):  # HTTP 413 for more than 3 triples
        hyps = json.loads(body)["hypotheses"]
        sent.append(len(hyps))
        if len(hyps) > 3:
            return 413, {}, b'{"error": {"type": "payload_too_large"}}'
        return 200, {}, json.dumps({"scores": [0.5] * len(hyps)}).encode()

    monkeypatch.setattr(ScorerClient, "_send", send)
    result = runner.invoke(main, [*_identity_runs_args(workspace, command),
                                  "--scorer", "http://scorer.invalid", "--metrics", "comet"])
    assert result.exit_code == 0, result.output
    # the 8 distinct triples in one batch, then one request per triple
    assert sent == [8] + [1] * 8
    report = (workspace / "sys" / "metrics.json" if command == "evaluate"
              else workspace / "cmp.json")
    assert "comet" in report.read_text()


class TestCompare:
    def test_non_finite_score_is_an_error(self, runner, workspace, monkeypatch):
        out = workspace / "cmp.json"
        result = runner.invoke(main, [
            *_identity_runs_args(workspace, "compare"),
            "--scorer", _non_finite_scorer(monkeypatch), "--metrics", "comet",
        ])
        _assert_one_error_line(result, "not a finite number")
        assert not out.exists()

    def test_baseline_vs_itself(self, runner, workspace, mock_server):
        _translate(runner, workspace, mock_server.base_url, "zero_shot", run_id="base")
        base = workspace / "runs" / "base"
        other = workspace / "runs" / "other"
        shutil.copytree(base, other)
        out = workspace / "comparison.json"
        result = runner.invoke(main, [
            "compare", "--runs", str(other), "--baseline", str(base),
            "--test-set", str(workspace / "test.tsv"),
            "--seed", "17", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        data = json.loads(out.read_text())
        assert all(s["delta"] == 0.0 for s in data["significance"])
        assert all(s["p_value"] == 1.0 for s in data["significance"])

    def test_failed_lines_warned_in_rows(self, runner, workspace, mock_server):
        _translate(runner, workspace, mock_server.base_url, "zero_shot", run_id="base")
        base = workspace / "runs" / "base"
        broken = workspace / "runs" / "broken"
        shutil.copytree(base, broken)
        (broken / "manifest.json").unlink()  # edited: an outside system's output now
        lines = (broken / "hypotheses.txt").read_text().splitlines()
        lines[0] = lines[5] = "<FAILED>"
        (broken / "hypotheses.txt").write_text("\n".join(lines) + "\n")
        out = workspace / "cmp.json"
        result = runner.invoke(main, [
            "compare", "--runs", str(broken), "--baseline", str(base),
            "--test-set", str(workspace / "test.tsv"), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = {row["run"]: row for row in json.loads(out.read_text())["rows"]}
        assert rows["base"]["warnings"] == []
        assert rows["broken"]["warnings"] == ["2 of 8 hypotheses are <FAILED>"]

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["table", "json"])
    def test_failed_lines_warned_on_stderr(self, runner, workspace, mock_server, mode):
        _translate(runner, workspace, mock_server.base_url, "zero_shot", run_id="base")
        base = workspace / "runs" / "base"
        broken = workspace / "runs" / "broken"
        shutil.copytree(base, broken)
        (broken / "manifest.json").unlink()  # edited: an outside system's output now
        lines = (broken / "hypotheses.txt").read_text().splitlines()
        lines[0] = lines[5] = "<FAILED>"
        (broken / "hypotheses.txt").write_text("\n".join(lines) + "\n")
        out = workspace / "cmp.json"
        result = runner.invoke(main, [
            "compare", "--runs", str(broken), "--baseline", str(base),
            "--test-set", str(workspace / "test.tsv"), "--out", str(out), *mode,
        ])
        assert result.exit_code == 0, result.output
        assert result.stderr == "warning: broken: 2 of 8 hypotheses are <FAILED>\n"
        if mode:
            assert json.loads(result.stdout) == json.loads(out.read_text())
        else:
            assert result.stdout.endswith(f"wrote {out}\n")

    def test_scores_a_directory_without_manifest(self, runner, workspace, mock_server):
        _translate(runner, workspace, mock_server.base_url, "zero_shot", run_id="base")
        base = workspace / "runs" / "base"
        outside = workspace / "outside"  # an outside system's outputs: hypotheses only
        outside.mkdir()
        shutil.copy(base / "hypotheses.txt", outside / "hypotheses.txt")
        out = workspace / "cmp.json"
        result = runner.invoke(main, [
            "compare", "--runs", str(outside), "--baseline", str(base),
            "--test-set", str(workspace / "test.tsv"), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert [row["run"] for row in json.loads(out.read_text())["rows"]] == [
            "base", "outside"]

        tampered = workspace / "runs" / "tampered"  # a manifest is still checked
        shutil.copytree(base, tampered)
        manifest = json.loads((tampered / "manifest.json").read_text())
        manifest["corpus_digest"] = "0" * 64
        (tampered / "manifest.json").write_text(json.dumps(manifest))
        result = runner.invoke(main, [
            "compare", "--runs", str(tampered), "--baseline", str(base),
            "--test-set", str(workspace / "test.tsv"), "--out", str(out),
        ])
        assert result.exit_code == 1, result.output
        assert "digest" in result.output

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"],
        ["--out", "nodir/cmp.json"],
        ["--out", "runs"],
    ], ids=["negative-seed", "out-in-missing-dir", "out-is-a-dir"])
    def test_bad_value_is_usage_error_before_any_run_is_read(self, runner, workspace,
                                                             monkeypatch, flags):
        monkeypatch.chdir(workspace)
        (workspace / "runs").mkdir()
        missing = str(workspace / "runs" / "missing")  # reading it would exit 1
        result = runner.invoke(main, [
            "compare", "--runs", missing, "--baseline", missing,
            "--test-set", str(workspace / "test.tsv"), *flags,
        ])
        assert result.exit_code == 2, result.output
        assert flags[0] in result.output
        assert not (workspace / "comparison.json").exists()

    def test_fewer_than_two_segments_is_an_error_line(self, runner, workspace):
        one_pair = workspace / "one.tsv"
        one_pair.write_text((workspace / "test.tsv").read_text().splitlines()[0] + "\n",
                            encoding="utf-8")
        for name in ("a", "b"):
            (workspace / name).mkdir()
            (workspace / name / "hypotheses.txt").write_text("a hypothesis\n", encoding="utf-8")
        out = workspace / "cmp.json"
        result = runner.invoke(main, [
            "compare", "--runs", str(workspace / "a"), "--baseline", str(workspace / "b"),
            "--test-set", str(one_pair), "--out", str(out),
        ])
        assert result.exit_code == 1, result.output
        assert result.stderr.startswith("error: ") and "at least 2 segments" in result.stderr
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_scorer_client_closed(self, runner, workspace, mock_server, monkeypatch):
        from refta.backends import ScorerClient

        closed = []
        monkeypatch.setattr(ScorerClient, "close", lambda self: closed.append(self))
        _translate(runner, workspace, mock_server.base_url, "zero_shot", run_id="base")
        result = runner.invoke(main, [
            "compare", "--runs", str(workspace / "runs" / "base"),
            "--baseline", str(workspace / "runs" / "base"),
            "--test-set", str(workspace / "test.tsv"),
            "--out", str(workspace / "cmp.json"),
            "--scorer", mock_server.base_url, "--metrics", "comet",
        ])
        assert result.exit_code == 0, result.output
        assert len(closed) == 1

    def test_dominated_run_gets_significance_marker(self, runner, workspace, mock_server):
        _translate(runner, workspace, mock_server.base_url, "zero_shot", run_id="base")
        base = workspace / "runs" / "base"
        dominant = workspace / "runs" / "dominant"
        shutil.copytree(base, dominant)
        (dominant / "manifest.json").unlink()  # edited: an outside system's output now
        refs = [line.split("\t")[2] for line in
                (workspace / "test.tsv").read_text().splitlines()]
        (dominant / "hypotheses.txt").write_text("\n".join(refs) + "\n")
        result = runner.invoke(main, [
            "compare", "--runs", str(dominant), "--baseline", str(base),
            "--test-set", str(workspace / "test.tsv"),
            "--seed", "17", "--out", str(workspace / "cmp.json"),
        ])
        assert result.exit_code == 0, result.output
        table_line = next(line for line in result.output.splitlines()
                          if line.startswith("dominant"))
        assert "*" in table_line

    def _scored_compare(self, runner, workspace, url, matched, seed=5):
        """Compare outside runs named by ``matched``, each of whose hypotheses
        is the reference on the segments it lists and wrong elsewhere, under
        the mock's comet (1.0 for the reference, else 0.7); the first run is
        the baseline. Returns each run's comet scores and the comparison."""
        refs = [line.split("\t")[2] for line in
                (workspace / "test.tsv").read_text().splitlines()]
        scores = {}
        for name, rows in matched.items():
            (workspace / name).mkdir()
            (workspace / name / "hypotheses.txt").write_text(
                "".join((ref if i in rows else "wrong") + "\n" for i, ref in enumerate(refs)))
            scores[name] = np.array([1.0 if i in rows else 0.7 for i in range(len(refs))])
        base, *others = (str(workspace / name) for name in matched)
        out = workspace / "cmp.json"
        result = runner.invoke(main, [
            "compare", *(arg for run in others for arg in ("--runs", run)), "--baseline", base,
            "--test-set", str(workspace / "test.tsv"), "--seed", str(seed), "--out", str(out),
            "--scorer", url, "--metrics", "comet",
        ])
        assert result.exit_code == 0, result.output
        return scores, json.loads(out.read_text())

    def test_neural_row_is_a_bootstrap_of_score_means(self, runner, workspace, mock_server):
        scores, data = self._scored_compare(runner, workspace, mock_server.base_url,
                                            {"base": {0}, "sys": {0, 1, 2}})
        assert [(s["system_a"], s["metric"]) for s in data["significance"]] == [
            ("sys", "bleu"), ("sys", "chrf++"), ("sys", "comet")]
        row = data["significance"][2]
        n = len(scores["sys"])
        idx = np.random.Generator(np.random.PCG64(5)).integers(
            0, n, size=(row["n_resamples"], n), dtype=np.int64)
        deltas = scores["sys"][idx].mean(axis=1) - scores["base"][idx].mean(axis=1)
        delta = scores["sys"].mean() - scores["base"].mean()
        p_value = np.mean(np.sign(deltas) != np.sign(delta))
        assert 0.0 < p_value < 1.0
        assert [row["delta"], row["p_value"], row["ci_low"], row["ci_high"]] == pytest.approx(
            [delta, p_value, *np.percentile(deltas, [2.5, 97.5])], abs=1e-12)

    def test_neural_row_of_identical_runs(self, runner, workspace, mock_server):
        _, data = self._scored_compare(runner, workspace, mock_server.base_url,
                                       {"base": {0, 3}, "same": {0, 3}})
        row = data["significance"][2]
        assert (row["metric"], row["delta"], row["p_value"]) == ("comet", 0.0, 1.0)
        assert [row["ci_low"], row["ci_high"]] == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_metrics_without_scorer_is_usage_error(self, runner, workspace):
        missing = str(workspace / "runs" / "missing")  # refused before any run is read
        result = runner.invoke(main, [
            "compare", "--runs", missing, "--baseline", missing,
            "--test-set", str(workspace / "test.tsv"), "--metrics", "comet",
            "--out", str(workspace / "cmp.json"),
        ])
        assert result.exit_code == 2, result.output
        assert "--scorer" in result.output
        assert not (workspace / "cmp.json").exists()

    def test_scorer_without_metrics_is_usage_error(self, runner, workspace):
        missing = str(workspace / "runs" / "missing")  # refused before any run is read
        result = runner.invoke(main, [
            "compare", "--runs", missing, "--baseline", missing,
            "--test-set", str(workspace / "test.tsv"), "--scorer", "http://127.0.0.1:9",
            "--out", str(workspace / "cmp.json"),
        ])
        assert result.exit_code == 2, result.output
        assert "--metrics" in result.output
        assert not (workspace / "cmp.json").exists()

    @UNREADABLE_MANIFESTS
    def test_unreadable_manifest_is_an_error_line(self, runner, workspace, mock_server,
                                                  manifest_text):
        run_dir = _unreadable_run(runner, workspace, mock_server.base_url, manifest_text)
        out = workspace / "cmp.json"
        result = runner.invoke(main, [
            "compare", "--runs", str(run_dir), "--baseline", str(run_dir),
            "--test-set", str(workspace / "test.tsv"), "--out", str(out),
        ])
        _assert_error_line(result, run_dir)
        assert not out.exists()

    def test_edited_hypotheses_refused(self, runner, workspace, mock_server):
        run_dir = _edited_run(runner, workspace, mock_server.base_url)
        assert _translate(runner, workspace, mock_server.base_url, "zero_shot",
                          run_id="base").exit_code == 0
        out = workspace / "cmp.json"
        result = runner.invoke(main, [
            "compare", "--runs", str(run_dir), "--baseline", str(workspace / "runs" / "base"),
            "--test-set", str(workspace / "test.tsv"), "--out", str(out),
        ])
        assert result.exit_code == 1, result.output
        assert result.stderr.startswith("error: ") and "checksum" in result.stderr
        assert not out.exists()

    def test_digest_mismatch_refused(self, runner, workspace, mock_server):
        _translate(runner, workspace, mock_server.base_url, "zero_shot", run_id="base")
        other_set = workspace / "other.tsv"
        other_set.write_text("x1\tlatinus textus\ta reference\n", encoding="utf-8")
        result = runner.invoke(main, [
            "compare", "--runs", str(workspace / "runs" / "base"),
            "--baseline", str(workspace / "runs" / "base"),
            "--test-set", str(other_set),
        ])
        assert result.exit_code == 1
        assert "digest" in result.output


class TestCost:
    def test_cost_over_run(self, runner, workspace, mock_server):
        _translate(runner, workspace, mock_server.base_url, "zero_shot", run_id="c")
        result = runner.invoke(main, [
            "cost", "--run", str(workspace / "runs" / "c"),
            "--input-rate", "1.25", "--output-rate", "10.0",
            "--fixed-hourly", "0.50", "--json",
        ])
        assert result.exit_code == 0, result.output
        data = json.loads(result.output)
        # reported fields are independently rounded to 4 decimals
        assert data["api_cost_batched"] == pytest.approx(data["api_cost"] * 0.5, abs=1e-4)
        assert (workspace / "runs" / "c" / "costs.json").exists()

    @UNREADABLE_MANIFESTS
    def test_unreadable_manifest_is_an_error_line(self, runner, workspace, mock_server,
                                                  manifest_text):
        run_dir = _unreadable_run(runner, workspace, mock_server.base_url, manifest_text)
        result = runner.invoke(main, [
            "cost", "--run", str(run_dir), "--input-rate", "1.25", "--output-rate", "10.0",
        ])
        _assert_error_line(result, run_dir)
        assert not (run_dir / "costs.json").exists()

    @pytest.mark.parametrize("flags", [
        ["--power-kw", "0.3", "--power-rate", "0.10"],
        ["--power-kw", "0.3", "--fixed-hourly", "0.50"],
        ["--power-rate", "0.10", "--fixed-hourly", "0.50"],
    ], ids=["no-fixed-hourly", "no-power-rate", "no-power-kw"])
    def test_power_flag_that_would_be_dropped_is_usage_error(self, runner, workspace,
                                                             mock_server, flags):
        _translate(runner, workspace, mock_server.base_url, "zero_shot", run_id="c")
        result = runner.invoke(main, [
            "cost", "--run", str(workspace / "runs" / "c"),
            "--input-rate", "1.25", "--output-rate", "10.0", *flags,
        ])
        assert result.exit_code == 2, result.output
        assert not (workspace / "runs" / "c" / "costs.json").exists()

    @pytest.mark.parametrize("flags", [
        ["--input-rate", "abc"],
        ["--input-rate", "nan"],
        ["--output-rate", "-1"],
        ["--fixed-hourly", "-5"],
        ["--power-kw", "-0.3", "--power-rate", "0.10", "--fixed-hourly", "0.50"],
    ], ids=["not-a-number", "nan", "negative-rate", "negative-hourly", "negative-power"])
    def test_bad_value_is_usage_error(self, runner, workspace, mock_server, flags):
        _translate(runner, workspace, mock_server.base_url, "zero_shot", run_id="c")
        result = runner.invoke(main, [
            "cost", "--run", str(workspace / "runs" / "c"),
            "--input-rate", "1.25", "--output-rate", "10.0", *flags,
        ])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert not (workspace / "runs" / "c" / "costs.json").exists()

    @pytest.mark.parametrize("field, value, flags", [
        ("tokens.input", "many", []),
        ("tokens.output", None, []),
        ("counts.segments", -1, []),
        ("wall_time_ms", None, ["--fixed-hourly", "0.50"]),
    ])
    def test_manifest_it_cannot_price_is_an_error_line(self, runner, workspace, mock_server,
                                                       field, value, flags):
        _translate(runner, workspace, mock_server.base_url, "zero_shot", run_id="c")
        run_dir = workspace / "runs" / "c"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        *parents, key = field.split(".")
        table = manifest[parents[0]] if parents else manifest
        if value is None:
            del table[key]
        else:
            table[key] = value
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        result = runner.invoke(main, [
            "cost", "--run", str(run_dir), "--input-rate", "1.25", "--output-rate", "10.0",
            *flags,
        ])
        assert result.exit_code == 1, result.output
        assert result.stderr.startswith("error: ") and field in result.stderr
        assert "Traceback" not in result.output
        assert not (run_dir / "costs.json").exists()


def test_manifest_records_the_checksums_of_the_run_files(runner, workspace, mock_server):
    assert _translate(runner, workspace, mock_server.base_url, "zero_shot").exit_code == 0
    run_dir = workspace / "runs" / "run1"
    checksums = json.loads((run_dir / "manifest.json").read_text())["checksums"]
    assert checksums == {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                         for name in ("records.jsonl", "hypotheses.txt", "errors.jsonl")}


def _test_set_command(command, workspace, test_set, url):
    """``command``'s arguments over ``test_set``; translate's refiner is at
    ``url``, and evaluate and compare read the run directory ``workspace/run``."""
    run = str(workspace / "run")
    return {
        "translate": ["translate", "--condition", "zero_shot", "--run-id", "r",
                      "--runs-root", str(workspace / "runs"), "--refiner", url],
        "evaluate": ["evaluate", "--run", run],
        "compare": ["compare", "--runs", run, "--baseline", run,
                    "--out", str(workspace / "cmp.json")],
    }[command] + ["--test-set", str(test_set)]


@pytest.mark.parametrize("command", ["translate", "evaluate", "compare"])
def test_empty_test_set_is_an_error_line(runner, workspace, mock_server, command):
    (workspace / "run").mkdir()
    (workspace / "run" / "hypotheses.txt").write_text("", encoding="utf-8")
    (workspace / "test.tsv").write_text("", encoding="utf-8")
    result = runner.invoke(main, _test_set_command(command, workspace, workspace / "test.tsv",
                                                   mock_server.base_url))
    _assert_refused_before_any_request(result, mock_server.base_url)
    assert "no pairs" in result.stderr and str(workspace / "test.tsv") in result.stderr
    assert sorted(p.name for p in workspace.iterdir()) == ["corpus.jsonl", "run", "test.tsv"]
    assert [p.name for p in (workspace / "run").iterdir()] == ["hypotheses.txt"]


@pytest.mark.parametrize("command", ["translate", "evaluate", "compare"])
def test_test_set_of_another_format_is_usage_error(runner, workspace, mock_server, command):
    import requests

    test_json = workspace / "test.json"
    shutil.copy(workspace / "test.tsv", test_json)
    (workspace / "run").mkdir()
    result = runner.invoke(main, _test_set_command(command, workspace, test_json,
                                                   mock_server.base_url))
    assert result.exit_code == 2, result.output
    assert requests.get(f"{mock_server.base_url}/_stats", timeout=5).json()["counts"] == {}
    assert "--test-set" in result.output and "test.json" in result.output
    assert not (workspace / "runs").exists() and not (workspace / "cmp.json").exists()


@pytest.mark.parametrize("args", [
    ["translate", "--test-format", "tsv"],
    ["translate", "--embed-model", "bge-m3"],
    ["evaluate", "--test-format", "tsv"],
    ["compare", "--test-format", "jsonl"],
    ["index-build", "--format", "plain-lines"],
    ["mock-serve", "--behavior", "echo-refiner", "--port", "0"],
])
def test_flags_that_restate_an_input_are_gone(runner, monkeypatch, args):
    from refta.mockserver import MockServer

    def interrupt(self):  # a mock server that did start stops at once
        raise KeyboardInterrupt

    monkeypatch.setattr(MockServer, "service_actions", interrupt)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "No such option" in result.output and args[1] in result.output


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_scorer_model_flag_is_gone(runner, workspace, mock_server, command):
    # the /score request names no model, so the flag changed nothing
    result = runner.invoke(main, _test_set_command(command, workspace, workspace / "test.tsv",
                                                   mock_server.base_url)
                           + ["--scorer-model", "comet-22"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--scorer-model" in result.output


class TestConfigFile:
    def test_config_provides_defaults_flags_win(self, runner, workspace, mock_server, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "translate": {
                "test_set": str(workspace / "test.tsv"),
                "refiner_url": mock_server.base_url,
                "runs_root": str(workspace / "runs"),
                "condition": "zero_shot",
                "run_id": "from-config",
            },
            "mock-serve": {"port": 9099},
        }))
        result = runner.invoke(main, ["--config", str(cfg), "translate",
                                      "--run-id", "flag-wins"])
        assert result.exit_code == 0, result.output
        assert (workspace / "runs" / "flag-wins").is_dir()
        assert not (workspace / "runs" / "from-config").exists()
        # the help shows the config's value as the default, with click's range after it
        shown = runner.invoke(main, ["--config", str(cfg), "mock-serve", "--help"])
        assert shown.exit_code == 0 and "default: 9099" in shown.output, shown.output

    def test_toml_table_supplies_defaults(self, runner, workspace, mock_server, tmp_path):
        cfg = tmp_path / "cfg.toml"
        cfg.write_text(
            "[translate]\n"
            f"test_set = {json.dumps(str(workspace / 'test.tsv'))}\n"
            f"refiner_url = {json.dumps(mock_server.base_url)}\n"
            f"runs_root = {json.dumps(str(workspace / 'runs'))}\n"
            'condition = "zero_shot"\n'
            'run_id = "from-toml"\n'
        )
        result = runner.invoke(main, ["--config", str(cfg), "translate"])
        assert result.exit_code == 0, result.output
        assert (workspace / "runs" / "from-toml" / "hypotheses.txt").exists()

    def test_extension_is_compared_lower_cased(self, runner, tmp_path):
        cfg = tmp_path / "cfg.TOML"
        cfg.write_text("[mock-serve]\nport = 0\n")
        result = runner.invoke(main, ["--config", str(cfg), "mock-serve", "--help"])
        assert result.exit_code == 0, result.output

    def test_other_extension_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(json.dumps({"mock-serve": {"port": 0}}))
        result = runner.invoke(main, ["--config", str(cfg), "mock-serve", "--help"])
        assert result.exit_code == 2, result.output
        assert "cfg.yaml" in result.output

    def test_malformed_toml_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.toml"
        cfg.write_text("[translate\nk = 3\n")
        result = runner.invoke(main, ["--config", str(cfg), "mock-serve", "--help"])
        assert result.exit_code == 2, result.output
        assert "not valid TOML" in result.output

    def test_unreadable_config_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.mkdir()
        result = runner.invoke(main, ["--config", str(cfg), "cost", "--run", "x",
                                      "--input-rate", "1", "--output-rate", "1"])
        assert result.exit_code == 2, result.output
        assert f"cannot read {cfg}" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("config", [
        {"translate": {"workerz": 8}},
        {"translate": {"workers": 8}},
        {"translate": {"candidate_pool": 50}},
        {"index-build": {"near_dup_threshold": 0.9}},
        {"translat": {"parallelism": 8}},
        {"translate": ["parallelism"]},
        ["translate"],
    ], ids=["misspelled-key", "removed-key", "removed-candidate-pool",
            "removed-near-dup-threshold", "misspelled-command", "table-not-an-object",
            "not-an-object"])
    def test_unknown_name_is_usage_error_before_any_request(self, runner, workspace,
                                                            mock_server, tmp_path, config):
        import requests

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = _translate(runner, workspace, mock_server.base_url, "zero_shot", config=cfg)
        assert result.exit_code == 2, result.output
        assert requests.get(f"{mock_server.base_url}/_stats", timeout=5).json()["counts"] == {}

    def test_every_key_of_the_documented_example_is_accepted(self, runner, tmp_path):
        doc = (REPO_ROOT / "docs" / "config.md").read_text(encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc.split("```json\n", 1)[1].split("```", 1)[0])
        result = runner.invoke(main, ["--config", str(cfg), "mock-serve", "--help"])
        assert result.exit_code == 0, result.output


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "refta" in result.output


def test_cli_runs_without_requests():
    import subprocess
    import sys

    code = ("import sys; sys.modules['requests'] = None\n"
            "from refta.cli import main\n"
            "main(['--help'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "index-build" in proc.stdout


def test_mock_serve_subprocess():
    import subprocess
    import sys
    import requests

    proc = subprocess.Popen(
        [sys.executable, "-m", "refta.cli", "mock-serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        assert "listening on" in line, line
        url = line.rsplit(" ", 1)[-1]
        resp = requests.post(f"{url}/translate",
                             json={"model": "m", "inputs": ["salve"]}, timeout=5)
        assert resp.status_code == 200
        assert resp.json()["outputs"] == ["[draft]salve"]
        stats = requests.get(f"{url}/_stats", timeout=5)
        assert stats.status_code == 200
        assert stats.json()["counts"]["/translate"] == 1
    finally:
        proc.terminate()
        proc.communicate(timeout=10)


@pytest.mark.parametrize("refiner", ["template", "echo", "empty"])
def test_mock_serve_refiner_flag_sets_the_behavior(runner, monkeypatch, refiner):
    from refta.mockserver import MockServer

    served = []

    def interrupt(self):
        served.append(self)
        raise KeyboardInterrupt

    monkeypatch.setattr(MockServer, "service_actions", interrupt)
    result = runner.invoke(main, ["mock-serve", "--port", "0", "--refiner", refiner])
    assert result.exit_code == 0, result.output
    assert served[0].behavior.refiner == refiner


def test_mock_serve_interrupt_closes_socket(runner, monkeypatch):
    from refta.mockserver import MockServer

    served = []

    def interrupt(self):  # runs inside serve_forever's loop, like a Ctrl-C would
        served.append(self)
        raise KeyboardInterrupt

    monkeypatch.setattr(MockServer, "service_actions", interrupt)
    result = runner.invoke(main, ["mock-serve", "--port", "0"])
    assert result.exit_code == 0, result.output
    assert served[0].socket.fileno() == -1


def _assert_listen_error(result, address: str) -> None:
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith(f"error: cannot listen on {address}: "), result.output
    assert "Traceback" not in result.output


def test_mock_serve_on_a_port_in_use_is_an_error_line(runner):
    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        result = runner.invoke(main, ["mock-serve", "--port", str(port)])
    _assert_listen_error(result, f"127.0.0.1:{port}")


def test_mock_serve_on_a_host_that_names_no_address_is_an_error_line(runner, monkeypatch):
    from refta.mockserver import MockServer

    def unresolved(self):  # what binding to 256.1.1.1 raises, without a name lookup
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

    monkeypatch.setattr(MockServer, "server_bind", unresolved)
    result = runner.invoke(main, ["mock-serve", "--host", "256.1.1.1", "--port", "0"])
    _assert_listen_error(result, "256.1.1.1:0")


def test_mock_serve_port_out_of_range_is_usage_error(runner):
    result = runner.invoke(main, ["mock-serve", "--port", "70000"])
    assert result.exit_code == 2, result.output
    assert "70000" in result.output and "Traceback" not in result.output
