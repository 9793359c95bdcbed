"""The fixture flow of the README quickstart as one golden check.

Against one in-process mock: ``index-build --exclude``, ``zero_shot``,
``draft_only``, ``rag --temperature 0.0`` and ``rag --temperature 0.5``,
``evaluate`` of the four runs and ``compare``, both with ``--scorer --metrics
comet,bertscore``. The mock's request and input counts per path, the digests
of every artifact a run writes (records without ``timings_ms``/``timestamps``),
the manifests' stable fields and the reply store's rows, sorted, must equal
``tests/data/golden/fixture_flow.json``. Every run then runs again with
``--force`` on the same runs root: the reruns send no request at all and
write the same hypotheses.

A change that moves a value in the golden says which value moved and why;
``python tests/test_fixture_flow.py`` prints the values the flow gives now.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from conftest import DATA, FIXTURES, start_mock_server
from refta.cli import main
from refta.mockserver import MockBehavior
from refta.pipeline import REPLIES_DIR

GOLDEN = DATA / "golden" / "fixture_flow.json"
TEST_SET = FIXTURES / "testsets" / "ood_fixture_110.tsv"
CORPUS = FIXTURES / "corpora" / "retrieval_fixture.jsonl"
SCORER = ("--metrics", "comet,bertscore")
RUNS = ("zero_shot", "draft_only", "rag-t0.0", "rag-t0.5")
MANIFEST_FIELDS = ("config_hash", "corpus_digest", "counts", "tokens", "replayed")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _invoke(*args) -> None:
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, (args, result.output)


def _translate(url, root, run, force=False) -> None:
    """The run named ``run`` in ``RUNS``: a condition, ``-t<temperature>`` for rag."""
    condition, _, temperature = run.partition("-t")
    args = ["translate", "--test-set", TEST_SET, "--condition", condition,
            "--run-id", run, "--runs-root", root, "--refiner", url]
    if condition != "zero_shot":
        args += ["--drafter", url]
    if condition == "rag":
        args += ["--embedder", url, "--index", root.parent / "idx", "--k", "5",
                 "--jaccard-threshold", "0.3", "--temperature", temperature]
    _invoke(*args, *(["--force"] if force else []))


def _requests(server) -> dict:
    snap = server.stats.snapshot()
    return {path: {"count": count, "inputs": snap["inputs"][path]}
            for path, count in sorted(snap["counts"].items())}


def _digests(root: Path) -> dict:
    # the index manifest's checksums cover vectors.bin and meta.jsonl
    out = {name: _sha((root.parent / name).read_bytes())
           for name in ("comparison.json", "idx/manifest.json")}
    for run in RUNS:
        run_dir = root / run
        for name in ("hypotheses.txt", "errors.jsonl", "metrics.json"):
            out[f"{run}/{name}"] = _sha((run_dir / name).read_bytes())
        rows = [{k: v for k, v in json.loads(line).items()
                 if k not in ("timings_ms", "timestamps")}
                for line in (run_dir / "records.jsonl").read_text("utf-8").splitlines()]
        out[f"{run}/records.jsonl"] = _sha(json.dumps(rows, sort_keys=True).encode("utf-8"))
    return out


def _manifests(root: Path) -> dict:
    manifests = {run: json.loads((root / run / "manifest.json").read_text("utf-8"))
                 for run in RUNS}
    return {run: {name: m[name] for name in MANIFEST_FIELDS} for run, m in manifests.items()}


def _replies(root: Path) -> dict:
    """Each store file's rows, sorted, by role: the file names hold the
    mock's address, which changes from run to run."""
    return {path.name.split("-")[0]: _sha(b"".join(sorted(path.read_bytes().splitlines(True))))
            for path in sorted((root / REPLIES_DIR).iterdir())}


def run_flow(work: Path) -> tuple[dict, dict]:
    """The flow in ``work``; returns its golden values, and the mock's
    counts and the hypotheses' digests of the reruns."""
    server = start_mock_server(MockBehavior())
    try:
        url, root = server.base_url, work / "runs"
        _invoke("index-build", "--corpus", CORPUS, "--exclude", TEST_SET,
                "--out", work / "idx", "--embedder", url)
        for run in RUNS:
            _translate(url, root, run)
        for run in RUNS:
            _invoke("evaluate", "--run", root / run, "--test-set", TEST_SET,
                    "--scorer", url, *SCORER)
        _invoke("compare", *(x for run in RUNS[1:] for x in ("--runs", root / run)),
                "--baseline", root / RUNS[0], "--test-set", TEST_SET, "--scorer", url,
                *SCORER, "--out", work / "comparison.json")
        flow = {"requests": _requests(server), "digests": _digests(root),
                "manifests": _manifests(root), "replies": _replies(root)}
        server.stats.reset()
        for run in RUNS:
            _translate(url, root, run, force=True)
        rerun = {"requests": _requests(server),
                 "hypotheses": {run: _sha((root / run / "hypotheses.txt").read_bytes())
                                for run in RUNS}}
    finally:
        server.stop()
    return flow, rerun


def test_fixture_flow_matches_its_golden(tmp_path):
    flow, rerun = run_flow(tmp_path)
    assert flow == json.loads(GOLDEN.read_text("utf-8"))
    assert rerun["requests"] == {}
    assert rerun["hypotheses"] == {run: flow["digests"][f"{run}/hypotheses.txt"]
                                   for run in RUNS}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        json.dump(run_flow(Path(work))[0], sys.stdout, indent=2, sort_keys=True)
        print()
