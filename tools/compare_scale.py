#!/usr/bin/env python3
"""Time ``compare_runs`` on seeded synthetic runs of three systems.

    python3 tools/compare_scale.py --segments 10000 --seed 0

The test set has one reference per segment, of 8-29 words drawn from a
3000-word vocabulary; each system replaces a different share of a
reference's words with other vocabulary words. The test set and the runs
are written to a temporary directory, removed on exit. Prints one JSON
object: the segment count, the seconds ``compare_runs`` took, the process's
peak resident set (``ru_maxrss``) in MB just before ``compare_runs`` and at
the end (the difference is ``compare``'s own increment) and the lexical
significance rows, so that two checkouts can be compared on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from refta.corpus import load_parallel  # noqa: E402
from refta.metrics.report import compare_runs  # noqa: E402

VOCABULARY = 3000
WORDS = (8, 29)
SYSTEMS = {"base": 0.5, "mid": 0.4, "top": 0.3}  # share of words replaced
SEED = 17  # the bootstrap's seed


def _write_inputs(root: Path, n: int, seed: int) -> tuple[Path, list[Path]]:
    rng = random.Random(seed)
    letters = "abcdefghilmnoprstuv"
    vocab = sorted({"".join(rng.choices(letters, k=rng.randint(2, 9)))
                    for _ in range(VOCABULARY * 2)})[:VOCABULARY]
    refs = [rng.choices(vocab, k=rng.randint(*WORDS)) for _ in range(n)]
    test_set = root / "test.tsv"
    test_set.write_text("".join(f"s{i}\tsrc\t{' '.join(ref)}\n" for i, ref in enumerate(refs)),
                        encoding="utf-8")
    run_dirs = []
    for name, replaced in SYSTEMS.items():
        run_dir = root / name
        run_dir.mkdir()
        hyps = (" ".join(rng.choice(vocab) if rng.random() < replaced else w for w in ref)
                for ref in refs)
        (run_dir / "hypotheses.txt").write_text("".join(h + "\n" for h in hyps),
                                                encoding="utf-8")
        run_dirs.append(run_dir)
    return test_set, run_dirs


def _maxrss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--segments", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0, help="seed of the synthetic inputs")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        test_set, run_dirs = _write_inputs(Path(tmp), args.segments, args.seed)
        pairs = load_parallel(test_set, "tsv")
        before_mb = _maxrss_mb()
        start = time.perf_counter()
        comparison = compare_runs(run_dirs, pairs, run_dirs[0], seed=SEED)
        seconds = time.perf_counter() - start
    print(json.dumps({
        "segments": args.segments,
        "systems": len(SYSTEMS),
        "compare_s": round(seconds, 3),
        "ru_maxrss_before_mb": before_mb,
        "ru_maxrss_mb": _maxrss_mb(),
        "significance": [
            {k: getattr(sig, k) for k in ("system_a", "metric", "delta", "p_value",
                                           "ci_low", "ci_high")}
            for sig in comparison.significance],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
