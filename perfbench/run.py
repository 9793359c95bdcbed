#!/usr/bin/env python3
"""Offline end-to-end benchmark of refta against its mock backends.

    python3 perfbench/run.py --workload fixture --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20
    python3 perfbench/run.py --smoke

One run measures one workload (``fixture`` or ``scale-rag``; see
perfbench/README.md) in this process, with the mock backends in a fresh
process of their own. ``--workload all`` runs each workload in turn, each in
its own process. ``--smoke`` runs every workload at tiny sizes, traced and
untraced, and checks the metric names and units against BENCHMARK.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
exit code is 0 only when every output check passed; a run without the refta
sources under ``src/`` exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("fixture", "scale-rag")
PROBE_CALLS = 30
CHILD_TIMEOUT_S = 900


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="time budget of the passes; fixes their number per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: a traced run that reports the per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="tiny sizes; check names and units")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "refta" / "__init__.py").is_file():
        print(f"refta sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)


def run_workload(name: str, seed: int, seconds: float, trace: int, small: bool) -> int:
    import workloads as wl
    from mock import MockProcess

    spec = wl.SPECS[name]
    if small:
        spec = dataclasses.replace(spec, **wl.SMOKE_SIZES[name])
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        with MockProcess(ROOT, spec.embed_dim) as mock:
            result = _measure(spec, seed, seconds, trace, work, mock)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    figures, env, problems = result.pop("figures"), result.pop("env"), result.pop("problems")
    for fig, (value, unit) in figures.items():
        print(f"{fig:<28} {value:>14.4f} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({**result, "figures": figures, "env": env, "problems": problems},
                   indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for message in problems:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _measure(spec, seed, seconds, trace, work: Path, mock) -> dict:
    import numpy

    import refta.kernels
    import workloads as wl
    from checks import Problems, RetrievalOracle, check_passes
    from layers import layer_metrics, percentile
    from tracing import Tracer, install

    probe = mock.probe(PROBE_CALLS)
    inputs = wl.make_inputs(spec, ROOT, seed, work)
    tracer = Tracer() if trace else None

    setup_s, build_stats, passes = [], [], []

    def set_up(rep: int):
        if tracer:
            tracer.phase = f"setup.{rep}"
        t0 = time.perf_counter()
        built = wl.setup(inputs, mock.base_url, work / f"index-{rep}")
        setup_s.append(time.perf_counter() - t0)
        build_stats.append(mock.take_stats())
        return built

    if tracer:
        install(tracer)
        try:
            for rep in range(spec.setup_reps):
                pairs, index = set_up(rep)
        finally:
            tracer.restore()
        # an untraced pass, then a traced one: their ratio is the tracing overhead
        passes.append(wl.run_pass(spec, pairs, index, mock, work / "pass-0"))
        install(tracer)
        try:
            passes.append(wl.run_pass(spec, pairs, index, mock, work / "pass-1", tracer=tracer))
        finally:
            tracer.restore()
    else:
        # Passes are spread evenly among the set-ups (15 set-ups and 2 passes:
        # 5 set-ups, a pass, 5, a pass, 5), so the fastest set-up is taken from
        # across the whole run, not from one stretch of it.
        n_passes = spec.passes(seconds)
        for rep in range(spec.setup_reps):
            pairs, index = set_up(rep)
            while len(passes) < min(n_passes, (rep + 1) * (n_passes + 1) // spec.setup_reps):
                passes.append(wl.run_pass(spec, pairs, index, mock,
                                          work / f"pass-{len(passes)}"))

    problems = Problems()
    oracle = RetrievalOracle(index, pairs, spec.embed_dim, wl.K, wl.CANDIDATE_POOL,
                             wl.JACCARD_THRESHOLD, problems)
    attempted, failed, records = check_passes(passes, pairs, oracle, problems)

    n = len(pairs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The fastest set-up and pass, as timeit reports: slower repeats mostly
    # measure how busy the machine was. The CPU speed of a shared VM drifts for
    # tens of seconds at a time, which moves a median but rarely the best repeat.
    best = min(passes, key=lambda p: p.wall)
    figures = {"setup_s": (min(setup_s), "s")}
    for cond in spec.conditions:
        figures[f"{cond}_seg_per_s"] = (n / best.seconds[cond], "seg/s")
    if spec.compare:
        figures["compare_s"] = (best.seconds["compare"], "s")
    figures["peak_rss_mb"] = (rss_mb, "MB")
    figures["failed_share"] = (failed / attempted if attempted else 0.0, "ratio")
    figures["mock_round_trip_ms_p50"] = (percentile(probe, 50), "ms")
    figures["mock_round_trip_ms_p90"] = (percentile(probe, 90), "ms")

    if tracer:
        metrics = layer_metrics(
            tracer.spans, probe_ms=probe, build_stats=build_stats[0], traced=passes[1],
            untraced_wall=passes[0].wall, records=records[1], n_segments=n,
            recall=oracle.recall(), setup_reps=spec.setup_reps)
        tracer.write(OUT / f"spans-{spec.name}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": (min(setup_s), "s"),
            "seg_per_s": (n / best.wall, "seg/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    env = {
        "workload": spec.name, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(passes), "segments": n, "setup_runs_s": setup_s,
        "pass_walls_s": [p.wall for p in passes],
        "kernels_backend": refta.kernels.BACKEND, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
    }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "figures": figures, "env": env, "problems": list(problems)}


def _declared_metrics() -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            1: {m["name"]: m["unit"] for m in declared["per_layer"]}}


def run_all(args) -> int:
    """Each workload in a process of its own; with --smoke, both trace modes
    and a check of every metric name and unit against BENCHMARK.json."""
    declared = _declared_metrics() if args.smoke else None
    traces = (0, 1) if args.smoke else (args.trace,)
    seconds = 0 if args.smoke else args.seconds
    rc = 0
    for name in WORKLOADS:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            rc = rc or proc.returncode
            if declared is None:
                continue
            lines = proc.stdout.strip().splitlines()
            got = json.loads(lines[-1])["metrics"] if proc.returncode == 0 and lines else {}
            got = {k: v["unit"] for k, v in got.items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                units = sorted(k for k in set(got) & set(declared[trace])
                               if got[k] != declared[trace][k])
                print(f"SMOKE FAILED {name} trace={trace}: missing {missing}, "
                      f"undeclared {extra}, unit mismatch {units}", flush=True)
                rc = rc or 1
    if args.smoke:
        print("smoke " + ("ok" if rc == 0 else "FAILED"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
