"""Benchmark of the mme fitting pipeline on seeded synthetic scenes.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

Each run generates its workload's scenes from --seed, warms up, then runs
one op at a time (a closed loop with one client) for --seconds seconds,
checks every output, and prints one JSON object as its last line.  The loop
goes round the scenes again and again, and a scene's op time is the fastest
of its runs: on a shared host every op can run half again slower for
seconds at a time, and the slower runs measure that, not the code.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it runs every
op twice, untraced and traced, and reports per-layer self times and
counters instead, writing the spans to perfbench_out/.  Exit status: 0
when every check passed, 1 when one failed or the program is missing.
"""

import os

# Fixed before numpy loads so that every run uses the same BLAS threading.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench_out"
sys.path.insert(0, str(SRC))

import numpy as np
import scipy
from mme.bench import run_cell

from ops import check, fingerprint, mapped_count, quality, run_op
from scenes import WORKLOADS, interleaved_order, make_scenes
from spans import Tracer

SETUP_REPEATS = (3, 2)  # imports timed before and after the loop
MIN_ROUNDS = 1  # every scene is timed and graded at least once
SETUP_CODE = ("import time; t = time.perf_counter(); import mme, mme.cli; "
              "print(time.perf_counter() - t)")

LAYERS = (
    "synth.generate_view", "normals.estimate_normals", "pcc.run_pcc",
    "pcc.normalize_features", "pcc.kmeans_cluster", "pcc.merge_similar_clusters",
    "pcc.object_matrix", "pcc.similarity_reduction", "pcc.tree_search",
    "mcransac.run_mcransac", "mcransac.hypothesize", "mcransac.check_constraints",
    "mcransac.grow_inliers", "bench.run_cell",
)
OP_LAYERS = LAYERS[1:-1]  # the layers called inside an op
COUNTERS = (
    "pcc.merges", "pcc.candidates", "pcc.mapped_planes", "mcransac.hypotheses",
    "mcransac.degenerate", "mcransac.rejected", "mcransac.growth_tried",
    "mcransac.growth_accepted",
)
QUALITY = {"gamma_deg": "deg", "orientation_error_deg": "deg",
           "inlier_ratio": "ratio", "assigned_point_ratio": "ratio"}


def metric(value, unit):
    return {"value": value, "unit": unit}


def import_seconds(count: int) -> list[float]:
    """Wall times of ``import mme, mme.cli``, each in a fresh interpreter, s."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]
    return [float(subprocess.run(cmd, env=env, check=True, capture_output=True,
                                 text=True).stdout) for _ in range(count)]


def timed_loop(scenes, order, seconds, step, rounds):
    """Call step(i, scene) in order until seconds have passed and rounds rounds ran.

    Returns the (scene index, result) pairs, op times in ms and the loop's
    wall time in s.
    """
    results, times = [], []
    min_ops = rounds * len(scenes)
    start = time.perf_counter()
    for i in order:
        if len(times) >= min_ops and time.perf_counter() - start >= seconds:
            break
        t0 = time.perf_counter()
        result = step(i, scenes[i])
        times.append((time.perf_counter() - t0) * 1e3)
        results.append((i, result))
    return results, times, time.perf_counter() - start


def best_per_scene(results, times) -> list[float]:
    """Each scene's fastest op time, ms."""
    best = {}
    for (i, _), ms in zip(results, times):
        best[i] = min(best.get(i, ms), ms)
    return list(best.values())


def tail(times):
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(times)
    k = len(ordered) - 10
    return ordered[k - 1], 100.0 * k / len(ordered)


def sweep_check(scenes, outcomes, seed, tracer):
    """Each distinct sweep cell must match bench.run_cell for the same key."""
    problems = []
    for i, out in outcomes.items():
        name, sigma, view, repeat = scenes[i].key
        args = ("mme", name, sigma, view, repeat, seed)
        ref = (run_cell(*args) if tracer is None
               else tracer.call("bench.run_cell", run_cell, *args)).report
        mine = (out.status, mapped_count(out))
        if mine != (ref.status, ref.plane_count):
            problems.append(f"{scenes[i].key}: status, planes {mine} but run_cell "
                            f"{(ref.status, ref.plane_count)}")
        elif out.status == "ok":
            q = quality(out, scenes[i])
            if (q["gamma_deg"], q["inlier_ratio"]) != (ref.gamma, ref.inlier_ratio):
                problems.append(f"{scenes[i].key}: gamma, inlier_ratio differ from run_cell")
    return problems


def grade(scenes, results, workload, seed, tracer=None):
    """Check every op result; return (problems, failed ops, first outcome per scene).

    A repeated op on a scene must reproduce the first answer bit for bit.
    """
    problems, failed = [], 0
    first = {}  # scene index -> (fingerprint, outcome)
    for i, out in results:
        mark = fingerprint(out)
        if i not in first:
            first[i] = (mark, out)
            found = check(out, scenes[i]) if out.status == "ok" else []
            if found:
                out.status = "constraint_violation"
                problems += [f"{scenes[i].key}: {p}" for p in found]
        elif mark != first[i][0]:
            problems.append(f"{scenes[i].key}: a repeated op gave another answer")
        failed += first[i][1].status != "ok"
    outcomes = {i: out for i, (_, out) in first.items()}
    if workload.name == "sweep":
        problems += sweep_check(scenes, outcomes, seed, tracer)
    return problems, failed, outcomes


def versions() -> str:
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, BLAS threads {BLAS_THREADS} of {os.cpu_count()} cpus")


def end_to_end(args, workload):
    import_seconds(1)  # writes the bytecode caches
    setup = import_seconds(SETUP_REPEATS[0])
    scenes = make_scenes(workload, args.seed)
    run_op(scenes[0], workload)  # warm-up: first-call costs stay out of the loop
    results, times, wall = timed_loop(scenes, interleaved_order(scenes, args.seed),
                                      args.seconds, lambda i, scene: run_op(scene, workload),
                                      MIN_ROUNDS)
    setup += import_seconds(SETUP_REPEATS[1])
    problems, failed, outcomes = grade(scenes, results, workload, args.seed)
    graded = [quality(out, scenes[i]) for i, out in outcomes.items() if out.status == "ok"]
    if not graded:
        problems.append("no op succeeded")
    best = best_per_scene(results, times)
    tail_ms, tail_pct = tail(best)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "op_ms_p50": metric(statistics.median(best), "ms"),
        "op_ms_tail": metric(tail_ms, "ms"),
        "ops_per_s": metric(1e3 * len(best) / sum(best), "1/s"),
    }
    for name, unit in QUALITY.items():
        metrics[name] = metric(statistics.fmean(g[name] for g in graded) if graded else 0.0, unit)
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    print(f"# {versions()}")
    print(f"# {len(times)} ops in {wall:.1f} s, {len(times) / wall:.3g}/s; op times are the best "
          f"of {len(times) / len(best):.2g} runs per scene on average; op_ms_tail is "
          f"p{tail_pct:.1f} of {len(best)} scenes; quality is the mean over "
          f"{len(graded)} distinct ok scenes of {len(outcomes)} run")
    return problems, len(times), failed, metrics


def traced(args, workload):
    tracer = Tracer()
    scenes = make_scenes(workload, args.seed, tracer)
    run_op(scenes[0], workload)
    run_op(scenes[0], workload, Tracer())
    plain_ms, traced_ms, mismatches = [], [], []

    def step(i, scene):
        t0 = time.perf_counter()
        out = run_op(scene, workload)
        t1 = time.perf_counter()
        tracer.op_id = len(plain_ms)
        with tracer.span("op"):
            rebuilt = run_op(scene, workload, tracer)
        tracer.op_id = None
        plain_ms.append((t1 - t0) * 1e3)
        traced_ms.append((time.perf_counter() - t1) * 1e3)
        if fingerprint(rebuilt) != fingerprint(out):
            mismatches.append(scene.key)
        return out

    results, _, _ = timed_loop(scenes, interleaved_order(scenes, args.seed), args.seconds, step, 0)
    problems, failed, _ = grade(scenes, results, workload, args.seed, tracer)
    if mismatches:
        print(f"# trace invalid: the rebuilt op differs on {len(mismatches)} ops, "
              f"first {mismatches[0]}", file=sys.stderr)
    self_ms = tracer.self_ms()
    counts = tracer.counts
    metrics = {f"{name}.ms": metric(self_ms.get(name, 0.0), "ms") for name in LAYERS}
    metrics.update({name: metric(counts[name], "count") for name in COUNTERS})
    hypotheses = counts["mcransac.hypotheses"]
    accepted = hypotheses - counts["mcransac.degenerate"] - counts["mcransac.rejected"]
    tried = counts["mcransac.growth_tried"]
    metrics["mcransac.accept_ratio"] = metric(accepted / hypotheses if hypotheses else 0.0, "ratio")
    metrics["mcransac.growth_accept_ratio"] = metric(
        counts["mcransac.growth_accepted"] / tried if tried else 0.0, "ratio")
    op_ms = tracer.total_ms("op")
    metrics["op.ms"] = metric(op_ms, "ms")
    metrics["trace.ops"] = metric(len(traced_ms), "count")
    metrics["trace.overhead_ratio"] = metric(sum(traced_ms) / sum(plain_ms) - 1.0, "ratio")
    metrics["trace.valid"] = metric(0 if mismatches else 1, "bool")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace_{workload.name}_{args.seed}.json")
    shares = sorted(((self_ms.get(name, 0.0) / op_ms, name) for name in OP_LAYERS), reverse=True)
    print(f"# {versions()}")
    print("# share of traced op time: " + ", ".join(f"{n} {s:.1%}" for s, n in shares[:5]))
    return problems, len(traced_ms), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    problems, attempted, failed, metrics = run(args, workload)
    for p in problems[:20]:
        print(f"# check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
