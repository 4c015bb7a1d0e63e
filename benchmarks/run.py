"""Benchmark entry point.

    python3 benchmarks/run.py --workload train_hme --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Generates the workload's inputs from
``--seed`` under ``.bench_runs/``, runs it in this one process against the
code in ``src/``, checks the outputs, writes ``result.json`` (and, when
traced, ``spans.jsonl``) next to the inputs and prints one JSON object as the
last line: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

# BLAS must be pinned before numpy is first imported (the tests pin it too).
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess

WORKLOADS = ("train_hme", "train_word", "predict_fresh")

END_TO_END = {                  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "sent_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "entity_f1": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from bench_analysis import SETUP_LAYERS, SHARE_COUNTERS, STEP_LAYERS
    units = {}
    for layer in list(STEP_LAYERS) + ["model.forward_self"]:
        units[f"{layer}_ms"] = "ms"
        units[f"{layer}_share"] = "share"
    for name in ("labeler.nll_calls", "labeler.viterbi_calls", "autodiff.tape_records",
                 "embeddings.rows_loaded"):
        units[name] = "count"
    for name in ["model.featurize_hit_ratio", "embeddings.oov_word_rate",
                 "embeddings.oov_subword_rate", "trace.min_child_coverage",
                 *SHARE_COUNTERS]:
        units[name] = "ratio"
    for layer in SETUP_LAYERS:
        units[f"{layer}_s"] = "s"
    units.update({"training.dev_eval_s": "s", "training.entity_f1_ms": "ms",
                  "model.checkpoint_save_s": "s", "cli.finish_s": "s"})
    return units


def _git_revision(root: str) -> str:
    # the ceiling keeps git from reporting a repository that encloses root
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(root: str, args) -> dict:
    import numpy as np
    from bench_inputs import source_digest
    return {
        "git_revision": _git_revision(root),
        "source_sha256": source_digest(os.path.join(root, "src")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(out, workload: str) -> dict[str, float]:
    from bench_analysis import percentile
    extra = out.extra
    units = [end - start for start, end in out.inst.steps]
    if workload == "predict_fresh":
        loop_s = extra["loop_s"]
    else:
        start, end = extra["train_calls"][-1]
        loop_s = end - start
    return {
        "setup_s": statistics.median(out.setups),
        "wall_s": extra["wall_s"],
        "sent_per_s": extra["sentences"] / loop_s,
        "step_p50_ms": statistics.median(units) * 1e3,
        "step_p90_ms": percentile(units, 90) * 1e3,
        "entity_f1": extra["entity_f1"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hme", "__init__.py")):
        print(f"benchmark: no hme sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import bench_workloads as bw
    from bench_analysis import layer_metrics, oov_by_split
    from bench_trace import read_trace

    run_dir = os.path.join(root, ".bench_runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    work = os.path.join(run_dir, "task")
    os.makedirs(work)
    traced = bool(args.trace)
    try:
        if args.workload == "predict_fresh":
            cache = os.path.join(root, ".bench_runs", "cache")
            out = bw.run_predict(args.seed, args.seconds, work, cache, traced)
        else:
            variant = "hme" if args.workload == "train_hme" else "mme_word"
            out = bw.run_train(variant, args.seed, args.seconds, work, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)     # the padded tables are large

    attempted = len(out.inst.steps) + len(out.checks)
    failed = out.failed_units + sum(not ok for ok in out.checks.values())
    correct = failed == 0
    result = {"environment": environment(root, args), "params": out.params,
              "checks": out.checks, "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted if attempted else 1.0,
              "setups_s": out.setups,
              "step_ms": [(end - start) * 1e3 for start, end in out.inst.steps],
              "extra": {k: v for k, v in out.extra.items() if k != "train_calls"}}
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if correct:
        result["end_to_end"] = metrics = end_to_end(out, args.workload)
        units = END_TO_END
    if traced:
        span_path = os.path.join(run_dir, "spans.jsonl")
        out.inst.rec.write(span_path)
        spans, counters = read_trace(span_path)
        main_split = "stream" if args.workload == "predict_fresh" else "train"
        result["per_layer"] = layer_metrics(spans, counters, main_split)
        result["oov_by_split"] = oov_by_split(counters)
        metrics, units = result["per_layer"], per_layer_units()
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print(json.dumps({"checks": out.checks, "environment": result["environment"]}))
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
