"""Tracing overhead per workload: traced runs against untraced runs.

    python3 benchmarks/overhead.py [.bench_runs]

Reads every ``result.json`` that ``run.py`` left under the runs directory,
pairs the traced and the untraced run of each workload and seed, and prints
per workload the median over seeds of traced ÷ untraced for a few end-to-end
numbers.  A ratio above 1 is time the spans add.  The machine's speed drifts,
so run the two sides of a pair back to back.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

COMPARED = ("step_p50_ms", "step_p90_ms", "setup_s", "wall_s")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    runs_dir = argv[0] if argv else ".bench_runs"
    runs: dict[tuple, dict[int, dict]] = defaultdict(dict)
    for path in sorted(glob.glob(os.path.join(runs_dir, "*", "result.json"))):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        if "end_to_end" in result:
            env = result["environment"]
            runs[env["workload"], env["seed"]][env["trace"]] = result["end_to_end"]
    ratios: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for (workload, _), pair in runs.items():
        if 0 in pair and 1 in pair:
            for metric in COMPARED:
                ratios[workload][metric].append(pair[1][metric] / pair[0][metric])
    if not ratios:
        print(f"no seed under {runs_dir} has both a traced and an untraced run",
              file=sys.stderr)
        return 1
    for workload in sorted(ratios):
        parts = [f"{m} x{statistics.median(r):.3f}" for m, r in ratios[workload].items()]
        n = len(ratios[workload][COMPARED[0]])
        print(f"{workload} ({n} seeds): " + ", ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
