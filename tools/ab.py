"""Compare this checkout (B) against another git revision (A).

    python3 tools/ab.py time --against REV [--workload train_hme|predict_fresh]

Run from the root of a git checkout.  The ``time`` mode extracts REV with
``git archive`` into a temporary directory and copies this checkout's
``src/`` into a sibling named as long, so that neither side's paths,
``PYTHONPATH`` or working directory differ in length: a worker's CPU time
was seen to move with the length of its paths.  Then, in each of ``ROUNDS``
rounds, it starts one long-lived worker process per tree.  Both workers set
up the same inputs, built by ``benchmarks/bench_inputs.make_task``:

- ``train_hme``: the benchmark's task (seed 1) and model; a unit is one
  training step (``loss_batch``, ``backward``, clipping and ``Adam.step``) on
  the batches of ``hme train``'s epoch order, from the same initial model on
  both sides.
- ``predict_fresh``: the benchmark's prediction task (seed 13), trained for
  one epoch by A's ``hme train`` and restored by both; a unit is one
  ``SequenceTagger.predict`` request of 64 sentences of the stream in its
  seed-1 order, as the benchmark sends them.

Every round starts both workers afresh and runs the same first units.  The
tool runs each unit on one worker and then on the other, so the two never
run at once, and each worker reports the ``time.process_time()`` of the unit
alone and its peak RSS so far (``ru_maxrss``).  Units go in pairs: A runs
first in one unit of a pair and B in the other, because the side that runs
second is measurably faster, and a median of raw per-unit ratios would
fall between the two modes.  A pair's value is the geometric mean of its
two B/A ratios.  Rounds exist because one pair of processes of the same
tree can differ by a few percent for the life of the processes, which no
number of units inside them averages out.  After
``WARMUP`` uncounted units per round, the tool prints the median over all
pairs with a 95% bootstrap interval that resamples rounds and then pairs
within each (2,000 resamples), over ``UNITS`` timed units in all, and
each side's largest peak RSS over all rounds, in MB as the benchmark's
``peak_rss_mb`` counts them.

Outputs are checked on every unit, warm-up included: the two sides must
return equal tags per request, and training losses equal to a relative
tolerance of ``LOSS_RTOL``.  A float reordering (a different reduction order
in one tree) moves a loss by far less; a changed dropout draw or a wrong
gradient moves it by far more within a few steps.  A failed check stops the
run and exits 1.

The ratio gives the direction of a change, not its size.  On one change
that removed a per-request scan of every parameter, the tool read
0.774-0.783 per ``predict_fresh`` request, where one long-running process
per tree read 0.914 and the benchmark's ``step_p50_ms`` 0.928.  The cause is
not settled; a likely one is that each unit starts on caches the other
worker filled.  Until it is, take the size of a change from the benchmark
or from a one-process run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

LOSS_RTOL = 1e-6
ROUNDS = 4
UNITS = 320         # timed, over all rounds; a multiple of 2 * ROUNDS
WARMUP = 10         # per round
SEED = 1
BOOTSTRAP = 2000
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# workers: one per tree, each importing that tree's ``hme``

def _train_units(task: dict):
    """Set up, then return an iterator of functions, one per unit, that run
    one training step and return its loss."""
    import numpy as np
    from hme import cli, model as mdl, tokenization, training
    from hme.autodiff import Tape

    cfg = cli.load_run_config(task["config"])
    train_set = tokenization.read_conll(cfg.data["train"])
    words = [w for s in train_set for w in s.words]
    resources = cli._build_resources(
        cfg.manifest, cfg.model, cli._label_vocabulary(train_set),
        {c for w in words for c in tokenization.to_chars(w)}, set(words), seed=cfg.seed)
    model = mdl.SequenceTagger(cfg.model, resources, seed=cfg.seed)
    opt = training.Adam(model.parameters(), cfg.train)
    size = cfg.train.batch_size

    def steps():
        step = 0
        epoch = 0
        while True:
            epoch += 1
            rng = np.random.default_rng((cfg.train.seed, 7919, epoch))
            order = rng.permutation(len(train_set))
            for start in range(0, len(order), size):
                batch = [train_set[i] for i in order[start:start + size]]

                def unit(batch=batch, step=step):
                    model.set_step(step)
                    opt.zero_grad()
                    with Tape():
                        loss = model.loss_batch(batch)
                        loss.backward()
                    opt.clip_gradients()
                    opt.step()
                    return {"loss": loss.item()}

                yield unit
                step += 1

    return steps()


def _predict_units(task: dict):
    """Set up, then return an iterator of functions, one per unit, that tag
    one request and return its tags."""
    from hme import cli, tokenization

    tagger, _ = cli._restore_model(task["checkpoint"])
    stream = tokenization.read_conll(task["stream"])
    size = task["request_sentences"]
    return iter([lambda batch=stream[start:start + size]: {"tags": tagger.predict(batch)}
                 for start in range(0, len(stream), size)])


def worker(kind: str, task_path: str) -> int:
    """Serve units over stdin/stdout: each input line asks for the next unit,
    each output line is its JSON result with ``cpu_s`` and ``maxrss_kb``."""
    reply = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr             # keep the program's own prints off the pipe
    with open(task_path, encoding="utf-8") as fh:
        task = json.load(fh)
    units = (_train_units if kind == "train_hme" else _predict_units)(task)
    reply.write("ready\n")
    reply.flush()
    for _ in sys.stdin:
        run = next(units)
        start = time.process_time()
        result = run()
        result["cpu_s"] = time.process_time() - start
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reply.write(json.dumps(result) + "\n")
        reply.flush()
    return 0


# ---------------------------------------------------------------------------
# the controlling process

class Worker:
    def __init__(self, tree: str, kind: str, task_path: str):
        # one hash seed for both sides, so their dicts and sets are laid out alike
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
        env.update((var, "1") for var in BLAS_VARS)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", kind, task_path],
            cwd=tree, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError(f"the worker for {tree} failed to start")

    def run(self) -> dict:
        self.proc.stdin.write("unit\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("a worker exited")
        return json.loads(line)

    def close(self) -> None:
        """End the worker: it exits when its input closes."""
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def trees(work: str) -> tuple[str, str]:
    """The paths of side A's and side B's trees: siblings under ``work``
    whose full paths are equally long."""
    return os.path.join(work, "a"), os.path.join(work, "b")


def extract(rev: str, tree: str) -> None:
    """REV's files in the new directory ``tree``."""
    os.makedirs(tree)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)


def copy_src(tree: str) -> None:
    """This checkout's ``src/``, as it is on disk, in the new directory
    ``tree``; compiled files stay behind."""
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tree, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))


def make_inputs(kind: str, work: str, a_tree: str) -> str:
    """Write the task for ``kind`` under ``work``; returns its JSON path."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]
    import bench_inputs
    import bench_workloads

    if kind == "train_hme":
        task = bench_inputs.make_task(os.path.join(work, "task"), SEED, "hme", epochs=2)
    else:
        task = bench_inputs.make_task(os.path.join(work, "task"), bench_workloads.MODEL_SEED,
                                      "hme", epochs=1,
                                      n_test=bench_workloads.STREAM_SENTENCES)
        env = dict(os.environ, PYTHONPATH=os.path.join(a_tree, "src"))
        env.update((var, "1") for var in BLAS_VARS)
        subprocess.run([sys.executable, "-m", "hme.cli", "train", "--config", task["config"],
                        "--quiet"], env=env, check=True, stdout=subprocess.DEVNULL)
        task["checkpoint"] = os.path.join(task["output_dir"], "model.ckpt")
        task["stream"] = os.path.join(work, "stream.conll")
        bench_inputs.write_stream(task["data"]["test"], task["stream"], SEED)
        task["request_sentences"] = bench_workloads.REQUEST_SENTENCES
    path = os.path.join(work, "task.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(task, fh)
    return path


def bootstrap_median(groups: list[list[float]]) -> tuple[float, float, float]:
    """The median of all values of equal-sized ``groups`` and its 95%
    interval from a two-level bootstrap: groups drawn with replacement, then
    values within each drawn group."""
    import numpy as np

    arr = np.asarray(groups, dtype=np.float64)
    n_groups, size = arr.shape
    rng = np.random.default_rng(0)
    rows = rng.integers(0, n_groups, size=(BOOTSTRAP, n_groups, 1))
    cols = rng.integers(0, size, size=(BOOTSTRAP, n_groups, size))
    meds = np.median(arr[rows, cols].reshape(BOOTSTRAP, -1), axis=1)
    return float(np.median(arr)), float(np.percentile(meds, 2.5)), float(np.percentile(meds, 97.5))


def check(kind: str, unit: int, a: dict, b: dict) -> str | None:
    """Why the two sides' outputs of a unit disagree, or None."""
    if kind == "predict_fresh":
        return None if a["tags"] == b["tags"] else f"request {unit}: tags differ"
    if abs(b["loss"] - a["loss"]) > LOSS_RTOL * abs(a["loss"]):
        return f"step {unit}: loss {b['loss']!r} against {a['loss']!r}"
    return None


def peak_rss_mb(results: list[dict]) -> float:
    """The largest ``maxrss_kb`` of ``results``, in MB (``ru_maxrss`` counts
    KiB on Linux)."""
    return max(r["maxrss_kb"] for r in results) / 1024.0


def run_round(a_tree: str, b_tree: str, kind: str, task_path: str, units: int,
              a_first: bool):
    """One round on fresh workers: the per-unit CPU seconds of A and of B
    after the warm-up, the largest relative loss gap (0 for requests), and
    A's and B's last results, whose ``maxrss_kb`` is their process's peak;
    None after printing the first disagreement."""
    cpu_a, cpu_b, worst = [], [], 0.0
    with contextlib.ExitStack() as stack:
        # one after the other, so a table's first load never runs twice at once
        starts = [(a_tree, "a"), (b_tree, "b")]
        workers = {}
        for tree, side in starts if a_first else starts[::-1]:
            workers[side] = Worker(tree, kind, task_path)
            stack.callback(workers[side].close)
        a, b = workers["a"], workers["b"]
        for i in range(WARMUP + units):
            first, second = (a, b) if (i - WARMUP) % 2 == 0 else (b, a)
            out = {first: first.run(), second: second.run()}
            problem = check(kind, i, out[a], out[b])
            if problem:
                print(f"parity failed: {problem}", file=sys.stderr)
                return None
            if kind == "train_hme":
                worst = max(worst, abs(out[b]["loss"] - out[a]["loss"]) / abs(out[a]["loss"]))
            if i >= WARMUP:
                cpu_a.append(out[a]["cpu_s"])
                cpu_b.append(out[b]["cpu_s"])
    return cpu_a, cpu_b, worst, (out[a], out[b])


def time_ab(rev: str, kind: str) -> int:
    per_round = UNITS // ROUNDS
    pairs, cpu_a, cpu_b, worst, last_a, last_b = [], [], [], 0.0, [], []
    with tempfile.TemporaryDirectory(prefix="ab-") as work:
        a_tree, b_tree = trees(work)
        extract(rev, a_tree)
        copy_src(b_tree)
        task_path = make_inputs(kind, work, a_tree)
        # A tree's first load of a table parses the text and, once the file
        # is older than hme.embeddings' 1 s settle guard, writes the sidecar
        # that later loads map.  Let that happen here, once per tree, so that
        # no round pits a parsed table against a mapped one.
        time.sleep(1.5)
        for tree in (a_tree, b_tree):
            Worker(tree, kind, task_path).close()
        for r in range(ROUNDS):
            result = run_round(a_tree, b_tree, kind, task_path, per_round,
                               a_first=r % 2 == 0)
            if result is None:
                return 1
            ra, rb, gap, (end_a, end_b) = result
            ratios = [b_s / a_s for a_s, b_s in zip(ra, rb)]
            pairs.append([(r0 * r1) ** 0.5 for r0, r1 in zip(ratios[::2], ratios[1::2])])
            cpu_a += ra
            cpu_b += rb
            worst = max(worst, gap)
            last_a.append(end_a)
            last_b.append(end_b)
    med, lo, hi = bootstrap_median(pairs)
    a_ms, b_ms = (statistics.median(c) * 1e3 for c in (cpu_a, cpu_b))
    rounds = ", ".join(f"{statistics.median(p):.4f}" for p in pairs)
    unit = "steps" if kind == "train_hme" else "requests"
    parity = (f"losses within {worst:.1e} relative" if kind == "train_hme"
              else "tags equal")
    print(f"{kind}: B/A CPU per unit {med:.4f} (95% bootstrap {lo:.4f}-{hi:.4f}) over "
          f"{ROUNDS} rounds of {per_round} {unit} after {WARMUP} warm-up (round medians "
          f"{rounds}); median CPU A {a_ms:.2f} ms, B {b_ms:.2f} ms; peak RSS "
          f"A {peak_rss_mb(last_a):.1f} MB, B {peak_rss_mb(last_b):.1f} MB; {parity} on "
          f"every unit")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("time",),
                        help="time: alternate CPU time per unit between the two trees")
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the git revision that is side A")
    parser.add_argument("--workload", choices=("train_hme", "predict_fresh"),
                        default="predict_fresh")
    args = parser.parse_args(argv)
    return time_ab(args.against, args.workload)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        sys.exit(worker(sys.argv[2], sys.argv[3]))
    sys.exit(main())
