"""The three workloads.  Each returns its raw measurements and the outcome of
its correctness checks; ``run.py`` turns them into metrics."""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import traceback

from hme import cli, tokenization, training
from hme.labeler import iob_transition_masks

from bench_inputs import make_task, source_digest, write_stream
from bench_trace import Instrument, SetupDone, clock

SETUPS = 3              # set-up runs per benchmark run; the median is reported
F1_GATE = 0.90          # toy acceptance gate (acceptance criterion 6)
REQUEST_SENTENCES = 64
STREAM_SENTENCES = 64 * 400
MODEL_SEED = 13         # the acceptance task's seed (README "Toy experiment")
# ``--seconds`` sets a fixed amount of work, sized to take about that long on
# the seed code on a 2-core x86-64 VM; a faster program finishes it sooner.
SECONDS_PER_EPOCH = {"hme": 15.0, "mme_word": 3.5}
SECONDS_PER_REQUEST = 0.16
MIN_EPOCHS = 2          # 126 steps, so the p90 has at least ten steps above it
MIN_REQUESTS = 100      # the same for requests


def train_epochs(variant: str, seconds: float) -> int:
    return max(MIN_EPOCHS, round(seconds / SECONDS_PER_EPOCH[variant]))


def stream_requests(seconds: float) -> int:
    return min(STREAM_SENTENCES // REQUEST_SENTENCES,
               max(MIN_REQUESTS, round(seconds / SECONDS_PER_REQUEST)))


class Outcome:
    """Measurements of one workload run plus its correctness checks."""

    def __init__(self, inst: Instrument, params: dict):
        self.inst = inst
        self.params = params
        self.setups: list[float] = []
        self.checks: dict[str, bool] = {}
        self.failed_units = 0
        self.extra: dict = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_train(variant: str, seed: int, seconds: float, work: str,
              traced: bool) -> Outcome:
    """Train through ``hme train``; the first SETUPS-1 runs stop at step 0."""
    task = make_task(work, seed, variant, train_epochs(variant, seconds))
    inst = Instrument(traced)
    out = Outcome(inst, task["params"])
    argv = ["train", "--config", task["config"], "--quiet"]
    rc = None
    with inst.installed():
        for k in range(SETUPS):
            inst.probe = k < SETUPS - 1
            inst.begin_setup(str(k))
            root = inst.rec.open("cli.main") if traced else None
            try:
                rc = _quiet_main(argv)
            except SetupDone:
                pass
            finally:
                end = clock()
                if traced:
                    inst.rec.close(root)
            if inst.setup_end is None:          # failed before its first step
                break
            out.setups.append(inst.setup_end - inst.setup_start)
        out.extra["wall_s"] = end - inst.setup_start
    out.extra["train_calls"] = inst.train_calls
    out.check("cli_exit_0", rc == 0)
    if rc != 0:
        out.failed_units = 1                    # the step that raised
        return out
    with open(os.path.join(task["output_dir"], "metrics.jsonl"), encoding="utf-8") as fh:
        log = [json.loads(line) for line in fh]
    with open(os.path.join(task["output_dir"], "dev_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    out.extra["train_nll"] = [r["train_nll"] for r in log]
    out.extra["dev_f1_per_epoch"] = [r["dev_f1"] for r in log]
    out.extra["sentences"] = task["params"]["n_train"] * len(log)
    out.extra["entity_f1"] = report["f1"]
    out.check("epochs_run", len(log) == task["params"]["epochs"])
    out.check("losses_finite", all(math.isfinite(x) for x in out.extra["train_nll"]))
    out.check("entity_f1_gate", report["f1"] >= F1_GATE)
    return out


def _pretrain(task: dict) -> int:
    """Train the checkpoint with ``hme train`` in its own process, so its
    memory and time stay out of the prediction run."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, "-m", "hme.cli", "train", "--config",
                           task["config"], "--quiet"], env=env,
                          stdout=subprocess.DEVNULL, timeout=150)
    return done.returncode


def prediction_model(cache: str) -> tuple[dict, int]:
    """The ``predict_fresh`` task and checkpoint: one epoch of ``hme train`` on
    the acceptance task, built once per checkout and source version so that
    every run spends its time on the stream.  Returns the task and the exit
    code of the training run."""
    bench = os.path.dirname(os.path.abspath(__file__))
    key = hashlib.sha256((source_digest(os.path.abspath("src"), bench)
                          + os.path.abspath(cache)).encode()).hexdigest()[:16]
    model_dir = os.path.join(cache, f"predict-model-{key}")
    index = os.path.join(model_dir, "task.json")
    if os.path.exists(index):
        with open(index, encoding="utf-8") as fh:
            return json.load(fh), 0
    # models of other source versions, and an interrupted build of this one
    for stale in glob.glob(os.path.join(cache, "predict-model-*")):
        shutil.rmtree(stale, ignore_errors=True)
    task = make_task(model_dir, MODEL_SEED, "hme", epochs=1, n_test=STREAM_SENTENCES)
    rc = _pretrain(task)
    if rc == 0:
        with open(index + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(task, fh)
        os.replace(index + ".tmp", index)
    return task, rc


def iob_checker(labels: list[str]):
    """A test that a tag sequence uses only ``labels`` and obeys the IOB
    transition rules the CRF enforces."""
    index = {t: i for i, t in enumerate(labels)}
    trans, start = iob_transition_masks(labels)

    def legal(tags: list[str]) -> bool:
        if not tags or any(t not in index for t in tags):
            return False
        seq = [index[t] for t in tags]
        return start[seq[0]] == 0 and all(trans[a, b] == 0 for a, b in zip(seq, seq[1:]))
    return legal


def run_predict(seed: int, seconds: float, work: str, cache: str,
                traced: bool) -> Outcome:
    """Restore a checkpoint as ``hme predict`` does, then serve closed-loop
    requests of never-seen sentences, in an order drawn from ``seed``."""
    task, rc = prediction_model(cache)
    inst = Instrument(traced)
    requests = stream_requests(seconds)
    out = Outcome(inst, {**task["params"], "stream_seed": seed,
                         "request_sentences": REQUEST_SENTENCES,
                         "requests": requests})
    out.check("pretrain_exit_0", rc == 0)
    if rc != 0:
        return out
    stream_path = os.path.join(work, "stream.conll")
    write_stream(task["data"]["test"], stream_path, seed)
    checkpoint = os.path.join(task["output_dir"], "model.ckpt")
    preds: list[list[str]] = []
    with inst.installed():
        for k in range(SETUPS):
            inst.begin_setup(str(k))
            root = inst.rec.open("cli.main") if traced else None
            tagger, _ = cli._restore_model(checkpoint)
            stream = tokenization.read_conll(stream_path)
            inst.setup_end = clock()
            out.setups.append(inst.setup_end - inst.setup_start)
            if k < SETUPS - 1 and traced:
                inst.rec.close(root)
        if traced:
            inst.rec.unit = None
        start = clock()
        for i in range(requests):
            batch = stream[i * REQUEST_SENTENCES:(i + 1) * REQUEST_SENTENCES]
            try:
                with inst.request(i):
                    preds.extend(tagger.predict(batch))
            except Exception:       # counted as failed below; the stream goes on
                out.extra.setdefault("errors", []).append(traceback.format_exc())
                preds.extend([[]] * len(batch))
        end = clock()
        if traced:
            inst.rec.close(root)
    served = stream[:len(preds)]
    out.extra.update(wall_s=end - inst.setup_start, loop_s=end - start,
                     sentences=len(served))
    iob_legal = iob_checker(tagger.crf.labels)
    legal = [len(p) == len(s) and iob_legal(p) for p, s in zip(preds, served)]
    out.failed_units = sum(
        not all(legal[j:j + REQUEST_SENTENCES])
        for j in range(0, len(legal), REQUEST_SENTENCES))
    out.check("iob_legal_one_tag_per_token", all(legal))
    report = training.entity_f1([s.labels for s in served],
                                [p if ok else ["O"] * len(s)
                                 for p, s, ok in zip(preds, served, legal)])
    out.extra["entity_f1"] = report.f1
    out.check("entity_f1_gate", report.f1 >= F1_GATE)
    sample = tokenization.read_conll(task["data"]["dev"])[:REQUEST_SENTENCES]
    out.check("batched_equals_single", tagger.predict(sample) ==
              tagger.predict(sample, batch_size=1))
    return out
