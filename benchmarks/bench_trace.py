"""Timing taken from outside the program.

The benchmark never edits ``src/``.  It replaces public functions and methods
of the ``hme`` modules with wrappers for the length of a run and restores them
afterwards.  An untraced run installs only the boundaries the end-to-end
metrics need (set-up end, training step, training loop); a traced run also
records a span around every layer call named in the benchmark README.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from hme import cli, embeddings, labeler, metaembed, model, nn, tokenization, training
from hme import autodiff

clock = time.perf_counter


class SetupDone(Exception):
    """Raised at the first training step of a set-up probe to end the run."""


class Recorder:
    """Spans and counters kept in memory and written out when the run ends.

    A span is ``[name, start, end, parent, unit]``: ``parent`` is the index of
    the enclosing span (-1 at the top) and ``unit`` names the set-up, step or
    request the span belongs to (None outside them).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: list[tuple] = []      # (unit, name, value)
        self.unit: str | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, clock(), None, self._stack[-1] if self._stack else -1,
                           self.unit])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        # an exception may unwind several spans at once
        while self._stack and self._stack.pop() != idx:
            pass

    def count(self, name: str, value: float) -> None:
        self.counters.append((self.unit, name, value))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({"span": name, "start": start, "end": end,
                                     "parent": parent, "unit": unit}) + "\n")
            for unit, name, value in self.counters:
                fh.write(json.dumps({"counter": name, "unit": unit,
                                     "value": value}) + "\n")


def read_trace(path: str) -> tuple[list[tuple], list[tuple]]:
    """Spans and counters from a file written by ``Recorder.write``."""
    spans, counters = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "span" in rec:
                spans.append((rec["span"], rec["start"], rec["end"],
                              rec["parent"], rec["unit"]))
            else:
                counters.append((rec["unit"], rec["counter"], rec["value"]))
    return spans, counters


def mask_counts(mask: np.ndarray) -> dict[str, float]:
    """Rows and cells an encoder computes for ``mask`` and how many are real.

    ``mask`` is (rows, positions) with 1.0 at real positions; a row is real
    when it has at least one real position.
    """
    mask = np.asarray(mask)
    if mask.ndim == 1:
        mask = mask[None, :]
    return {"rows": float(mask.shape[0]),
            "real_rows": float(np.count_nonzero(mask.any(axis=-1))),
            "cells": float(mask.size),
            "real_cells": float(mask.sum())}


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else (args[pos] if len(args) > pos else None)


class Instrument:
    """Installs the wrappers and collects what they measure."""

    def __init__(self, traced: bool):
        self.rec = Recorder() if traced else None
        self.probe = False                 # end the run at its first step
        self.setup_start: float | None = None
        self.setup_end: float | None = None
        self.steps: list[tuple[float, float]] = []
        self.train_calls: list[tuple[float, float]] = []
        self._step_start: float | None = None
        self._step_span: int | None = None
        self._roles: dict[int, str] = {}   # id(model part) -> span name
        self._split: dict[int, str] = {}   # id(sentence) -> split name
        self._lookups = {"word": 0, "subword": 0, "char": 0}
        self._undo: list[tuple] = []

    # -- boundaries the end-to-end metrics need ------------------------------

    def begin_setup(self, label: str) -> None:
        self.setup_start, self.setup_end = clock(), None
        self.steps = []
        if self.rec is not None:
            self.rec.unit = f"setup:{label}"

    def _begin_step(self) -> None:
        now = clock()
        if self.setup_end is None:
            self.setup_end = now
            if self.probe:
                raise SetupDone()
        self._step_start = now
        if self.rec is not None:
            self.rec.unit = f"step:{len(self.steps)}"
            self._step_span = self.rec.open("training.step")

    def _end_step(self) -> None:
        if self.rec is not None and self._step_span is not None:
            self.rec.close(self._step_span)
            self.rec.unit, self._step_span = None, None
        self.steps.append((self._step_start, clock()))

    @contextmanager
    def request(self, index: int):
        """One closed-loop prediction request; yields, then records its span."""
        span = None
        if self.rec is not None:
            self.rec.unit = f"request:{index}"
            span = self.rec.open("request")
        start = clock()
        try:
            yield
        finally:
            self.steps.append((start, clock()))
            if span is not None:
                self.rec.close(span)
                self.rec.unit = None

    # -- installation ----------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, owner, attr: str, name) -> None:
        """Wrap ``owner.attr`` in a span; ``name`` is a string or a function
        of the call's arguments returning the span name or None (no span)."""
        rec = self.rec

        def make(fn):
            def wrapper(*args, **kwargs):
                label = name(*args, **kwargs) if callable(name) else name
                if label is None:
                    return fn(*args, **kwargs)
                idx = rec.open(label)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.close(idx)
            return wrapper
        self._replace(owner, attr, make)

    @contextmanager
    def installed(self):
        try:
            self._install_boundaries()
            if self.rec is not None:
                self._install_spans()
            yield self
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()

    def _install_boundaries(self) -> None:
        inst = self

        def set_step(fn):
            def wrapper(tagger, step):
                inst._begin_step()
                if inst.rec is None:
                    return fn(tagger, step)
                idx = inst.rec.open("model.set_step")
                try:
                    return fn(tagger, step)
                finally:
                    inst.rec.close(idx)
            return wrapper

        def adam_step(fn):
            def wrapper(opt):
                idx = inst.rec.open("training.adam") if inst.rec is not None else None
                try:
                    return fn(opt)
                finally:
                    if idx is not None:
                        inst.rec.close(idx)
                    inst._end_step()
            return wrapper

        def train(fn):
            def wrapper(*args, **kwargs):
                start = clock()
                idx = inst.rec.open("training.train") if inst.rec is not None else None
                try:
                    return fn(*args, **kwargs)
                finally:
                    if idx is not None:
                        inst.rec.close(idx)
                    inst.train_calls.append((start, clock()))
            return wrapper

        self._replace(model.SequenceTagger, "set_step", set_step)
        self._replace(training.Adam, "step", adam_step)
        self._replace(training, "train", train)

    def _install_spans(self) -> None:
        inst, rec = self, self.rec
        roles = self._roles

        def build(fn):
            def wrapper(tagger, *args, **kwargs):
                idx = rec.open("model.build")
                try:
                    fn(tagger, *args, **kwargs)
                finally:
                    rec.close(idx)
                # only the newest model is timed, so stale ids cannot collide
                roles.clear()
                for attr, role in (("encoder", "nn.sentence_encoder"),
                                   ("subword_encoder", "nn.subword_encoder"),
                                   ("char_encoder", "nn.char_encoder"),
                                   ("subword_proj", "metaembed.subword"),
                                   ("subword_scorer", "metaembed.subword")):
                    part = getattr(tagger, attr, None)
                    if part is not None:
                        roles[id(part)] = role
            return wrapper

        def read(fn):
            def wrapper(path, *args, **kwargs):
                idx = rec.open("tokenization.read")
                try:
                    sentences = fn(path, *args, **kwargs)
                finally:
                    rec.close(idx)
                split = str(path).replace("\\", "/").rsplit("/", 1)[-1].split(".")[0]
                for sent in sentences:
                    inst._split[id(sent)] = split
                return sentences
            return wrapper

        def load(fn):
            def wrapper(*args, **kwargs):
                idx = rec.open("embeddings.load")
                try:
                    table = fn(*args, **kwargs)
                finally:
                    rec.close(idx)
                rec.count("embeddings.rows_loaded", table.vectors.shape[0])
                return table
            return wrapper

        lookups = self._lookups

        def index_of(fn):
            def wrapper(table, token):
                lookups[table.level] += 1
                return fn(table, token)
            return wrapper

        def encode(fn):
            def wrapper(featurizer, sent):
                idx = rec.open("model.featurize")
                before = dict(lookups)
                oov_before = dict(featurizer.counters)
                try:
                    return fn(featurizer, sent)
                finally:
                    rec.close(idx)
                    # a cache hit looks nothing up in the tables
                    hit = lookups["word"] == before["word"]
                    rec.count("featurize.calls", 1)
                    rec.count("featurize.hits", 1 if hit else 0)
                    if not hit:
                        split = inst._split.get(id(sent), "other")
                        for level in ("word", "subword"):
                            oov = sum(v - oov_before.get(k, 0)
                                      for k, v in featurizer.counters.items()
                                      if k.startswith(f"oov_{level}_"))
                            rec.count(f"oov_{level}.{split}", oov)
                            rec.count(f"lookups_{level}.{split}",
                                      lookups[level] - before[level])
            return wrapper

        def encoder_call(fn):
            def wrapper(enc, *args, **kwargs):
                role = roles.get(id(enc), "nn.encoder")
                mask = _arg(args, kwargs, 1, "mask")
                if mask is not None:
                    for key, value in mask_counts(mask).items():
                        rec.count(f"{role}.{key}", value)
                idx = rec.open(role)
                try:
                    return fn(enc, *args, **kwargs)
                finally:
                    rec.close(idx)
            return wrapper

        def pool_name(x, mask=None, encoder=None, *args, **kwargs):
            role = roles.get(id(encoder))
            return {"nn.subword_encoder": "metaembed.subword",
                    "nn.char_encoder": "metaembed.char"}.get(role, "metaembed.pool")

        def attend_name(projected, scorer=None, *args, **kwargs):
            # word-level attention runs inside mme_word and stays in its time
            return roles.get(id(scorer))

        def project_name(proj, *args, **kwargs):
            return roles.get(id(proj))

        self._replace(model.SequenceTagger, "__init__", build)
        for owner in (tokenization, cli):
            self._replace(owner, "read_conll", read)
        self._replace(embeddings, "load_text_embeddings", load)
        self._replace(embeddings.EmbeddingTable, "index_of", index_of)
        self._replace(model.Featurizer, "encode", encode)
        self._replace(nn.TransformerEncoder, "__call__", encoder_call)
        spans = [
            (model, "apply_bpe", "tokenization.bpe"),
            (model, "save_checkpoint", "model.checkpoint_save"),
            (model, "load_checkpoint", "model.checkpoint_load"),
            (model.SequenceTagger, "forward", "model.forward"),
            (model.SequenceTagger, "loss_batch", "model.loss_batch"),
            (model.SequenceTagger, "predict", "model.predict"),
            (metaembed, "mme_word", "metaembed.mme_word"),
            (metaembed, "encode_and_pool", pool_name),
            (metaembed, "attend_languages", attend_name),
            (metaembed.ProjectionSet, "project", project_name),
            (labeler.CrfModel, "emissions", "labeler.emissions"),
            (labeler.CrfModel, "neg_log_likelihood", "labeler.nll"),
            (labeler.CrfModel, "viterbi_decode", "labeler.viterbi"),
            (autodiff.Tensor, "backward", "autodiff.backward"),
            (training.Adam, "zero_grad", "training.zero_grad"),
            (training.Adam, "clip_gradients", "training.clip"),
            (training, "entity_f1", "training.entity_f1"),
        ]
        for owner, attr, name in spans:
            self._span(owner, attr, name)

        def tape_exit(fn):
            def wrapper(tape, *exc):
                # leaving the tape drops its records, which frees the graph
                idx = rec.open("autodiff.tape_free")
                try:
                    return fn(tape, *exc)
                finally:
                    rec.close(idx)
                    rec.count("autodiff.tape_records", len(tape))
            return wrapper
        self._replace(autodiff.Tape, "__exit__", tape_exit)
