"""Statistics and per-layer metrics computed from a run's span file."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

MIN_BEYOND = 10     # samples a reported percentile must have above it

# Per-step (or per-request) time of each layer.  Layers marked "self" count
# their span's duration minus the time their child spans cover.
STEP_LAYERS = {
    "model.featurize": "total",
    "tokenization.bpe": "total",
    "metaembed.mme_word": "self",
    "metaembed.subword": "self",
    "metaembed.char": "self",
    "nn.subword_encoder": "total",
    "nn.char_encoder": "total",
    "nn.sentence_encoder": "total",
    "labeler.emissions": "total",
    "labeler.nll": "total",
    "labeler.viterbi": "total",
    "autodiff.backward": "total",
    "autodiff.tape_free": "total",
    "training.zero_grad": "total",
    "training.clip": "total",
    "training.adam": "total",
}
UNIT_SPANS = ("training.step", "request")
SETUP_LAYERS = ("tokenization.read", "embeddings.load", "model.checkpoint_load",
                "model.build")
SHARE_COUNTERS = {
    "nn.subword_encoder.real_row_share": ("nn.subword_encoder", "real_rows", "rows"),
    "nn.subword_encoder.real_cell_share": ("nn.subword_encoder", "real_cells", "cells"),
    "nn.char_encoder.real_row_share": ("nn.char_encoder", "real_rows", "rows"),
    "nn.char_encoder.real_cell_share": ("nn.char_encoder", "real_cells", "cells"),
    "nn.sentence_encoder.real_share": ("nn.sentence_encoder", "real_cells", "cells"),
}


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile.

    Refused (ValueError) unless at least ``MIN_BEYOND`` samples rank above it,
    so a reported tail rests on at least that many observations.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {len(ordered)} samples has "
                         f"{len(ordered) - rank} above it; need {MIN_BEYOND}")
    return ordered[rank - 1]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def children_of(spans) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(i)
    return kids


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    kids = children_of(spans)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        inner = [(max(spans[k][1], start), min(spans[k][2], end)) for k in kids[i]]
        out.append((end - start) - _covered([iv for iv in inner if iv[1] > iv[0]]))
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counters, main_split: str) -> dict[str, float]:
    """Every per-layer metric the benchmark reports, from one run's trace.

    Step layers are reported per unit (training step or prediction request)
    as ``<layer>_ms`` (median over units) and ``<layer>_share`` (layer time
    over unit time, summed across units).  A layer that never ran reads 0.
    """
    selfs = self_times(spans)
    kids = children_of(spans)
    units = {span[4]: i for i, span in enumerate(spans) if span[0] in UNIT_SPANS}
    unit_time = {u: spans[i][2] - spans[i][1] for u, i in units.items()}
    per_unit: dict[str, dict[str, float]] = {u: defaultdict(float) for u in units}
    calls: dict[str, dict[str, int]] = {u: defaultdict(int) for u in units}
    for i, (name, start, end, _, unit) in enumerate(spans):
        if unit not in per_unit:
            continue
        calls[unit][name] += 1
        if name == "model.forward":
            per_unit[unit]["model.forward_self"] += selfs[i]
        mode = STEP_LAYERS.get(name)
        if mode is not None:
            per_unit[unit][name] += selfs[i] if mode == "self" else end - start
    total_time = sum(unit_time.values())
    out: dict[str, float] = {}
    for layer in list(STEP_LAYERS) + ["model.forward_self"]:
        times = [per_unit[u][layer] for u in units]
        out[f"{layer}_ms"] = _median(times) * 1e3
        out[f"{layer}_share"] = _ratio(sum(times), total_time)
    out["labeler.nll_calls"] = _median([calls[u]["labeler.nll"] for u in units])
    out["labeler.viterbi_calls"] = _median([calls[u]["labeler.viterbi"] for u in units])

    sums: dict[tuple, float] = defaultdict(float)
    tape = []
    for unit, name, value in counters:
        if name == "autodiff.tape_records":
            if unit in per_unit:
                tape.append(value)
        elif name == "embeddings.rows_loaded":
            sums[unit, name] += value
        elif unit in per_unit:
            sums[None, name] += value
    out["autodiff.tape_records"] = _median(tape)
    out["model.featurize_hit_ratio"] = _ratio(sums[None, "featurize.hits"],
                                              sums[None, "featurize.calls"])
    oov = oov_by_split(counters).get(main_split, {})
    for level in ("word", "subword"):
        out[f"embeddings.oov_{level}_rate"] = oov.get(level, 0.0)
    for metric, (role, num, den) in SHARE_COUNTERS.items():
        out[metric] = _ratio(sums[None, f"{role}.{num}"], sums[None, f"{role}.{den}"])

    # set-up: per set-up run, then the median across set-ups
    setups = sorted({s[4] for s in spans if s[4] and s[4].startswith("setup:")})
    for layer in SETUP_LAYERS:
        out[f"{layer}_s"] = _median([
            sum(s[2] - s[1] for s in spans if s[0] == layer and s[4] == u)
            for u in setups])
    out["embeddings.rows_loaded"] = _median([sums[u, "embeddings.rows_loaded"]
                                             for u in setups])

    # per-epoch work of the training loop that runs outside the steps
    # set-up probes stop inside train() before their first step
    trains = [i for i, s in enumerate(spans) if s[0] == "training.train"
              and any(spans[k][0] == "training.step" for k in kids[i])]
    dev_eval = [spans[k][2] - spans[k][1] for i in trains for k in kids[i]
                if spans[k][0] == "model.predict"]
    f1_calls = [spans[k][2] - spans[k][1] for i in trains for k in kids[i]
                if spans[k][0] == "training.entity_f1"]
    out["training.dev_eval_s"] = _median(dev_eval)
    out["training.entity_f1_ms"] = _median(f1_calls) * 1e3
    out["model.checkpoint_save_s"] = sum(s[2] - s[1] for s in spans
                                         if s[0] == "model.checkpoint_save")
    finish = 0.0
    if trains:
        last = spans[trains[-1]]
        top = last
        while top[3] >= 0:
            top = spans[top[3]]
        finish = top[2] - last[2]
    out["cli.finish_s"] = finish

    coverage = [_ratio(_covered([(spans[k][1], spans[k][2]) for k in kids[i]]),
                       spans[i][2] - spans[i][1]) for i in units.values()]
    out["trace.min_child_coverage"] = min(coverage) if coverage else 0.0
    return out


def oov_by_split(counters) -> dict[str, dict[str, float]]:
    """OOV rate per split and level: featurizer counter deltas over table
    lookups, summed over every featurization that missed the cache."""
    sums: dict[str, float] = defaultdict(float)
    for _, name, value in counters:
        if name.startswith(("oov_", "lookups_")):
            sums[name] += value
    out: dict[str, dict[str, float]] = defaultdict(dict)
    for name, value in sums.items():
        kind, split = name.split(".", 1)
        if kind.startswith("oov_"):
            level = kind[len("oov_"):]
            out[split][level] = _ratio(value, sums[f"lookups_{level}.{split}"])
    return dict(out)
