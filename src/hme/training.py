"""Adam training loop with early stopping, entity-level F1, ensembling and
attention-weight aggregation."""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Tensor
from .tokenization import repair_iob


class DivergenceError(RuntimeError):
    """Training produced a non-finite gradient; ``Adam.step`` names its
    parameter.  A non-finite loss raises ``NumericsError`` in ``backward``."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    patience: int = 15                   # dev-F1 epochs without improvement
    batch_size: int = 32
    max_epochs: int = 100
    seed: int = 0
    clip_norm: float = 5.0

    def __post_init__(self):
        for name, low in (("patience", 1), ("batch_size", 1), ("max_epochs", 1),
                          ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("learning_rate", "clip_norm"):
            # json reads NaN and Infinity, and neither compares as <= 0
            value = getattr(self, name)
            if type(value) not in (int, float) or not 0 < value < math.inf:
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")


class Adam:
    """Standard bias-corrected Adam over named parameters, with global-norm
    gradient clipping applied before each update.  Parameters with no gradient
    are treated as having a zero gradient.  ``step`` gives every parameter a
    new array rather than writing into the old one, which a prediction may
    have made read-only (see ``SequenceTagger._float32``)."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], config: TrainConfig):
        self.params = dict(params)
        self.lr = config.learning_rate
        self.clip_norm = config.clip_norm
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def clip_gradients(self) -> float:
        """Scale all gradients so the global norm is at most clip_norm;
        returns the pre-clip norm.  A non-finite gradient leaves a non-finite
        gradient behind (NaN makes the norm NaN, and Inf meets a zero factor),
        which ``step`` then refuses, naming its parameter."""
        total = 0.0
        for p in self.params.values():
            if p.grad is not None:
                total += float((p.grad ** 2).sum())
        norm = float(np.sqrt(total))
        if norm > self.clip_norm:
            factor = self.clip_norm / norm
            for p in self.params.values():
                if p.grad is not None:
                    p.grad = p.grad * factor    # buffers may be shared; no in-place
        return norm

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise DivergenceError(f"non-finite gradient in parameter {name!r}")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                self.m[name] *= self.beta1
                self.v[name] *= self.beta2
            else:
                self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * p.grad
                self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * p.grad ** 2
            m_hat = self.m[name] / b1t
            v_hat = self.v[name] / b2t
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# entity-level evaluation

def iob_spans(tags: list[str]) -> list[tuple[int, int, str]]:
    """Maximal IOB spans as (start, end_exclusive, type); a dangling I- tag
    opens a new span, matching the repair convention."""
    spans = []
    start, etype = None, None
    for i, tag in enumerate(list(tags) + ["O"]):
        starts_new = tag.startswith("B-") or (tag.startswith("I-") and etype != tag[2:])
        if start is not None and (starts_new or tag == "O"):
            spans.append((start, i, etype))
            start, etype = None, None
        if starts_new:
            start, etype = i, tag[2:]
    return spans


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    per_type: dict[str, dict[str, float]]
    token_accuracy: float
    counters: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "precision": self.precision, "recall": self.recall, "f1": self.f1,
            "token_accuracy": self.token_accuracy, "per_type": self.per_type,
            "counters": dict(self.counters),
        }

    def to_text(self) -> str:
        lines = [
            f"precision\t{self.precision:.6f}",
            f"recall\t{self.recall:.6f}",
            f"f1\t{self.f1:.6f}",
            f"token_accuracy\t{self.token_accuracy:.6f}",
        ]
        for etype in sorted(self.per_type):
            t = self.per_type[etype]
            lines.append(f"type:{etype}\tP={t['precision']:.6f}\tR={t['recall']:.6f}"
                         f"\tF1={t['f1']:.6f}\tgold={t['gold']}\tpred={t['pred']}")
        for key in sorted(self.counters):
            lines.append(f"counter:{key}\t{self.counters[key]}")
        return "\n".join(lines)


def entity_f1(gold: list[list[str]], pred: list[list[str]],
              counters: dict[str, int] | None = None) -> EvalReport:
    """Micro-averaged exact-span-and-type precision/recall/F1."""
    if len(gold) != len(pred):
        raise ValueError("gold and prediction counts differ")
    tp = fp = fn = 0
    by_type: dict[str, Counter] = {}
    correct_tokens = total_tokens = 0
    for g_tags, p_tags in zip(gold, pred):
        if len(g_tags) != len(p_tags):
            raise ValueError("sentence length mismatch between gold and prediction")
        total_tokens += len(g_tags)
        correct_tokens += sum(1 for a, b in zip(g_tags, p_tags) if a == b)
        g_spans = set(iob_spans(g_tags))
        p_spans = set(iob_spans(p_tags))
        for span in p_spans:
            c = by_type.setdefault(span[2], Counter())
            if span in g_spans:
                tp += 1
                c["tp"] += 1
            else:
                fp += 1
                c["fp"] += 1
        for span in g_spans - p_spans:
            fn += 1
            by_type.setdefault(span[2], Counter())["fn"] += 1
    p, r, f = _prf(tp, fp, fn)
    per_type = {}
    for etype, c in by_type.items():
        tp_, fp_, fn_ = c["tp"], c["fp"], c["fn"]
        p_, r_, f_ = _prf(tp_, fp_, fn_)
        per_type[etype] = {"precision": p_, "recall": r_, "f1": f_,
                           "gold": tp_ + fn_, "pred": tp_ + fp_}
    return EvalReport(
        precision=p, recall=r, f1=f, per_type=per_type,
        token_accuracy=correct_tokens / total_tokens if total_tokens else 0.0,
        counters=dict(counters or {}))


# ---------------------------------------------------------------------------
# ensembling and attention aggregation

def majority_vote(predictions: list[list[str]]) -> list[str]:
    """Per-token plurality over K aligned tag sequences.

    Ties go to the tag of the earliest sequence in list order among the tied
    ones; the voted sequence is IOB-repaired.
    """
    if not predictions:
        raise ValueError("no predictions to vote over")
    n = len(predictions[0])
    if any(len(p) != n for p in predictions):
        raise ValueError("prediction lengths differ across models")
    voted = []
    for i in range(n):
        counts = Counter(p[i] for p in predictions)
        top = max(counts.values())
        voted.append(next(p[i] for p in predictions if counts[p[i]] == top))
    repaired, _ = repair_iob(voted)
    return repaired


def attention_summary(alphas: list[np.ndarray],
                      tags: list[list[str]]) -> dict[str, np.ndarray]:
    """Mean attention weight per (predicted tag, language).

    ``alphas[s]`` is the (n_s, L) word-level weight matrix of sentence s and
    ``tags[s]`` its predicted tags.  Every output row sums to one.
    """
    if not alphas:
        raise ValueError("no attention rows to summarize")
    sums: dict[str, np.ndarray] = {}
    counts: Counter = Counter()
    for rows, sent_tags in zip(alphas, tags):
        if len(sent_tags) != rows.shape[0]:
            raise ValueError("tags and attention rows disagree on length")
        for row, tag in zip(rows, sent_tags):
            if tag in sums:
                sums[tag] = sums[tag] + row
            else:
                sums[tag] = row.astype(float).copy()
            counts[tag] += 1
    return {tag: sums[tag] / counts[tag] for tag in sums}


def attention_stats(alphas: list[np.ndarray | None], languages: list[str],
                    level: str) -> dict:
    """``alpha_<level>_mean`` ({language: mean weight}) and
    ``alpha_<level>_entropy`` (mean nats per token) over the (n_s, L) weight
    rows of every sentence; empty when the variant has no such level.  Both
    are computed in float64, whatever the rows' dtype."""
    if not alphas or alphas[0] is None:
        return {}
    rows = np.concatenate(alphas, dtype=np.float64)
    entropy = -(rows * np.log(np.where(rows > 0, rows, 1.0))).sum(axis=1)
    return {f"alpha_{level}_mean": dict(zip(languages, rows.mean(axis=0).tolist())),
            f"alpha_{level}_entropy": float(entropy.mean())}


def write_attention_summary_tsv(path: str, summary: dict[str, np.ndarray],
                                languages: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tag\t" + "\t".join(languages) + "\n")
        for tag in sorted(summary):
            fh.write(tag + "\t" + "\t".join(repr(float(w)) for w in summary[tag]) + "\n")


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainResult:
    best_f1: float
    best_epoch: int
    best_state: dict[str, np.ndarray]
    epochs_run: int
    log: list[dict]


def _batches(order: np.ndarray, size: int):
    for i in range(0, len(order), size):
        yield order[i:i + size]


def _nearest_rank(values: list[float], q: float) -> float:
    """The q-th percentile by the nearest-rank rule: the smallest value with
    at least q% of the values at or below it."""
    ranked = sorted(values)
    return ranked[max(math.ceil(q / 100.0 * len(ranked)), 1) - 1]


def train(model, train_set, dev_set, config: TrainConfig,
          log_path: str | None = None, quiet: bool = True) -> TrainResult:
    """Run Adam with per-epoch dev evaluation and patience-based early stop.

    The model ends up loaded with the best-dev-F1 parameter state, which is
    also returned in the result.  One JSON record per epoch goes to ``log``
    (and to ``log_path`` as JSON lines when given): the mean train NLL, dev
    precision/recall/F1, the mean and max pre-clip gradient norm, the
    fraction of steps clipped, step-time p50/p90 in ms (nearest rank), tokens
    per second over the training loop and the epoch's elapsed seconds, then
    the dev attention stats of ``attention_stats`` for each level the variant
    has.
    """
    if not train_set or not dev_set:
        raise ValueError("train and dev sets must be non-empty")
    if any(s.labels is None for s in train_set) or any(s.labels is None for s in dev_set):
        raise ValueError("training requires labeled sentences")
    opt = Adam(model.parameters(), config)
    word_langs = [t.language_id for t in model.resources.word_tables]
    subword_langs = [t.language_id for t in model.resources.subword_tables]
    best_f1, best_epoch, best_state = -1.0, -1, model.state()
    stale_epochs = 0
    step = 0
    log: list[dict] = []
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(1, config.max_epochs + 1):
            t0 = time.perf_counter()
            rng = np.random.default_rng((config.seed, 7919, epoch))
            order = rng.permutation(len(train_set))
            nll_total, sent_total, tokens = 0.0, 0, 0
            grad_norms, step_s = [], []
            for batch_idx in _batches(order, config.batch_size):
                step_start = time.perf_counter()
                batch = [train_set[i] for i in batch_idx]
                model.set_step(step)
                opt.zero_grad()
                with Tape():
                    loss = model.loss_batch(batch)
                    loss.backward()
                grad_norms.append(opt.clip_gradients())
                opt.step()
                step_s.append(time.perf_counter() - step_start)
                step += 1
                nll_total += loss.item() * len(batch)
                sent_total += len(batch)
                tokens += sum(len(s) for s in batch)
            loop_s = time.perf_counter() - t0
            preds, alpha_w, alpha_s = model.predict_with_attention(dev_set)
            report = entity_f1([s.labels for s in dev_set], preds)
            elapsed = time.perf_counter() - t0
            record = {
                "epoch": epoch,
                "train_nll": nll_total / sent_total,
                "dev_precision": report.precision,
                "dev_recall": report.recall,
                "dev_f1": report.f1,
                "grad_norm_mean": sum(grad_norms) / len(grad_norms),
                "grad_norm_max": max(grad_norms),
                "clipped_frac": sum(g > opt.clip_norm for g in grad_norms) / len(grad_norms),
                "step_ms_p50": round(_nearest_rank(step_s, 50) * 1e3, 3),
                "step_ms_p90": round(_nearest_rank(step_s, 90) * 1e3, 3),
                "tokens_per_s": round(tokens / loop_s, 1),
                "elapsed_sec": round(elapsed, 3),
                **attention_stats(alpha_w, word_langs, "word"),
                **attention_stats(alpha_s, subword_langs, "subword"),
            }
            log.append(record)
            if log_fh:
                log_fh.write(json.dumps(record) + "\n")
                log_fh.flush()
            if not quiet:
                print(f"epoch {epoch}: nll={record['train_nll']:.4f} "
                      f"dev_f1={report.f1:.4f} ({elapsed:.1f}s)")
            if report.f1 > best_f1:
                best_f1, best_epoch = report.f1, epoch
                best_state = model.state()
                stale_epochs = 0
            else:
                stale_epochs += 1
            if stale_epochs >= config.patience:
                break
    finally:
        if log_fh:
            log_fh.close()
    model.load_state(best_state)
    return TrainResult(best_f1=best_f1, best_epoch=best_epoch, best_state=best_state,
                       epochs_run=len(log), log=log)
