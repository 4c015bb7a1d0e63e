"""Linear-chain CRF that allows only legal IOB transitions.

The log-partition comes from the forward algorithm run in log space with
log-sum-exp, and decoding from Viterbi with lowest-tag-index tie-breaking;
each runs one recursion over a whole batch of sentences at once.  The
negative log-likelihood is one tape op whose gradient comes from one
backward recursion: the forward-backward marginals minus the gold counts.
Illegal IOB transitions (to I-x from anything but B-x/I-x, and I-x at the
start) are additively masked to a large negative value so they never appear
in decoded paths.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import NEG_LARGE, ShapeError, Tensor
from .nn import Linear


def iob_transition_masks(labels: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(transition mask, start mask): 0 where allowed, a large negative
    penalty where the IOB scheme forbids the move."""
    T = len(labels)
    trans = np.zeros((T, T))
    start = np.zeros(T)
    for c, cur in enumerate(labels):
        if not cur.startswith("I-"):
            continue
        etype = cur[2:]
        start[c] = NEG_LARGE
        for p, prev in enumerate(labels):
            if prev not in (f"B-{etype}", f"I-{etype}"):
                trans[p, c] = NEG_LARGE
    return trans, start


def _log_sum_exp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.exp(x - m).sum(axis=axis))


def _forward(e: np.ndarray, live: np.ndarray, trans: np.ndarray, start: np.ndarray,
             end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forward algorithm in log space over a (B, n_max, T) batch.

    ``live`` (n_max, B) is True while position i is inside sentence b.
    Returns the alphas (n_max, B, T) and log Z per sentence (B,).  A
    finished sentence carries its last alpha forward unchanged, so
    ``alpha[-1]`` is every sentence's final alpha.
    """
    B, n_max, T = e.shape
    alpha = np.empty((n_max, B, T))
    alpha[0] = start + e[:, 0]
    for i in range(1, n_max):
        # scores[b, prev, cur] = alpha[b, prev] + trans[prev, cur]
        new = _log_sum_exp(alpha[i - 1][:, :, None] + trans, 1) + e[:, i]
        alpha[i] = np.where(live[i][:, None], new, alpha[i - 1])
    return alpha, _log_sum_exp(alpha[-1] + end, 1)


class CrfModel:
    """Emission projection plus tag-pair transition scores.

    ``labels`` fixes tag indices for the whole model; Viterbi ties resolve to
    the lowest index.
    """

    def __init__(self, labels: list[str], d_model: int, rng: np.random.Generator):
        if not labels:
            raise ValueError("empty label vocabulary")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        self.labels = list(labels)
        self.label_index = {tag: i for i, tag in enumerate(labels)}
        T = len(labels)
        self.emit = Linear(d_model, T, rng)
        self.transitions = Tensor(rng.uniform(-0.1, 0.1, (T, T)), requires_grad=True)
        self.start = Tensor(rng.uniform(-0.1, 0.1, (T,)), requires_grad=True)
        self.end = Tensor(rng.uniform(-0.1, 0.1, (T,)), requires_grad=True)
        self._trans_mask, self._start_mask = iob_transition_masks(labels)

    @property
    def num_tags(self) -> int:
        return len(self.labels)

    def emissions(self, h: Tensor) -> Tensor:
        """Per-token tag scores from encoder states (..., d_model)."""
        return self.emit(h)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        out = self.emit.parameters(f"{prefix}.emit")
        out[f"{prefix}.transitions"] = self.transitions
        out[f"{prefix}.start"] = self.start
        out[f"{prefix}.end"] = self.end
        return out

    # -- masked views -------------------------------------------------------

    def _effective_np(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.transitions.data + self._trans_mask,
                self.start.data + self._start_mask)

    def _gold_indices(self, gold: list[str]) -> list[int]:
        idx = [self.label_index[g] for g in gold]
        if self._start_mask[idx[0]] != 0:
            raise ValueError(f"illegal start tag {self.labels[idx[0]]!r}")
        for a, b in zip(idx, idx[1:]):
            if self._trans_mask[a, b] != 0:
                raise ValueError(
                    f"illegal transition {self.labels[a]!r} -> {self.labels[b]!r}")
        return idx

    def _batch(self, rows: np.ndarray,
               lengths: list[int]) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Scatter packed (R, T) rows of sentences of ``lengths`` tokens into
        a zero-padded (B, n_max, T) batch; returns it, the (B, n_max) mask of
        its real cells and the lengths."""
        if rows.ndim != 2 or rows.shape[1] != self.num_tags:
            raise ShapeError(f"emissions must be packed (R, {self.num_tags}) rows, "
                             f"got {rows.shape}")
        n = [int(k) for k in lengths]
        if not n or min(n) < 1 or sum(n) != len(rows):
            raise ShapeError(f"sentence lengths must be positive and sum to the "
                             f"{len(rows)} rows")
        real = np.arange(max(n)) < np.array(n)[:, None]
        batch = np.zeros(real.shape + (self.num_tags,))
        batch[real] = rows
        return batch, real, n

    # -- training objective -------------------------------------------------

    def neg_log_likelihood(self, emissions: Tensor, gold: list[list[str]],
                           lengths: list[int]) -> Tensor:
        """Summed log Z minus gold path score over a batch; non-negative.

        ``emissions`` holds packed (R, T) rows, the tokens of the batch's
        sentences in order, ``lengths`` tokens each, and ``gold`` one tag
        sequence per sentence.

        One tape op: its gradient is the forward-backward marginals minus
        the gold counts, for the emissions, transitions, start and end.
        """
        e, real, sizes = self._batch(emissions.data, lengths)
        if [len(g) for g in gold] != sizes:
            raise ShapeError("need one gold sequence of each sentence's length")
        idx = [self._gold_indices(g) for g in gold]
        trans, start = self._effective_np()
        end = self.end.data
        live = real.T                                               # (n_max, B)
        alpha, log_z = _forward(e, live, trans, start, end)

        # gold path scores via indicator counts summed over the batch
        T = self.num_tags
        onehot = np.zeros(emissions.shape)
        onehot[np.arange(len(onehot)), np.concatenate(idx)] = 1.0
        pairs = np.zeros((T, T))
        first = np.zeros(T)
        last = np.zeros(T)
        for seq in idx:
            np.add.at(pairs, (seq[:-1], seq[1:]), 1.0)
            first[seq[0]] += 1.0
            last[seq[-1]] += 1.0
        score = ((emissions.data * onehot).sum() + (trans * pairs).sum()
                 + (start * first).sum() + (end * last).sum())

        def vjp(g):
            # beta[i] scores the tags after position i.  From a sentence's
            # last position on it holds the end scores, and ``live`` zeroes
            # the marginals past that position
            e_t = np.swapaxes(e, 0, 1)                               # (n_max, B, T)
            beta = np.empty_like(alpha)
            beta[-1] = end
            for i in range(len(beta) - 2, -1, -1):
                new = _log_sum_exp(trans + (e_t[i + 1] + beta[i + 1])[:, None, :], 2)
                beta[i] = np.where(live[i + 1][:, None], new, beta[i + 1])
            node = np.exp(alpha + beta - log_z[:, None]) * live[:, :, None]
            # pair[i, b, prev, cur] for the move into position i + 1
            pair = np.exp(alpha[:-1, :, :, None] + trans
                          + (e_t[1:] + beta[1:])[:, :, None, :]
                          - log_z[:, None, None]) * live[1:, :, None, None]
            g_end = np.exp(alpha[-1] + end - log_z[:, None]).sum(axis=0) - last
            g_e = np.swapaxes(node, 0, 1)[real] - onehot
            return (g * g_e, g * (pair.sum(axis=(0, 1)) - pairs),
                    g * (node[0].sum(axis=0) - first), g * g_end)

        return ad._record(np.asarray(log_z.sum() - score),
                          (emissions, self.transitions, self.start, self.end),
                          vjp, "crf_nll")

    # -- decoding -----------------------------------------------------------

    def viterbi_decode(self, rows: np.ndarray,
                       lengths: list[int]) -> list[tuple[list[str], float]]:
        """Highest-scoring legal tag sequence and its score per sentence.

        ``rows`` is a plain array of packed (R, T) emission rows and
        ``lengths`` is as in ``neg_log_likelihood``; the result holds one
        (tags, score) per sentence.
        """
        e, _, sizes = self._batch(rows, lengths)
        B, n_max, T = e.shape
        trans, start = self._effective_np()
        shortest, ends = min(sizes), np.array(sizes)[:, None]
        delta = start + e[:, 0]                                 # (B, T)
        back = np.empty((n_max, B, T), dtype=np.int64)
        for i in range(1, n_max):
            scores = delta[:, :, None] + trans                  # [b, prev, cur]
            back[i] = scores.argmax(axis=1)                     # first max = lowest index
            new = scores.max(axis=1) + e[:, i]
            # a finished sentence keeps its delta
            delta = new if i < shortest else np.where(i < ends, new, delta)
        final = delta + self.end.data
        back = back.tolist()
        out = []
        for b, (n, tag, score) in enumerate(zip(sizes, final.argmax(axis=1).tolist(),
                                                final.max(axis=1).tolist())):
            path = [tag]
            for i in range(n - 1, 0, -1):
                tag = back[i][b][tag]
                path.append(tag)
            out.append(([self.labels[t] for t in reversed(path)], score))
        return out
