"""Linear-chain CRF that allows only legal IOB transitions.

The log-partition comes from the forward algorithm run in log space with
log-sum-exp, and decoding from Viterbi with lowest-tag-index tie-breaking;
each runs one recursion over a whole batch of sentences at once.
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

    def _effective(self) -> tuple[Tensor, Tensor]:
        return (ad.add(self.transitions, Tensor(self._trans_mask)),
                ad.add(self.start, Tensor(self._start_mask)))

    def _effective_np(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.transitions.data + self._trans_mask,
                self.start.data + self._start_mask)

    def _gold_indices(self, gold) -> list[int]:
        idx = [g if isinstance(g, (int, np.integer)) else self.label_index[g]
               for g in gold]
        if self._start_mask[idx[0]] != 0:
            raise ValueError(f"illegal start tag {self.labels[idx[0]]!r}")
        for a, b in zip(idx, idx[1:]):
            if self._trans_mask[a, b] != 0:
                raise ValueError(
                    f"illegal transition {self.labels[a]!r} -> {self.labels[b]!r}")
        return idx

    # -- training objective -------------------------------------------------

    def neg_log_likelihood(self, emissions: Tensor, gold, lengths=None) -> Tensor:
        """Summed log Z minus gold path score over a batch; non-negative.

        ``emissions`` is (B, n_max, T), ``gold`` one tag sequence per
        sentence and ``lengths`` the sentences' token counts (default: all
        n_max); positions past a sentence's length are ignored.  An (n, T)
        input with a single tag sequence is the batch of one.
        """
        if emissions.ndim == 2:
            emissions = ad.reshape(emissions, (1,) + emissions.shape)
            gold = [gold]
        if emissions.ndim != 3 or emissions.shape[2] != self.num_tags:
            raise ShapeError(f"emissions must be (n, {self.num_tags}) "
                             f"or (B, n, {self.num_tags})")
        B, n_max, T = emissions.shape
        lengths = [n_max] * B if lengths is None else list(lengths)
        if len(gold) != B or len(lengths) != B:
            raise ShapeError("need one gold sequence and one length per sentence")
        if any(len(g) != n or not 1 <= n <= n_max for g, n in zip(gold, lengths)):
            raise ShapeError("gold length does not match emissions")
        idx = [self._gold_indices(g) for g in gold]
        trans_eff, start_eff = self._effective()

        # forward algorithm in log space over all sentences at once; alpha is
        # (T, B), tag-major, so each step broadcasts it as a trailing suffix:
        # scores[cur, prev, b] = trans[prev, cur] + alpha[prev, b]
        steps = ad.transpose(emissions, (1, 2, 0))                 # (n_max, T, B)
        tag_of = np.repeat(np.arange(T)[:, None], B, axis=1)       # (T, B) -> tag
        pair_of = np.repeat(np.arange(T * T)[:, None], B, axis=1)
        trans_b = ad.reshape(                                      # (cur, prev, B)
            ad.take(ad.reshape(ad.transpose(trans_eff, (1, 0)), (T * T,)), pair_of),
            (T, T, B))
        # 1.0 while position i is inside sentence b; a finished sentence
        # carries its alpha forward unchanged (exact for a 0/1 mask)
        live = (np.arange(n_max)[:, None] < np.asarray(lengths)).astype(float)
        alpha = ad.add(steps[0], ad.take(start_eff, tag_of))
        for i in range(1, n_max):
            new = ad.add(ad.logsumexp(ad.add(trans_b, alpha), axis=1), steps[i])
            alpha = ad.add(ad.mul(new, Tensor(live[i])),
                           ad.mul(alpha, Tensor(1.0 - live[i])))
        log_z = ad.logsumexp(ad.add(alpha, ad.take(self.end, tag_of)), axis=0)

        # gold path scores via indicator counts summed over the batch
        onehot = np.zeros((B, n_max, T))
        pairs = np.zeros((T, T))
        first = np.zeros(T)
        last = np.zeros(T)
        for b, seq in enumerate(idx):
            onehot[b, np.arange(len(seq)), seq] = 1.0
            np.add.at(pairs, (seq[:-1], seq[1:]), 1.0)
            first[seq[0]] += 1.0
            last[seq[-1]] += 1.0
        score = ad.tensor_sum(ad.mul(emissions, Tensor(onehot)))
        score = ad.add(score, ad.tensor_sum(ad.mul(trans_eff, Tensor(pairs))))
        score = ad.add(score, ad.tensor_sum(ad.mul(start_eff, Tensor(first))))
        score = ad.add(score, ad.tensor_sum(ad.mul(self.end, Tensor(last))))
        return ad.sub(ad.tensor_sum(log_z), score)

    def log_partition(self, emissions: np.ndarray) -> float:
        """log Z on plain arrays (no gradient), for diagnostics and tests."""
        e = emissions.data if isinstance(emissions, Tensor) else np.asarray(emissions)
        trans, start = self._effective_np()
        alpha = start + e[0]
        for i in range(1, e.shape[0]):
            scores = alpha[:, None] + trans
            m = scores.max(axis=0, keepdims=True)
            alpha = m[0] + np.log(np.exp(scores - m).sum(axis=0)) + e[i]
        final = alpha + self.end.data
        m = final.max()
        return float(m + np.log(np.exp(final - m).sum()))

    # -- decoding -----------------------------------------------------------

    def viterbi_decode(self, emissions, lengths=None):
        """Highest-scoring legal tag sequence and its score per sentence.

        ``emissions`` is (B, n_max, T) with ``lengths`` as in
        ``neg_log_likelihood``, and the result one (tags, score) per
        sentence.  An (n, T) input is the batch of one and gives its
        (tags, score).
        """
        e = emissions.data if isinstance(emissions, Tensor) else np.asarray(emissions)
        single = e.ndim == 2
        if single:
            e = e[None]
        if e.ndim != 3 or e.shape[2] != self.num_tags:
            raise ShapeError(f"emissions must be (n, {self.num_tags}) "
                             f"or (B, n, {self.num_tags})")
        B, n_max, T = e.shape
        lengths = [n_max] * B if lengths is None else [int(n) for n in lengths]
        if len(lengths) != B or not all(1 <= n <= n_max for n in lengths):
            raise ShapeError("need one length in [1, n_max] per sentence")
        trans, start = self._effective_np()
        shortest, ends = min(lengths), np.array(lengths)[:, None]
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
        for b, (n, tag, score) in enumerate(zip(lengths, final.argmax(axis=1).tolist(),
                                                final.max(axis=1).tolist())):
            path = [tag]
            for i in range(n - 1, 0, -1):
                tag = back[i][b][tag]
                path.append(tag)
            out.append(([self.labels[t] for t in reversed(path)], score))
        return out[0] if single else out
