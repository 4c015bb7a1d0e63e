"""Independent reference implementations used to check the library.

Everything here is written with plain loops / direct formulas and must not
call back into the code paths it verifies.  The exceptions are ``mul`` and
``tensor_sum``, two differentiable ops that only tests use to build scalar
losses: they record on the library's tape through ``ad._record``.
"""

import itertools
import math
import re

import numpy as np

from hme import autodiff as ad
from hme.embeddings import UNK_INDEX


def mul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Elementwise (Hadamard) product of two tensors of one shape."""
    if a.shape != b.shape:
        raise ad.ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    a_data, b_data = a.data, b.data

    def vjp(g):
        return g * b_data, g * a_data

    return ad._record(a_data * b_data, (a, b), vjp, "mul")


def tensor_sum(a: ad.Tensor, axis=None, keepdims: bool = False) -> ad.Tensor:
    """Sum over ``axis`` (every axis when None), as numpy's ``sum``."""
    out = a.data.sum(axis=axis, keepdims=keepdims)
    in_shape = a.shape

    def vjp(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, in_shape).copy(),)

    return ad._record(ad._contig(out), (a,), vjp, "sum")


def boolean_dropout(x: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted dropout by a boolean keep-mask, ``x * keep * (1/(1-p))``:
    one little-endian uint16 word per cell from ``rng.bytes``, kept where it
    is at least ``round(p * 65536)``."""
    words = np.frombuffer(rng.bytes(2 * x.size), dtype="<u2")
    keep = (words >= round(p * 65536)).reshape(x.shape)
    return x * keep * (1.0 / (1.0 - p))


def finite_difference(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to array x.

    Perturbs x in place and restores it; f must re-run the full forward pass.
    """
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return g


def finite_difference_jacobian(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of vector-valued f, shape (out_size, in_size)."""
    base = np.asarray(f()).ravel()
    jac = np.zeros((base.size, x.size))
    flat = x.ravel()
    for j in range(x.size):
        orig = flat[j]
        flat[j] = orig + h
        fp = np.asarray(f()).ravel()
        flat[j] = orig - h
        fm = np.asarray(f()).ravel()
        flat[j] = orig
        jac[:, j] = (fp - fm) / (2.0 * h)
    return jac


def lookup(table, token: str) -> np.ndarray:
    """Per-token embedding row: exact match, lowercase fallback, then the
    unknown row ``UNK_INDEX`` of a trainable table, or zeros for a frozen
    one."""
    idx = table.vocab.get(token)
    if idx is None:
        idx = table.vocab.get(token.lower())
    if idx is None:
        if not table.trainable:
            return np.zeros(table.dim)
        idx = UNK_INDEX
    return table.vectors.data[idx].copy()


def pack_rows(seqs):
    """Packed encoder input for variable-length (m_i, d) arrays: their rows
    stacked in order, (sum m_i, d), plus the (n, m_max) mask with 1.0 at each
    sequence's first m_i cells."""
    m = max(len(s) for s in seqs)
    mask = np.zeros((len(seqs), m))
    for i, s in enumerate(seqs):
        mask[i, :len(s)] = 1.0
    return np.concatenate(seqs, axis=0), mask


def head_rows(mask: np.ndarray, heads: int) -> np.ndarray:
    """(C, heads): for each real cell of the (batch, n) mask, in row-major
    order, the flat (batch, heads, n) position of each of its heads."""
    batch, n = mask.shape
    return np.array([[(b * heads + j) * n + i for j in range(heads)]
                     for b in range(batch) for i in range(n) if mask[b, i]],
                    dtype=np.int64)


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def mme_word_loops(embeds, weights, biases, v):
    """Scalar-loop evaluation of project / score / softmax / weighted-sum.

    embeds: list over languages of (n, d_j); weights[j]: (d_j, dp); biases[j]:
    (dp,); v: (dp,).  Returns (u (n, dp), alpha (n, L)).
    """
    L = len(embeds)
    n = embeds[0].shape[0]
    dp = weights[0].shape[1]
    projected = []
    for j in range(L):
        xj = np.zeros((n, dp))
        for i in range(n):
            for c in range(dp):
                s = biases[j][c]
                for r in range(embeds[j].shape[1]):
                    s += embeds[j][i, r] * weights[j][r, c]
                xj[i, c] = s
        projected.append(xj)
    scores = np.zeros((n, L))
    for i in range(n):
        for j in range(L):
            s = 0.0
            for c in range(dp):
                s += v[c] * math.tanh(projected[j][i, c])
            scores[i, j] = s
    alpha = np.zeros((n, L))
    for i in range(n):
        mx = max(scores[i])
        exps = [math.exp(scores[i, j] - mx) for j in range(L)]
        z = sum(exps)
        for j in range(L):
            alpha[i, j] = exps[j] / z
    u = np.zeros((n, dp))
    for i in range(n):
        for c in range(dp):
            s = 0.0
            for j in range(L):
                s += alpha[i, j] * projected[j][i, c]
            u[i, c] = s
    return u, alpha


def layer_norm_loops(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                     eps: float = 1e-5) -> np.ndarray:
    """Row-wise layer norm with affine parameters, plain loops."""
    out = np.zeros_like(x)
    d = x.shape[-1]
    flat = x.reshape(-1, d)
    oflat = out.reshape(-1, d)
    for r in range(flat.shape[0]):
        mu = sum(flat[r]) / d
        var = sum((flat[r, k] - mu) ** 2 for k in range(d)) / d
        inv = 1.0 / math.sqrt(var + eps)
        for k in range(d):
            oflat[r, k] = (flat[r, k] - mu) * inv * gain[k] + bias[k]
    return out


def softmax_rows(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for r in range(x.shape[0]):
        mx = max(x[r])
        exps = np.array([math.exp(v - mx) for v in x[r]])
        out[r] = exps / exps.sum()
    return out


def transformer_layer_loops(x, mask, layer, eps=1e-5, attn_keep=None, out_keep=None,
                            ff_keep=None, ff2_keep=None):
    """One pre-norm encoder layer evaluated with explicit loops.

    x: (n, d); mask: (n,) with 1 for real positions; ``layer`` carries numpy
    weights with keys ln1_g, ln1_b, wq, bq, wk, wv, bv, wo, bo, ln2_g,
    ln2_b, w1, b1, w2, b2 and the head count in "heads".  With no masks this
    is evaluation.  Otherwise each given mask multiplies, as dropout: the
    attention weights (``attn_keep``, (heads, n queries, n keys)), the
    output projection (``out_keep``, (n, d)), the ReLU of the first
    feed-forward layer (``ff_keep``, (n, ff)), and the second feed-forward
    layer (``ff2_keep``, (n, d)).
    """
    n, d = x.shape
    heads = layer["heads"]
    dk = d // heads
    a = layer_norm_loops(x, layer["ln1_g"], layer["ln1_b"], eps)
    q = a @ layer["wq"] + layer["bq"]
    k = a @ layer["wk"]
    v = a @ layer["wv"] + layer["bv"]
    ctx = np.zeros((n, d))
    for h in range(heads):
        sl = slice(h * dk, (h + 1) * dk)
        scores = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                s = 0.0
                for t in range(dk):
                    s += q[i, sl][t] * k[j, sl][t]
                scores[i, j] = s / math.sqrt(dk)
                if mask[j] == 0:
                    scores[i, j] += -1e9
        w = softmax_rows(scores)
        if attn_keep is not None:
            w = w * attn_keep[h]
        for i in range(n):
            for t in range(dk):
                s = 0.0
                for j in range(n):
                    s += w[i, j] * v[j, sl][t]
                ctx[i, h * dk + t] = s
    attn_out = ctx @ layer["wo"] + layer["bo"]
    if out_keep is not None:
        attn_out = attn_out * out_keep
    x = x + attn_out
    f = layer_norm_loops(x, layer["ln2_g"], layer["ln2_b"], eps)
    f = np.maximum(f @ layer["w1"] + layer["b1"], 0.0)
    if ff_keep is not None:
        f = f * ff_keep
    f = f @ layer["w2"] + layer["b2"]
    if ff2_keep is not None:
        f = f * ff2_keep
    return x + f


# CRF label sets with no I- tag: the IOB transition mask is all zero for
# them, so enumeration with the raw transition scores is the exact reference
FREE_LABELS_BY_T = {
    1: ["O"],
    2: ["O", "B-a"],
    3: ["O", "B-a", "B-b"],
    4: ["O", "B-a", "B-b", "B-c"],
    5: ["O", "B-a", "B-b", "B-c", "B-d"],
}


def crf_paths(emissions, transitions, start, end):
    """Enumerate all T^n paths; return (log Z, best path, best score).

    Score ties resolve to the path whose REVERSED tag tuple is smallest,
    which is what lowest-tag-index backtracking from the end produces.
    """
    n, t = emissions.shape
    best_path, best_score = None, -np.inf
    scores = []
    for path in itertools.product(range(t), repeat=n):
        s = start[path[0]] + emissions[0, path[0]]
        for i in range(1, n):
            s += transitions[path[i - 1], path[i]] + emissions[i, path[i]]
        s += end[path[-1]]
        scores.append(s)
        if s > best_score or (s == best_score
                              and path[::-1] < tuple(best_path[::-1])):
            best_score, best_path = s, list(path)
    m = max(scores)
    total = m + math.log(sum(math.exp(s - m) for s in scores))
    return total, best_path, best_score


def viterbi_loops(emissions, transitions, start, end):
    """Per-sentence Viterbi in scalar loops: (best path, its score).

    Stores every back-pointer and walks them back from the best final tag.
    Takes the same float adds as the recursion it checks, so scores compare
    exactly; ties keep the lowest previous tag and the lowest final tag.
    """
    n, t = emissions.shape
    # Python floats are the same doubles as numpy's, and faster to index
    emissions, transitions = emissions.tolist(), transitions.tolist()
    start, end = start.tolist(), end.tolist()
    delta = [start[c] + emissions[0][c] for c in range(t)]
    back = []
    for i in range(1, n):
        new, ptr = [], []
        for c in range(t):
            best = 0
            for p in range(1, t):
                if delta[p] + transitions[p][c] > delta[best] + transitions[best][c]:
                    best = p
            ptr.append(best)
            new.append(delta[best] + transitions[best][c] + emissions[i][c])
        delta = new
        back.append(ptr)
    final = [delta[c] + end[c] for c in range(t)]
    tag = max(range(t), key=lambda c: (final[c], -c))
    path = [tag]
    for ptr in reversed(back):
        path.append(ptr[path[-1]])
    return path[::-1], final[tag]


def featurize_by_token(tables, split, sentences):
    """Batch table indices built token by token: every token of every
    sentence gets its own rows, the sentences' rows are concatenated, and
    then each distinct word keeps the cells of its first occurrence.

    ``split(table, word)`` gives the word's pieces for a table.  A piece
    reads its exact row, then its lowercase row, else -1.  Returns
    [(idx, count)] per table, like the model's ``Lookup`` for the batch's
    distinct words in order of first occurrence, and each table's misses
    over every token.
    """
    words = [w for sent in sentences for w in sent.words]
    first = [words.index(w) for w in dict.fromkeys(words)]
    per_table, misses = [], []
    for table in tables:
        idx, count, miss = [], [], []
        for w in words:
            pieces = split(table, w)
            count.append(len(pieces))
            miss.append(0)
            for p in pieces:
                row = table.vocab.get(p, table.vocab.get(p.lower()))
                if row is None:
                    miss[-1] += 1
                idx.append(-1 if row is None else row)
        starts = np.cumsum([0] + count)
        cells = [c for i in first for c in range(starts[i], starts[i + 1])]
        per_table.append((np.array(idx, dtype=np.int64)[cells],
                          np.array(count, dtype=np.int64)[first]))
        misses.append(sum(miss))
    return per_table, misses


def entity_spans_by_hand(tags):
    """Reference IOB span extraction: list of (start, end_exclusive, type)."""
    spans = []
    start, etype = None, None
    for i, tag in enumerate(tags + ["O"]):
        if tag.startswith("B-") or tag == "O" or (
                tag.startswith("I-") and etype != tag[2:]):
            if start is not None:
                spans.append((start, i, etype))
                start, etype = None, None
            if tag.startswith("B-") or tag.startswith("I-"):
                start, etype = i, tag[2:]
    return spans


CONLL_TAG = re.compile(r"[BI]-[A-Za-z0-9_.]+|O")


def read_conll_by_line(path, labeled, word_of):
    """Reference CoNLL reader, one line at a time: ``(raw tokens, words,
    labels, repairs)`` per sentence, labels ``None`` when not ``labeled``.

    Universal newlines; a blank line ends a sentence.  A labeled line is
    "token<TAB>tag" with a non-empty token and a tag of ``CONLL_TAG``; an
    unlabeled line's token is what precedes its first tab and must not be
    empty.  The first bad line raises ``ValueError`` with the readers'
    message.  An I-x tag whose previous tag (after repair; "O" before the
    first) is neither B-x nor I-x becomes B-x and counts one repair.
    """
    sentences, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                if rows:
                    sentences.append(rows)
                rows = []
                continue
            fields = line.split("\t")
            if not labeled:
                if not fields[0]:
                    raise ValueError(f"{path}:{lineno}: empty token")
                rows.append((fields[0], None))
                continue
            if len(fields) != 2 or not fields[0]:
                raise ValueError(f"{path}:{lineno}: expected 'token<TAB>tag'")
            if not CONLL_TAG.fullmatch(fields[1]):
                raise ValueError(f"{path}:{lineno}: unknown tag {fields[1]!r}")
            rows.append(tuple(fields))
    if rows:
        sentences.append(rows)
    out = []
    for rows in sentences:
        raw = [token for token, _ in rows]
        words = [word_of(token) for token in raw]
        if not labeled:
            out.append((raw, words, None, 0))
            continue
        labels, repairs, prev = [], 0, "O"
        for _, tag in rows:
            if tag.startswith("I-") and prev not in ("B-" + tag[2:], "I-" + tag[2:]):
                tag = "B-" + tag[2:]
                repairs += 1
            labels.append(tag)
            prev = tag
        out.append((raw, words, labels, repairs))
    return out
