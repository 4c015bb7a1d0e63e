"""Independent reference implementations used to check the library.

Everything here is written with plain loops / direct formulas and must not
call back into the code paths it verifies.
"""

import itertools
import math

import numpy as np


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
    shared unknown row under ``trainable_unk`` or zeros otherwise."""
    idx = table.vocab.get(token)
    if idx is None:
        idx = table.vocab.get(token.lower())
    if idx is None:
        if table.oov_policy != "trainable_unk" or table.unk_index is None:
            return np.zeros(table.dim)
        idx = table.unk_index
    return table.vectors.data[idx].copy()


def pad_rows(seqs, rng=None):
    """Stack variable-length (m_i, d) arrays into (n, m_max, d) plus the
    (n, m_max) mask with 1.0 at real rows.  Padding cells are zero, or random
    normal values when ``rng`` is given (they must not affect the result)."""
    m = max(len(s) for s in seqs)
    d = seqs[0].shape[1]
    out = np.zeros((len(seqs), m, d)) if rng is None else rng.normal(size=(len(seqs), m, d))
    mask = np.zeros((len(seqs), m))
    for i, s in enumerate(seqs):
        out[i, :len(s)] = s
        mask[i, :len(s)] = 1.0
    return out, mask


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


def transformer_layer_loops(x, mask, layer, eps=1e-5):
    """One pre-norm encoder layer evaluated with explicit loops (eval mode).

    x: (n, d); mask: (n,) with 1 for real positions; ``layer`` carries numpy
    weights with keys ln1_g, ln1_b, wq, bq, wk, bk, wv, bv, wo, bo, ln2_g,
    ln2_b, w1, b1, w2, b2 and the head count in "heads".
    """
    n, d = x.shape
    heads = layer["heads"]
    dk = d // heads
    a = layer_norm_loops(x, layer["ln1_g"], layer["ln1_b"], eps)
    q = a @ layer["wq"] + layer["bq"]
    k = a @ layer["wk"] + layer["bk"]
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
        for i in range(n):
            for t in range(dk):
                s = 0.0
                for j in range(n):
                    s += w[i, j] * v[j, sl][t]
                ctx[i, h * dk + t] = s
    attn_out = ctx @ layer["wo"] + layer["bo"]
    x = x + attn_out
    f = layer_norm_loops(x, layer["ln2_g"], layer["ln2_b"], eps)
    f = np.maximum(f @ layer["w1"] + layer["b1"], 0.0)
    f = f @ layer["w2"] + layer["b2"]
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
