"""Trainable layers built on the autodiff core.

Sequence batches travel packed: the C real cells of a (batch, n) mask, in
row-major order, as (C, dim) rows.  All parameters are initialized from the
generator passed at construction time, so construction order fixes the
initialization.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Linear:
    """Affine map x @ W + b with Xavier-uniform W and zero bias."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.weight = Tensor(xavier_uniform(rng, in_dim, out_dim), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class LayerNorm:
    """Last-axis normalization with trainable gain and bias."""

    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.gain": self.gain, f"{prefix}.bias": self.bias}


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Standard sin/cos position encodings, shape (length, dim)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * np.floor(i / 2.0)) / dim)
    pe = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return pe


class EncoderLayer:
    """Pre-norm transformer block: self-attention then feed-forward.

        a = LN1(x);  attn = Drop(softmax(q kT / sqrt(dk) + mask)) v
        x = x + Drop(Wo(attn))
        f = LN2(x);  x = x + Drop(W2(Drop(relu(W1(f)))))

    ``x`` holds only the C real positions, packed as (C, d) rows, and every
    per-position op runs on them.  Only ``ad.attention`` uses the padded
    (batch, heads, n, n) layout, inside the one op.  Training draws the four
    dropout masks (``ad.keep_mask``, probability ``p_drop``) from the step's
    generator in that order: attention weights, ``Wo``, ``relu``, ``W2``.
    """

    def __init__(self, d_model: int, heads: int, ff_dim: int, p_drop: float,
                 rng: np.random.Generator):
        if d_model % heads != 0:
            raise ValueError(f"d_model {d_model} not divisible by heads {heads}")
        if not 0.0 <= p_drop < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p_drop}")
        self.d_model = d_model
        self.heads = heads
        self.ln1 = LayerNorm(d_model)
        self.wq = Linear(d_model, d_model, rng)
        # keys need no bias: it adds the same q . b to every score of a
        # query, which the softmax ignores
        self.wk = Tensor(xavier_uniform(rng, d_model, d_model), requires_grad=True)
        self.wv = Linear(d_model, d_model, rng)
        self.wo = Linear(d_model, d_model, rng)
        self.ln2 = LayerNorm(d_model)
        self.ff1 = Linear(d_model, ff_dim, rng)
        self.ff2 = Linear(ff_dim, d_model, rng)
        self.p_drop = p_drop

    def __call__(self, x: Tensor, mask: np.ndarray, head_rows: np.ndarray,
                 rng: np.random.Generator | None) -> Tensor:
        """``x`` is (C, d), the real cells of the (batch, n) ``mask``;
        ``head_rows`` (C, heads) places their heads in the padded layout
        (see ``ad.attention``).  ``rng`` draws the dropout masks; None is
        evaluation."""
        batch, n = mask.shape
        a = self.ln1(x)
        p = self.p_drop
        keep = ad.keep_mask((batch, self.heads, n, n), p, rng)
        ctx = ad.attention(self.wq(a), ad.matmul(a, self.wk), self.wv(a), head_rows,
                           mask, 1.0 / math.sqrt(self.d_model // self.heads), keep)
        x = ad.add(x, ad.dropout(self.wo(ctx), p, rng))

        f = ad.relu(self.ff1(self.ln2(x)))
        f = self.ff2(ad.dropout(f, p, rng))
        return ad.add(x, ad.dropout(f, p, rng))

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        out = self.ln1.parameters(f"{prefix}.ln1")
        out.update(self.wq.parameters(f"{prefix}.wq"))
        out[f"{prefix}.wk.weight"] = self.wk
        for name in ("wv", "wo", "ln2", "ff1", "ff2"):
            out.update(getattr(self, name).parameters(f"{prefix}.{name}"))
        return out


class TransformerEncoder:
    """Stack of pre-norm encoder layers with sinusoidal position encodings.

    ``x`` holds the C real cells of the (batch, n) ``mask`` as packed
    (C, input_dim) rows in row-major order, and the output is the matching
    (C, d_model) rows.  An input projection maps ``input_dim`` to ``d_model``
    when they differ.  With ``num_layers == 0`` the stack reduces to that
    projection (or the identity), with no position encodings added.
    """

    def __init__(self, input_dim: int, d_model: int, num_layers: int, heads: int,
                 rng: np.random.Generator, ff_dim: int | None = None,
                 p_drop: float = 0.1):
        self.d_model = d_model
        self.num_layers = num_layers
        self.proj = Linear(input_dim, d_model, rng) if input_dim != d_model else None
        self.layers = [
            EncoderLayer(d_model, heads, ff_dim or 4 * d_model, p_drop, rng)
            for _ in range(num_layers)
        ]
        self.final_ln = LayerNorm(d_model) if num_layers > 0 else None
        # the encodings of the first positions, computed in float64, per dtype
        self._pe_cache: dict[np.dtype, np.ndarray] = {}

    def _pe(self, n: int, dtype: np.dtype) -> np.ndarray:
        pe = self._pe_cache.get(dtype)
        if pe is None or n > pe.shape[0]:
            pe = sinusoidal_positions(max(n, 64), self.d_model).astype(dtype)
            self._pe_cache[dtype] = pe
        return pe[:n]

    def __call__(self, x: Tensor, mask: np.ndarray,
                 rng: np.random.Generator | None = None) -> Tensor:
        """``rng`` draws every dropout mask of the stack, in layer order; None
        is evaluation and draws nothing."""
        if x.ndim != 2 or mask.ndim != 2 or x.shape[0] != mask.sum():
            raise ShapeError(f"encoder input {x.shape} is not one row per real "
                             f"cell of a (batch, n) mask with {mask.sum():g}")
        if self.proj is not None:
            x = self.proj(x)
        if self.num_layers == 0:
            return x

        n = mask.shape[1]
        real = np.flatnonzero(mask)
        heads = self.layers[0].heads
        head_rows = ((real // n)[:, None] * heads + np.arange(heads)) * n + (real % n)[:, None]

        x = ad.add(x, Tensor(self._pe(n, x.data.dtype)[real % n]))
        for layer in self.layers:
            x = layer(x, mask, head_rows, rng)
        return self.final_ln(x)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        if self.proj is not None:
            out.update(self.proj.parameters(f"{prefix}.proj"))
        for i, layer in enumerate(self.layers):
            out.update(layer.parameters(f"{prefix}.layer{i}"))
        if self.final_ln is not None:
            out.update(self.final_ln.parameters(f"{prefix}.final_ln"))
        return out
