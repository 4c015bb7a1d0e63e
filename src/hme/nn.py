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

# additive mask value standing in for -inf
NEG_LARGE = -1e9


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Linear:
    """Affine map x @ W + b with Xavier-uniform W and zero bias."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.weight = Tensor(xavier_uniform(rng, in_dim, out_dim), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add(ad.matmul(x, self.weight), self.bias)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class LayerNorm:
    """Last-axis normalization with trainable gain and bias."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add(ad.mul(ad.layer_norm(x, self.eps), self.gain), self.bias)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.gain": self.gain, f"{prefix}.bias": self.bias}


class Dropout:
    """Dropout whose mask stream is keyed by (seed, instance, step, call).

    The owning model assigns ``seed`` and ``instance`` once and advances
    ``step`` every optimizer step, which makes training runs replayable.
    """

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.seed = 0
        self.instance = 0
        self.step = 0
        self._calls = 0

    def begin_step(self, step: int) -> None:
        self.step = step
        self._calls = 0

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        if not train or self.p == 0.0:
            return x
        key = np.random.SeedSequence((self.seed, self.instance, self.step, self._calls))
        self._calls += 1
        rng = np.random.Generator(np.random.Philox(key))
        return ad.dropout(x, self.p, True, rng)


def assign_dropout_keys(dropouts: list[Dropout], seed: int) -> None:
    for i, d in enumerate(dropouts):
        d.seed = seed
        d.instance = i


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Standard sin/cos position encodings, shape (length, dim)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * np.floor(i / 2.0)) / dim)
    pe = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return pe


def pack_slots(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pack the C nonzero cells of ``mask`` in row-major order.

    Returns their flat indices and ``slot``, shaped like ``mask``: the packed
    row of each real cell, and C, C + 1, ... for the padding cells in the
    same order, so that ``unpack`` is a permutation and its gradient a plain
    scatter.
    """
    flat = mask.reshape(-1)
    real = np.flatnonzero(flat)
    slot = np.empty(flat.size, dtype=np.int64)
    slot[real] = np.arange(real.size)
    slot[flat == 0.0] = np.arange(real.size, flat.size)
    return real, slot.reshape(mask.shape)


def unpack(x: Tensor, slot: np.ndarray) -> Tensor:
    """Scatter packed (C, d) rows to ``slot.shape + (d,)``, zeros at padding."""
    pad = Tensor(np.zeros((slot.size - x.shape[0], x.shape[-1])))
    return ad.take(ad.concat([x, pad], axis=0), slot)


class EncoderLayer:
    """Pre-norm transformer block: self-attention then feed-forward.

        a = LN1(x);  attn = softmax(q kT / sqrt(dk) + mask) v
        x = x + Drop(Wo(attn))
        f = LN2(x);  x = x + Drop(W2(Drop(relu(W1(f)))))

    ``x`` holds only the C real positions, packed as (C, d) rows, and every
    per-position op runs on them.  Only the attention scores use the padded
    (batch, heads, n, n) layout: q, k and v are gathered into it with zero
    vectors at padding, and the context is gathered back to the packed rows.
    """

    def __init__(self, d_model: int, heads: int, ff_dim: int, p_drop: float,
                 rng: np.random.Generator):
        if d_model % heads != 0:
            raise ValueError(f"d_model {d_model} not divisible by heads {heads}")
        self.d_model = d_model
        self.heads = heads
        self.ln1 = LayerNorm(d_model)
        self.wq = Linear(d_model, d_model, rng)
        self.wk = Linear(d_model, d_model, rng)
        self.wv = Linear(d_model, d_model, rng)
        self.wo = Linear(d_model, d_model, rng)
        self.ln2 = LayerNorm(d_model)
        self.ff1 = Linear(d_model, ff_dim, rng)
        self.ff2 = Linear(ff_dim, d_model, rng)
        self.drop_attn = Dropout(p_drop)
        self.drop_attn_out = Dropout(p_drop)
        self.drop_ff_mid = Dropout(p_drop)
        self.drop_ff_out = Dropout(p_drop)

    def __call__(self, x: Tensor, attn_bias: Tensor, head_rows: np.ndarray,
                 ctx_rows: np.ndarray, train: bool) -> Tensor:
        """``x`` is (C, d).  ``head_rows`` (batch, heads, n) gathers the C rows
        plus one zero row per padding position, split into heads of dk
        values, into the padded layout; ``ctx_rows`` (C, heads) gathers the
        real positions' heads back out of the (batch, heads, n, dk) context."""
        c, d = x.shape
        batch, h, n = head_rows.shape
        dk = d // h
        zeros = Tensor(np.zeros((batch * n - c, d)))

        def to_heads(t: Tensor) -> Tensor:
            rows = ad.reshape(ad.concat([t, zeros], axis=0), (batch * n * h, dk))
            return ad.take(rows, head_rows)             # (batch, h, n, dk)

        a = self.ln1(x)
        q, k, v = to_heads(self.wq(a)), to_heads(self.wk(a)), to_heads(self.wv(a))
        scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dk))
        scores = ad.add(scores, attn_bias)
        weights = self.drop_attn(ad.softmax(scores, axis=-1), train)
        ctx = ad.matmul(weights, v)
        ctx = ad.reshape(ad.take(ad.reshape(ctx, (-1, dk)), ctx_rows), (c, d))
        x = ad.add(x, self.drop_attn_out(self.wo(ctx), train))

        f = ad.relu(self.ff1(self.ln2(x)))
        f = self.ff2(self.drop_ff_mid(f, train))
        return ad.add(x, self.drop_ff_out(f, train))

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name in ("ln1", "wq", "wk", "wv", "wo", "ln2", "ff1", "ff2"):
            out.update(getattr(self, name).parameters(f"{prefix}.{name}"))
        return out

    def dropouts(self) -> list[Dropout]:
        return [self.drop_attn, self.drop_attn_out, self.drop_ff_mid, self.drop_ff_out]


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
        self.input_dim = input_dim
        self.d_model = d_model
        self.num_layers = num_layers
        self.proj = Linear(input_dim, d_model, rng) if input_dim != d_model else None
        self.layers = [
            EncoderLayer(d_model, heads, ff_dim or 4 * d_model, p_drop, rng)
            for _ in range(num_layers)
        ]
        self.final_ln = LayerNorm(d_model) if num_layers > 0 else None
        self._pe_cache = sinusoidal_positions(64, d_model)

    def _pe(self, n: int) -> np.ndarray:
        if n > self._pe_cache.shape[0]:
            self._pe_cache = sinusoidal_positions(n, self.d_model)
        return self._pe_cache[:n]

    def __call__(self, x: Tensor, mask: np.ndarray, train: bool = False) -> Tensor:
        if x.ndim != 2 or mask.ndim != 2 or x.shape[0] != mask.sum():
            raise ShapeError(f"encoder input {x.shape} is not one row per real "
                             f"cell of a (batch, n) mask with {mask.sum():g}")
        if self.proj is not None:
            x = self.proj(x)
        if self.num_layers == 0:
            return x

        batch, n = mask.shape
        real, slot = pack_slots(mask)
        heads = self.layers[0].heads
        head_rows = slot[:, None, :] * heads + np.arange(heads)[None, :, None]
        ctx_rows = ((real // n)[:, None] * heads + np.arange(heads)) * n + (real % n)[:, None]
        attn_bias = Tensor(np.ascontiguousarray(np.broadcast_to(
            ((1.0 - mask) * NEG_LARGE)[:, None, None, :], (batch, heads, n, n))))

        x = ad.add(x, Tensor(self._pe(n)[real % n]))
        for layer in self.layers:
            x = layer(x, attn_bias, head_rows, ctx_rows, train)
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

    def dropouts(self) -> list[Dropout]:
        return [d for layer in self.layers for d in layer.dropouts()]
