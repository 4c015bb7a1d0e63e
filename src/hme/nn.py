"""Trainable layers built on the autodiff core.

Shapes are batched as (N, seq, dim); a 2-D (seq, dim) input is promoted to a
batch of one.  All parameters are initialized from the generator passed at
construction time, so construction order fixes the initialization.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

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


class EncoderLayer:
    """Pre-norm transformer block: self-attention then feed-forward.

        a = LN1(x);  attn = softmax(q kT / sqrt(dk) + mask) v
        x = x + Drop(Wo(attn))
        f = LN2(x);  x = x + Drop(W2(Drop(relu(W1(f)))))
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

    def __call__(self, x: Tensor, attn_bias: Tensor, train: bool) -> Tensor:
        batch, n, d = x.shape
        h, dk = self.heads, self.d_model // self.heads

        a = self.ln1(x)
        q = ad.transpose(ad.reshape(self.wq(a), (batch, n, h, dk)), (0, 2, 1, 3))
        k = ad.transpose(ad.reshape(self.wk(a), (batch, n, h, dk)), (0, 2, 1, 3))
        v = ad.transpose(ad.reshape(self.wv(a), (batch, n, h, dk)), (0, 2, 1, 3))
        scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dk))
        scores = ad.add(scores, attn_bias)
        weights = self.drop_attn(ad.softmax(scores, axis=-1), train)
        ctx = ad.reshape(ad.transpose(ad.matmul(weights, v), (0, 2, 1, 3)), (batch, n, d))
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

    An input projection maps ``input_dim`` to ``d_model`` when they differ.
    With ``num_layers == 0`` the stack reduces to that projection (or the
    identity), with no position encodings added.  Padded positions receive
    zero attention weight and are zeroed in the output.
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

    def __call__(self, x: Tensor, mask: np.ndarray | None = None,
                 train: bool = False) -> Tensor:
        squeeze = x.ndim == 2
        if squeeze:
            x = ad.reshape(x, (1,) + x.shape)
        batch, n, _ = x.shape
        if mask is None:
            mask = np.ones((batch, n))
        mask = np.asarray(mask, dtype=np.float64)
        if mask.ndim == 1:
            mask = mask[None, :]

        if self.proj is not None:
            x = self.proj(x)
        if self.num_layers > 0:
            x = ad.add(x, Tensor(self._pe(n)))
            bias_row = (1.0 - mask) * NEG_LARGE              # (batch, n) over keys
            heads = self.layers[0].heads
            attn_bias = Tensor(np.ascontiguousarray(np.broadcast_to(
                bias_row[:, None, None, :], (batch, heads, n, n))))
            for layer in self.layers:
                x = layer(x, attn_bias, train)
            x = self.final_ln(x)
            x = ad.mul(x, Tensor(np.ascontiguousarray(
                np.broadcast_to(mask[:, :, None], x.shape))))
        return ad.reshape(x, x.shape[1:]) if squeeze else x

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
