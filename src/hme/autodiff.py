"""Dense tensors with tape-based reverse-mode automatic differentiation.

Everything downstream (projections, attention, transformer layers) is built
from the operations in this module; the CRF records its log-likelihood as one
op of its own through ``_record``.  Design rules:

* eager evaluation on float64 numpy arrays,
* an explicit ``Tape`` that records ops in execution order; ``backward``
  consumes it in exact reverse order, dropping each record once its vjp has
  run, so the graph is freed during the pass,
* only leaves get ``.grad``: tensors that require a gradient and that no op
  produced (parameters, trainable tables); op outputs get none,
* ops save what their vjp reads (mostly inputs the tape already holds), not
  copies derived from it,
* no implicit broadcasting: ``add`` and ``mul`` take operands of one shape,
  and ``matmul`` operands of equal rank (at least 2) with equal leading
  dims; any other shapes raise ``ShapeError``,
* outputs stay finite: ops that can overflow check for NaN/Inf and raise
  ``NumericsError``; the rest provably preserve finiteness.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor", "Tape", "ShapeError", "NumericsError",
    "matmul", "add", "mul", "scale", "concat", "reshape", "take",
    "segment_mean", "tanh", "relu", "softmax", "tensor_sum", "dropout", "keep_mask",
    "layer_norm", "linear", "attention", "backward",
]


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class NumericsError(FloatingPointError):
    """An operation produced NaN or Inf from finite inputs."""


def _check_finite(arr: np.ndarray, op: str) -> None:
    """Raise on NaN/Inf.  Structural and bounded ops (reshape, take, tanh,
    softmax, relu, dropout, ...) preserve finiteness and skip this check;
    arithmetic ops that can overflow call it on their outputs."""
    # cheap screen first: any NaN/Inf makes the sum non-finite; a non-finite
    # sum from cancellation of finite values is caught by the exact re-check
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(arr.sum()):
            return
        if not np.all(np.isfinite(arr)):
            raise NumericsError(f"{op} produced non-finite values")


def _contig(arr) -> np.ndarray:
    """C-contiguous ndarray view/copy that preserves 0-d shapes."""
    arr = np.asarray(arr)
    if arr.flags["C_CONTIGUOUS"]:
        return arr
    return np.ascontiguousarray(arr)


class Tape:
    """Ordered record of executed ops and their vector-Jacobian closures.

    Must be active (as a context manager) while building any graph that will
    be differentiated, and ``backward`` must run before the context exits.
    ``backward`` consumes the records, freeing the graph as it goes, and may
    run once per tape; leaving the block drops whatever records are left.
    Dropping them breaks the tensor/tape reference cycles, so graphs are
    freed by reference counting instead of piling up for the cyclic
    collector.  ``len`` counts every record made, dropped or not.  Not safe
    for concurrent use.
    """

    _active: "Tape | None" = None

    def __init__(self):
        self._records: list[tuple["Tensor", tuple["Tensor", ...], object]] = []
        self._dropped = 0
        self._closed = False
        self._consumed = False

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise RuntimeError("a Tape is already active; nesting is not supported")
        Tape._active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape._active = None
        self._closed = True
        self._dropped += len(self._records)
        self._records.clear()
        return False

    def __len__(self) -> int:
        return self._dropped + len(self._records)


class Tensor:
    """A dense real-valued array plus an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = _contig(np.asarray(data, dtype=np.float64))
        _check_finite(arr, "tensor creation")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_BOUNDED_OPS = frozenset({
    "reshape", "take", "concat", "dropout", "tanh", "softmax", "relu",
})


def _record(out_data: np.ndarray, inputs: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """Wrap op output; register on the active tape when a gradient is needed."""
    if op not in _BOUNDED_OPS:
        _check_finite(out_data, op)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out._tape = None
    out.requires_grad = False
    tape = Tape._active
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        tape._records.append((out, inputs, vjp))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every leaf on the path:
    each tensor that requires a gradient and that no op on the tape produced.

    ``loss`` must be a scalar recorded on a tape that is still open.  The
    pass consumes the tape: each record is dropped once its vjp has run, so
    the step's activations and intermediate gradients are freed as it goes,
    and op outputs get no ``.grad``.  A second call on the same tape raises
    ``RuntimeError``; gradients of losses on separate tapes accumulate on the
    leaves until ``zero_grad``.  Gradient buffers may share storage between
    tensors; replace them instead of mutating them in place.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise RuntimeError("loss was not recorded on an active Tape")
    if tape._closed:
        raise RuntimeError("the recording Tape has already exited")
    if tape._consumed:
        raise RuntimeError("backward already ran on this Tape")
    tape._consumed = True

    records, tape._records = tape._records, []
    tape._dropped += len(records)
    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    while records:
        out, inputs, vjp = records.pop()
        g = pending.pop(id(out), None)
        if g is None:
            continue
        holders.pop(id(out), None)
        for t, gt in zip(inputs, vjp(g)):
            if gt is None or not t.requires_grad:
                continue
            key = id(t)
            if key in pending:
                pending[key] = pending[key] + gt
            else:
                pending[key] = gt
                holders[key] = t
    # whatever is left never appeared as an op output: these are the leaves.
    # Adopt the buffer on first write; accumulation allocates rather than
    # mutating, because grad buffers may be shared between tensors
    for key, g in pending.items():
        leaf = holders[key]
        leaf.grad = g if leaf.grad is None else leaf.grad + g


# ---------------------------------------------------------------------------
# core ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes of operands of equal rank (at
    least 2) whose leading axes agree."""
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul needs operands of equal rank >= 2 and equal "
                         f"leading dims, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    out = np.matmul(a_data, b_data)

    def vjp(g):
        return (np.matmul(g, np.swapaxes(b_data, -1, -2)),
                np.matmul(np.swapaxes(a_data, -1, -2), g))

    return _record(out, (a, b), vjp, "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of packed (N, k) rows as one op."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear needs (N, k) @ (k, n) + (n,), got "
                         f"{x.shape} @ {w.shape} + {b.shape}")
    x_data, w_data = x.data, w.data
    out = x_data @ w_data
    out += b.data

    def vjp(g):
        gx = g @ w_data.T if x.requires_grad else None
        return gx, x_data.T @ g, g.sum(axis=0)

    return _record(out, (x, w, b), vjp, "linear")


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    _same_shape(a, b, "add")

    def vjp(g):
        return g, g

    return _record(a.data + b.data, (a, b), vjp, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of two tensors of one shape."""
    _same_shape(a, b, "mul")
    a_data, b_data = a.data, b.data

    def vjp(g):
        return g * b_data, g * a_data

    return _record(a_data * b_data, (a, b), vjp, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = a.data * c

    def vjp(g):
        return (g * c,)

    return _record(out, (a,), vjp, "scale")


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of empty list")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    split_at = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, split_at, axis=axis))

    return _record(out, tuple(tensors), vjp, "concat")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    in_shape = a.shape

    def vjp(g):
        return (g.reshape(in_shape),)

    return _record(_contig(out), (a,), vjp, "reshape")


def take(a: Tensor, indices) -> Tensor:
    """Gather rows along axis 0; repeated indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError("take: index out of range")
    out = a.data[idx]
    a_shape = a.shape

    def vjp(g):
        # scatter-add via one bincount pass; much faster than np.add.at
        d = int(np.prod(a_shape[1:])) if len(a_shape) > 1 else 1
        keys = (idx.reshape(-1)[:, None] * d + np.arange(d)).ravel()
        ga = np.bincount(keys, weights=g.reshape(-1), minlength=a_shape[0] * d)
        return (ga.reshape(a_shape).astype(g.dtype, copy=False),)

    return _record(_contig(out), (a,), vjp, "take")


def segment_mean(x: Tensor, counts) -> Tensor:
    """Mean of each run of ``counts[i]`` consecutive rows of packed (C, d)
    rows, as (len(counts), d); every count is at least 1 and they sum to C."""
    n = np.asarray(counts, dtype=np.int64)
    if x.ndim != 2 or n.ndim != 1 or not n.size or n.min() < 1 or n.sum() != x.shape[0]:
        raise ShapeError(f"segment_mean: counts must be positive and tile the rows "
                         f"of {x.shape}, got {n.size} summing to {n.sum()}")
    starts = np.cumsum(n) - n
    out = np.add.reduceat(x.data, starts, axis=0) / n[:, None]

    def vjp(g):
        return (np.repeat(g / n[:, None], n, axis=0),)

    return _record(out, (x,), vjp, "segment_mean")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _record(out, (a,), vjp, "tanh")


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (out > 0),)

    return _record(out, (a,), vjp, "relu")


def _softmax_data(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax (max-subtraction) along ``axis``."""
    out = _softmax_data(a.data, axis)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _record(out, (a,), vjp, "softmax")


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    in_shape = a.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, in_shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, in_shape).copy(),)

    return _record(_contig(out), (a,), vjp, "sum")


def keep_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean dropout keep-mask: one little-endian uint16 word per cell from
    ``rng.bytes``, kept where it is at least ``round(p * 2**16)``.

    The drop probability is therefore realised as ``round(p * 65536) / 65536``
    (0.1 becomes 0.1000061).
    """
    size = int(np.prod(shape))
    words = np.frombuffer(rng.bytes(2 * size), dtype="<u2")
    return (words >= round(p * 65536)).reshape(shape)


def _drop(x: np.ndarray, keep: np.ndarray, p: float) -> np.ndarray:
    """The one rule that applies a keep-mask: ``x * keep * 1/(1-p)``."""
    out = x * keep
    out *= 1.0 / (1.0 - p)
    return out


def dropout(a: Tensor, keep: tuple[np.ndarray, float]) -> Tensor:
    """Inverted dropout with ``keep``, a keep-mask of ``a``'s shape and its p
    (see ``keep_mask``): keeps the mask's cells and scales them by 1/(1-p)."""
    mask, p = keep

    def vjp(g):
        return (_drop(g, mask, p),)

    return _record(_drop(a.data, mask, p), (a,), vjp, "dropout")


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale by
    ``gain`` and shift by ``bias`` (both shaped like that axis)."""
    if gain.shape != a.shape[-1:] or bias.shape != a.shape[-1:]:
        raise ShapeError(f"layer_norm of {a.shape} needs gain and bias of "
                         f"{a.shape[-1:]}, got {gain.shape} and {bias.shape}")
    a_data = a.data
    mu = a_data.mean(axis=-1, keepdims=True)
    var = a_data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    gain_data = gain.data
    out = (a_data - mu) * inv
    out *= gain_data
    out += bias.data

    def vjp(g):
        xhat = (a_data - mu) * inv
        gx = g * gain_data
        g_mean = gx.mean(axis=-1, keepdims=True)
        gx_mean = (gx * xhat).mean(axis=-1, keepdims=True)
        lead = tuple(range(g.ndim - 1))
        return (inv * (gx - g_mean - xhat * gx_mean),
                (g * xhat).sum(axis=lead), g.sum(axis=lead))

    return _record(out, (a, gain, bias), vjp, "layer_norm")


# additive score for a padding key, standing in for -inf
NEG_LARGE = -1e9


def attention(q: Tensor, k: Tensor, v: Tensor, head_rows: np.ndarray,
              key_mask: np.ndarray, scale: float,
              keep: tuple[np.ndarray, float] | None = None) -> Tensor:
    """Masked multi-head self-attention over packed rows, as one op.

    ``q``, ``k`` and ``v`` are (C, d): the C real cells of the (batch, n)
    ``key_mask``, in row-major order.  ``head_rows`` (C, heads) holds the
    flat position of each cell's heads, d / heads values each, in the padded
    (batch, heads, n, dk) layout; padding cells are zero vectors there.  In
    that layout the scores ``scale * q kT`` get NEG_LARGE at padding keys
    through a (batch, 1, 1, n) bias, a softmax over the keys and, when
    ``keep`` holds a (batch, heads, n, n) keep-mask and its p, dropout on the
    weights.  The real cells' heads of the weighted values are gathered back
    into the packed (C, d) result.
    """
    c, d = q.shape
    batch, n = key_mask.shape
    h = head_rows.shape[-1]
    if k.shape != q.shape or v.shape != q.shape or head_rows.shape != (c, h) or d % h:
        raise ShapeError(f"attention: packed rows {q.shape}, {k.shape}, {v.shape} "
                         f"do not match head rows {head_rows.shape}")
    dk = d // h
    rows = head_rows.reshape(-1)

    def to_heads(t: np.ndarray) -> np.ndarray:
        out = np.zeros((batch * h * n, dk))
        out[rows] = t.reshape(-1, dk)
        return out.reshape(batch, h, n, dk)

    def to_rows(t: np.ndarray) -> np.ndarray:
        return t.reshape(-1, dk)[rows].reshape(c, d)

    q_data, k_data, v_data = q.data, k.data, v.data
    scores = to_heads(q_data) @ np.swapaxes(to_heads(k_data), -1, -2)
    scores *= scale
    scores += ((1.0 - key_mask) * NEG_LARGE)[:, None, None, :]
    _check_finite(scores, "attention")
    weights = _softmax_data(scores, -1)
    dropped = weights if keep is None else _drop(weights, *keep)

    def vjp(g):
        # re-scatter the padded heads from the packed inputs the tape holds
        # anyway, rather than keep three padded copies alive until backward
        g_ctx = to_heads(g)
        g_w = g_ctx @ np.swapaxes(to_heads(v_data), -1, -2)
        if keep is not None:
            g_w = _drop(g_w, *keep)
        g_s = weights * (g_w - (g_w * weights).sum(axis=-1, keepdims=True))
        g_s *= scale
        return (to_rows(g_s @ to_heads(k_data)),
                to_rows(np.swapaxes(g_s, -1, -2) @ to_heads(q_data)),
                to_rows(np.swapaxes(dropped, -1, -2) @ g_ctx))

    return _record(to_rows(dropped @ to_heads(v_data)), (q, k, v), vjp, "attention")
