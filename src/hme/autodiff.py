"""Dense tensors with tape-based reverse-mode automatic differentiation.

Everything downstream (projections, attention, transformer layers, CRF) is
built from the operations in this module.  Design rules:

* eager evaluation on float64 numpy arrays,
* an explicit ``Tape`` that records ops in execution order; ``backward``
  replays it in exact reverse order,
* broadcasting is restricted to "suffix" shapes (a trailing bias vector or
  a scalar); any other shape mismatch raises ``ShapeError``,
* outputs stay finite: ops that can overflow check for NaN/Inf and raise
  ``NumericsError``; the rest provably preserve finiteness.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor", "Tape", "ShapeError", "NumericsError",
    "matmul", "add", "sub", "mul", "scale", "concat", "reshape",
    "transpose", "take", "tanh", "relu", "softmax", "logsumexp",
    "tensor_sum", "dropout", "layer_norm", "backward",
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
    be differentiated, and ``backward`` must run before the context exits:
    leaving the block drops the records, which breaks the tensor/tape
    reference cycles so graphs are freed by reference counting instead of
    piling up for the cyclic collector.  Not safe for concurrent use.
    """

    _active: "Tape | None" = None

    def __init__(self):
        self._records: list[tuple["Tensor", tuple["Tensor", ...], object]] = []
        self._length = 0
        self._closed = False

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise RuntimeError("a Tape is already active; nesting is not supported")
        Tape._active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape._active = None
        self._length = len(self._records)
        self._closed = True
        self._records.clear()
        return False

    def __len__(self) -> int:
        return self._length if self._closed else len(self._records)


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

    def __getitem__(self, key):
        return _getitem(self, key)


_BOUNDED_OPS = frozenset({
    "reshape", "transpose", "take", "slice", "concat", "dropout",
    "tanh", "softmax", "relu", "logsumexp", "layer_norm",
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


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # adopt the buffer on first write; accumulation allocates rather than
    # mutating, because grad buffers may be shared between tensors
    t.grad = g if t.grad is None else t.grad + g


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every tensor on the path.

    ``loss`` must be a scalar recorded on a tape that is still open.
    Repeated calls without ``zero_grad`` accumulate additively.  Gradient
    buffers may share storage between tensors; replace them instead of
    mutating them in place.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise RuntimeError("loss was not recorded on an active Tape")
    if tape._closed:
        raise RuntimeError("the recording Tape has already exited")

    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    for out, inputs, vjp in reversed(tape._records):
        g = pending.pop(id(out), None)
        if g is None:
            continue
        holders.pop(id(out), None)
        _accumulate(out, g)
        for t, gt in zip(inputs, vjp(g)):
            if gt is None or not t.requires_grad:
                continue
            key = id(t)
            if key in pending:
                pending[key] = pending[key] + gt
            else:
                pending[key] = gt
                holders[key] = t
    # whatever is left never appeared as an op output: these are the leaves
    for key, g in pending.items():
        _accumulate(holders[key], g)


# ---------------------------------------------------------------------------
# shape helpers

def _suffix_compatible(a_shape, b_shape) -> bool:
    """True when b is a trailing-suffix of a (covers bias vectors, scalars)."""
    k = len(b_shape)
    return k <= len(a_shape) and tuple(a_shape[len(a_shape) - k:]) == tuple(b_shape)


def _reduce_to_suffix(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over the leading axes that were broadcast."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Undo numpy-style broadcasting: sum g down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# core ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy stacking semantics on leading axes."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul requires at least 2-D operands")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data

    if b_data.ndim == 2 and a_data.ndim > 2:
        # stacked activations times one weight matrix: run flattened 2-D GEMMs
        # instead of strided batched products
        k, n = b_data.shape
        lead = a_data.shape[:-1]
        a2 = a_data.reshape(-1, k)
        out = (a2 @ b_data).reshape(lead + (n,))

        def vjp(g):
            g2 = g.reshape(-1, n)
            return (g2 @ b_data.T).reshape(a_data.shape), a2.T @ g2

        return _record(out, (a, b), vjp, "matmul")

    out = np.matmul(a_data, b_data)

    def vjp(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_data.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b_data.shape)
        return ga, gb

    return _record(out, (a, b), vjp, "matmul")


def _binary_shapes(a: Tensor, b: Tensor, op: str):
    if a.shape == b.shape:
        return
    if _suffix_compatible(a.shape, b.shape):
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not compatible "
                     "(only trailing-suffix broadcast is allowed)")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    out = a.data + b.data
    b_shape = b.shape

    def vjp(g):
        return g, _reduce_to_suffix(g, b_shape)

    return _record(out, (a, b), vjp, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")
    out = a.data - b.data
    b_shape = b.shape

    def vjp(g):
        return g, -_reduce_to_suffix(g, b_shape)

    return _record(out, (a, b), vjp, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product; b may be a trailing-suffix shape."""
    _binary_shapes(a, b, "mul")
    out = a.data * b.data
    a_data, b_data, b_shape = a.data, b.data, b.shape

    def vjp(g):
        return g * b_data, _reduce_to_suffix(g * a_data, b_shape)

    return _record(out, (a, b), vjp, "mul")


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


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = np.ascontiguousarray(np.transpose(a.data, axes))
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.ascontiguousarray(np.transpose(g, inverse)),)

    return _record(out, (a,), vjp, "transpose")


def take(a: Tensor, indices) -> Tensor:
    """Gather rows along axis 0; repeated indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError("take: index out of range")
    out = a.data[idx]
    a_shape = a.shape

    def vjp(g):
        flat_idx = idx.reshape(-1)
        if np.bincount(flat_idx, minlength=a_shape[0]).max(initial=0) <= 1:
            # each row gathered at most once: a plain scatter
            ga = np.zeros(a_shape, dtype=g.dtype)
            ga[flat_idx] = g.reshape((flat_idx.size,) + a_shape[1:])
            return (ga,)
        # scatter-add via one bincount pass; much faster than np.add.at
        d = int(np.prod(a_shape[1:])) if len(a_shape) > 1 else 1
        keys = (flat_idx[:, None] * d + np.arange(d)).ravel()
        ga = np.bincount(keys, weights=g.reshape(-1), minlength=a_shape[0] * d)
        return (ga.reshape(a_shape).astype(g.dtype, copy=False),)

    return _record(_contig(out), (a,), vjp, "take")


def _getitem(a: Tensor, key) -> Tensor:
    out = _contig(a.data[key])
    a_shape = a.shape

    def vjp(g):
        ga = np.zeros(a_shape, dtype=g.dtype)
        ga[key] += g
        return (ga,)

    return _record(out, (a,), vjp, "slice")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _record(out, (a,), vjp, "tanh")


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

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


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    """Stable log-sum-exp reduction along ``axis`` (axis removed)."""
    m = np.max(a.data, axis=axis, keepdims=True)
    out = np.squeeze(m, axis=axis) + np.log(np.exp(a.data - m).sum(axis=axis))
    soft = _softmax_data(a.data, axis)

    def vjp(g):
        return (soft * np.expand_dims(g, axis),)

    return _record(_contig(out), (a,), vjp, "logsumexp")


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    in_shape = a.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, in_shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, in_shape).copy(),)

    return _record(_contig(out), (a,), vjp, "sum")


def dropout(a: Tensor, p: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: eval mode is the identity, train mode scales by 1/(1-p).

    ``rng`` supplies the mask and is required in train mode so callers control
    reproducibility.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return a
    if rng is None:
        raise ValueError("dropout in train mode requires an rng")
    mask = (rng.random(a.shape) >= p).astype(a.data.dtype) / (1.0 - p)
    out = a.data * mask

    def vjp(g):
        return (g * mask,)

    return _record(out, (a,), vjp, "dropout")


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine part)."""
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv

    def vjp(g):
        g_mean = g.mean(axis=-1, keepdims=True)
        gx_mean = (g * xhat).mean(axis=-1, keepdims=True)
        return (inv * (g - g_mean - xhat * gx_mean),)

    return _record(xhat, (a,), vjp, "layer_norm")
