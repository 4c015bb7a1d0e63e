"""Dense tensors with tape-based reverse-mode automatic differentiation.

Everything downstream (projections, attention, transformer layers) is built
from the operations in this module.  Whole sub-blocks run as single fused
ops: ``linear``, ``layer_norm``, ``attention``, and ``mix``, the softmax over
languages that weighs each level's embeddings.  The CRF records its
log-likelihood as one op of its own through ``_record``.  Design rules:

* eager evaluation on numpy arrays, float64 or float32: an op's output, the
  constants it makes and the gradients its vjp returns take its inputs'
  dtype, and a ``Tensor`` keeps a float32 array as float32 and makes
  anything else float64.  Under a Tape an op whose inputs mix dtypes
  raises ``TypeError``, so no op silently promotes a float32 step or its
  gradients to float64; prediction, with no Tape, pays no such check,
* an explicit ``Tape`` that records ops in execution order; ``backward``
  consumes it in exact reverse order, dropping each record once its vjp has
  run, so the graph is freed during the pass,
* only leaves get ``.grad``: tensors that require a gradient and that no op
  produced (parameters, trainable tables); op outputs get none,
* ops save what their vjp reads (mostly inputs the tape already holds), not
  copies derived from it,
* no implicit broadcasting: ``add`` takes operands of one shape, ``matmul``
  a (n, k) and a (k, m) operand, and ``concat`` operands of one rank that
  agree off the concat axis; any other shapes raise ``ShapeError``,
* batching never changes a result: an op's output row depends only on its
  own input row and, in ``attention``, its own sequence, so a sequence
  computed alone gets the same bits as inside a ragged batch.  Reductions
  run along a leading axis, as ``np.einsum`` row sums, or, in ``mix``, over
  each row's L scores, never as a matrix-vector product with ones, whose
  rounding depends on the number of rows.  BLAS matmuls keep the rule only
  while they sum each inner product in one order whatever the matrix shape,
  which OpenBLAS does not for wide attention heads,
* finiteness is checked where a step or a prediction batch ends, never by
  an op: ``backward`` refuses a non-finite loss with ``NumericsError``
  naming the first recorded op whose output is not finite, and prediction
  refuses a chunk's non-finite emissions.  A NaN or Inf that a later op
  saturates (``relu`` of -inf, ``tanh`` of +-inf) raises nowhere.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor", "Tape", "ShapeError", "NumericsError",
    "matmul", "add", "scale", "concat", "take", "segment_mean", "tanh", "relu",
    "mix", "dropout", "keep_mask", "layer_norm", "linear", "attention", "backward",
]


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class NumericsError(FloatingPointError):
    """A training loss or a prediction chunk's emissions hold NaN or Inf.

    ``backward`` raises it for the loss, naming the first recorded op whose
    output is not finite; prediction raises it naming the chunk's sentences.
    No op checks its own output."""


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
        self._records: list[tuple["Tensor", tuple["Tensor", ...], object, str]] = []
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
        arr = np.asarray(data)
        self.data = _contig(arr if arr.dtype == np.float32 else np.asarray(arr, dtype=np.float64))
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


def _record(out_data: np.ndarray, inputs: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """Wrap op output; register it, named ``op``, on the active tape when a
    gradient is needed.  While a tape is active, refuse inputs of more than
    one dtype."""
    tape = Tape._active
    if tape is not None and any(t.data.dtype != inputs[0].data.dtype for t in inputs):
        dtypes = ", ".join(str(t.data.dtype) for t in inputs)
        raise TypeError(f"{op} under a Tape needs inputs of one dtype, got ({dtypes})")
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out._tape = None
    out.requires_grad = False
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        tape._records.append((out, inputs, vjp, op))
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
    tensors; replace them instead of mutating them in place.  A non-finite
    loss raises ``NumericsError`` naming the first recorded op whose output
    is not finite.
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
    if not np.isfinite(loss.data).all():
        # the loss is itself a record, so some record is not finite
        op = next(op for out, _, _, op in tape._records if not np.isfinite(out.data).all())
        raise NumericsError(f"{op} produced non-finite values")
    tape._consumed = True

    records, tape._records = tape._records, []
    tape._dropped += len(records)
    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    while records:
        out, inputs, vjp, _ = records.pop()
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
    """Matrix product of a (n, k) and a (k, m) operand."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs (n, k) @ (k, m), got {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data

    def vjp(g):
        return g @ b_data.T, a_data.T @ g

    return _record(a_data @ b_data, (a, b), vjp, "matmul")


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


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")

    def vjp(g):
        return g, g

    return _record(a.data + b.data, (a, b), vjp, "add")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = a.data * c

    def vjp(g):
        return (g * c,)

    return _record(out, (a,), vjp, "scale")


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Join tensors of one rank along ``axis``; their other axes must agree."""
    if not tensors:
        raise ShapeError("concat of empty list")
    ndim = tensors[0].ndim
    k = axis % ndim if -ndim <= axis < ndim else None
    if k is None or len({(t.ndim, t.shape[:k] + t.shape[k + 1:]) for t in tensors}) != 1:
        raise ShapeError(f"concat along axis {axis} needs shapes that agree off it, "
                         f"got {[t.shape for t in tensors]}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    split_at = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, split_at, axis=axis))

    return _record(out, tuple(tensors), vjp, "concat")


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
    per_row = n[:, None].astype(x.data.dtype)
    out = np.add.reduceat(x.data, starts, axis=0) / per_row

    def vjp(g):
        return (np.repeat(g / per_row, n, axis=0),)

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


def mix(scores: list[Tensor], xs: list[Tensor]) -> tuple[Tensor, np.ndarray]:
    """Softmax-weighted sum of L packed (N, d) row blocks ``xs`` as one op.

    ``scores[j]`` holds block j's (N, 1) score per row; each row's weights
    are the stable (max-subtracted) softmax of its L scores.  Returns the
    (N, d) weighted sum and the (N, L) weights as a plain array, which is
    never differentiated.  The sum is one batched (N, 1, L) @ (N, L, d)
    product on contiguous operands, and each input's gradient is contiguous.
    """
    L = len(xs)
    shape = xs[0].shape if xs else ()
    if (len(shape) != 2 or len(scores) != L or any(x.shape != shape for x in xs)
            or any(s.shape != (shape[0], 1) for s in scores)):
        raise ShapeError(f"mix needs one (N, 1) score per (N, d) block, at least one, "
                         f"got {[s.shape for s in scores]} and {[x.shape for x in xs]}")
    n, d = shape
    s = np.concatenate([t.data for t in scores], axis=-1)
    e = np.exp(s - np.max(s, axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    row_weights = weights.reshape(n, 1, L)
    stacked = np.stack([x.data for x in xs], axis=1)

    def vjp(g):
        g = g.reshape(n, 1, d)
        g_w = np.matmul(g, np.swapaxes(stacked, -1, -2)).reshape(n, L)
        g_s = weights * (g_w - (g_w * weights).sum(axis=-1, keepdims=True))
        g_x = np.matmul(np.swapaxes(row_weights, -1, -2), g)
        return (*(np.ascontiguousarray(g_s[:, j:j + 1]) for j in range(L)),
                *(np.ascontiguousarray(g_x[:, j]) for j in range(L)))

    out = np.matmul(row_weights, stacked).reshape(n, d)
    return _record(out, (*scores, *xs), vjp, "mix"), weights


def keep_mask(shape, p: float, rng: np.random.Generator | None,
              dtype=np.float64) -> np.ndarray | None:
    """Dropout's keep-mask of ``shape``, already scaled: cells of ``dtype``,
    the dtype of the activation it multiplies, that are 0 or 1/(1-p); None,
    drawing nothing, when ``rng`` is None or p is 0.

    Each cell is one little-endian uint16 word from ``rng.bytes``, kept where
    it is at least ``round(p * 2**16)``, so the drop probability is realised
    as ``round(p * 65536) / 65536`` (0.1 becomes 0.1000061).  As every cell
    is exactly 0 or 1/(1-p) rounded to ``dtype``, ``x * mask`` rounds like
    ``x * keep * 1/(1-p)`` in that dtype, the sign of a zero included.
    """
    if rng is None or p == 0.0:
        return None
    size = int(np.prod(shape))
    words = np.frombuffer(rng.bytes(2 * size), dtype="<u2")
    return np.multiply((words >= round(p * 65536)).reshape(shape), 1.0 / (1.0 - p),
                       dtype=dtype)


def dropout(a: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: ``a`` times a ``keep_mask`` of its shape drawn from
    ``rng``, or ``a`` itself, with no op, when there is no mask."""
    mask = keep_mask(a.shape, p, rng, a.data.dtype)
    if mask is None:
        return a

    def vjp(g):
        return (g * mask,)

    return _record(a.data * mask, (a,), vjp, "dropout")


# added to each row's variance before its inverse square root
LAYER_NORM_EPS = 1e-5


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale by
    ``gain`` and shift by ``bias`` (both shaped like that axis).

    Row means and variances are einsum row sums: faster than numpy's
    last-axis reductions on short rows, and the same bits for a row however
    many rows come with it (a GEMV with a ones vector is not)."""
    if gain.shape != a.shape[-1:] or bias.shape != a.shape[-1:]:
        raise ShapeError(f"layer_norm of {a.shape} needs gain and bias of "
                         f"{a.shape[-1:]}, got {gain.shape} and {bias.shape}")
    a_data = a.data
    d = a.shape[-1]
    mu = (np.einsum("...j->...", a_data) / d)[..., None]
    centred = a_data - mu
    var = np.einsum("...j,...j->...", centred, centred) / d
    inv = (1.0 / np.sqrt(var + LAYER_NORM_EPS))[..., None]
    gain_data = gain.data
    out = centred * inv
    out *= gain_data
    out += bias.data

    def vjp(g):
        # in place, in the order of inv * (gx - g_mean - xhat * gx_mean)
        xhat = a_data - mu
        xhat *= inv
        gx = g * gain_data
        g_mean = (np.einsum("...j->...", gx) / d)[..., None]
        gx_mean = (np.einsum("...j,...j->...", gx, xhat) / d)[..., None]
        lead = tuple(range(g.ndim - 1))
        g_gain = (g * xhat).sum(axis=lead)
        gx -= g_mean
        xhat *= gx_mean
        gx -= xhat
        gx *= inv
        return gx, g_gain, g.sum(axis=lead)

    return _record(out, (a, gain, bias), vjp, "layer_norm")


# additive score for a padding key, standing in for -inf
NEG_LARGE = -1e9


def attention(q: Tensor, k: Tensor, v: Tensor, head_rows: np.ndarray,
              key_mask: np.ndarray, scale: float,
              keep: np.ndarray | None = None) -> Tensor:
    """Masked multi-head self-attention over packed rows, as one op.

    ``q``, ``k`` and ``v`` are (C, d): the C real cells of the (batch, n)
    ``key_mask``, in row-major order.  ``head_rows`` (C, heads) holds the
    flat position of each cell's heads, d / heads values each, in the padded
    (batch, heads, n, dk) layout; padding cells are zero vectors there.  The
    scores ``scale * q kT`` are laid out key-major, as (n keys, batch * heads,
    n queries), so the softmax's max, exp and sum all run over the leading
    axis; a (n, batch, 1) bias adds NEG_LARGE at padding keys.  A ``keep``
    mask from ``keep_mask``, shaped (batch, heads, n queries, n keys), drops
    out weights: it multiplies them, and their gradient, through a
    transposed view.  The real cells' heads of the weighted values are
    gathered back into the packed (C, d) result.
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
        out = np.zeros((batch * h * n, dk), dtype=t.dtype)
        out[rows] = t.reshape(-1, dk)
        return out.reshape(batch * h, n, dk)

    def to_rows(t: np.ndarray) -> np.ndarray:
        return t.reshape(-1, dk)[rows].reshape(c, d)

    def key_major(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # (n keys, batch * heads, n queries) buffer holding a @ bT per head
        out = np.empty((n, batch * h, n), dtype=a.dtype)
        np.matmul(a, np.swapaxes(b, -1, -2), out=out.transpose(1, 0, 2))
        return out

    q_data, k_data, v_data = q.data, k.data, v.data
    if keep is not None:
        keep = keep.reshape(batch * h, n, n).transpose(2, 0, 1)
    weights = key_major(to_heads(k_data), to_heads(q_data))
    weights *= scale
    by_batch = weights.reshape(n, batch, h * n)    # a view
    by_batch += ((1.0 - key_mask.T) * NEG_LARGE).astype(weights.dtype, copy=False)[:, :, None]
    weights -= weights.max(axis=0)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=0)
    dropped = weights if keep is None else weights * keep

    def vjp(g):
        # re-scatter the padded heads from the packed inputs the tape holds
        # anyway, rather than keep three padded copies alive until backward
        g_ctx = to_heads(g)
        g_w = key_major(to_heads(v_data), g_ctx)
        if keep is not None:
            g_w *= keep
        g_s = weights * (g_w - (g_w * weights).sum(axis=0))
        g_s *= scale
        return (to_rows(g_s.transpose(1, 2, 0) @ to_heads(k_data)),
                to_rows(g_s.transpose(1, 0, 2) @ to_heads(q_data)),
                to_rows(dropped.transpose(1, 0, 2) @ g_ctx))

    return _record(to_rows(dropped.transpose(1, 2, 0) @ to_heads(v_data)), (q, k, v),
                   vjp, "attention")
