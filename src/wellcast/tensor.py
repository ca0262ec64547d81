"""Dense float64 tensors with tape-based reverse-mode differentiation.

The graph is recorded implicitly: while gradients are enabled, every op that
touches a tensor requiring grad appends one node to a module-level record.
Nodes are appended in execution order, so the record is topologically sorted
by construction; ``backward`` walks it once in reverse and then discards it.
The record is rebuilt on every forward pass.

Only NaN is treated as a hard error state.  ``-inf`` is allowed only as a
masked attention score before ``softmax`` (which maps it to an exact zero)
and as ``max_pool1d``'s padding, in these op-by-op forms; the fused kernels
in ``attention`` mask with 0/1 weights instead, so their exp never sees it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError, ParameterError

_GRAD_ENABLED = True


class Tensor:
    """A row-major float64 array plus an optional gradient of the same shape."""

    __slots__ = ("data", "requires_grad", "grad", "_recorded")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._recorded = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    """One recorded op: inputs, output, and a function mapping the output
    gradient to per-input gradients (None for non-differentiable inputs)."""

    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs: Sequence[Tensor], output: Tensor, backward_fn: Callable):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


_RECORD: list[_Node] = []


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(inputs: Sequence[Tensor], out_data: np.ndarray, backward_fn: Callable) -> Tensor:
    """Create the output tensor and, when grad mode is active and any input
    needs a gradient, append a node to the record."""
    track = _GRAD_ENABLED and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        out._recorded = True
        _RECORD.append(_Node(tuple(inputs), out, backward_fn))
    return out


@contextmanager
def no_grad():
    """Disable recording inside the block (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def current_record() -> list:
    """Read-only view of the active record, for invariant tests."""
    return list(_RECORD)


def reset_record() -> None:
    _RECORD.clear()


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf reachable from ``loss``: each tensor
    that requires grad and no recorded op produced.

    The loss must be a scalar produced under the active record.  Gradients
    accumulate additively across multiple uses of a tensor and across repeated
    ``backward`` calls; optimizers reset them via ``zero_grad``.  Gradients of
    intermediate outputs flow through the walk and are not kept.  The record
    is consumed: it is cleared once traversal finishes.
    """
    if not isinstance(loss, Tensor) or loss.size != 1:
        raise ContractError("backward expects a scalar loss tensor")
    if not loss._recorded:
        raise ContractError("loss is not connected to the active record")
    flows: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(_RECORD):
        g = flows.pop(id(node.output), None)
        if g is None:
            continue
        # the pop above completes accumulation for this output (topological
        # order guarantees all its consumers were already visited)
        for t, gi in zip(node.inputs, node.backward_fn(g)):
            if gi is None or not t.requires_grad:
                continue
            if t._recorded:
                acc = flows.get(id(t))
                flows[id(t)] = gi if acc is None else acc + gi
            elif t.grad is None:
                t.grad = np.array(gi, dtype=np.float64, copy=True)
            else:
                t.grad += gi
    _RECORD.clear()


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise suite
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record((a, b), out, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record((a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return _record((a, b), out, bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _record((a,), a.data * c, bwd)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return _record((a,), out, bwd)


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)  # subgradient 0 at the kink

    def bwd(g):
        return (g * sign,)

    return _record((a,), np.abs(a.data), bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _record((a,), out, bwd)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic function on a plain array."""
    # clamp at +-500 where sigmoid saturates exactly in float64, avoiding
    # a spurious overflow warning from exp
    # (np.minimum/np.maximum equal np.clip here and skip its dispatch cost)
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -500.0), 500.0)))


def sigmoid(a: Tensor) -> Tensor:
    out = sigmoid_array(a.data)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _record((a,), out, bwd)


def elu_array(x: np.ndarray) -> np.ndarray:
    """x for x >= 0, exp(x) - 1 below, on a plain array.

    Computed as max(x, expm1(min(x, 0))): expm1 sees only x's negative
    side, so it cannot overflow and no sign mask is needed.  This gives the
    bits of the sum max(x, 0) + expm1(min(x, 0)) in one ufunc fewer.  Above
    zero both pick x.  Below zero the sum is +0.0 + expm1(x) = expm1(x), and
    the max picks expm1(x) too, because expm1(x) >= x: e^x - 1 > x for every
    x != 0, and a faithfully rounded expm1 cannot round below the float x
    itself.  Zeros of either sign map to +0.0, and a quiet NaN keeps its
    payload.  A signaling NaN, which no arithmetic produces, comes out
    unquieted where the sum quieted it.
    """
    out = np.minimum(x, 0.0)
    if out.ndim == 0:  # a numpy scalar, which takes no out=
        return np.maximum(x, np.expm1(out))
    np.expm1(out, out=out)
    return np.maximum(x, out, out=out)


def elu_inplace(x: np.ndarray, scratch: np.ndarray) -> None:
    """``elu_array(x)`` written over x, with scratch (x's shape) as the
    expm1 half: the same ufuncs on the same values, so the same bits."""
    np.minimum(x, 0.0, out=scratch)
    np.expm1(scratch, out=scratch)
    np.maximum(x, scratch, out=x)


def elu(a: Tensor) -> Tensor:
    """x for x >= 0, exp(x) - 1 below."""
    out = elu_array(a.data)

    def bwd(g):
        # built only when the tape is walked; no-grad callers never pay for it
        return (g * np.where(a.data < 0, out + 1.0, 1.0),)

    return _record((a,), out, bwd)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with pass-through gradient strictly inside [lo, hi]."""
    inside = (a.data >= lo) & (a.data <= hi)
    out = np.clip(a.data, lo, hi)

    def bwd(g):
        return (g * inside,)

    return _record((a,), out, bwd)


def layer_norm_array(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """``layer_norm`` on plain arrays: the output and a function mapping its
    gradient to (dx, dgain, dbias)."""
    mu = x.mean(axis=-1, keepdims=True)
    d = x - mu
    var = (d * d).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = d * inv
    out = gain * xhat + bias
    lead = tuple(range(x.ndim - 1))

    def bwd(g):
        dxhat = g * gain
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        dgain = (g * xhat).sum(axis=lead) if lead else g * xhat
        dbias = g.sum(axis=lead) if lead else g
        return dx, _unbroadcast(dgain, gain.shape), _unbroadcast(dbias, bias.shape)

    return out, bwd


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then apply
    the affine (gain, bias).  The variance guard epsilon 1e-5 keeps constant
    rows finite (they normalize to exact zeros)."""
    out, bwd = layer_norm_array(x.data, gain.data, bias.data)
    return _record((x, gain, bias), out, bwd)


def dropout_mask(shape, p: float, training: bool,
                 rng: np.random.Generator) -> Optional[np.ndarray]:
    """The inverted-dropout multiplier for an array of ``shape`` (1/(1-p)
    where kept, 0 where dropped), or None, drawing nothing, in eval mode or
    at p = 0.  p must lie in [0, 1)."""
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return None
    return (rng.random(shape) >= p) / (1.0 - p)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: surviving entries are scaled by 1/(1-p) in training
    mode; identity in eval mode.  p must lie in [0, 1)."""
    keep = dropout_mask(x.shape, p, training, rng)
    if keep is None:
        def bwd_id(g):
            return (g,)
        return _record((x,), x.data.copy(), bwd_id)

    def bwd(g):
        return (g * keep,)

    return _record((x,), x.data * keep, bwd)


# ---------------------------------------------------------------------------
# linear algebra and shape ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return g @ bd.T, ad.T @ g

    return _record((a, b), out, bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def bwd(g):
        return tuple(
            np.take(g, np.arange(bounds[i], bounds[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    return _record(tuple(tensors), out, bwd)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) along axis 0."""
    out = a.data[start:stop]
    shape = a.shape

    def bwd(g):
        dz = np.zeros(shape)
        dz[start:stop] = g
        return (dz,)

    return _record((a,), out, bwd)


def take_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows along axis 0; duplicate indices accumulate in backward."""
    idx = np.asarray(indices, dtype=np.intp)
    out = a.data[idx]
    shape = a.shape

    def bwd(g):
        dz = np.zeros(shape)
        np.add.at(dz, idx, g)
        return (dz,)

    return _record((a,), out, bwd)


def tsum(a: Tensor, axis=None) -> Tensor:
    out = a.data.sum(axis=axis)
    shape = a.shape

    def bwd(g):
        g = np.asarray(g)
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _record((a,), out, bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax: outputs are nonnegative and sum to one along ``axis``.
    Entries equal to -inf (attention masking) map to exact zeros."""
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _record((x,), out, bwd)


# ---------------------------------------------------------------------------
# convolution and pooling
# ---------------------------------------------------------------------------

def conv1d(x: Tensor, kernels: Tensor) -> Tensor:
    """Dense 1-D convolution of x[C_in, L] with kernels[C_out, C_in, w].

    'Same' padding keeps the output length at L (pad (w-1)//2 left, w//2
    right).
    """
    if x.ndim != 2 or kernels.ndim != 3:
        raise DimensionError("conv1d expects x[C_in, L] and kernels[C_out, C_in, w]")
    c_in, length = x.shape
    c_out, kc_in, w = kernels.shape
    if kc_in != c_in:
        raise DimensionError(f"kernel channel count {kc_in} != input channels {c_in}")
    pad_l, pad_r = (w - 1) // 2, w // 2
    xp = np.pad(x.data, ((0, 0), (pad_l, pad_r)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, w, axis=1)  # [C_in, L, w]
    cols = windows.transpose(1, 0, 2).reshape(length, c_in * w)
    kmat = kernels.data.reshape(c_out, c_in * w)
    out = (cols @ kmat.T).T  # [C_out, L]

    def bwd(g):
        dk = (g @ cols).reshape(c_out, c_in, w)
        dcols = (g.T @ kmat).reshape(length, c_in, w)
        dxp = np.zeros_like(xp)
        for j in range(w):
            dxp[:, j:j + length] += dcols[:, :, j].T
        return dxp[:, pad_l:pad_l + length], dk

    return _record((x, kernels), out, bwd)


def max_pool1d(x: Tensor, window: int, stride: int, pad: int = 0) -> Tensor:
    """Windowed max over the last axis of x[C, L] with -inf padding.

    Output length is (L + 2*pad - window)//stride + 1; with window 3,
    stride 2, pad 1 this is ceil(L/2).  Ties resolve to the earliest index.
    """
    if window < 1 or stride < 1:
        raise ParameterError("window and stride must be >= 1")
    if pad < 0 or pad >= window:
        raise ParameterError("pad must satisfy 0 <= pad < window")
    if x.ndim != 2:
        raise DimensionError("max_pool1d expects x[C, L]")
    c, length = x.shape
    padded = length + 2 * pad
    if window > padded:
        raise DimensionError(f"window {window} exceeds padded length {padded}")
    xp = np.pad(x.data, ((0, 0), (pad, pad)), constant_values=-np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(xp, window, axis=1)[:, ::stride, :]
    out = windows.max(axis=-1)
    arg = windows.argmax(axis=-1)  # argmax takes the first maximum
    out_len = out.shape[1]
    starts = np.arange(out_len) * stride

    def bwd(g):
        dxp = np.zeros((c, padded))
        rows = np.repeat(np.arange(c), out_len)
        cols_idx = (starts[None, :] + arg).reshape(-1)
        np.add.at(dxp, (rows, cols_idx), g.reshape(-1))
        return (dxp[:, pad:pad + length] if pad else dxp,)

    return _record((x,), out, bwd)


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def constant(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))


def parameter(rng: np.random.Generator, shape, fan_in: Optional[int] = None) -> Tensor:
    """Weight initialized uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)).

    fan_in defaults to the first dimension, matching [in, out] weight layout.
    """
    shape = tuple(int(s) for s in shape)
    if fan_in is None:
        fan_in = shape[0]
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


def zeros_parameter(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)
