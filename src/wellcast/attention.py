"""Attention kernels: full scaled dot-product, sparse top-query variant,
multi-head wrapping, and the sequence-halving distill operator.

Full attention over query/key/value matrices with per-head width d:

    A(Q, K, V) = Softmax(Q K^T / sqrt(d)) V

Sparse attention scores every query with a sparsity measure and grants exact
attention rows only to the top-u queries, u = min(L_Q, max(1, ceil(c ln L_Q))).
The remaining ("lazy") queries emit the mean of the value rows they are
allowed to see, which keeps every output row a convex combination of values.

The measure is the log-sum-exp of a query's scaled scores minus their
arithmetic mean, the form the top-u heuristic is built around.

A mask hides keys from a query.  The row max runs over its visible scores,
and the hidden entries are zeroed before exp (so exp never sees -inf, which
sends numpy's vector exp down a slow path) and again after it, which gives
them the exact zero probability a -inf score would.  The causal mask's
constants (its 0/1 weights, visible counts and their logs, the lazy rows'
weights) are built once per shape and shared read-only, as are the unmasked
lazy weights and the prefix rule's triangle.  Under a causal mask the top-u
set is ranked per prefix: query i is active iff its measure, centered by the
uniform-scores baseline for its visible-key count, is in the top u over rows
0..i.  A global top-u would let a perturbation at a later position evict an
earlier query from the active set, breaking bit-exact causality; the prefix
rule keeps every output row a function of inputs at or before it.  The
non-causal path always selects exactly u queries.

One numpy core, ``_attend``, runs every head of a call as one [H, L, d]
batch, and each ``multi_head`` call is recorded as one tape node over its
inputs and the per-head weights, with a hand-written backward.  The scores
are formed once: a single max/exp pass gives both the softmax and the
log-sum-exp of the measure.  A lazy row's weights are constants
(``mask / count``, the visible-value mean), so the softmax backward acts
only on active rows (the lazy rows of the probabilities are zeroed) and
the value gradient of lazy rows passes straight back through those
constant weights.  ``full_attention`` and ``probsparse_attention`` stay as
one-head wrappers over the same core, not a second implementation: they
state the two modes on plain query/key/value tensors, the form in which
the reduction and causality checks (and the benchmark's tracer) call them.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ParameterError
from .tensor import Tensor, _record, elu_array, parameter


@dataclass
class OpCounter:
    """Instrumented counts of logical q.k dot products."""

    measure_dot_products: int = 0
    attention_dot_products: int = 0

    def reset(self) -> None:
        self.measure_dot_products = 0
        self.attention_dot_products = 0


COUNTER = OpCounter()


@dataclass
class QKV:
    q: Tensor
    k: Tensor
    v: Tensor

    def __post_init__(self):
        if self.k.shape[0] != self.v.shape[0]:
            raise DimensionError("key and value counts must agree")
        if self.q.shape[1] != self.k.shape[1]:
            raise DimensionError("query and key widths must agree")


def causal_mask(l_q: int, l_k: int) -> np.ndarray:
    """Boolean allow-mask: query i sees keys j with j - (L_k - L_q) <= i."""
    offset = l_k - l_q
    return np.arange(l_k)[None, :] <= (np.arange(l_q)[:, None] + offset)


class _Mask(NamedTuple):
    """An allow-mask [L_q, L_k] and the constants derived from it."""

    allow: np.ndarray      # bool
    weight: np.ndarray     # allow as 1.0 / 0.0
    count: np.ndarray      # visible keys per query
    log_count: np.ndarray
    lazy: np.ndarray       # weight / count: a lazy row's value weights


def _mask_constants(mask, l_q: int, l_k: int) -> _Mask:
    """Check an allow-mask against the score shape and derive its constants."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (l_q, l_k):
        raise DimensionError(f"mask shape {mask.shape} != scores {(l_q, l_k)}")
    count = mask.sum(axis=1)
    if not count.all():
        raise ParameterError("mask leaves a query with no visible key")
    return _Mask(mask, mask.astype(np.float64), count, np.log(count),
                 mask / count[:, None])


# the constants below depend only on their shape, and a model uses a few
# shapes; each is built once and shared, so it is made read-only


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=32)
def _causal_constants(l_q: int, l_k: int) -> _Mask:
    return _Mask(*map(_read_only, _mask_constants(causal_mask(l_q, l_k),
                                                  l_q, l_k)))


@lru_cache(maxsize=32)
def _uniform_weights(l_q: int, l_k: int) -> np.ndarray:
    """An unmasked lazy row's value weights, 1 / L_k."""
    return _read_only(np.full((l_q, l_k), 1.0 / l_k))


@lru_cache(maxsize=32)
def _earlier(l_q: int) -> np.ndarray:
    """[L_q, L_q] bool, true where j < i."""
    return _read_only(np.tri(l_q, k=-1, dtype=bool))


def _scaled_scores(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Q K^T / sqrt(d) over the last two axes."""
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= 1.0 / np.sqrt(q.shape[-1])
    return scores


def _mean_term(scores, mask: _Mask | None):
    """Mean of each row's visible scores.  Under a mask it writes over
    ``scores``: the hidden entries become zeros of their sign."""
    if mask is None:
        return scores.sum(axis=-1) / scores.shape[-1]
    scores *= mask.weight
    return scores.sum(axis=-1) / mask.count


def _softmax_rows(scores: np.ndarray, mask: _Mask | None):
    """Softmax over the last axis, written over ``scores`` (masked entries
    become exact zeros), and the log-sum-exp of each row's visible scores.
    One max/exp pass serves both, in one [..., L_q, L_k] buffer."""
    if mask is None:
        row_max = scores.max(axis=-1, keepdims=True)
        scores -= row_max
        np.exp(scores, out=scores)
    else:
        # the max runs over visible scores only, and zeroing the masked
        # entries before exp keeps -inf (and numpy's slow path for lanes
        # that underflow) out of it; zeroing them after makes them exact
        # zeros, as exp(-inf) would
        row_max = np.max(scores, axis=-1, keepdims=True, where=mask.allow,
                         initial=-np.inf)
        scores -= row_max
        scores *= mask.weight
        np.exp(scores, out=scores)
        scores *= mask.weight
    total = scores.sum(axis=-1, keepdims=True)
    scores /= total
    return scores, (row_max + np.log(total))[..., 0]


def top_u_count(c: float, l_q: int) -> int:
    return min(l_q, max(1, int(np.ceil(c * np.log(l_q)))))


def _top_u_rows(measures: np.ndarray, u: int, prefix: bool) -> np.ndarray:
    """Boolean [..., L_q] mask of the queries granted exact attention, per
    leading index (head); the one query-selection rule.

    Without ``prefix`` the u largest measures win and ties resolve to the
    lower index (stable sort on descending measure).  With ``prefix`` row i
    wins iff fewer than u of rows 0..i-1 measure at least as much as it:
    membership for row i depends only on rows <= i, so perturbing later
    inputs can never change earlier outputs, which a global top-u cannot
    offer.  The prefix rank uses comparisons only, so it is bit-stable.
    """
    if u >= measures.shape[-1]:
        return np.ones(measures.shape, dtype=bool)
    if prefix:
        # ahead[..., i, j] = m[j] >= m[i] for j < i; >= implements the
        # lower-index tie-break of the global rule
        ahead = measures[..., None, :] >= measures[..., :, None]
        ahead &= _earlier(measures.shape[-1])
        return np.count_nonzero(ahead, axis=-1) < u
    order = np.argsort(-measures, axis=-1, kind="stable")[..., :u]
    active = np.zeros(measures.shape, dtype=bool)
    np.put_along_axis(active, order, True, axis=-1)
    return active


def _attend(q, k, v, mask=None, u=None):
    """Attention over head batches q [H, L_q, d] and k, v [H, L_k, d], under
    the checked ``_Mask`` ``mask`` (None: every key visible).

    Full attention when ``u`` is None; otherwise sparse attention with u
    active queries per head, ranked per prefix when masked.  Returns the
    output [H, L_q, d] and a function mapping its gradient to (dq, dk, dv).
    """
    n_heads, l_q, _ = q.shape
    l_k = k.shape[1]
    if l_k == 0:
        raise DimensionError("attention needs at least one key")
    inv_sqrt_d = 1.0 / np.sqrt(q.shape[2])
    scores = _scaled_scores(q, k)
    if u is None:
        COUNTER.attention_dot_products += n_heads * l_q * l_k
        probs = _softmax_rows(scores, mask)[0]
        out, lazy = probs @ v, None
    else:
        COUNTER.measure_dot_products += n_heads * l_q * l_k
        mean = _mean_term(scores, mask)
        probs, lse = _softmax_rows(scores, mask)
        measures = lse - mean
        if mask is not None:
            # center by the uniform-scores baseline log(visible keys): a
            # flat score row then nets exactly zero whatever its count
            measures -= mask.log_count
        active = _top_u_rows(measures, u, mask is not None)[..., None]
        COUNTER.attention_dot_products += int(active.sum()) * l_k
        # a lazy row's weights are the constants mask / count (the mean of
        # the visible values), shared by every head, and carry no softmax
        # gradient; zeroing those rows of probs leaves the active ones
        lazy_rows = ~active
        lazy = _uniform_weights(l_q, l_k) if mask is None else mask.lazy
        np.multiply(probs, active, out=probs)
        out = probs @ v + lazy_rows * (lazy @ v)

    def bwd(g):
        # softmax backward; an active row's sum_j P_ij dP_ij is g_i . out_i
        d_scores = g @ np.swapaxes(v, 1, 2)
        d_scores -= (g * out).sum(axis=-1, keepdims=True)
        d_scores *= probs
        d_v = np.swapaxes(probs, 1, 2) @ g
        if lazy is not None:
            d_v += lazy.T @ (lazy_rows * g)
        return ((d_scores @ k) * inv_sqrt_d,
                (np.swapaxes(d_scores, 1, 2) @ q) * inv_sqrt_d, d_v)

    return out, bwd


def _one_head(qkv: QKV, mask, u=None) -> Tensor:
    out, attend_bwd = _attend(qkv.q.data[None], qkv.k.data[None],
                              qkv.v.data[None], mask, u)

    def bwd(g):
        return tuple(d[0] for d in attend_bwd(g[None]))

    return _record((qkv.q, qkv.k, qkv.v), out[0], bwd)


def full_attention(qkv: QKV, mask: np.ndarray | None = None) -> Tensor:
    """Softmax(Q K^T / sqrt(d)) V; a boolean allow-mask [L_q, L_k] hides
    the keys it marks false."""
    if mask is not None:
        mask = _mask_constants(mask, qkv.q.shape[0], qkv.k.shape[0])
    return _one_head(qkv, mask)


def probsparse_attention(qkv: QKV, c: float, causal: bool = False) -> Tensor:
    """Sparse attention with sampling constant ``c``: exact rows for active
    queries, mean-of-values rows (running mean under causality) for the rest."""
    l_q, l_k = qkv.q.shape[0], qkv.k.shape[0]
    mask = _causal_constants(l_q, l_k) if causal else None
    return _one_head(qkv, mask, top_u_count(c, l_q))


class MultiHeadWeights:
    """Fused Q/K/V projections (d_model -> d per head) and the output
    projection: ``w_q`` [d_model, H d] holds head h in columns h d .. (h+1) d,
    ``w_kv`` [d_model, 2 H d] every head's K block, then every V block.  The
    blocks are drawn head by head (all Q, then K, then V), then laid out."""

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator):
        if d_model % n_heads != 0:
            raise ParameterError(
                f"d_model {d_model} not divisible by n_heads {n_heads}")
        self.n_heads = n_heads
        blocks = parameter(rng, (3 * n_heads, d_model, d_model // n_heads),
                           fan_in=d_model).data
        self.w_q, self.w_kv = (
            Tensor(np.swapaxes(b, 0, 1).reshape(d_model, -1), requires_grad=True)
            for b in (blocks[:n_heads], blocks[n_heads:]))
        self.w_out = parameter(rng, (d_model, d_model))

    def params(self) -> list:
        return [self.w_q, self.w_kv, self.w_out]


def multi_head(x_q: Tensor, x_kv: Tensor, weights: MultiHeadWeights,
               c: float, mode: str = "full", causal: bool = False) -> Tensor:
    """Project, attend per head, concatenate, and project back to d_model,
    recorded as one tape node over x_q, x_kv and the three weights.

    Each side is projected by one matmul against its fused weight; the
    weights' own heads then run as one batch through ``_attend``, sparse
    ones with the sampling constant ``c``.  Residual connections and layer
    normalization are the caller's job.
    """
    if mode not in ("full", "prob"):
        raise ParameterError(f"mode must be 'full' or 'prob', got {mode!r}")
    l_q, l_k = x_q.shape[0], x_kv.shape[0]
    n_heads = weights.n_heads
    w_q, w_kv, w_out = (w.data for w in weights.params())
    width = w_q.shape[1]
    d = width // n_heads

    def split_heads(a):  # [L, H d] -> [H, L, d]
        return np.swapaxes(a.reshape(a.shape[0], n_heads, d), 0, 1)

    def join_heads(a):  # [H, L, d] -> [L, H d]
        return np.swapaxes(a, 0, 1).reshape(a.shape[1], width)

    kv = x_kv.data @ w_kv
    out, attend_bwd = _attend(
        split_heads(x_q.data @ w_q), split_heads(kv[:, :width]),
        split_heads(kv[:, width:]),
        _causal_constants(l_q, l_k) if causal else None,
        top_u_count(c, l_q) if mode == "prob" else None)
    joined = join_heads(out)

    def bwd(g):
        d_q, d_k, d_v = attend_bwd(split_heads(g @ w_out.T))
        d_q = join_heads(d_q)
        d_kv = np.concatenate([join_heads(d_k), join_heads(d_v)], axis=1)
        return (d_q @ w_q.T if x_q.requires_grad else None,
                d_kv @ w_kv.T if x_kv.requires_grad else None,
                x_q.data.T @ d_q, x_kv.data.T @ d_kv, joined.T @ g)

    return _record((x_q, x_kv, *weights.params()), joined @ w_out, bwd)


class DistillWeights:
    def __init__(self, d_model: int, rng: np.random.Generator):
        self.kernels = parameter(rng, (d_model, d_model, 3), fan_in=d_model * 3)

    def params(self) -> list:
        return [self.kernels]


def distill(x: Tensor, weights: DistillWeights) -> Tensor:
    """Conv1d (same padding) over time, ELU, then max-pool window 3 stride 2
    pad 1: the sequence length halves to ceil(L/2).

    Recorded as one tape node.  It works row-major on x [L, d_model], so the
    transposes of the channels-first ops (``conv1d``, ``max_pool1d``, which
    stay as its op-by-op reference) drop out: every time step's window of
    rows is one row of ``cols``, filled by one slice copy per tap, and the
    convolution is one ``cols @ kmat.T``.  Pooling is two ``np.maximum``
    calls over row-strided views, and the backward sends each output's
    gradient to the first row of its window that holds the maximum, as
    argmax would pick it.  The float operations and their order are those
    of the padded, argmax and ``np.add.at`` form, so the bits are too.  (A
    window holding a NaN matches no row: its gradient goes to its right row,
    if it has one, not to the first NaN.  Training stops at the non-finite
    loss before any backward.)
    """
    length = x.shape[0]
    if length < 2:
        raise DimensionError("distill needs a sequence of length >= 2")
    kernels = weights.kernels.data
    c_out, c_in, w = kernels.shape
    if x.shape[1] != c_in:
        raise DimensionError(f"kernel channel count {c_in} != input channels "
                             f"{x.shape[1]}")
    pad_l = (w - 1) // 2
    xp = np.zeros((length + w - 1, c_in))
    xp[pad_l:pad_l + length] = x.data
    # cols[i, c, j] = xp[i + j, c]; this column order fixes the summation
    # order of the matmul, and so its bits
    cols = np.empty((length, c_in, w))
    for j in range(w):
        cols[:, :, j] = xp[j:j + length]
    cols = cols.reshape(length, c_in * w)
    kmat = kernels.reshape(c_out, c_in * w)
    conv = cols @ kmat.T
    act = elu_array(conv)
    # output i pools rows 2i - 1 (left), 2i (centre) and 2i + 1 (right) of
    # act; the first output has no left row, an odd length's last no right
    n_out, n_odd = (length + 1) // 2, length // 2
    centre, odd = act[0::2], act[1::2]
    out = centre.copy()
    np.maximum(odd[:n_out - 1], out[1:], out=out[1:])
    np.maximum(out[:n_odd], odd, out=out[:n_odd])
    # the first maximum in window order wins, as argmax picks it
    left = odd[:n_out - 1] == out[1:]       # outputs 1 .. n_out - 1
    mid = centre == out
    mid[1:] &= ~left
    right = ~mid[:n_odd]
    right[1:] &= ~left[:n_odd - 1]

    def bwd(g):
        # windows overlap by one row, so a row takes at most two terms,
        # added to zeros in the order np.add.at would add them (adding
        # 0.0 to a sum that started from zeros leaves its bits)
        d_act = np.zeros(act.shape)
        d_act[0::2] += np.where(mid, g, 0.0)
        d_odd = d_act[1::2]
        d_odd += np.where(right, g[:n_odd], 0.0)
        d_odd[:n_out - 1] += np.where(left, g[1:], 0.0)
        d_conv = d_act * np.where(conv < 0, act + 1.0, 1.0)
        d_cols = (d_conv @ kmat).reshape(length, c_in, w)
        # channels-first memory, as the op-by-op reference leaves it: the
        # layer norm before distill sums this gradient over rows, and
        # numpy's summation order follows the memory layout
        d_xp = np.zeros(xp.shape, order="F")
        for j in range(w):
            d_xp[j:j + length] += d_cols[:, :, j]
        return (d_xp[pad_l:pad_l + length],
                (d_conv.T @ cols).reshape(c_out, c_in, w))

    return _record((x, weights.kernels), out, bwd)
