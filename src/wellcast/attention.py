"""Attention kernels: full scaled dot-product, sparse top-query variant,
multi-head wrapping, and the sequence-halving distill operator.

Full attention over query/key/value matrices with per-head width d:

    A(Q, K, V) = Softmax(Q K^T / sqrt(d)) V

Sparse attention scores every query with a sparsity measure and grants exact
attention rows only to the top-u queries, u = min(L_Q, max(1, ceil(c ln L_Q))).
The remaining ("lazy") queries emit the mean of the value rows they are
allowed to see, which keeps every output row a convex combination of values.

Two measure variants are provided.  ``lse_minus_mean`` contrasts the
log-sum-exp of the scaled scores with their arithmetic mean (the form the
top-u heuristic is built around, and the one query selection uses);
``paper_literal`` subtracts the mean of the exponentiated scores instead,
matching one printed formulation, and is available through
``sparsity_measure``.

Masked positions contribute -inf scores.  Under a causal mask the top-u set
is ranked per prefix: query i is active iff its measure, centered by the
uniform-scores baseline for its visible-key count, is in the top u over rows
0..i.  A global top-u would let a perturbation at a later position evict an
earlier query from the active set, breaking bit-exact causality; the prefix
rule keeps every output row a function of inputs at or before it.  The
non-causal path always selects exactly u queries.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .tensor import (Tensor, add, concat, constant, elu, conv1d, matmul,
                     max_pool1d, parameter, scale, softmax, take_rows,
                     transpose)


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
class AttentionConfig:
    d_model: int
    n_heads: int
    c: float = 5.0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ParameterError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.c <= 0:
            raise ParameterError("sampling constant c must be positive")

    @property
    def d(self) -> int:
        return self.d_model // self.n_heads


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


def full_attention(qkv: QKV, mask: np.ndarray | None = None) -> Tensor:
    """Softmax(Q K^T / sqrt(d)) V with optional -inf masking."""
    l_q, d = qkv.q.shape
    l_k = qkv.k.shape[0]
    if l_k == 0:
        raise DimensionError("attention needs at least one key")
    scores = scale(matmul(qkv.q, transpose(qkv.k)), 1.0 / np.sqrt(d))
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (l_q, l_k):
            raise DimensionError(f"mask shape {mask.shape} != scores {(l_q, l_k)}")
        if not mask.any(axis=1).all():
            raise ParameterError("mask leaves a query with no visible key")
        scores = add(scores, constant(np.where(mask, 0.0, -np.inf)))
    COUNTER.attention_dot_products += l_q * l_k
    return matmul(softmax(scores, axis=1), qkv.v)


def _scaled_scores(q_data: np.ndarray, k_data: np.ndarray) -> np.ndarray:
    return (q_data @ k_data.T) / np.sqrt(q_data.shape[1])


def _measures_from_scores(scores: np.ndarray, variant: str,
                          mask: np.ndarray | None = None) -> np.ndarray:
    """Per-query sparsity measure from a [L_q, L_k] score matrix."""
    if variant not in ("lse_minus_mean", "paper_literal"):
        raise ParameterError(f"unknown measure variant {variant!r}")
    if mask is None:
        allowed = np.ones(scores.shape, dtype=bool)
    else:
        allowed = np.asarray(mask, dtype=bool)
        if not allowed.any(axis=1).all():
            raise ParameterError("mask leaves a query with no visible key")
    neg = np.where(allowed, scores, -np.inf)
    row_max = neg.max(axis=1, keepdims=True)
    lse = row_max[:, 0] + np.log(np.exp(neg - row_max).sum(axis=1))
    counts = allowed.sum(axis=1)
    if variant == "lse_minus_mean":
        mean_term = np.where(allowed, scores, 0.0).sum(axis=1) / counts
    else:
        mean_term = np.where(allowed, np.exp(scores), 0.0).sum(axis=1) / counts
    return lse - mean_term


def sparsity_measure(q_i: np.ndarray, keys: np.ndarray,
                     variant: str = "lse_minus_mean") -> float:
    """Measure for a single query against all keys (stable log-sum-exp)."""
    q_i = np.asarray(q_i, dtype=np.float64).reshape(1, -1)
    keys = np.asarray(keys, dtype=np.float64)
    if keys.shape[0] < 1:
        raise ParameterError("need at least one key")
    scores = _scaled_scores(q_i, keys)
    return float(_measures_from_scores(scores, variant)[0])


def top_u_count(c: float, l_q: int) -> int:
    return min(l_q, max(1, int(np.ceil(c * np.log(l_q)))))


def select_top_queries(q_data: np.ndarray, k_data: np.ndarray,
                       cfg: AttentionConfig) -> np.ndarray:
    """Ascending indices of the u queries with the largest measures.

    Ties resolve to the lower index (stable sort on descending measure).
    """
    q_data = np.asarray(q_data, dtype=np.float64)
    k_data = np.asarray(k_data, dtype=np.float64)
    l_q, l_k = q_data.shape[0], k_data.shape[0]
    if l_q < 1:
        raise ParameterError("need at least one query")
    scores = _scaled_scores(q_data, k_data)
    COUNTER.measure_dot_products += l_q * l_k
    measures = _measures_from_scores(scores, "lse_minus_mean")
    u = top_u_count(cfg.c, l_q)
    order = np.argsort(-measures, kind="stable")
    return np.sort(order[:u])


def _uniform_baseline(allowed: np.ndarray) -> np.ndarray:
    """Measure each query would score if its visible scores were replaced by
    their mean, log(visible keys).  Subtracting it makes rows with different
    visible-key counts comparable (a flat score row always nets exactly zero)."""
    return np.log(allowed.sum(axis=1))


def _prefix_top_u(excess: np.ndarray, u: int) -> np.ndarray:
    """Causal-safe active set: i is active iff its excess measure ranks in
    the top u of rows 0..i (ties favour the earlier index).

    Membership for row i depends only on rows <= i, so perturbing later
    inputs can never change earlier outputs; a global top-u cannot offer
    that guarantee.
    """
    l_q = len(excess)
    selected = np.zeros(l_q, dtype=bool)
    for i in range(l_q):
        # >= implements the lower-index tie-break: an equal earlier measure
        # outranks this one, matching the global selection rule
        rank = int(np.sum(excess[:i] >= excess[i]))
        selected[i] = rank < u
    return np.flatnonzero(selected)


def probsparse_attention(qkv: QKV, cfg: AttentionConfig,
                         causal: bool = False) -> Tensor:
    """Sparse attention: exact rows for active queries, mean-of-values rows
    (running mean under causality) for the rest."""
    l_q, d = qkv.q.shape
    l_k = qkv.k.shape[0]
    if l_k == 0:
        raise DimensionError("attention needs at least one key")
    mask = causal_mask(l_q, l_k) if causal else None
    scores = _scaled_scores(qkv.q.data, qkv.k.data)
    COUNTER.measure_dot_products += l_q * l_k
    measures = _measures_from_scores(scores, "lse_minus_mean", mask)
    u = top_u_count(cfg.c, l_q)
    if causal:
        excess = measures - _uniform_baseline(mask)
        sel = _prefix_top_u(excess, u)
    else:
        order = np.argsort(-measures, kind="stable")
        sel = np.sort(order[:u])
    unsel = np.setdiff1d(np.arange(l_q), sel)

    q_sel = take_rows(qkv.q, sel)
    sel_scores = scale(matmul(q_sel, transpose(qkv.k)), 1.0 / np.sqrt(d))
    if mask is not None:
        sel_scores = add(sel_scores, constant(np.where(mask[sel], 0.0, -np.inf)))
    out_sel = matmul(softmax(sel_scores, axis=1), qkv.v)
    COUNTER.attention_dot_products += len(sel) * l_k

    if len(unsel) > 0:
        if mask is None:
            weights = np.full((l_q, l_k), 1.0 / l_k)
        else:
            weights = mask / mask.sum(axis=1, keepdims=True)
        fallback_all = matmul(constant(weights), qkv.v)
        out_lazy = take_rows(fallback_all, unsel)
        stacked = concat([out_sel, out_lazy], axis=0)
    else:
        stacked = out_sel
    order_rows = np.concatenate([sel, unsel]).astype(np.intp)
    inverse = np.empty(l_q, dtype=np.intp)
    inverse[order_rows] = np.arange(l_q)
    return take_rows(stacked, inverse)


class MultiHeadWeights:
    """Per-head Q/K/V projections (d_model -> d) plus the output projection."""

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator):
        d = d_model // n_heads
        self.w_q = [parameter(rng, (d_model, d)) for _ in range(n_heads)]
        self.w_k = [parameter(rng, (d_model, d)) for _ in range(n_heads)]
        self.w_v = [parameter(rng, (d_model, d)) for _ in range(n_heads)]
        self.w_out = parameter(rng, (d_model, d_model))

    def params(self) -> list:
        return self.w_q + self.w_k + self.w_v + [self.w_out]


def multi_head(x_q: Tensor, x_kv: Tensor, weights: MultiHeadWeights,
               cfg: AttentionConfig, mode: str = "full",
               causal: bool = False) -> Tensor:
    """Project, attend per head, concatenate, and project back to d_model.

    Residual connections and layer normalization are the caller's job.
    """
    if mode not in ("full", "prob"):
        raise ParameterError(f"mode must be 'full' or 'prob', got {mode!r}")
    l_q = x_q.shape[0]
    l_k = x_kv.shape[0]
    mask = causal_mask(l_q, l_k) if causal else None
    heads = []
    for w_q, w_k, w_v in zip(weights.w_q, weights.w_k, weights.w_v):
        qkv = QKV(matmul(x_q, w_q), matmul(x_kv, w_k), matmul(x_kv, w_v))
        if mode == "full":
            heads.append(full_attention(qkv, mask))
        else:
            heads.append(probsparse_attention(qkv, cfg, causal=causal))
    return matmul(concat(heads, axis=1), weights.w_out)


class DistillWeights:
    def __init__(self, d_model: int, rng: np.random.Generator, width: int = 3):
        self.kernels = parameter(rng, (d_model, d_model, width),
                                 fan_in=d_model * width)

    def params(self) -> list:
        return [self.kernels]


def distill(x: Tensor, weights: DistillWeights) -> Tensor:
    """Conv1d (same padding) over time, ELU, then max-pool window 3 stride 2
    pad 1: the sequence length halves to ceil(L/2)."""
    if x.shape[0] < 2:
        raise DimensionError("distill needs a sequence of length >= 2")
    channels_first = transpose(x)
    convolved = conv1d(channels_first, weights.kernels, padding="same")
    pooled = max_pool1d(elu(convolved), window=3, stride=2, pad=1)
    return transpose(pooled)
