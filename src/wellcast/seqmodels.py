"""Encoder-decoder forecasters assembled from the attention kernels.

Both models are configurations of one skeleton: a linear value embedding
plus an additive time encoding, an encoder of one or more stacks of
attention blocks, a two-to-three layer decoder with masked self-attention
and cross-attention, and a diagonal-Gaussian output head.

The sparse-attention model runs top-query attention in the encoder and the
masked decoder, halves the encoder sequence with a distill step after every
encoder block, and keeps replica stacks on tail-halved inputs whose outputs
are concatenated into the cross-attention memory.  The dense baseline is one
stack of three full-attention blocks without distilling, with three decoder
layers and a higher dropout rate.

Decoding is generative and one-shot: the decoder input concatenates a start
token (the tail of the encoder context) with a zero-valued placeholder that
carries only the target timestamps, and every target position is emitted in
a single forward pass.
"""

import inspect

import numpy as np

from . import rng as rng_mod
from .attention import DistillWeights, MultiHeadWeights, distill, multi_head
from .checkpoint import Undrawn, load_params, read, read_int
from .diffusion import sinusoidal_embedding
from .errors import ContractError, ParameterError, TrainingError
from .evaluation import ForecastEnsemble, check_draws
# backward stays bound here although fit walks the tape from timegrad:
# bench/tracing.py wraps seqmodels.backward by name
from .tensor import (Tensor, _record, add, backward, clip, concat, constant,
                     dropout, dropout_mask, elu_array, exp, layer_norm_array,
                     matmul, mul, no_grad, parameter, scale, slice_rows, sub,
                     tsum, zeros_parameter)
# the shared loop keeps this name for the callers that train transformers
from .timegrad import fit as train_model, normalize_window

LOG_TWO_PI = float(np.log(2.0 * np.pi))
LOG_VAR_BOUND = 20.0
DAYS_PER_YEAR = 365.25


def time_encoding(timestamps, d_model: int, stride: float, anchor: float) -> np.ndarray:
    """Additive encoding from two time features: the linear epoch index at
    the native stride (sinusoidal over positions relative to the window
    anchor) and the day-of-year phase folded into the first two channels."""
    ts = np.asarray(timestamps, dtype=np.float64)
    enc = sinusoidal_embedding((ts - anchor) / stride, d_model)
    # the phase's one sine-cosine pair, at frequency exactly 1
    phase = 2.0 * np.pi * (ts % DAYS_PER_YEAR) / DAYS_PER_YEAR
    enc[:, :2] += sinusoidal_embedding(phase, 2)
    return enc


class ValueEmbedding:
    def __init__(self, data_dim: int, d_model: int, rng: np.random.Generator):
        self.w = parameter(rng, (data_dim, d_model))
        self.d_model = d_model

    def params(self):
        return [self.w]

    def forward(self, values: np.ndarray, timestamps, stride, anchor) -> Tensor:
        proj = matmul(constant(np.atleast_2d(values)), self.w)
        return add(proj, constant(
            time_encoding(timestamps, self.d_model, stride, anchor)))


class FeedForward:
    def __init__(self, d_model: int, width: int, rng: np.random.Generator):
        self.w1 = parameter(rng, (d_model, width))
        self.b1 = zeros_parameter((width,))
        self.w2 = parameter(rng, (width, d_model))
        self.b2 = zeros_parameter((d_model,))

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, x: Tensor) -> Tensor:
        """elu(x W1 + b1) W2 + b2, recorded as one tape node."""
        w1, w2 = self.w1.data, self.w2.data
        pre = x.data @ w1 + self.b1.data
        act = elu_array(pre)

        def bwd(g):
            d_pre = (g @ w2.T) * np.where(pre < 0, act + 1.0, 1.0)
            return (d_pre @ w1.T if x.requires_grad else None, x.data.T @ d_pre,
                    d_pre.sum(axis=0), act.T @ g, g.sum(axis=0))

        return _record((x, *self.params()), act @ w2 + self.b2.data, bwd)


class ResidualNorm:
    def __init__(self, d_model: int):
        self.gain = Tensor(np.ones(d_model), requires_grad=True)
        self.bias = zeros_parameter((d_model,))

    def params(self):
        return [self.gain, self.bias]

    def forward(self, x: Tensor, sublayer_out: Tensor, p_drop: float,
                rng: np.random.Generator | None) -> Tensor:
        """layer_norm(x + dropout(sublayer_out)), recorded as one tape node;
        the dropout mask is drawn from ``rng`` as ``dropout`` draws it."""
        s = sublayer_out.data
        keep = dropout_mask(s.shape, p_drop, rng)
        out, norm_bwd = layer_norm_array(
            x.data + (s if keep is None else s * keep),
            self.gain.data, self.bias.data)

        def bwd(g):
            dx, d_gain, d_bias = norm_bwd(g)
            return dx, dx if keep is None else dx * keep, d_gain, d_bias

        return _record((x, sublayer_out, self.gain, self.bias), out, bwd)


class EncoderBlock:
    def __init__(self, d_model, n_heads, ff_width, rng):
        self.attn = MultiHeadWeights(d_model, n_heads, rng)
        self.norm1 = ResidualNorm(d_model)
        self.ff = FeedForward(d_model, ff_width, rng)
        self.norm2 = ResidualNorm(d_model)

    def params(self):
        return (self.attn.params() + self.norm1.params() + self.ff.params()
                + self.norm2.params())

    def forward(self, x, c, mode, p_drop, drop_rng):
        a = multi_head(x, x, self.attn, c, mode=mode, causal=False)
        x = self.norm1.forward(x, a, p_drop, drop_rng)
        return self.norm2.forward(x, self.ff.forward(x), p_drop, drop_rng)


class DecoderLayer:
    def __init__(self, d_model, n_heads, ff_width, rng):
        self.self_attn = MultiHeadWeights(d_model, n_heads, rng)
        self.norm1 = ResidualNorm(d_model)
        self.cross_attn = MultiHeadWeights(d_model, n_heads, rng)
        self.norm2 = ResidualNorm(d_model)
        self.ff = FeedForward(d_model, ff_width, rng)
        self.norm3 = ResidualNorm(d_model)

    def params(self):
        return (self.self_attn.params() + self.norm1.params()
                + self.cross_attn.params() + self.norm2.params()
                + self.ff.params() + self.norm3.params())

    def forward(self, x, memory, c, self_mode, p_drop, drop_rng):
        a = multi_head(x, x, self.self_attn, c, mode=self_mode, causal=True)
        x = self.norm1.forward(x, a, p_drop, drop_rng)
        a = multi_head(x, memory, self.cross_attn, c, mode="full", causal=False)
        x = self.norm2.forward(x, a, p_drop, drop_rng)
        return self.norm3.forward(x, self.ff.forward(x), p_drop, drop_rng)


class GaussianHead:
    """Per-position diagonal Gaussian: d_model -> (mean, log variance).

    The log-variance map starts at zero so an untrained model emits unit
    variance in normalized space; a randomly initialized spread head makes
    early NLL steps erratic.
    """

    def __init__(self, d_model: int, data_dim: int, rng: np.random.Generator):
        self.w_mu = parameter(rng, (d_model, data_dim))
        self.b_mu = zeros_parameter((data_dim,))
        self.w_lv = zeros_parameter((d_model, data_dim))
        self.b_lv = zeros_parameter((data_dim,))

    def params(self):
        return [self.w_mu, self.b_mu, self.w_lv, self.b_lv]

    def forward(self, x: Tensor):
        mean = add(matmul(x, self.w_mu), self.b_mu)
        log_var = clip(add(matmul(x, self.w_lv), self.b_lv),
                       -LOG_VAR_BOUND, LOG_VAR_BOUND)
        return mean, log_var


def _ceil_half(n: int, times: int) -> int:
    for _ in range(times):
        n = (n + 1) // 2
    return n


class _SeqForecaster:
    """The one encoder-decoder skeleton; a subclass is a configuration.

    A subclass sets ``attention_mode``, the encoder shape (``n_stacks``,
    ``main_blocks``, ``distilling``) and ``decoder_layers``.
    ``config_keys`` names the constructor keywords in the order of the
    ``<kind>/config`` checkpoint record.
    """

    config_keys: tuple = ()

    def __init__(self, data_dim, d_model, n_heads, ff_width, p_drop, c,
                 l_x, l_token, l_y, stride, seed, init_rng=None):
        for name, size in (("data_dim", data_dim), ("d_model", d_model),
                           ("n_heads", n_heads), ("ff_width", ff_width),
                           ("n_stacks", self.n_stacks),
                           ("main_blocks", self.main_blocks)):
            if size < 1:
                raise ParameterError(f"{name} must be >= 1, got {size}")
        if l_token > l_x:
            raise ParameterError(f"start token {l_token} longer than context {l_x}")
        if min(l_x, l_token, l_y) < 1:
            raise ParameterError("sequence lengths must be >= 1")
        if not 0 < stride < np.inf:  # also rejects nan
            raise ParameterError(
                f"time stride must be positive and finite, got {stride}")
        if d_model % 2:
            raise ParameterError(f"d_model {d_model} must be even: the time "
                                 f"encoding pairs a sine with a cosine")
        if not 0 < c < np.inf:  # also rejects nan
            raise ParameterError(
                f"sampling constant c must be positive and finite, got {c}")
        self.data_dim = int(data_dim)
        self.d_model = int(d_model)
        self.n_heads = n_heads
        self.c = c
        self.ff_width = int(ff_width)
        self.p_drop = float(p_drop)
        self.l_x = int(l_x)
        self.l_token = int(l_token)
        self.l_y = int(l_y)
        self.stride = float(stride)
        rng = init_rng or rng_mod.stream(seed, rng_mod.TRAIN, 7000)
        self.embed_enc = ValueEmbedding(data_dim, d_model, rng)
        self.embed_dec = ValueEmbedding(data_dim, d_model, rng)
        # stack s runs on the tail ceil(L_x / 2^s) rows with one fewer block
        width = (self.d_model, self.n_heads, self.ff_width)
        self.stacks = [[(EncoderBlock(*width, rng),
                         DistillWeights(self.d_model, rng) if self.distilling
                         else None)
                        for _ in range(max(1, self.main_blocks - s))]
                       for s in range(self.n_stacks)]
        self.decoder = [DecoderLayer(*width, rng)
                        for _ in range(self.decoder_layers)]
        self.head = GaussianHead(d_model, data_dim, rng)

    def params(self):
        out = []
        for blocks in self.stacks:
            for block, dw in blocks:
                out += block.params() + (dw.params() if dw else [])
        out += self.embed_enc.params() + self.embed_dec.params()
        for layer in self.decoder:
            out += layer.params()
        return out + self.head.params()

    def _encode(self, e: Tensor, drop):
        parts = []
        for s, blocks in enumerate(self.stacks):
            take = _ceil_half(self.l_x, s)
            x = slice_rows(e, self.l_x - take, self.l_x) if take < self.l_x else e
            for block, dw in blocks:
                x = block.forward(x, self.c, self.attention_mode, self.p_drop,
                                  drop)
                if dw:
                    x = distill(x, dw)
            parts.append(x)
        return concat(parts, axis=0) if len(parts) > 1 else parts[0]

    def named_params(self) -> dict:
        return {f"{self.kind}/p/{i}": p for i, p in enumerate(self.params())}

    def _config_vector(self) -> np.ndarray:
        return np.array([getattr(self, k) for k in self.config_keys],
                        dtype=np.float64)

    def state_records(self) -> dict:
        rec = {f"{self.kind}/config": self._config_vector()}
        for name, p in self.named_params().items():
            rec[name] = p.data
        return rec

    @classmethod
    def from_records(cls, rec: dict):
        """Rebuild from ``<kind>/config`` without drawing an initialisation;
        a keyword whose default is a float is read as a float, every other
        one as a checked size."""
        name = f"{cls.kind}/config"
        vec = read(rec, name, (len(cls.config_keys),))
        defaults = inspect.signature(cls).parameters
        model = cls(**{k: float(vec[i]) if isinstance(defaults[k].default, float)
                       else read_int(rec, name, i, size=True)
                       for i, k in enumerate(cls.config_keys)},
                    init_rng=Undrawn(rec))
        load_params(rec, model.named_params())
        return model

    # -- the model protocol of timegrad.fit and the CLI -----------------

    context_rows = property(lambda self: self.l_x)
    horizon = property(lambda self: self.l_y)

    def window_loss(self, values, timestamps, start, rng, drop_rng) -> Tensor:
        """Gaussian NLL of the window at ``start``, dropout on when drop_rng
        is given; ``rng`` is unused."""
        mid, end = start + self.l_x, start + self.l_x + self.l_y
        ts = timestamps[start:end]
        ctx_n, stats = normalize_window(values[start:mid])
        mean, log_var = self.forward(ctx_n, ts[:self.l_x], ts[self.l_x:],
                                     drop_rng)
        return gaussian_nll(mean, log_var, stats.normalize(values[mid:end]))

    def forecast(self, context, context_ts, target_ts, n_samples, seed):
        return forecast(self, context, context_ts, target_ts, n_samples, seed)

    def forward(self, x_enc, enc_timestamps, target_timestamps, drop_rng=None):
        """One generative pass: Gaussian parameters for all target positions,
        with dropout masks drawn from ``drop_rng``, or none without it.

        The decoder consumes concat(start token, zero placeholder), the token
        being the last ``l_token`` rows of ``x_enc``; the placeholder rows
        carry only the target timestamps through the time encoding.
        """
        x_enc = np.atleast_2d(np.asarray(x_enc, dtype=np.float64))
        if x_enc.shape[0] != self.l_x:
            raise ParameterError(f"encoder input must have {self.l_x} rows")
        enc_ts = np.asarray(enc_timestamps, dtype=np.float64)
        tgt_ts = np.asarray(target_timestamps, dtype=np.float64)
        if len(tgt_ts) != self.l_y:
            raise ParameterError(
                f"one-shot decoder emits {self.l_y} steps, not {len(tgt_ts)}; "
                f"retrain at horizon {len(tgt_ts)} to forecast that many")
        anchor = float(enc_ts[0])

        e = self.embed_enc.forward(x_enc, enc_ts, self.stride, anchor)
        e = dropout(e, self.p_drop, drop_rng)
        memory = self._encode(e, drop_rng)

        l_tok = self.l_token
        dec_vals = np.concatenate([x_enc[-l_tok:], np.zeros((self.l_y, self.data_dim))])
        dec_ts = np.concatenate([enc_ts[-l_tok:], tgt_ts])
        d = self.embed_dec.forward(dec_vals, dec_ts, self.stride, anchor)
        d = dropout(d, self.p_drop, drop_rng)
        for layer in self.decoder:
            d = layer.forward(d, memory, self.c, self.attention_mode,
                              self.p_drop, drop_rng)
        return self.head.forward(slice_rows(d, l_tok, l_tok + self.l_y))


class InformerModel(_SeqForecaster):
    """Sparse-attention encoder-decoder with distilling and stack replicas."""

    kind = "informer"
    attention_mode = "prob"
    distilling, decoder_layers = True, 2
    config_keys = ("data_dim", "d_model", "n_heads", "ff_width", "p_drop", "c",
                   "l_x", "l_token", "l_y", "n_stacks", "main_blocks", "stride")

    def __init__(self, data_dim, d_model=64, n_heads=4, ff_width=128,
                 p_drop=0.1, c=5.0, l_x=96, l_token=48, l_y=45,
                 n_stacks=2, main_blocks=2, stride=2.0, seed=0, init_rng=None):
        self.n_stacks = int(n_stacks)
        self.main_blocks = int(main_blocks)
        super().__init__(data_dim, d_model, n_heads, ff_width, p_drop, c,
                         l_x, l_token, l_y, stride, seed, init_rng)


class VanillaTransformer(_SeqForecaster):
    """Dense-attention baseline: 3 encoder and 3 decoder layers, dropout 0.2."""

    kind = "vanilla"
    attention_mode = "full"
    n_stacks, main_blocks, distilling, decoder_layers = 1, 3, False, 3
    config_keys = ("data_dim", "d_model", "n_heads", "ff_width", "p_drop",
                   "l_x", "l_token", "l_y", "stride")

    def __init__(self, data_dim, d_model=64, n_heads=4, ff_width=128,
                 p_drop=0.2, l_x=96, l_token=48, l_y=45, stride=2.0, seed=0,
                 init_rng=None):
        super().__init__(data_dim, d_model, n_heads, ff_width, p_drop, 5.0,
                         l_x, l_token, l_y, stride, seed, init_rng)


def gaussian_nll(mean: Tensor, log_var: Tensor, target) -> Tensor:
    """Sum over positions and dims of 0.5 (log 2pi + log_var + (t-m)^2/var)."""
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if tuple(target.shape) != tuple(mean.shape):
        raise ContractError(f"target shape {target.shape} != mean {mean.shape}")
    resid = sub(constant(target), mean)
    sq_over_var = mul(mul(resid, resid), exp(scale(log_var, -1.0)))
    inner = add(log_var, sq_over_var)
    n = float(np.prod(target.shape))
    return scale(add(tsum(inner), n * LOG_TWO_PI), 0.5)


def sample_paths(mean, log_var, n_samples: int,
                 rng: np.random.Generator) -> ForecastEnsemble:
    """Draw independent Gaussian paths mean + exp(log_var/2) * z.

    Output stays in the caller's (normalized) space; denormalization is the
    caller's responsibility.
    """
    return ForecastEnsemble(samples=_draw(mean, log_var, n_samples, rng))


def _draw(mean, log_var, n_samples, rng) -> np.ndarray:
    """``sample_paths``' samples as one writable array: z is drawn, then
    scaled and shifted in place."""
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    mean = np.asarray(mean.data if isinstance(mean, Tensor) else mean)
    log_var = np.asarray(log_var.data if isinstance(log_var, Tensor) else log_var)
    check_draws(n_samples, mean.size)
    z = rng.standard_normal((n_samples,) + mean.shape)
    z *= np.exp(0.5 * log_var)
    z += mean
    return z


def forecast(model, context, context_timestamps, target_timestamps,
             n_samples: int, seed: int) -> ForecastEnsemble:
    """Normalize the context, run one generative pass, sample the Gaussian
    head, and map the ensemble back to the original scale.

    Raises TrainingError naming the first horizon step whose samples are
    not finite."""
    context = np.atleast_2d(np.asarray(context, dtype=np.float64))
    if context.shape[0] != model.l_x:
        raise ParameterError(f"context must supply exactly {model.l_x} rows")
    ctx_n, stats = normalize_window(context)
    with no_grad():
        mean, log_var = model.forward(ctx_n, context_timestamps,
                                      target_timestamps)
    samples = _draw(mean, log_var, n_samples,
                    rng_mod.stream(seed, rng_mod.PATH))
    bad = np.flatnonzero(~np.isfinite(samples).all(axis=(0, 2)))
    if bad.size:
        raise TrainingError(f"non-finite forecast samples at horizon step t={bad[0]}")
    samples *= stats.scale  # stats.denormalize, in place
    samples += stats.mean
    return ForecastEnsemble(samples=samples, timestamps=target_timestamps)
