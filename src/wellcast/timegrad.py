"""Autoregressive diffusion forecaster: a GRU summarizes the observed past
and conditions a per-step denoising sampler.

Training teacher-forces the recurrence: the GRU consumes ground-truth values
over a context window and the adjacent prediction window, and the diffusion
loss scores each prediction step against noise injected on the true value,
conditioned on the hidden state from the previous step.  Forecasting replaces
ground truth with the model's own draws, one reverse-chain rollout per step,
and carries the sampled value back into the recurrence.

Under teacher forcing every GRU input of a window is known before the first
step, so training, validation and the forecast's context pass go through
``GRUCell.sequence``: one input-projection matmul for all steps (the hoisting
of Appleyard et al., arXiv 1604.01946) and one tape node per layer with a
hand-written backward through time, instead of about 20 nodes per step.  The
forecast horizon loop still advances with ``GRUCell.step``, because each of
its inputs is the draw sampled from the state before it.  ``step`` is also
the op-by-op reference that ``sequence`` is tested against.

Each window is normalized by its own context statistics; forecasts are mapped
back to the original scale before they leave this module.

``fit`` is the package's one training loop: the transformers of
``seqmodels`` train through it too, over the small model protocol that its
docstring states.
"""

from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .checkpoint import Undrawn, load_params, read, read_int
# reverse_step stays bound here although forecast samples through
# diffusion.sample: bench/tracing.py wraps timegrad.reverse_step by name
from .diffusion import (EpsilonNet, NoiseSchedule, build_schedule, ddpm_loss,
                        reverse_step, sample)
from .errors import ContractError, FormatError, ParameterError, TrainingError
from .evaluation import ForecastEnsemble, check_draws
from .optim import AdamW
from .tensor import (Tensor, _record, add, backward, constant, matmul, mul,
                     no_grad, parameter, sigmoid, slice_rows, sub, tanh,
                     zeros_parameter)


class GRUCell:
    """Standard gated recurrent unit.

    z = sigmoid(x Wz + h Uz + bz); r = sigmoid(x Wr + h Ur + br)
    cand = tanh(x Wh + (r * h) Uh + bh); h' = (1 - z) * h + z * cand
    Gates are sigmoid outputs, so h' is an elementwise convex combination of
    the previous state and a tanh value: |h'| <= max(|h|, 1).
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.input_dim = int(input_dim)
        self.hidden_dim = int(hidden_dim)
        mk_w = lambda: parameter(rng, (self.input_dim, self.hidden_dim))
        mk_u = lambda: parameter(rng, (self.hidden_dim, self.hidden_dim))
        mk_b = lambda: zeros_parameter((self.hidden_dim,))
        self.w_z, self.u_z, self.b_z = mk_w(), mk_u(), mk_b()
        self.w_r, self.u_r, self.b_r = mk_w(), mk_u(), mk_b()
        self.w_h, self.u_h, self.b_h = mk_w(), mk_u(), mk_b()

    def params(self) -> list:
        return [self.w_z, self.u_z, self.b_z, self.w_r, self.u_r, self.b_r,
                self.w_h, self.u_h, self.b_h]

    def step(self, x: Tensor, h: Tensor) -> Tensor:
        if x.shape[1] != self.input_dim or h.shape[1] != self.hidden_dim:
            raise ContractError(
                f"gru_step shapes {x.shape}/{h.shape} do not match cell "
                f"({self.input_dim}/{self.hidden_dim})")
        z = sigmoid(add(add(matmul(x, self.w_z), matmul(h, self.u_z)), self.b_z))
        r = sigmoid(add(add(matmul(x, self.w_r), matmul(h, self.u_r)), self.b_r))
        cand = tanh(add(add(matmul(x, self.w_h), matmul(mul(r, h), self.u_h)),
                        self.b_h))
        keep = sub(constant(np.ones(z.shape)), z)
        return add(mul(keep, h), mul(z, cand))

    def sequence(self, xs: Tensor, h0: Tensor) -> Tensor:
        """Run the cell over known inputs xs [T, D] from state h0 [1, H].

        Returns the [T, H] stack of hidden states, recorded as one tape node.
        All T inputs are projected by one [T, D] @ [D, 3H] matmul; each step
        then does the gate arithmetic of ``step`` on plain arrays.  The backward
        walks the steps in reverse to build the pre-activation gradients
        dA [T, 3H] and the carried dh, then forms every weight gradient with
        one matmul over all steps.

        A step over vectors this small costs what its numpy calls cost.  Both
        loops walk precomputed row views, write each result into its [T, .]
        row with ``out=`` and pass 0-d constants, as a Python float costs a
        conversion per call: 14 calls per forward step, 10 per backward step.
        The bits stay ``step``'s: ``np.dot(vec, mat, out=row)`` makes the same
        gemv call as ``@``; the z/r projections are negated once, as IEEE
        negation commutes with products, sums and rounding; the sigmoid's
        upper clamp is dropped, as above 500 both forms give 1 / (1 + tiny)
        == 1.0; and only additions that commute are reordered.
        """
        if (xs.ndim != 2 or xs.shape[1] != self.input_dim
                or h0.shape != (1, self.hidden_dim)):
            raise ContractError(
                f"gru_sequence shapes {xs.shape}/{h0.shape} do not match cell "
                f"({self.input_dim}/{self.hidden_dim})")
        n_h, steps = self.hidden_dim, xs.shape[0]
        w = np.concatenate([self.w_z.data, self.w_r.data, self.w_h.data], axis=1)
        b = np.concatenate([self.b_z.data, self.b_r.data, self.b_h.data])
        u_zr = np.concatenate([self.u_z.data, self.u_r.data], axis=1)
        u_h = self.u_h.data
        ax = xs.data @ w + b
        neg_ax_zr, neg_u_zr, ax_h = -ax[:, :2 * n_h], -u_zr, ax[:, 2 * n_h:]
        # per-step gates, candidate and r * h, kept for the backward
        zr_all = np.empty((steps, 2 * n_h))
        cand_all, rh_all, out = (np.empty((steps, n_h)) for _ in range(3))
        add, mul, dot = np.add, np.multiply, np.dot
        h, one, cap = h0.data[0], np.array(1.0), np.array(500.0)
        for nax, zr, z, r, rh, axh, cand, h_new in zip(
                neg_ax_zr, zr_all, zr_all[:, :n_h], zr_all[:, n_h:], rh_all,
                ax_h, cand_all, out):
            add(dot(h, neg_u_zr, out=zr), nax, out=zr)
            np.exp(np.minimum(zr, cap, out=zr), out=zr)
            np.divide(one, add(zr, one, out=zr), out=zr)
            mul(r, h, out=rh)
            add(dot(rh, u_h, out=cand), axh, out=cand)
            np.tanh(cand, out=cand)
            mul(np.subtract(one, z, out=h_new), h, out=h_new)
            h = add(h_new, z * cand, out=h_new)

        def bwd(g):
            z, r = zr_all[:, :n_h], zr_all[:, n_h:]
            h_prev = np.concatenate([h0.data, out[:-1]])
            # d h_t / d (pre-activations, h_{t-1}) factors that need no dh
            keep = 1.0 - z
            dz_pre = (cand_all - h_prev) * z * keep
            dr_pre = h_prev * r * (1.0 - r)
            dcand_pre = z * (1.0 - cand_all * cand_all)
            u_zr_t, u_h_t = u_zr.T, u_h.T
            d_a = np.empty((steps, 3 * n_h))
            dh, d_rh = np.zeros(n_h), np.empty(n_h)
            for gt, d_zr, d_z, d_r, d_cand, dzp, drp, dcp, kp, rt in zip(
                    g[::-1], d_a[::-1, :2 * n_h], d_a[::-1, :n_h],
                    d_a[::-1, n_h:2 * n_h], d_a[::-1, 2 * n_h:], dz_pre[::-1],
                    dr_pre[::-1], dcand_pre[::-1], keep[::-1], r[::-1]):
                add(dh, gt, out=dh)
                dot(mul(dh, dcp, out=d_cand), u_h_t, out=d_rh)
                mul(dh, dzp, out=d_z)
                mul(d_rh, drp, out=d_r)
                mul(dh, kp, out=dh)
                add(dh, mul(d_rh, rt, out=d_rh), out=dh)
                add(dh, dot(d_zr, u_zr_t), out=dh)
            d_xs = d_a @ w.T if xs.requires_grad else None
            d_w = np.split(xs.data.T @ d_a, 3, axis=1)
            d_b = np.split(d_a.sum(axis=0), 3)
            d_u_z, d_u_r = np.split(h_prev.T @ d_a[:, :2 * n_h], 2, axis=1)
            d_u_h = rh_all.T @ d_a[:, 2 * n_h:]
            return (d_xs, dh[None, :], d_w[0], d_u_z, d_b[0], d_w[1], d_u_r,
                    d_b[1], d_w[2], d_u_h, d_b[2])

        return _record((xs, h0, *self.params()), out, bwd)


@dataclass
class WindowStats:
    """Per-dimension affine statistics of one context window."""

    mean: np.ndarray
    scale: np.ndarray

    def normalize(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean) / self.scale

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self.scale + self.mean


def normalize_window(window: np.ndarray):
    """Center and scale a [L, D] window per dimension.

    The scale is the population standard deviation plus a 1e-6 guard so
    constant windows normalize to exact zeros.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim == 1:
        window = window[:, None]
    if window.shape[0] < 1:
        raise ParameterError("window must contain at least one step")
    mean = window.mean(axis=0)
    stats = WindowStats(mean=mean, scale=window.std(axis=0) + 1e-6)
    return stats.normalize(window), stats


class TimeGradModel:
    kind = "timegrad"

    def __init__(self, data_dim: int, hidden_dim: int = 64, n_layers: int = 1,
                 context_length: int = 90, prediction_length: int = 45,
                 sched: NoiseSchedule | None = None, loss_norm: str = "l1",
                 seed: int = 0, init_rng=None):
        if context_length < 1 or prediction_length < 1:
            raise ParameterError("context and prediction lengths must be >= 1")
        if loss_norm not in ("l1", "l2"):
            raise ParameterError("loss_norm must be 'l1' or 'l2'")
        self.data_dim = int(data_dim)
        self.hidden_dim = int(hidden_dim)
        self.context_length = int(context_length)
        self.prediction_length = int(prediction_length)
        self.loss_norm = loss_norm
        self.sched = sched if sched is not None else build_schedule()
        rng = init_rng or rng_mod.stream(seed, rng_mod.TRAIN, 9000)
        self.layers = [GRUCell(data_dim if i == 0 else hidden_dim, hidden_dim, rng)
                       for i in range(int(n_layers))]
        self.eps_net = EpsilonNet(data_dim, hidden_dim, self.sched.n_steps, rng=rng)

    def params(self) -> list:
        out = []
        for cell in self.layers:
            out.extend(cell.params())
        out.extend(self.eps_net.params())
        return out

    def initial_state(self) -> list:
        # h_0 = 0 for every layer
        return [constant(np.zeros((1, self.hidden_dim))) for _ in self.layers]

    def step_state(self, x, states: list) -> list:
        """Advance all layers one step; layer i feeds layer i+1."""
        inp = x if isinstance(x, Tensor) else constant(np.atleast_2d(x))
        new_states = []
        for cell, h in zip(self.layers, states):
            h_new = cell.step(inp, h)
            new_states.append(h_new)
            inp = h_new
        return new_states

    def sequences(self, values: np.ndarray) -> list:
        """Teacher-forced pass over known inputs values [T, D], T >= 1.

        Returns each layer's [T, H] hidden states, one tape node per layer.
        Layer i's output is layer i+1's input, which gives the same states
        as stepping all layers time-major.
        """
        inp = constant(np.asarray(values, dtype=np.float64))
        out = []
        for cell, h in zip(self.layers, self.initial_state()):
            inp = cell.sequence(inp, h)
            out.append(inp)
        return out

    def unroll(self, values: np.ndarray) -> list:
        """Each layer's state after consuming values [T, D]."""
        steps = values.shape[0]
        return [slice_rows(s, steps - 1, steps) for s in self.sequences(values)]

    # -- the model protocol of ``fit`` and the CLI ----------------------

    context_rows = property(lambda self: self.context_length)
    horizon = property(lambda self: self.prediction_length)

    def window_loss(self, values, timestamps, start, rng, drop_rng) -> Tensor:
        """Loss of the window at ``start``; ``rng`` also draws the diffusion
        noise.  There is no dropout and timestamps are not an input."""
        mid = start + self.context_length
        return window_loss(self, values[start:mid],
                           values[mid:mid + self.prediction_length], rng)

    def forecast(self, context, context_ts, target_ts, n_samples, seed):
        return forecast(self, context, len(target_ts), n_samples, seed,
                        timestamps=target_ts)

    # -- persistence ----------------------------------------------------

    def named_params(self) -> dict:
        gru = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")
        names = [f"timegrad/gru/{i}/{n}" for i in range(len(self.layers)) for n in gru]
        names += [f"timegrad/eps/{n}" for n in ("w1", "b1", "w2", "b2", "w3", "b3")]
        return dict(zip(names, self.params()))

    def state_records(self) -> dict:
        rec = {
            "timegrad/config": np.array([
                self.data_dim, self.hidden_dim, len(self.layers),
                self.context_length, self.prediction_length,
                1.0 if self.loss_norm == "l1" else 2.0,
                0.0, 0.0,  # entries 6 and 7 are retired
            ], dtype=np.float64),
            "timegrad/sched": np.array([
                self.sched.n_steps, self.sched.beta_start, self.sched.beta_end]),
        }
        for name, p in self.named_params().items():
            rec[name] = p.data
        return rec

    @classmethod
    def from_records(cls, rec: dict) -> "TimeGradModel":
        cfg = read(rec, "timegrad/config", (8,))
        # entry 5 codes the loss norm; entries 6 and 7 held two retired
        # flags, and only their default 0 still describes this model
        for i, codes in ((5, (1.0, 2.0)), (6, (0.0,)), (7, (0.0,))):
            if cfg[i] not in codes:
                raise FormatError(f"record 'timegrad/config' entry {i} is "
                                  f"{cfg[i]!r}, expected "
                                  f"{' or '.join(map(str, codes))}")
        sc = read(rec, "timegrad/sched", (3,))
        sizes = ("data_dim", "hidden_dim", "n_layers", "context_length",
                 "prediction_length")
        model = cls(
            **{k: read_int(rec, "timegrad/config", i, size=True)
               for i, k in enumerate(sizes)},
            sched=build_schedule(read_int(rec, "timegrad/sched", 0, size=True),
                                 sc[1], sc[2]),
            loss_norm="l1" if cfg[5] == 1.0 else "l2",
            init_rng=Undrawn(rec))
        load_params(rec, model.named_params())
        return model


def window_loss(model: TimeGradModel, ctx: np.ndarray, target: np.ndarray,
                rng: np.random.Generator) -> Tensor:
    """Diffusion loss summed over one prediction window (teacher forcing)."""
    ctx_n, stats = normalize_window(ctx)
    target_n = stats.normalize(target)
    # prediction step t is conditioned on the state after input L - 1 + t
    inputs = np.concatenate([ctx_n, target_n[:-1]])
    h_all = model.sequences(inputs)[-1]
    h_batch = slice_rows(h_all, ctx_n.shape[0] - 1, inputs.shape[0])
    return ddpm_loss(target_n, h_batch, model.eps_net, model.sched, rng,
                     norm=model.loss_norm)


def forecast(model: TimeGradModel, context: np.ndarray, horizon: int,
             n_samples: int, seed: int, path_keys=None,
             timestamps=None) -> ForecastEnsemble:
    """Ensemble forecast: n_samples independent autoregressive rollouts.

    Every path owns a Philox noise stream keyed by (seed, PATH, key), so the
    set of paths depends only on the set of keys, not their order.  Paths
    advance in lockstep as one batch for speed; the arithmetic per row is
    path-independent.  Raises TrainingError naming the horizon step whose
    draws are not finite.
    """
    context = np.atleast_2d(np.asarray(context, dtype=np.float64))
    if context.shape[0] != model.context_length:
        raise ParameterError(
            f"context length {context.shape[0]} != model context "
            f"({model.context_length})")
    if context.shape[1] != model.data_dim:
        raise ParameterError("context dimension does not match the model")
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    check_draws(n_samples, horizon * model.sched.n_steps * model.data_dim)
    if path_keys is None:
        path_keys = list(range(n_samples))
    if len(path_keys) != n_samples:
        raise ParameterError("path_keys must provide one key per sample path")

    ctx_n, stats = normalize_window(context)
    big_n = model.sched.n_steps
    dim = model.data_dim
    # horizon step t reads the next [N, D] values of each path's stream:
    # noise[p, 0] seeds x_N and noise[p, i] is z at reverse step
    # n = N - i + 1 (the n = 1 step is forced to z = 0).  Drawn step by
    # step, a stream gives the values one whole draw would, in its order.
    gens = [rng_mod.stream(seed, rng_mod.PATH, key) for key in path_keys]
    noise = np.empty((n_samples, big_n, dim))

    with no_grad():
        states = model.unroll(ctx_n)
        states = [constant(np.repeat(h.data, n_samples, axis=0)) for h in states]
        out = np.empty((n_samples, horizon, dim))
        for t in range(horizon):
            for gen, block in zip(gens, noise):
                gen.standard_normal(out=block)
            x = sample(noise[:, 0], states[-1].data, model.eps_net,
                       model.sched, noise=noise[:, 1:].swapaxes(0, 1))
            if not np.isfinite(x).all():
                raise TrainingError(f"non-finite forecast draws at horizon step t={t}")
            out[:, t, :] = x
            states = model.step_state(x, states)
    return ForecastEnsemble(samples=stats.denormalize(out), timestamps=timestamps)


@dataclass
class TrainHistory:
    train_loss: list
    val_loss: list

    @property
    def gap(self) -> list:
        """Validation-minus-training gap per epoch (overfitting indicator)."""
        return [v - t for t, v in zip(self.train_loss, self.val_loss)]


def fit(model, panel, epochs: int, seed: int, lr: float = 1e-4,
        windows_per_epoch: int = 64, opt: AdamW | None = None,
        start_epoch: int = 0, on_epoch=None) -> tuple:
    """Train a forecaster on random windows of ``panel`` (``values``,
    ``timestamps`` and ``split_index``: the rows before the split are the
    training span); return (history, optimizer).

    Protocol: ``context_rows`` and ``horizon`` (window rows), ``params()``,
    and ``window_loss(values, timestamps, start, rng, drop_rng)``, the loss
    of the window at row ``start``; ``drop_rng=None`` means evaluation.
    The last tenth of the training span holds up to 5 validation windows,
    disjoint from the training windows.  Epoch e draws window starts and
    diffusion noise from the (seed, TRAIN, e) stream and dropout masks from
    (seed, DROPOUT, e); validation runs under no_grad on a fresh
    (seed, EVAL) stream, so every epoch scores the same noise.  A
    non-finite training loss, or mean validation loss, raises TrainingError
    naming its epoch; with no validation windows the validation loss is nan.
    """
    k = panel.split_index
    values = np.asarray(panel.values[:k], dtype=np.float64)
    timestamps = np.asarray(panel.timestamps[:k], dtype=np.float64)
    n, total = values.shape[0], model.context_rows + model.horizon
    if n < total:
        raise ParameterError(
            f"training span {n} shorter than context+horizon {total}")
    if opt is None:
        opt = AdamW(model.params(), lr=lr)
    val_span = int(0.1 * n)
    val_starts, train_hi = [], n
    if val_span >= total and n - val_span >= total:
        train_hi = n - val_span
        step = max(1, (val_span - total) // 4 + 1)
        val_starts = list(range(train_hi, n - total + 1, step))[:5]
    history = TrainHistory([], [])
    for e in range(start_epoch, start_epoch + epochs):
        rng = rng_mod.stream(seed, rng_mod.TRAIN, e)
        drop_rng = rng_mod.stream(seed, rng_mod.DROPOUT, e)
        losses = []
        for w in range(windows_per_epoch):
            start = int(rng.integers(0, train_hi - total + 1))
            loss = model.window_loss(values, timestamps, start, rng, drop_rng)
            losses.append(loss.item())
            if not np.isfinite(losses[-1]):
                raise TrainingError(
                    f"non-finite loss at epoch={e} window={w} start={start}")
            opt.zero_grad()
            backward(loss)
            opt.step()
        eval_rng = rng_mod.stream(seed, rng_mod.EVAL)
        with no_grad():
            val = [model.window_loss(values, timestamps, s, eval_rng, None).item()
                   for s in val_starts]
        tr = float(np.mean(losses)) if losses else 0.0
        vl = float(np.mean(val)) if val else float("nan")
        if val and not np.isfinite(vl):
            raise TrainingError(f"non-finite validation loss at epoch={e}")
        history.train_loss.append(tr)
        history.val_loss.append(vl)
        if on_epoch is not None:
            on_epoch(e, tr, vl)
    return history, opt
