"""The benchmark's workloads.

Each workload builds its inputs from the seed alone, through
`SyntheticFieldConfig(seed=...)`, and exposes the same steps to the runner:
`setup` (timed, repeated), `warmup`, `chunk` (one timed piece of work of
`units` operations), `op_intervals` (the start and end of each operation
of the last chunk), `check` (untimed output checks) and `close`.  The
calibrator `cal` is theirs to sample inside long operations.  Calls into
wellcast go through module attributes at call time, so the layer tracer's
stand-ins see them.

An operation is a training window (tg_train, informer_train,
vanilla_train), a 100-path x 45-step ensemble (tg_forecast) or one
forecast + evaluate CLI cycle (reforecast).
"""

import contextlib
import hashlib
import io
import shutil
import time
from pathlib import Path

import numpy as np

from wellcast import cli, data, evaluation, seqmodels, timegrad
from wellcast.errors import WellcastError
from wellcast.optim import AdamW

CONTEXT = 90          # timegrad context window
HORIZON = 45
ENC_LENGTH = 96       # transformer encoder context (l_x)
TOKEN_LENGTH = 48
WINDOWS_PER_EPOCH = 64
PATHS = 100
LR = 1e-4
FIXTURE_WINDOWS = 16  # tg_forecast's set-up fit
REFORECAST_TRAIN_WINDOWS = 2


class SmallOpsKernel:
    """Reference kernel shaped like tape-heavy training, set-up and the
    CLI: small float64 matmuls and elementwise ops, and dict building."""

    REF_S = 1.5e-3  # on a 2-core 2.0 GHz Xeon VM, cores not shared

    def __init__(self):
        self.a = np.random.default_rng(0).standard_normal((32, 32))

    def __call__(self) -> None:
        x = self.a
        for _ in range(150):
            x = np.tanh(x @ self.a) * 0.5
            _ = {j: j for j in range(20)}


class BatchMlpKernel:
    """Reference kernel shaped like sampling: an EpsilonNet-sized MLP
    (132 -> 128 -> 128 -> 4, ELU) at batch 100, in plain numpy."""

    REF_S = 1.2e-3  # on a 2-core 2.0 GHz Xeon VM, cores not shared

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((100, 132))
        self.w = [rng.standard_normal(shape) * 0.1
                  for shape in ((132, 128), (128, 128), (128, 4))]

    def __call__(self) -> None:
        for _ in range(3):
            z = self.x
            for w in self.w:
                z = z @ w
                z = np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))


class AttentionKernel:
    """One 4-head attention block with layer norm and a feed-forward layer
    over 96 rows of width 64, twice, in plain numpy."""

    REF_S = 1.5e-3  # on a 2-core 2.0 GHz Xeon VM, cores not shared

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((96, 64))
        self.heads = [[rng.standard_normal((64, 16)) * 0.1 for _ in "qkv"]
                      for _ in range(4)]
        self.w_out = rng.standard_normal((64, 64)) * 0.1
        self.w_ff = (rng.standard_normal((64, 128)) * 0.1,
                     rng.standard_normal((128, 64)) * 0.1)

    def __call__(self) -> None:
        for _ in range(2):
            outs = []
            for w_q, w_k, w_v in self.heads:
                scores = (self.x @ w_q) @ (self.x @ w_k).T / 4.0
                weights = np.exp(scores - scores.max(axis=1, keepdims=True))
                weights /= weights.sum(axis=1, keepdims=True)
                outs.append(weights @ (self.x @ w_v))
            y = self.x + np.concatenate(outs, axis=1) @ self.w_out
            y = (y - y.mean(axis=1, keepdims=True)) / y.std(axis=1, keepdims=True)
            h = y @ self.w_ff[0]
            np.where(h > 0, h, np.expm1(np.minimum(h, 0.0))) @ self.w_ff[1]


class TransformerKernel:
    """Reference kernel shaped like transformer training, whose windows mix
    tape-level small ops with attention-block matmuls: the small-ops kernel
    then the attention kernel.  Either one alone moved with the machine's
    speed by more (small ops) or less (attention) than the windows did."""

    REF_S = SmallOpsKernel.REF_S + AttentionKernel.REF_S

    def __init__(self):
        self.parts = (SmallOpsKernel(), AttentionKernel())

    def __call__(self) -> None:
        for part in self.parts:
            part()


def oil_panel(seed: int):
    """The all_sites_oil panel (4 sites x 2000 steps) for this seed."""
    panel = data.generate_synthetic(data.SyntheticFieldConfig(seed=seed))
    return panel.select([(s, data.OIL) for s in panel.site_names])


def sampling_adamw(params, owner, stamps=None) -> AdamW:
    """AdamW that runs the reference kernel of `owner.cal` (looked up per
    step: set-up and chunks sample different kernels) after each step, at
    most every `min_gap_s`, and appends each step's end time to `stamps`.
    The class attribute is looked up per call, so a traced step is seen."""
    opt = AdamW(params, lr=LR)

    def step():
        type(opt).step(opt)
        if stamps is not None:
            stamps.append(time.perf_counter())
        owner.cal.maybe_sample()

    opt.step = step
    return opt


def finite_losses(history, what: str) -> list:
    losses = list(history.train_loss) + list(history.val_loss)
    if all(np.isfinite(losses)):
        return []
    return [f"{what}: non-finite loss {losses}"]


class TimegradTrain:
    """`timegrad.fit` on all_sites_oil, one 64-window epoch per chunk."""

    name = "tg_train"
    kernel = SmallOpsKernel
    unit = "window"
    units = WINDOWS_PER_EPOCH
    same_work_each_chunk = False  # each chunk is the next epoch
    rate_metric = "timegrad_windows_per_s"
    loss_metric = "timegrad_val_loss"
    # counts per backward, per step or per forward pass that the model
    # shapes fix, so every window of every seed gives the same value
    seed_independent = ("tensor.tape_nodes", "tensor.tape_bytes",
                        "tensor.discarded_grad_frac", "optim.param_arrays")

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.panel = oil_panel(seed)
        self.model = self._model(self.panel, seed)
        self.val_loss = None
        # one timestamp per optimizer step, i.e. per training window
        self.stamps = []
        self.opt = sampling_adamw(self.model.params(), self, self.stamps)

    def _model(self, panel, seed):
        return timegrad.TimeGradModel(len(panel.columns),
                                      context_length=CONTEXT,
                                      prediction_length=HORIZON, seed=seed)

    def _fit(self, model, panel, opt, seed, windows, epoch):
        return timegrad.fit(model, panel, epochs=1, seed=seed, lr=LR,
                            windows_per_epoch=windows, opt=opt,
                            start_epoch=epoch)[0]

    def warmup(self) -> None:
        # a throwaway model, so the measured training starts from setup
        self._fit(self._model(self.panel, self.seed), self.panel, None,
                  self.seed, 2, 0)

    def chunk(self, i: int):
        self.stamps.clear()
        return self._fit(self.model, self.panel, self.opt, self.seed,
                         self.units, i)

    def op_intervals(self, start: float, end: float) -> list:
        """Each window, step to step: the epoch's validation pass after the
        last step is in the chunk but in no window."""
        marks = [start] + self.stamps
        return list(zip(marks, marks[1:]))

    def check(self, i: int, history) -> list:
        if i == 0:
            self.val_loss = history.val_loss[0]
        return finite_losses(history, f"epoch {i}")

    def probe(self, seed: int) -> None:
        """One window on another seed's panel, for the cross-seed counts."""
        panel = oil_panel(seed)
        self._fit(self._model(panel, seed), panel, None, seed, 1, 0)

    def quality(self) -> dict:
        return {self.loss_metric: (self.val_loss, "loss")}

    def facts(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class SeqTrain(TimegradTrain):
    """`seqmodels.train_model` for one transformer, 64 windows per chunk."""

    kernel = TransformerKernel

    def __init__(self, kind: str):
        self.kind = kind
        if kind == "informer":
            # the causal decoder's prefix top-u picks a data-dependent number
            # of queries, so its tape and attention counts vary by window
            self.seed_independent = ("optim.param_arrays",
                                     "attention.measure_dots")
        else:
            self.seed_independent = TimegradTrain.seed_independent + (
                "attention.measure_dots", "attention.attention_dots")
        self.name = f"{kind}_train"
        self.rate_metric = f"{kind}_windows_per_s"
        self.loss_metric = f"{kind}_val_loss"
        self.model_cls = {"informer": seqmodels.InformerModel,
                          "vanilla": seqmodels.VanillaTransformer}[kind]

    def _model(self, panel, seed):
        return self.model_cls(len(panel.columns), l_x=ENC_LENGTH,
                              l_token=TOKEN_LENGTH, l_y=HORIZON,
                              stride=float(panel.stride), seed=seed)

    def _fit(self, model, panel, opt, seed, windows, epoch):
        return seqmodels.train_model(model, panel, epochs=1, seed=seed,
                                     lr=LR, windows_per_epoch=windows,
                                     opt=opt, start_epoch=epoch)[0]


class TimegradForecast:
    """100 x 45 `timegrad.forecast` from a briefly fitted model, then the
    quantile, best-quantile and moment evaluation over the 4 sites."""

    name = "tg_forecast"
    kernel = BatchMlpKernel
    unit = "ensemble"
    units = 1
    same_work_each_chunk = True
    seed_independent = ()
    rate_metric = None

    def setup(self, seed: int) -> None:
        self.seed = seed
        panel = oil_panel(seed)
        self.model = timegrad.TimeGradModel(
            len(panel.columns), context_length=CONTEXT,
            prediction_length=HORIZON, seed=seed)
        timegrad.fit(self.model, panel, epochs=1, seed=seed, lr=LR,
                     windows_per_epoch=FIXTURE_WINDOWS,
                     opt=sampling_adamw(self.model.params(), self))
        # sample the reference kernel between horizon steps of a forecast
        model = self.model

        def step_state(x, states):
            out = type(model).step_state(model, x, states)
            self.cal.maybe_sample()
            return out

        model.step_state = step_state
        k = panel.split_index
        self.context = panel.values[k - CONTEXT:k]
        self.truth = panel.values[k:k + HORIZON]
        self.train = panel.values[:k]
        self.timestamps = panel.timestamps[k:k + HORIZON].astype(np.float64)
        self.digest = None
        self.best = None

    def warmup(self) -> None:
        timegrad.forecast(self.model, self.context, 1, PATHS, self.seed)

    def op_intervals(self, start: float, end: float) -> list:
        return [(start, end)]

    def chunk(self, i: int):
        ens = timegrad.forecast(self.model, self.context, HORIZON, PATHS,
                                self.seed, timestamps=self.timestamps)
        evaluation.quantile_path(ens, 0.5)
        best = []
        for j in range(ens.n_dims):
            def metric(path, truth, _train=self.train[:, j]):
                return evaluation.mase(path, truth, _train)
            best.append(evaluation.best_quantile(ens, self.truth[:, j],
                                                 metric, dim=j)[1])
        evaluation.ensemble_moments(ens)
        return ens, best

    def check(self, i: int, output) -> list:
        ens, best = output
        dims = self.context.shape[1]
        if ens.samples.shape != (PATHS, HORIZON, dims):
            return [f"ensemble shape {ens.samples.shape} != "
                    f"{(PATHS, HORIZON, dims)}"]
        failures = []
        if not np.isfinite(ens.samples).all():
            failures.append("ensemble has non-finite samples")
        paths = np.stack([evaluation.quantile_path(ens, q)
                          for q in evaluation.QUANTILE_GRID])
        if (np.diff(paths, axis=0) < 0).any():
            failures.append("quantile paths decrease in q")
        digest = hashlib.sha256(ens.samples.tobytes()).hexdigest()
        if self.digest is None:
            self.digest, self.best = digest, best
        elif digest != self.digest:
            failures.append("ensemble differs from the first same-seed one")
        return failures

    def quality(self) -> dict:
        return {"mase_best_mean": (float(np.mean(self.best)), "ratio")}

    def facts(self) -> dict:
        return {"ensemble_sha256": self.digest}

    def close(self) -> None:
        pass


class Reforecast:
    """Closed loop, one client: `wellcast forecast` then `wellcast evaluate`
    in-process, informer on oil_water_per_site (4 bivariate groups)."""

    name = "reforecast"
    kernel = SmallOpsKernel
    unit = "cycle"
    units = 1
    same_work_each_chunk = True
    seed_independent = ()
    rate_metric = None

    def __init__(self, work_root: Path):
        self.work_root = work_root
        self.n_setups = 0
        self.out = None

    def _cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in argv])

    def _args(self, command: str) -> list:
        return [command, "--model", "informer",
                "--grouping", "oil_water_per_site",
                "--data", self.out / "data.csv", "--out", self.out,
                "--seed", self.seed]

    def setup(self, seed: int) -> None:
        self.close()
        self.seed = seed
        self.n_setups += 1
        self.out = self.work_root / f"reforecast-{self.n_setups}"
        if self._cli(["generate", "--out", self.out, "--seed", seed]) != 0:
            raise RuntimeError("set-up: wellcast generate failed")
        self.cal.maybe_sample()
        if self._cli(self._args("train") + [
                "--epochs", 1,
                "--windows-per-epoch", REFORECAST_TRAIN_WINDOWS]) != 0:
            raise RuntimeError("set-up: wellcast train failed")
        self.digest = None
        self.best = None

    def warmup(self) -> None:
        self.chunk(-1)

    def op_intervals(self, start: float, end: float) -> list:
        return [(start, end)]

    def chunk(self, i: int):
        return self._cli(self._args("forecast")), self._cli(self._args("evaluate"))

    def check(self, i: int, codes) -> list:
        failures = [f"{cmd} exited {rc}"
                    for cmd, rc in zip(("forecast", "evaluate"), codes) if rc]
        if failures:
            return failures
        report_text = (self.out / "informer_report.csv").read_text()
        try:
            report = evaluation.MetricsReport.from_csv_text(report_text)
        except (WellcastError, ValueError, IndexError, TypeError) as exc:
            return [f"report does not parse: {exc}"]
        digest = hashlib.sha256()
        for path in sorted(self.out.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        digest = digest.hexdigest()
        if self.digest is None:
            self.digest = digest
            self.best = [r.mase for r in report.rows if r.site.endswith("*")]
        elif digest != self.digest:
            failures.append("artifacts differ from the first cycle's")
        return failures

    def quality(self) -> dict:
        return {"mase_best_mean": (float(np.mean(self.best)), "ratio")}

    def facts(self) -> dict:
        return {"artifacts_sha256": self.digest}

    def close(self) -> None:
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)
            self.out = None


def make(name: str, work_root: Path):
    if name == "tg_train":
        return TimegradTrain()
    if name == "tg_forecast":
        return TimegradForecast()
    if name in ("informer_train", "vanilla_train"):
        return SeqTrain(name.split("_")[0])
    if name == "reforecast":
        return Reforecast(work_root)
    raise ValueError(f"unknown workload {name!r}")
