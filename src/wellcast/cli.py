"""Command-line pipeline: generate, train, forecast, evaluate, pipeline.

Configuration is a flat key=value file plus CLI flag overrides (flags win).
Every command is deterministic given (config, seed, input files) and writes
only under its --out directory (made by checkpoint.atomic_write on the first
write).  Logs are line-oriented key=value records.

Exit codes: 0 success, 2 validation error, 3 numeric failure, 4 I/O error.
"""

import argparse
import contextlib
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import checkpoint, data, evaluation, rng, seqmodels, timegrad, workers
from .errors import FormatError, ParameterError, TrainingError, ValidationError
from .evaluation import ForecastEnsemble, MetricsReport, SiteMetrics
from .optim import AdamW
from .tensor import no_grad

MODELS = {cls.kind: cls for cls in (timegrad.TimeGradModel, seqmodels.InformerModel,
                                    seqmodels.VanillaTransformer)}
MODEL_KINDS = tuple(MODELS)
GROUPINGS = ("all_sites_oil", "oil_water_per_site", "oil_only_pairs")
DEFAULT_EPOCHS = {"timegrad": 40, "informer": 9, "vanilla": 40}


def log(**kw) -> None:
    print(" ".join(f"{k}={v}" for k, v in kw.items()))


@dataclass
class RunConfig:
    command: str = ""
    model: str = "informer"
    data: str = ""
    synthetic_config: str = ""
    grouping: str = "all_sites_oil"
    horizon: int = 45
    samples: int = 100
    epochs: int = -1          # -1: per-model default
    seed: int = 42
    out: str = "runs"
    checkpoint: str = ""
    quantile: float = 0.5
    windows_per_epoch: int = 64
    lr: float = 1e-4
    context_length: int = 90  # timegrad context window
    enc_length: int = 96      # transformer encoder context
    token_length: int = 48

    def check_paths(self) -> None:
        """Refuse a path field that no file can be named by, and an out
        whose nearest existing path (itself or an ancestor) is no
        directory, before any work."""
        for name in ("data", "out", "checkpoint", "synthetic_config"):
            if "\0" in getattr(self, name):
                raise ParameterError(f"{name} holds a NUL byte, which no "
                                     f"file name may hold")
        out = Path(self.out).absolute()
        near = next(p for p in (out, *out.parents) if p.exists())
        if not near.is_dir():
            raise NotADirectoryError(f"out {self.out} cannot be a directory: "
                                     f"{near} exists and is not one")

    def validate(self) -> None:
        self.check_paths()
        if self.model not in MODEL_KINDS:
            raise ParameterError(f"model must be one of {MODEL_KINDS}")
        if self.grouping not in GROUPINGS:
            raise ParameterError(f"grouping must be one of {GROUPINGS}")
        if self.horizon < 1:
            raise ParameterError("horizon must be >= 1")
        if self.samples < 1:
            raise ParameterError("samples must be >= 1")
        if not 0.0 <= self.quantile <= 1.0:
            raise ParameterError("quantile must lie in [0, 1]")
        if self.windows_per_epoch < 1:
            raise ParameterError("windows_per_epoch must be >= 1")
        if self.epochs < -1:
            raise ParameterError(f"epochs must be >= 0, or -1 for the "
                                 f"per-model default, got {self.epochs}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")

    @property
    def effective_epochs(self) -> int:
        return DEFAULT_EPOCHS[self.model] if self.epochs < 0 else self.epochs


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------

def build_groups(panel: data.SeriesPanel, grouping: str) -> list:
    """Materialize (name, panel) tasks for the requested channel grouping.

    all_sites_oil: one multivariate panel of every site's oil channel.
    oil_water_per_site: one bivariate panel per site, truncated at that
    site's water breakthrough.
    oil_only_pairs: consecutive site pairs' oil channels (odd site out gets
    a univariate panel).

    Site and channel names become file names under --out, so a name
    holding '/' or a NUL byte, or two groups with one name, are refused
    before anything is written.
    """
    for name in (n for column in panel.columns for n in column):
        if "/" in name or "\0" in name:
            raise ParameterError(f"site or channel name {name!r} holds '/' or "
                                 f"a NUL byte; names become file names")
    sites = panel.site_names
    if grouping == "all_sites_oil":
        return [("all", panel.select([(s, data.OIL) for s in sites]))]
    if grouping == "oil_water_per_site":
        groups = []
        for s in sites:
            sub = panel.select([(s, data.OIL), (s, data.WATER)])
            groups.append((s, data.truncate_at_breakthrough(sub)))
        return groups
    groups, pairs = [], {}  # group name -> its sites
    for i in range(0, len(sites), 2):
        pair = sites[i:i + 2]
        name = "+".join(pair)
        if name in pairs:
            raise ParameterError(
                f"sites {', '.join(pairs[name])} and sites {', '.join(pair)} "
                f"both make group {name!r}; group names become file names")
        pairs[name] = pair
        groups.append((name, panel.select([(s, data.OIL) for s in pair])))
    return groups


def load_panel(cfg: RunConfig) -> data.SeriesPanel:
    if not cfg.data:
        raise ParameterError("a data CSV is required (--data)")
    return data.load_csv(cfg.data)


def _ckpt_path(cfg: RunConfig, group: str) -> Path:
    if cfg.checkpoint:
        return Path(cfg.checkpoint.replace("{group}", group))
    return Path(cfg.out) / f"{cfg.model}_{group}.gck"


def _loss_path(cfg: RunConfig, group: str) -> Path:
    return Path(cfg.out) / f"{cfg.model}_{group}_loss.csv"


def _ensemble_path(cfg: RunConfig, group: str) -> Path:
    return Path(cfg.out) / f"{cfg.model}_{group}_ensemble.gck"


def _build_model(cfg: RunConfig, dim: int, stride: float, init_rng=None):
    """The flags' model; an ``init_rng`` replaces its init stream."""
    if cfg.model == "timegrad":
        return timegrad.TimeGradModel(
            dim, context_length=cfg.context_length,
            prediction_length=cfg.horizon, seed=cfg.seed, init_rng=init_rng)
    return MODELS[cfg.model](
        dim, l_x=cfg.enc_length, l_token=cfg.token_length,
        l_y=cfg.horizon, stride=stride, seed=cfg.seed, init_rng=init_rng)


def _check_resume(cfg: RunConfig, ckpt: Path, model, rec: dict) -> None:
    """Refuse to resume a checkpoint under flags it was not trained with:
    its lr, and each record of the flags' ``model`` that is not a parameter
    (``<kind>/config``, and timegrad's ``timegrad/sched``), must match."""
    params = model.named_params()
    saved_lr = checkpoint.read(rec, "opt/hyper", (5,))[0]
    diffs = []
    for key, wanted in model.state_records().items():
        if key in params:
            continue
        saved = checkpoint.read(rec, key)
        if not np.array_equal(wanted, saved):
            diffs.append(f"{key} {saved.tolist()} vs {wanted.tolist()}")
    if cfg.lr != saved_lr:
        diffs.append(f"lr {float(saved_lr)!r} vs {cfg.lr!r}")
    if diffs:
        raise ParameterError(
            f"checkpoint {ckpt} was trained with other flags "
            f"(checkpoint vs flags: {'; '.join(diffs)}); resume with the "
            f"flags it was trained with, or train into another --out")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(cfg: RunConfig) -> None:
    cfg.check_paths()
    gen_cfg = data.SyntheticFieldConfig(seed=cfg.seed)
    if cfg.synthetic_config:
        gen_cfg = data.config_from_text(data.read_text(cfg.synthetic_config))
    out = Path(cfg.out)
    panel = data.generate_synthetic(gen_cfg)
    csv_path = out / "data.csv"
    data.save_csv(panel, csv_path)
    # provenance sidecar: full generator config echo, reusable as input
    checkpoint.atomic_write(out / "data.sidecar", data.config_to_text(gen_cfg))
    log(command="generate", csv=csv_path, steps=panel.n_steps,
        sites=len(panel.site_names), seed=gen_cfg.seed)


@dataclass
class _Trained:
    """A group's training outputs, not yet written: the loss CSV text and
    the checkpoint's bytes."""
    group: str
    loss_text: str
    final_loss: str
    ckpt_bytes: bytes


def _check_unvalidated(cfg: RunConfig, group: str, model, gpanel) -> None:
    """fit reports a nan validation loss for a group whose training span
    holds no validation window, so diverged parameters would pass unseen:
    score the final parameters once, on the span's last window under
    no_grad on the (seed, EVAL) stream, and refuse a non-finite score."""
    k = gpanel.split_index
    start = k - model.context_rows - model.horizon
    with no_grad():
        loss = model.window_loss(
            np.asarray(gpanel.values[:k], dtype=np.float64),
            np.asarray(gpanel.timestamps[:k], dtype=np.float64), start,
            rng.stream(cfg.seed, rng.EVAL), None).item()
    if not np.isfinite(loss):
        raise TrainingError(
            f"group {group} has no validation window, and its trained "
            f"parameters score a non-finite loss ({loss}) on the last "
            f"training window")


def _train_group(cfg: RunConfig, group: str, gpanel) -> _Trained:
    """Train one group's model, resuming from its checkpoint if there is
    one, and log as it goes; write nothing."""
    ckpt = _ckpt_path(cfg, group)
    loss_csv = _loss_path(cfg, group)
    start_epoch = 0
    opt = None
    dim, stride = gpanel.values.shape[1], float(gpanel.stride)
    if ckpt.exists():
        rec = checkpoint.load(ckpt)
        model = _build_model(cfg, dim, stride, checkpoint.Undrawn(rec))
        _check_resume(cfg, ckpt, model, rec)
        checkpoint.load_params(rec, model.named_params())
        start_epoch = checkpoint.read_int(rec, "meta/epochs_done", 0, (1,))
        opt = AdamW(model.params(), lr=cfg.lr)
        opt.load_state_records(rec)
        log(command="train", group=group, resumed_from=ckpt,
            epochs_done=start_epoch)
    else:
        model = _build_model(cfg, dim, stride)
    epochs = cfg.effective_epochs
    epoch_start = time.perf_counter()

    def on_epoch(e, tr, vl):
        # wall time of the epoch, validation included; logs only
        nonlocal epoch_start
        now = time.perf_counter()
        elapsed, epoch_start = now - epoch_start, now
        log(command="train", model=cfg.model, group=group, epoch=e,
            train_loss=f"{tr:.6f}", val_loss=f"{vl:.6f}",
            gap=f"{vl - tr:.6f}", elapsed_s=f"{elapsed:.3f}",
            windows_per_s=f"{cfg.windows_per_epoch / elapsed:.1f}")

    history, opt = timegrad.fit(
        model, gpanel, epochs=epochs, seed=cfg.seed, lr=cfg.lr,
        windows_per_epoch=cfg.windows_per_epoch, opt=opt,
        start_epoch=start_epoch, on_epoch=on_epoch)
    if history.val_loss and np.isnan(history.val_loss[-1]):
        _check_unvalidated(cfg, group, model, gpanel)

    rec = model.state_records()
    rec.update(opt.state_records())
    rec["meta/epochs_done"] = np.array([float(start_epoch + epochs)])
    rec["meta/seed"] = np.array([float(cfg.seed)])
    text = "epoch,train_loss,val_loss\n"
    if start_epoch > 0 and loss_csv.exists():
        text = "".join(data.read_text(loss_csv)
                       .splitlines(keepends=True)[:1 + start_epoch])
    for i, (tr, vl) in enumerate(zip(history.train_loss, history.val_loss)):
        text += f"{start_epoch + i},{tr!r},{vl!r}\n"
    final_loss = (f"{history.train_loss[-1]:.6f}" if history.train_loss
                  else "nan")
    return _Trained(group, text, final_loss, checkpoint.pack_records(rec))


def _disjoint(paths: list) -> bool:
    """No two of ``paths`` name one file, and none lies under another."""
    real = [Path(os.path.realpath(p)) for p in paths]
    unique = set(real)
    return (len(unique) == len(real)
            and not any(d in unique for p in real for d in p.parents))


def cmd_train(cfg: RunConfig) -> None:
    """Train one model per group.

    The groups are cut into contiguous blocks, one per ``workers.count()``
    process, or one block when two groups' checkpoints or loss CSVs could
    collide.  ``workers.run`` hands each group's ``_Trained`` back
    here in group order, after the lines logged while it trained; this
    process writes its loss CSV, then its checkpoint, through
    ``checkpoint.atomic_write``, and logs it.  So the files, bytes and log
    lines are a one-process run's for any worker count, also when a group
    fails: the groups before it are committed, none after it.
    """
    cfg.validate()
    groups = build_groups(load_panel(cfg), cfg.grouping)
    names = [group for group, _ in groups]
    paths = [p for group in names
             for p in (_ckpt_path(cfg, group), _loss_path(cfg, group))]
    k = min(len(groups), workers.count()) if _disjoint(paths) else 1
    cuts = [i * len(groups) // k for i in range(k + 1)]

    def write(t: _Trained) -> None:
        # the loss CSV goes first: if the checkpoint write then fails, the
        # next run keeps only the header and the checkpoint's epochs
        ckpt = _ckpt_path(cfg, t.group)
        checkpoint.atomic_write(_loss_path(cfg, t.group), t.loss_text)
        checkpoint.atomic_write(ckpt, t.ckpt_bytes)
        log(command="train", group=t.group, checkpoint=ckpt,
            final_loss=t.final_loss)

    workers.run(lambda lo, hi: (_train_group(cfg, group, gpanel)
                                for group, gpanel in groups[lo:hi]),
                cuts, lambda lo, hi: (
                    f"train worker for groups {', '.join(names[lo:hi])}"),
                write)


def _group_context(cfg: RunConfig, model, gpanel):
    """Context window ending at the split plus target timestamps."""
    k = gpanel.split_index
    need = model.context_rows
    if k < need:
        raise ParameterError(f"train span {k} shorter than context {need}")
    if gpanel.n_steps - k < cfg.horizon:
        raise ParameterError(
            f"horizon {cfg.horizon} exceeds the {gpanel.n_steps - k}-step "
            f"test span")
    context = gpanel.values[k - need:k]
    context_ts = gpanel.timestamps[k - need:k].astype(np.float64)
    target_ts = gpanel.timestamps[k:k + cfg.horizon].astype(np.float64)
    return context, context_ts, target_ts


def cmd_forecast(cfg: RunConfig) -> None:
    cfg.validate()
    panel = load_panel(cfg)
    out = Path(cfg.out)
    for group, gpanel in build_groups(panel, cfg.grouping):
        ckpt = _ckpt_path(cfg, group)
        if not ckpt.exists():
            raise ParameterError(f"checkpoint {ckpt} not found; train first")
        # the model's records only: forecast never reads the optimizer's
        model = MODELS[cfg.model].from_records(
            checkpoint.load(ckpt, f"{cfg.model}/"))
        context, context_ts, target_ts = _group_context(cfg, model, gpanel)
        start = time.perf_counter()  # the ensemble's draw; logs only
        ens = model.forecast(context, context_ts, target_ts, cfg.samples,
                             cfg.seed)
        elapsed = time.perf_counter() - start
        k = gpanel.split_index
        chosen = evaluation.quantile_path(ens, cfg.quantile)
        lo = evaluation.quantile_path(ens, 0.05)
        hi = evaluation.quantile_path(ens, 0.95)
        for j, (site, channel) in enumerate(gpanel.columns):
            truth = gpanel.values[k:k + cfg.horizon, j]
            stem = f"{cfg.model}_{group}_{site}_{channel}"
            evaluation.write_plot_csv(out / f"{stem}_plot.csv", target_ts,
                                      truth, chosen[:, j], lo[:, j], hi[:, j])
            svg = evaluation.svg_line_chart(
                target_ts,
                {"truth": truth, f"q{cfg.quantile:.2f}": chosen[:, j]},
                band=(lo[:, j], hi[:, j]),
                title=f"{cfg.model} {site} {channel} "
                      f"(quantile {cfg.quantile:.2f}, band 0.05-0.95)")
            checkpoint.atomic_write(out / f"{stem}.svg", svg)
        # the ensemble goes last, so a present one marks a complete set
        checkpoint.save(_ensemble_path(cfg, group), {
            "ensemble/samples": ens.samples,
            "ensemble/timestamps": target_ts,
        })
        log(command="forecast", model=cfg.model, group=group,
            samples=cfg.samples, horizon=cfg.horizon,
            ensemble=_ensemble_path(cfg, group), elapsed_s=f"{elapsed:.3f}",
            paths_per_s=f"{cfg.samples / elapsed:.1f}")


def cmd_evaluate(cfg: RunConfig) -> None:
    cfg.validate()
    panel = load_panel(cfg)
    out = Path(cfg.out)
    rows = []
    for group, gpanel in build_groups(panel, cfg.grouping):
        ens_path = _ensemble_path(cfg, group)
        if not ens_path.exists():
            raise ParameterError(f"ensemble {ens_path} not found; forecast first")
        rec = checkpoint.load(ens_path)
        samples = checkpoint.read(rec, "ensemble/samples")
        if not np.isfinite(samples).all():
            raise FormatError(f"record 'ensemble/samples' of {ens_path} holds "
                              f"non-finite values")
        ens = ForecastEnsemble(samples=samples, timestamps=checkpoint.read(
            rec, "ensemble/timestamps", samples.shape[1:2]))
        if ens.n_dims != len(gpanel.columns):
            raise ParameterError(
                f"ensemble {ens_path} has {ens.n_dims} columns but the data "
                f"group has {len(gpanel.columns)}")
        k = gpanel.split_index
        horizon = ens.horizon
        if gpanel.n_steps - k < horizon:
            raise ParameterError("truth span shorter than the forecast horizon")
        if not np.array_equal(ens.timestamps, gpanel.timestamps[k:k + horizon]):
            raise ParameterError("forecast/truth timestamp misalignment")
        moments = evaluation.ensemble_moments(ens)
        chosen = evaluation.quantile_path(ens, cfg.quantile)
        for j, (site, channel) in enumerate(gpanel.columns):
            truth = gpanel.values[k:k + horizon, j]
            label = site if channel == data.OIL else f"{site}({channel})"
            mase_metric = partial(evaluation.scaled_mae,
                                  scale=evaluation.naive_mae(gpanel.values[:k, j]))

            def row(suffix, q, path, mase):  # called in this iteration only
                return SiteMetrics(
                    site=label + suffix, quantile=q,
                    mse=evaluation.mse(path, truth), mase=mase,
                    ensemble_mean=float(moments.pooled_mean[j]),
                    ensemble_std=float(moments.pooled_std[j]),
                    truth_mean=float(truth.mean()), truth_std=float(truth.std()))

            rows.append(row("", cfg.quantile, chosen[:, j],
                            mase_metric(chosen[:, j], truth)))
            best_q, best_mase = evaluation.best_quantile(
                ens, truth, mase_metric, dim=j)
            rows.append(row("*", best_q,
                            evaluation.quantile_path(ens, best_q)[:, j],
                            best_mase))
            log(command="evaluate", model=cfg.model, site=label,
                quantile=cfg.quantile, mase=f"{rows[-2].mase:.4f}",
                best_quantile=best_q, best_mase=f"{best_mase:.4f}",
                selection="oracle-on-test")
    report = MetricsReport(model=cfg.model, rows=rows)
    checkpoint.atomic_write(out / f"{cfg.model}_report.csv", report.to_csv_text())
    checkpoint.atomic_write(out / f"{cfg.model}_report.txt",
                            report.to_table_text())
    log(command="evaluate", model=cfg.model,
        report=out / f"{cfg.model}_report.csv",
        note="starred rows use the oracle-selected best quantile")


def cmd_pipeline(cfg: RunConfig) -> None:
    cfg.validate()
    if cfg.data and cfg.synthetic_config:
        raise ParameterError(
            "exactly one data source: pass --data or --synthetic-config")
    out = Path(cfg.out)
    if not cfg.data:
        cmd_generate(cfg)
        cfg.data = str(out / "data.csv")
    for model in MODEL_KINDS:
        sub = replace(cfg, model=model)
        cmd_train(sub)
        cmd_forecast(sub)
        cmd_evaluate(sub)
    log(command="pipeline", status="complete", out=out)


# each cmd_<name> is looked up when it runs, so a stand-in bound on the
# module (as the benchmark's tracer does) is the one that runs
COMMANDS = ("generate", "train", "forecast", "evaluate", "pipeline")
CHOICES = {"model": MODEL_KINDS, "grouping": GROUPINGS}


def build_parser() -> argparse.ArgumentParser:
    """The command, then one flag per RunConfig field, typed by its default."""
    parser = argparse.ArgumentParser(
        prog="wellcast",
        description="probabilistic multi-well production forecasting")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key=value file")
    for f in fields(RunConfig):
        if f.name != "command":
            parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                                type=type(f.default), choices=CHOICES.get(f.name))
    return parser


def config_from_args(args) -> RunConfig:
    """The --config file's fields, overridden by the flags given."""
    text = data.read_text(args.config) if args.config else ""
    cfg = RunConfig(**data.parse_config(text, RunConfig))
    for f in fields(RunConfig):  # command included: the parser sets it
        flag = getattr(args, f.name, None)
        if flag is not None:
            setattr(cfg, f.name, flag)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        globals()[f"cmd_{args.command}"](config_from_args(args))
        sys.stdout.flush()  # a block-buffered stdout's closed pipe shows here
    except ValidationError as exc:
        log(error="validation", detail=str(exc))
        return 2
    except TrainingError as exc:
        log(error="numeric", detail=str(exc))
        return 3
    except BrokenPipeError:
        # stdout's reader has gone, so there is no one to log to; closing
        # stdout drops its undeliverable lines, and the interpreter's exit
        # flush skips a closed stream instead of raising again
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()
        return 4
    except OSError as exc:
        log(error="io", detail=str(exc))
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
