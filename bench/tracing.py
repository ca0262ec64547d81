"""Per-layer tracing from the benchmark's side.

`LayerTrace` swaps each layer's public callables for span-recording
stand-ins where their callers look them up (a class attribute, or the
module global a caller resolves at call time), and swaps them back
afterwards.  Nothing inside `src/` changes.  Self time, call counts and
the counters below are reported per operation of the workload.
"""

import os

from harness import Tracer
from wellcast import (attention, checkpoint, cli, data, diffusion, evaluation,
                      optim, rng, seqmodels, tensor, timegrad)

# chunk ids for spans outside timed chunks
SETUP, PROBE, PROBE_AGAIN = -1, -2, -3

# (metric, unit, better); the order is the order of the printed table
PER_LAYER = (
    ("tensor.tape_nodes", "count", "lower"),
    ("tensor.tape_bytes", "bytes", "lower"),
    ("tensor.discarded_grad_frac", "ratio", "lower"),
    ("tensor.backward_self_s", "s", "lower"),
    ("timegrad.gru_step_self_s", "s", "lower"),
    ("timegrad.gru_step_calls", "count", "lower"),
    ("timegrad.window_loss_self_s", "s", "lower"),
    ("timegrad.forecast_self_s", "s", "lower"),
    ("timegrad.val_loss", "loss", "lower"),
    ("diffusion.eps_forward_self_s", "s", "lower"),
    ("diffusion.eps_forward_calls", "count", "lower"),
    ("diffusion.eps_forward_rows", "count", "lower"),
    ("diffusion.ddpm_loss_self_s", "s", "lower"),
    ("diffusion.reverse_step_self_s", "s", "lower"),
    ("diffusion.reverse_step_calls", "count", "lower"),
    ("optim.adamw_step_s", "s", "lower"),
    ("optim.param_arrays", "count", "lower"),
    ("attention.multi_head_full_self_s", "s", "lower"),
    ("attention.multi_head_prob_self_s", "s", "lower"),
    ("attention.probsparse_self_s", "s", "lower"),
    ("attention.full_self_s", "s", "lower"),
    ("attention.distill_self_s", "s", "lower"),
    ("attention.distill_calls", "count", "lower"),
    ("attention.measure_dots", "count", "lower"),
    ("attention.attention_dots", "count", "lower"),
    ("seqmodels.forward_self_s", "s", "lower"),
    ("seqmodels.gaussian_nll_s", "s", "lower"),
    ("seqmodels.val_loss", "loss", "lower"),
    ("evaluation.best_quantile_s", "s", "lower"),
    ("evaluation.quantile_path_s", "s", "lower"),
    ("evaluation.svg_s", "s", "lower"),
    ("evaluation.plot_csv_s", "s", "lower"),
    ("evaluation.mase_best_mean", "ratio", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("data.load_csv_s", "s", "lower"),
    ("data.rows", "count", "lower"),
    ("data.generate_synthetic_s", "s", "lower"),
    ("cli.cmd_forecast_self_s", "s", "lower"),
    ("cli.cmd_evaluate_self_s", "s", "lower"),
    ("rng.stream_calls", "count", "lower"),
    ("trace.op_ms_traced", "ms", "lower"),
    ("trace.op_ms_untraced", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans_per_op", "count", "lower"),
)

# per-operation self time: metric -> span name
SELF_TIME = {
    "tensor.backward_self_s": "tensor.backward",
    "timegrad.gru_step_self_s": "timegrad.gru_step",
    "timegrad.window_loss_self_s": "timegrad.window_loss",
    "timegrad.forecast_self_s": "timegrad.forecast",
    "diffusion.eps_forward_self_s": "diffusion.eps_forward",
    "diffusion.ddpm_loss_self_s": "diffusion.ddpm_loss",
    "diffusion.reverse_step_self_s": "diffusion.reverse_step",
    "optim.adamw_step_s": "optim.adamw_step",
    "attention.multi_head_full_self_s": "attention.multi_head_full",
    "attention.multi_head_prob_self_s": "attention.multi_head_prob",
    "attention.probsparse_self_s": "attention.probsparse",
    "attention.full_self_s": "attention.full",
    "attention.distill_self_s": "attention.distill",
    "seqmodels.forward_self_s": "seqmodels.forward",
    "seqmodels.gaussian_nll_s": "seqmodels.gaussian_nll",
    "evaluation.best_quantile_s": "evaluation.best_quantile",
    "evaluation.quantile_path_s": "evaluation.quantile_path",
    "evaluation.svg_s": "evaluation.svg",
    "evaluation.plot_csv_s": "evaluation.plot_csv",
    "checkpoint.load_s": "checkpoint.load",
    "checkpoint.save_s": "checkpoint.save",
    "data.load_csv_s": "data.load_csv",
    "cli.cmd_forecast_self_s": "cli.cmd_forecast",
    "cli.cmd_evaluate_self_s": "cli.cmd_evaluate",
}

# per-operation call counts: metric -> span name
CALLS = {
    "timegrad.gru_step_calls": "timegrad.gru_step",
    "diffusion.eps_forward_calls": "diffusion.eps_forward",
    "diffusion.reverse_step_calls": "diffusion.reverse_step",
    "attention.distill_calls": "attention.distill",
    "rng.stream_calls": "rng.stream",
}

# counts: for a given seed and chunk they repeat exactly
COUNTS = tuple(CALLS) + (
    "tensor.tape_nodes", "tensor.tape_bytes", "tensor.discarded_grad_frac",
    "diffusion.eps_forward_rows", "optim.param_arrays",
    "attention.measure_dots", "attention.attention_dots",
    "checkpoint.bytes", "data.rows", "trace.spans_per_op")


def _multi_head_name(args, kwargs) -> str:
    return "attention.multi_head_" + kwargs.get("mode", "full")


class LayerTrace:
    """The table of stand-ins, and the per-operation metrics they give."""

    def __init__(self):
        self.tracer = t = Tracer()

        def tape_stats(args, kwargs):
            # the record backward is about to walk, read just before it
            record = tensor.current_record()
            inputs = [x for node in record for x in node.inputs]
            t.count("tensor.backward_calls")
            t.count("tensor.tape_nodes", len(record))
            t.count("tensor.tape_bytes",
                    sum(node.output.data.nbytes for node in record))
            t.count("tensor.node_inputs", len(inputs))
            t.count("tensor.node_inputs_no_grad",
                    sum(not x.requires_grad for x in inputs))

        def adamw_stats(args, kwargs, result):
            t.count("optim.steps")
            t.count("optim.param_arrays", len(args[0].params))

        def eps_rows(args, kwargs, result):
            t.count("diffusion.eps_forward_rows", result.shape[0])

        def file_bytes(args, kwargs, result=None):
            t.count("checkpoint.bytes", os.path.getsize(args[0]))

        def csv_rows(args, kwargs, result):
            t.count("data.rows", result.values.size)

        # (owner, attribute, span name, before hook, after hook)
        table = [
            (timegrad, "backward", "tensor.backward", tape_stats, None),
            (seqmodels, "backward", "tensor.backward", tape_stats, None),
            (timegrad.GRUCell, "step", "timegrad.gru_step", None, None),
            (timegrad, "window_loss", "timegrad.window_loss", None, None),
            (timegrad, "forecast", "timegrad.forecast", None, None),
            (diffusion.EpsilonNet, "forward", "diffusion.eps_forward",
             None, eps_rows),
            (timegrad, "ddpm_loss", "diffusion.ddpm_loss", None, None),
            (timegrad, "reverse_step", "diffusion.reverse_step", None, None),
            (optim.AdamW, "step", "optim.adamw_step", None, adamw_stats),
            (seqmodels, "multi_head", _multi_head_name, None, None),
            (attention, "probsparse_attention", "attention.probsparse",
             None, None),
            (attention, "full_attention", "attention.full", None, None),
            (seqmodels, "distill", "attention.distill", None, None),
            (seqmodels._SeqForecaster, "forward", "seqmodels.forward",
             None, None),
            (seqmodels, "gaussian_nll", "seqmodels.gaussian_nll", None, None),
            (evaluation, "best_quantile", "evaluation.best_quantile",
             None, None),
            (evaluation, "quantile_path", "evaluation.quantile_path",
             None, None),
            (evaluation, "svg_line_chart", "evaluation.svg", None, None),
            (evaluation, "write_plot_csv", "evaluation.plot_csv", None, None),
            (checkpoint, "load", "checkpoint.load", file_bytes, None),
            (checkpoint, "save", "checkpoint.save", None, file_bytes),
            (data, "load_csv", "data.load_csv", None, csv_rows),
            (data, "generate_synthetic", "data.generate_synthetic",
             None, None),
            (cli, "cmd_forecast", "cli.cmd_forecast", None, None),
            (cli, "cmd_evaluate", "cli.cmd_evaluate", None, None),
            (rng, "stream", "rng.stream", None, None),
        ]
        self._swaps = []
        for owner, attr, name, before, after in table:
            original = owner.__dict__[attr]
            stand_in = t.wrap(original, name, before=before, after=after)
            self._swaps.append((owner, attr, original, stand_in))
        self._dots = (0, 0)

    def install(self, op: int) -> None:
        self.tracer.op = op
        for owner, attr, _, stand_in in self._swaps:
            setattr(owner, attr, stand_in)
        c = attention.COUNTER
        self._dots = (c.measure_dot_products, c.attention_dot_products)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)
        c = attention.COUNTER
        self.tracer.count("attention.measure_dots",
                          c.measure_dot_products - self._dots[0])
        self.tracer.count("attention.attention_dots",
                          c.attention_dot_products - self._dots[1])

    def layer_metrics(self, ops, units: int) -> dict:
        """Per-operation values over the given chunks of `units` ops."""
        ops = set(ops)
        own = self.tracer.self_time_by_name(ops)
        calls: dict = {}
        for span in self.tracer.spans:
            if span.op in ops:
                calls[span.name] = calls.get(span.name, 0) + 1
        counts: dict = {}
        for op in ops:
            for name, value in self.tracer.counts_of(op).items():
                counts[name] = counts.get(name, 0) + value

        def per(name, base):
            return counts.get(name, 0) / base if base else 0.0

        out = {m: own.get(span, 0.0) / units for m, span in SELF_TIME.items()}
        out.update({m: calls.get(span, 0) / units
                    for m, span in CALLS.items()})
        backwards = counts.get("tensor.backward_calls", 0)
        forwards = calls.get("seqmodels.forward", 0)
        out.update({
            "tensor.tape_nodes": per("tensor.tape_nodes", backwards),
            "tensor.tape_bytes": per("tensor.tape_bytes", backwards),
            "tensor.discarded_grad_frac": per(
                "tensor.node_inputs_no_grad",
                counts.get("tensor.node_inputs", 0)),
            "diffusion.eps_forward_rows": per("diffusion.eps_forward_rows",
                                              units),
            "optim.param_arrays": per("optim.param_arrays",
                                      counts.get("optim.steps", 0)),
            "attention.measure_dots": per("attention.measure_dots", forwards),
            "attention.attention_dots": per("attention.attention_dots",
                                            forwards),
            "checkpoint.bytes": per("checkpoint.bytes", units),
            "data.rows": per("data.rows", units),
            "trace.spans_per_op": sum(calls.values()) / units,
        })
        return out

    def generate_seconds(self, setups: int) -> float:
        own = self.tracer.self_time_by_name([SETUP])
        return own.get("data.generate_synthetic", 0.0) / setups
