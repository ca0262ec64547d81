"""Forecast-ensemble evaluation: quantile extraction, MSE/MASE, moments.

Quantiles are nearest-rank: samples are sorted ascending per (step, dim) and
the element at index max(0, ceil(q*S) - 1) is returned, so a quantile path is
always an actually-sampled trajectory, never an interpolation.  Ensemble
standard deviations use the population convention.
"""

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import checkpoint
from .errors import ContractError, MetricError, ParameterError

# 0.05 .. 0.95 in steps of 0.05; the handful of individually named levels
# (0.20, 0.25, 0.30, 0.65, 0.70, 0.85, 0.90) are already on this grid.
QUANTILE_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))

# the most values one request may make: an ensemble's noise draws, or a
# synthetic field's well values; 2**27 float64 values are 1 GiB
MAX_DRAWS = 2 ** 27


def check_draws(n_samples: int, per_path: int) -> None:
    """Refuse n_samples paths of per_path draws each before drawing any."""
    if n_samples * per_path > MAX_DRAWS:
        raise ParameterError(
            f"--samples {n_samples} asks for {per_path} draws per path, more "
            f"than {MAX_DRAWS} in all; use at most {MAX_DRAWS // per_path}")


@dataclass(frozen=True)
class ForecastEnsemble:
    """S sample paths over a horizon: samples[S, H, D], a read-only copy, so
    the ascending sort that every quantile reads is made once and cannot go
    stale."""

    samples: np.ndarray
    timestamps: np.ndarray | None = None

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 3:
            raise ParameterError("ensemble samples must be [S, H, D]")
        if samples.shape[0] < 1:
            raise ParameterError("ensemble needs at least one sample path")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if self.timestamps is not None:
            object.__setattr__(self, "timestamps", np.asarray(self.timestamps))
            if len(self.timestamps) != samples.shape[1]:
                raise ParameterError("timestamps must match the horizon")

    @cached_property
    def sorted_samples(self) -> np.ndarray:
        """The samples sorted ascending across paths, per (step, dim)."""
        ordered = np.sort(self.samples, axis=0)
        ordered.flags.writeable = False
        return ordered

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def horizon(self) -> int:
        return self.samples.shape[1]

    @property
    def n_dims(self) -> int:
        return self.samples.shape[2]


def nearest_rank_index(q: float, n_samples: int) -> int:
    """Index into an ascending sort for quantile q of n_samples values."""
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"quantile must lie in [0, 1], got {q}")
    # the epsilon guards against 0.15 * 100 = 15.000000000000002-style float
    # noise pushing the ceiling one rank too high
    k = int(np.ceil(q * n_samples - 1e-9))
    return max(0, k - 1)


def quantile_path(ens: ForecastEnsemble, q: float) -> np.ndarray:
    """Per-(step, dim) nearest-rank quantile across sample paths: [H, D]."""
    return ens.sorted_samples[nearest_rank_index(q, ens.n_samples)]


def mse(pred, truth) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ContractError(f"length mismatch: {pred.shape} vs {truth.shape}")
    return float(np.mean((pred - truth) ** 2))


def mase(pred, truth, train) -> float:
    """Forecast MAE scaled by the one-step naive MAE on the training span."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    train = np.asarray(train, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ContractError(f"length mismatch: {pred.shape} vs {truth.shape}")
    return scaled_mae(pred, truth, naive_mae(train))


def naive_mae(train) -> float:
    """MASE's denominator: the one-step naive forecast's MAE on ``train``."""
    train = np.asarray(train, dtype=np.float64)
    if train.size < 2:
        raise ParameterError("training span must have at least two points")
    denom = float(np.mean(np.abs(np.diff(train))))
    if denom == 0.0:
        raise MetricError("constant training series: naive MAE is zero")
    return denom


def scaled_mae(pred, truth, scale: float) -> float:
    """MASE given its denominator ``scale`` (``naive_mae``)."""
    return float(np.mean(np.abs(pred - truth)) / scale)


def best_quantile(ens: ForecastEnsemble, truth, metric, dim: int = 0) -> tuple:
    """Scan the quantile grid, returning (q*, metric value) minimizing
    ``metric(path, truth)`` for the given dimension.  Ties go to the lower q.
    """
    truth = np.asarray(truth, dtype=np.float64)
    if truth.shape != (ens.horizon,):
        raise ContractError("truth must cover exactly the ensemble horizon")
    sorted_samples = ens.sorted_samples[:, :, dim]
    best_q, best_val = None, None
    for q in QUANTILE_GRID:
        path = sorted_samples[nearest_rank_index(q, ens.n_samples)]
        val = float(metric(path, truth))
        if best_val is None or val < best_val:
            best_q, best_val = q, val
    return best_q, best_val


@dataclass
class EnsembleMoments:
    pooled_mean: np.ndarray  # [D], over all samples and steps
    pooled_std: np.ndarray   # [D], population


def ensemble_moments(ens: ForecastEnsemble) -> EnsembleMoments:
    if ens.n_samples < 2:
        raise MetricError("standard deviation undefined for a single sample")
    s = ens.samples
    return EnsembleMoments(
        pooled_mean=s.mean(axis=(0, 1)),
        pooled_std=s.std(axis=(0, 1)),
    )


@dataclass
class SiteMetrics:
    site: str
    quantile: float
    mse: float
    mase: float
    ensemble_mean: float
    ensemble_std: float
    truth_mean: float
    truth_std: float


@dataclass
class MetricsReport:
    model: str
    rows: list

    def to_csv_text(self) -> str:
        cols = [f.name for f in fields(SiteMetrics)]
        lines = ["model," + ",".join(cols)]
        for r in self.rows:
            vals = [self.model, r.site] + [repr(getattr(r, c)) for c in cols[1:]]
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text: str) -> "MetricsReport":
        lines = [ln for ln in text.strip().split("\n") if ln]
        header = lines[0].split(",")
        expected = ["model"] + [f.name for f in fields(SiteMetrics)]
        if header != expected:
            raise ContractError(f"unexpected report header: {header}")
        model = None
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            model = parts[0]
            rows.append(SiteMetrics(parts[1], *[float(p) for p in parts[2:]]))
        return cls(model=model or "", rows=rows)

    def to_table_text(self) -> str:
        """Aligned table, one row per site: model, site, MSE, MASE."""
        header = f"{'Model':<12} {'Site':<10} {'MSE':>12} {'MASE':>10} {'q':>6}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(f"{self.model:<12} {r.site:<10} {r.mse:>12.6f} "
                         f"{r.mase:>10.4f} {r.quantile:>6.2f}")
        lines.append("")
        lines.append(f"{'Site':<10} {'MeanTruth':>10} {'MeanPred':>10} "
                     f"{'StdTruth':>10} {'StdPred':>10}")
        for r in self.rows:
            lines.append(f"{r.site:<10} {r.truth_mean:>10.4f} "
                         f"{r.ensemble_mean:>10.4f} {r.truth_std:>10.4f} "
                         f"{r.ensemble_std:>10.4f}")
        return "\n".join(lines) + "\n"


def write_plot_csv(path, timestamps, truth, prediction, q_low, q_high) -> None:
    values = [np.asarray(c, dtype=np.float64).tolist()
              for c in (truth, prediction, q_low, q_high)]
    if any(len(v) != len(timestamps) for v in values):
        raise ContractError("plot columns must match the timestamps in length")
    lines = ["timestamp,truth,prediction,q_low,q_high"]
    lines += map("{},{!r},{!r},{!r},{!r}".format,
                 map(int, np.asarray(timestamps).tolist()), *values)
    checkpoint.atomic_write(path, "\n".join(lines) + "\n")


def _xml_text(text: str) -> str:
    """text escaped for an XML text node, as html.escape(text, quote=False)
    gives it; importing html would load its entity tables (about 0.5 MB)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def svg_line_chart(timestamps, series: dict, band=None, title: str = "") -> str:
    """Self-contained SVG line chart.

    series maps label -> 1-D array; band is an optional (low, high) pair
    drawn as a shaded region.  Every array must match the timestamps in
    length.  The title and labels are escaped as XML text.  No external
    assets or scripts.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    all_vals = [np.asarray(v, dtype=np.float64) for v in series.values()]
    if band is not None:
        all_vals += [np.asarray(band[0], np.float64), np.asarray(band[1], np.float64)]
    if any(v.shape != ts.shape for v in all_vals):
        raise ContractError("chart series and band edges must match the "
                            "timestamps in length")
    ymin = min(float(v.min()) for v in all_vals)
    ymax = max(float(v.max()) for v in all_vals)
    if ymax == ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad
    width, height, ml, mr, mt, mb = 800, 400, 60, 15, 30, 35
    pw, ph = width - ml - mr, height - mt - mb

    # each coordinate is computed over an array in the scalar form's order,
    # so it rounds as the scalar form does
    span = ts[-1] - ts[0] if ts[-1] != ts[0] else 1.0
    xs = (ml + pw * (ts - ts[0]) / span).tolist()

    def sy(v):
        return mt + ph * (1.0 - (v - ymin) / (ymax - ymin))

    def points(x, vals):
        ys = sy(np.asarray(vals, dtype=np.float64)).tolist()
        return " ".join(map("{:.2f},{:.2f}".format, x, ys))

    colors = ["#d95f02", "#1b9e77", "#7570b3", "#e7298a", "#66a61e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_xml_text(title)}</text>',
    ]
    if band is not None:
        low, high = band
        pts = f"{points(xs, high)} {points(xs[::-1], np.asarray(low)[::-1])}"
        parts.append(f'<polygon points="{pts}" fill="#fdd49e" '
                     f'fill-opacity="0.6" stroke="none"/>')
    for i, (label, vals) in enumerate(series.items()):
        pts = points(xs, vals)
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{ml + 8 + 130 * i}" y="{height - 8}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="{color}">{_xml_text(label)}</text>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" '
                 f'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" '
                 f'stroke="black" stroke-width="1"/>')
    for frac in (0.0, 0.5, 1.0):
        v = ymin + frac * (ymax - ymin)
        parts.append(f'<text x="{ml - 6}" y="{sy(v):.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{v:.3g}</text>')
    parts.append(f'<text x="{ml}" y="{mt + ph + 14}" font-family="sans-serif" '
                 f'font-size="10">{int(ts[0])}</text>')
    parts.append(f'<text x="{ml + pw}" y="{mt + ph + 14}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="10">{int(ts[-1])}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
