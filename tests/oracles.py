"""Earlier forms of package functions, kept as bitwise oracles for the
faster forms that replaced them, and tape ops that only the op-by-op
references use."""

import struct

import numpy as np

from wellcast import checkpoint
from wellcast import rng as rng_mod
from wellcast.data import (CSV_HEADER, OIL, WATER, SeriesPanel,
                           SyntheticFieldConfig, _snap_6_decimals, arps_rate,
                           epoch_days_to_date)
from wellcast.errors import DimensionError, ValidationError
from wellcast.seqmodels import DAYS_PER_YEAR
from wellcast.tensor import Tensor, _record


def elu_sum(x):
    """ELU as four ufuncs, max(x, 0) + expm1(min(x, 0)): the form that
    ``tensor.elu_array`` and ``tensor.elu_inplace`` replaced."""
    return np.maximum(x, 0.0) + np.expm1(np.minimum(x, 0.0))


def sinusoidal_embedding(n_steps: int, dim: int) -> np.ndarray:
    """The diffusion-step table over steps 1..n_steps: the form that
    ``diffusion.sinusoidal_embedding(positions, dim)`` replaced."""
    pos = np.arange(1, n_steps + 1, dtype=np.float64)[:, None]
    freq = np.exp(-np.log(10000.0) * np.arange(0, dim, 2) / dim)[None, :]
    table = np.empty((n_steps, dim))
    table[:, 0::2] = np.sin(pos * freq)
    table[:, 1::2] = np.cos(pos * freq)
    return table


def time_encoding(timestamps, d_model: int, stride: float, anchor: float):
    """The time encoding with its own sinusoids: the form that
    ``seqmodels.time_encoding`` replaced with ``sinusoidal_embedding``."""
    ts = np.asarray(timestamps, dtype=np.float64)
    pos = (ts - anchor) / stride
    half = np.arange(0, d_model, 2, dtype=np.float64)
    freq = np.exp(-np.log(10000.0) * half / d_model)
    enc = np.empty((len(ts), d_model))
    enc[:, 0::2] = np.sin(pos[:, None] * freq[None, :])
    enc[:, 1::2] = np.cos(pos[:, None] * freq[None, :])
    phase = 2.0 * np.pi * (ts % DAYS_PER_YEAR) / DAYS_PER_YEAR
    enc[:, 0] += np.sin(phase)
    enc[:, 1] += np.cos(phase)
    return enc


def pack_records(records: dict) -> bytes:
    """The GCK1 bytes with each payload copied out by ``tobytes`` first: the
    form that ``checkpoint.pack_records``'s byte views replaced."""
    parts = [checkpoint.MAGIC, struct.pack("<I", len(records))]
    for name, arr in records.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        name_b = name.encode("utf-8")
        parts.append(struct.pack("<I", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        payload = arr.tobytes()
        parts.append(struct.pack("<Q", len(payload)))
        parts.append(payload)
    return b"".join(parts)


def transpose(a: Tensor) -> Tensor:
    """The 2-D tape op a.T; the fused kernels never transpose on the tape."""
    if a.ndim != 2:
        raise DimensionError("transpose expects a 2-D tensor")

    def bwd(g):
        return (g.T,)

    return _record((a,), a.data.T.copy(), bwd)


def write_plot_csv(path, timestamps, truth, prediction, q_low, q_high) -> None:
    """The plot CSV one f-string per row: the form that
    ``evaluation.write_plot_csv`` replaced."""
    lines = ["timestamp,truth,prediction,q_low,q_high"]
    for i in range(len(timestamps)):
        lines.append(f"{int(timestamps[i])},{repr(float(truth[i]))},"
                     f"{repr(float(prediction[i]))},{repr(float(q_low[i]))},"
                     f"{repr(float(q_high[i]))}")
    checkpoint.atomic_write(path, "\n".join(lines) + "\n")


def svg_line_chart(timestamps, series: dict, band=None, title: str = "") -> str:
    """The SVG chart with per-point ``sx``/``sy`` closures: the form that
    ``evaluation.svg_line_chart`` replaced.

    series maps label -> 1-D array; band is an optional (low, high) pair
    drawn as a shaded region.  No external assets or scripts.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    all_vals = [np.asarray(v, dtype=np.float64) for v in series.values()]
    if band is not None:
        all_vals += [np.asarray(band[0], np.float64), np.asarray(band[1], np.float64)]
    ymin = min(float(v.min()) for v in all_vals)
    ymax = max(float(v.max()) for v in all_vals)
    if ymax == ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad
    width, height, ml, mr, mt, mb = 800, 400, 60, 15, 30, 35
    pw, ph = width - ml - mr, height - mt - mb

    def sx(t):
        span = ts[-1] - ts[0] if ts[-1] != ts[0] else 1.0
        return ml + pw * (t - ts[0]) / span

    def sy(v):
        return mt + ph * (1.0 - (v - ymin) / (ymax - ymin))

    colors = ["#d95f02", "#1b9e77", "#7570b3", "#e7298a", "#66a61e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
    ]
    if band is not None:
        low, high = band
        pts = [f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(ts, high)]
        pts += [f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(ts[::-1], np.asarray(low)[::-1])]
        parts.append(f'<polygon points="{" ".join(pts)}" fill="#fdd49e" '
                     f'fill-opacity="0.6" stroke="none"/>')
    for i, (label, vals) in enumerate(series.items()):
        pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(ts, vals))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{ml + 8 + 130 * i}" y="{height - 8}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="{color}">{label}</text>')
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


def save_csv(panel: SeriesPanel, path) -> None:
    """The panel CSV one f-string per row: the form that ``data.save_csv``
    replaced."""
    lines = [CSV_HEADER]
    for t in range(panel.n_steps):
        date = epoch_days_to_date(panel.timestamps[t])
        for j, (site, channel) in enumerate(panel.columns):
            lines.append(f"{date},{site},{channel},{panel.values[t, j]:.6f}")
    checkpoint.atomic_write(path, "\n".join(lines) + "\n")


def _well_series(cfg: SyntheticFieldConfig, rng: np.random.Generator,
                 first_well: bool = False):
    """One well's (oil, water) series on the shared timeline, with the time
    axis, the masks and each shut-in's surge computed over the whole
    record: the form that ``data._well_series`` replaced.

    The first well of a site spuds at t = 0 so sites produce from the start
    of the record; later wells stagger in over the leading fraction.
    """
    t = np.arange(cfg.n_steps, dtype=np.float64)
    t_start = 0 if first_well else int(
        rng.integers(0, max(1, int(cfg.well_start_frac * cfg.n_steps))))
    q_init = rng.uniform(*cfg.q_init_range)
    decline = rng.uniform(*cfg.decline_range)
    b = rng.uniform(*cfg.b_range)
    delay = int(rng.integers(*cfg.breakthrough_delay_range))
    w_max = rng.uniform(*cfg.water_cut_max_range)
    t_bt = t_start + delay

    dt = np.maximum(t - t_start, 0.0)
    liquid = np.where(t >= t_start, arps_rate(q_init, decline, b, dt), 0.0)
    ramp = cfg.water_ramp_steps
    cut = w_max / (1.0 + np.exp(-(t - t_bt - ramp) / (ramp / 4.0)))
    cut = np.where(t >= t_bt, cut, 0.0)
    oil = liquid * (1.0 - cut)
    water = liquid * cut

    # shut-ins: zero spans followed by a bounded decaying surge on oil
    surge = np.ones(cfg.n_steps)
    mask = np.ones(cfg.n_steps, dtype=bool)
    pos = t_start
    while pos < cfg.n_steps:
        gap = int(rng.geometric(cfg.shutin_rate)) if cfg.shutin_rate > 0 else cfg.n_steps
        start = pos + gap
        if start >= cfg.n_steps:
            break
        dur = int(rng.integers(*cfg.shutin_duration_range))
        end = min(start + dur, cfg.n_steps)
        mask[start:end] = False
        after = np.arange(end, cfg.n_steps, dtype=np.float64) - end
        surge[end:] = 1.0 + cfg.surge_amplitude * np.exp(-after / cfg.surge_decay_steps)
        pos = end
    oil = oil * mask * surge
    water = water * mask

    if cfg.noise_scale > 0:
        oil = oil * np.exp(cfg.noise_scale * rng.standard_normal(cfg.n_steps))
        water = water * np.exp(cfg.noise_scale * rng.standard_normal(cfg.n_steps))
    return oil, water


@np.errstate(all="ignore")  # overflow ends in the finiteness check, unwarned
def generate_synthetic(cfg: SyntheticFieldConfig) -> SeriesPanel:
    """Build the panel from the ``_well_series`` above: the form that
    ``data.generate_synthetic`` replaced; deterministic per seed.

    Each site's channels sum its wells' ``_well_series``, drawn in site and
    well order from the (seed, DATA) stream.  Panel values are snapped to 6
    decimals, matching the CSV's %.6f representation so save -> load
    round-trips bit-exactly.
    """
    cfg.validate()
    rng = rng_mod.stream(cfg.seed, rng_mod.DATA)
    columns = []
    series = []
    for s in range(cfg.n_sites):
        site = f"SITE{s:02d}"
        oil_sum = np.zeros(cfg.n_steps)
        water_sum = np.zeros(cfg.n_steps)
        for w in range(cfg.wells_per_site):
            oil, water = _well_series(cfg, rng, first_well=(w == 0))
            oil_sum += oil
            water_sum += water
        columns += [(site, OIL), (site, WATER)]
        series += [oil_sum, water_sum]
    values = np.stack(series, axis=1)
    if not np.isfinite(values).all():
        raise ValidationError("production values must be finite; lower "
                              "q_init_range or noise_scale")
    values = _snap_6_decimals(values)
    timestamps = cfg.start_day + np.arange(cfg.n_steps, dtype=np.int64) * cfg.stride_days
    return SeriesPanel(columns=columns, timestamps=timestamps, values=values)
