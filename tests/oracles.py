"""Earlier forms of package functions, kept as bitwise oracles for the
faster forms that replaced them, and tape ops that only the op-by-op
references use."""

import numpy as np

from wellcast import checkpoint
from wellcast.errors import DimensionError
from wellcast.tensor import Tensor, _record


def elu_sum(x):
    """ELU as four ufuncs, max(x, 0) + expm1(min(x, 0)): the form that
    ``tensor.elu_array`` and ``tensor.elu_inplace`` replaced."""
    return np.maximum(x, 0.0) + np.expm1(np.minimum(x, 0.0))


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
