"""Panel ingestion, breakthrough truncation, splitting, and a synthetic
multi-well production generator.

A panel is a dense (time x column) table where each column is one (site,
channel) pair sampled on a fixed stride (2-day default).  Interior gaps are
errors, never imputed: the only sanctioned removal of data is the documented
truncation at water breakthrough.

The generator composes, per well, a hyperbolic decline for total liquid

    q(t) = q_i / (1 + b D (t - t_start))^(1/b)      (b -> 0: q_i e^{-D t})

with a sigmoidal water cut after a per-well breakthrough time, random shut-in
events that zero both channels and are followed by a decaying oil surge
(1 + 0.5 e^{-dt/5 steps}), and multiplicative lognormal noise.  Site series
are the sum of their wells.
"""

import datetime
import math
from dataclasses import dataclass, fields

import numpy as np

from . import checkpoint
from . import rng as rng_mod
from .errors import (FormatError, NoBreakthroughError, ParameterError,
                     ValidationError)

EPOCH = datetime.date(1970, 1, 1)
OIL = "oil"
WATER = "water"


def date_to_epoch_days(iso: str, row: int | None = None) -> int:
    try:
        return (datetime.date.fromisoformat(iso) - EPOCH).days
    except ValueError as exc:
        where = f" at row {row}" if row is not None else ""
        raise FormatError(f"bad ISO date {iso!r}{where}") from exc


def epoch_days_to_date(days: int) -> str:
    return (EPOCH + datetime.timedelta(days=int(days))).isoformat()


@dataclass
class SeriesPanel:
    """Multivariate production panel: values[T, D] over constant-stride days."""

    columns: list          # [(site, channel), ...]
    timestamps: np.ndarray  # epoch days, strictly increasing, constant stride
    values: np.ndarray      # [T, D], nonnegative
    split_index: int = -1   # first test position; default floor(0.8 T)

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        t = len(self.timestamps)
        if self.values.shape != (t, len(self.columns)):
            raise ValidationError(
                f"values shape {self.values.shape} does not match "
                f"{t} timestamps x {len(self.columns)} columns")
        if t >= 2:
            diffs = np.diff(self.timestamps)
            if np.any(diffs <= 0):
                raise FormatError("timestamps must be strictly increasing")
            if np.any(diffs != diffs[0]):
                bad = int(np.flatnonzero(diffs != diffs[0])[0]) + 1
                raise FormatError(
                    f"ragged dates: stride changes at timestamp index {bad}")
        if not np.isfinite(self.values).all():
            raise ValidationError("production values must be finite")
        if np.any(self.values < 0):
            raise ValidationError("production values must be nonnegative")
        if self.split_index < 0:
            self.split_index = int(0.8 * t)

    @property
    def n_steps(self) -> int:
        return len(self.timestamps)

    @property
    def stride(self) -> int:
        if len(self.timestamps) < 2:
            return 2
        return int(self.timestamps[1] - self.timestamps[0])

    @property
    def site_names(self) -> list:
        seen = []
        for site, _ in self.columns:
            if site not in seen:
                seen.append(site)
        return seen

    def column_index(self, site: str, channel: str) -> int:
        try:
            return self.columns.index((site, channel))
        except ValueError:
            raise ParameterError(f"no column ({site}, {channel})") from None

    def select(self, columns: list) -> "SeriesPanel":
        """Sub-panel with the named (site, channel) columns (column-gathered
        copy; temporal views stay with ``split``)."""
        idx = [self.column_index(s, c) for s, c in columns]
        return SeriesPanel(columns=list(columns), timestamps=self.timestamps,
                           values=self.values[:, idx],
                           split_index=self.split_index)


def split(panel: SeriesPanel, train_fraction: float = 0.8) -> tuple:
    """Contiguous temporal split at floor(fraction * T); views share storage."""
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError("train_fraction must lie strictly in (0, 1)")
    t = panel.n_steps
    k = int(train_fraction * t)
    if k == 0 or k == t:
        raise ParameterError(f"split at {k} leaves one side empty")
    train = SeriesPanel(columns=panel.columns, timestamps=panel.timestamps[:k],
                        values=panel.values[:k], split_index=k)
    test = SeriesPanel(columns=panel.columns, timestamps=panel.timestamps[k:],
                       values=panel.values[k:], split_index=0)
    return train, test


def truncate_at_breakthrough(panel: SeriesPanel,
                             water_channel: str = WATER) -> SeriesPanel:
    """Drop all timesteps before water production starts.

    Every column is cut identically at the latest first-nonzero index over
    the panel's water columns, so each water series has already broken
    through at the new start.  The split is recomputed on the new length.
    """
    water_cols = [i for i, (_, ch) in enumerate(panel.columns)
                  if ch == water_channel]
    if not water_cols:
        raise ParameterError(f"panel has no {water_channel!r} channel")
    start = 0
    for i in water_cols:
        nz = np.flatnonzero(panel.values[:, i] > 0.0)
        if len(nz) == 0:
            site = panel.columns[i][0]
            raise NoBreakthroughError(
                f"water channel at site {site!r} is identically zero")
        start = max(start, int(nz[0]))
    return SeriesPanel(columns=panel.columns,
                       timestamps=panel.timestamps[start:],
                       values=panel.values[start:],
                       split_index=-1)


# ---------------------------------------------------------------------------
# CSV interface: header `date,site,channel,value`, ISO dates, %.6f on save
# ---------------------------------------------------------------------------

CSV_HEADER = "date,site,channel,value"


def save_csv(panel: SeriesPanel, path) -> None:
    lines = [CSV_HEADER]
    for t in range(panel.n_steps):
        date = epoch_days_to_date(panel.timestamps[t])
        for j, (site, channel) in enumerate(panel.columns):
            lines.append(f"{date},{site},{channel},{panel.values[t, j]:.6f}")
    checkpoint.atomic_write(path, "\n".join(lines) + "\n")


def load_csv(path) -> SeriesPanel:
    """Parse a panel; every (date, site, channel) cell must be present
    exactly once.  Out-of-order dates are sorted; duplicates are errors."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise FormatError(f"expected header {CSV_HEADER!r}")
    cells = {}
    columns = []
    dates = []
    seen_dates = set()
    first_row = {}
    for row, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FormatError(f"expected 4 fields at row {row}")
        date_s, site, channel, value_s = parts
        day = date_to_epoch_days(date_s, row)
        first_row.setdefault(day, row)
        try:
            value = float(value_s)
        except ValueError:
            raise FormatError(f"non-numeric value {value_s!r} at row {row}") from None
        if not 0.0 <= value < math.inf:  # one test per row for nan, inf and < 0
            if math.isfinite(value):
                raise ValidationError(f"negative value at row {row}")
            raise FormatError(f"non-finite value {value_s!r} at row {row}")
        key = (day, site, channel)
        if key in cells:
            raise FormatError(f"duplicate cell {key} at row {row}")
        cells[key] = value
        if (site, channel) not in columns:
            columns.append((site, channel))
        if day not in seen_dates:
            seen_dates.add(day)
            dates.append(day)
    if not cells:
        raise FormatError("no data rows")
    dates.sort()
    if len(dates) >= 2:
        strides = np.diff(dates)
        if np.any(strides != strides[0]):
            bad_day = dates[int(np.flatnonzero(strides != strides[0])[0]) + 1]
            raise FormatError(
                f"ragged dates: {epoch_days_to_date(bad_day)} (first seen at "
                f"row {first_row[bad_day]}) breaks the constant stride")
    values = np.empty((len(dates), len(columns)))
    for t, day in enumerate(dates):
        for j, (site, channel) in enumerate(columns):
            try:
                values[t, j] = cells[(day, site, channel)]
            except KeyError:
                raise FormatError(
                    f"missing cell for {epoch_days_to_date(day)} "
                    f"({site}, {channel})") from None
    return SeriesPanel(columns=columns, timestamps=np.array(dates),
                       values=values)


# ---------------------------------------------------------------------------
# synthetic field generator
# ---------------------------------------------------------------------------

@dataclass
class SyntheticFieldConfig:
    """Desk-scale stand-in for a multi-well field.

    Rates are in arbitrary volume units per step.  Decline parameters are
    drawn uniformly per well from the given ranges; decline is hyperbolic
    with exponent b in [0, 1] (harmonic at 1, exponential at 0).  Shut-in
    events start with per-step probability shutin_rate and last a uniform
    number of steps; both channels are exactly zero during an event.
    """

    n_sites: int = 4
    wells_per_site: int = 15
    n_steps: int = 2000
    stride_days: int = 2
    start_day: int = 0  # epoch days of the first sample
    q_init_range: tuple = (40.0, 140.0)
    decline_range: tuple = (5e-4, 3e-3)  # per step
    b_range: tuple = (0.0, 1.0)
    well_start_frac: float = 0.4   # wells spud within this leading fraction
    breakthrough_delay_range: tuple = (100, 700)  # steps after well start
    water_cut_max_range: tuple = (0.3, 0.8)
    water_ramp_steps: float = 200.0
    shutin_rate: float = 0.002
    shutin_duration_range: tuple = (3, 15)
    surge_amplitude: float = 0.5
    surge_decay_steps: float = 5.0
    noise_scale: float = 0.15
    seed: int = 42

    def validate(self) -> None:
        if self.n_sites < 1 or self.wells_per_site < 1:
            raise ParameterError("need at least one site and one well per site")
        if self.n_steps < 2:
            raise ParameterError("need at least two timesteps")
        if self.q_init_range[0] <= 0 or self.decline_range[0] <= 0:
            raise ParameterError("q_i and D_i must be positive")
        if not (0.0 <= self.b_range[0] <= self.b_range[1] <= 1.0):
            raise ParameterError("b range must sit inside [0, 1]")
        if self.noise_scale < 0:
            raise ParameterError("noise_scale must be nonnegative")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        # negated comparisons so NaN fails them too
        for name in ("shutin_rate", "well_start_frac"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1]")
        for name in ("breakthrough_delay_range", "shutin_duration_range"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ParameterError(f"{name} needs lo < hi, got {lo},{hi}")


def arps_rate(q_init: float, decline: float, b: float, dt: np.ndarray) -> np.ndarray:
    """Hyperbolic decline; the b = 0 limit is exponential.  dt >= 0 in steps."""
    if b == 0.0:
        return q_init * np.exp(-decline * dt)
    return q_init * np.exp(-np.log1p(b * decline * dt) / b)


def _well_series(cfg: SyntheticFieldConfig, rng: np.random.Generator,
                 first_well: bool = False):
    """One well's (oil, water) series on the shared timeline.

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


def generate_synthetic(cfg: SyntheticFieldConfig, return_wells: bool = False):
    """Build the panel; deterministic per seed.

    Per-well series (and the unrounded site sums under ``*_raw`` keys) are
    returned when return_wells is set, so well-to-site additivity can be
    audited exactly.  Panel values are snapped to 6 decimals, matching the
    CSV's %.6f representation so save -> load round-trips bit-exactly.
    """
    cfg.validate()
    rng = rng_mod.stream(cfg.seed, rng_mod.DATA)
    columns = []
    series = []
    wells: dict = {}
    for s in range(cfg.n_sites):
        site = f"SITE{s:02d}"
        oil_sum = np.zeros(cfg.n_steps)
        water_sum = np.zeros(cfg.n_steps)
        for w in range(cfg.wells_per_site):
            oil, water = _well_series(cfg, rng, first_well=(w == 0))
            oil_sum += oil
            water_sum += water
            if return_wells:
                wells[f"{site}/well{w:02d}/oil"] = oil
                wells[f"{site}/well{w:02d}/water"] = water
        if return_wells:
            wells[f"{site}/oil_raw"] = oil_sum.copy()
            wells[f"{site}/water_raw"] = water_sum.copy()
        columns += [(site, OIL), (site, WATER)]
        series += [oil_sum, water_sum]
    values = np.stack(series, axis=1)
    # snap to the CSV's 6-decimal grid for exact round-trips
    values = np.array([[float(f"{v:.6f}") for v in row] for row in values])
    timestamps = cfg.start_day + np.arange(cfg.n_steps, dtype=np.int64) * cfg.stride_days
    panel = SeriesPanel(columns=columns, timestamps=timestamps, values=values)
    if return_wells:
        return panel, wells
    return panel


def parse_config(text: str, schema) -> dict:
    """Read flat ``key=value`` lines into typed values for a dataclass schema.

    A field's default fixes its type: the value is read with ``type(default)``,
    and a tuple default reads ``lo,hi`` with one type per element.  Blank lines
    and ``#`` lines are skipped, and ``-`` in a key reads as ``_``.  Returns
    only the keys the text sets; a malformed line raises FormatError naming
    it.  Run configs and generator sidecars are both read here.
    """
    defaults = {f.name: f.default for f in fields(schema)}
    updates = {}
    for row, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or key not in defaults:
            raise FormatError(f"unknown config key at line {row}: {line!r}")
        value, default = value.strip(), defaults[key]
        pair = isinstance(default, tuple)
        kinds = [type(d) for d in (default if pair else (default,))]
        parts = value.split(",") if pair else [value]
        try:
            if len(parts) != len(kinds):
                raise ValueError
            typed = tuple(kind(part) for kind, part in zip(kinds, parts))
        except ValueError:
            raise FormatError(
                f"config line {row}: {key} expects "
                f"{','.join(k.__name__ for k in kinds)}, got {value!r}") from None
        updates[key] = typed if pair else typed[0]
    return updates


def config_to_text(cfg: SyntheticFieldConfig) -> str:
    """Scalar fields, then the ``lo,hi`` ranges, each in field order."""
    lines = []
    for f in sorted(fields(cfg), key=lambda f: isinstance(f.default, tuple)):
        value = getattr(cfg, f.name)
        text = ",".join(map(str, value)) if isinstance(value, tuple) else value
        lines.append(f"{f.name}={text}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> SyntheticFieldConfig:
    return SyntheticFieldConfig(**parse_config(text, SyntheticFieldConfig))
