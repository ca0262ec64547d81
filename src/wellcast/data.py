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
from pathlib import Path

import numpy as np

from . import checkpoint
from . import rng as rng_mod
from .errors import (FormatError, NoBreakthroughError, ParameterError,
                     ValidationError)
from .evaluation import MAX_DRAWS

EPOCH = datetime.date(1970, 1, 1)
OIL = "oil"
WATER = "water"


def date_to_epoch_days(iso: str) -> int:
    try:
        return (datetime.date.fromisoformat(iso) - EPOCH).days
    except ValueError as exc:
        raise FormatError(f"bad ISO date {iso!r}") from exc


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
        """Sub-panel with the named (site, channel) columns (a
        column-gathered copy)."""
        idx = [self.column_index(s, c) for s, c in columns]
        return SeriesPanel(columns=list(columns), timestamps=self.timestamps,
                           values=self.values[:, idx],
                           split_index=self.split_index)


def truncate_at_breakthrough(panel: SeriesPanel) -> SeriesPanel:
    """Drop all timesteps before water production starts.

    Every column is cut identically at the latest first-nonzero index over
    the panel's water columns, so each water series has already broken
    through at the new start.  The split is recomputed on the new length.
    """
    water_cols = [i for i, (_, ch) in enumerate(panel.columns)
                  if ch == WATER]
    if not water_cols:
        raise ParameterError(f"panel has no {WATER!r} channel")
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
    """One ``date,site,channel,value`` row per cell, time-major.  A step's
    rows are one ``%`` template: the step's date joined between the columns'
    ``,site,channel,%.6f`` parts, names ``%``-escaped.  A timestamp outside
    0001-01-01..9999-12-31 raises ParameterError before anything is written."""
    days = panel.timestamps
    odd = days[(days < _DAY_ONE) | (days > _DAY_LAST)]
    if odd.size:
        raise ParameterError(f"timestamp {odd[0]} (epoch days) lies outside "
                             f"0001-01-01..9999-12-31")
    parts = [""] + [f",{site},{channel},".replace("%", "%%") + "%.6f\n"
                    for site, channel in panel.columns]
    dates = np.datetime_as_string(days.astype("datetime64[D]")).tolist()
    rows = [date.join(parts) % tuple(values)
            for date, values in zip(dates, panel.values.tolist())]
    checkpoint.atomic_write(path, "".join([CSV_HEADER + "\n"] + rows))


def read_text(path) -> str:
    """The file's text, read as UTF-8; invalid bytes raise FormatError."""
    return _utf8(Path(path).read_bytes(), path)


def _utf8(raw: bytes, path) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path} is not UTF-8 text: invalid byte 0x{raw[exc.start]:02x} "
            f"at offset {exc.start}") from None


_DAY_ONE = date_to_epoch_days("0001-01-01")  # fromisoformat's first day
_DAY_LAST = date_to_epoch_days("9999-12-31")  # and its last


def load_csv(path) -> SeriesPanel:
    """The panel of the file at ``path``: see ``parse_csv``."""
    return parse_csv(Path(path).read_bytes(), path)


def parse_csv(raw: bytes, path) -> SeriesPanel:
    """Parse a panel from a file's bytes (``path`` names the file in the
    error for bytes that are not UTF-8); every (date, site, channel) cell
    must be present exactly once.  Out-of-order dates are sorted;
    duplicates are errors.

    The text is split by ``str.splitlines`` and read one row at a time.
    Each distinct date text goes through ``date_to_epoch_days`` once, each
    value through ``float``, and each row's day, column and value go into
    three preallocated arrays.  The checks run on each nonblank row in file
    order: fields, date, number, range.  The loop stops at the first row
    that fails one; one ``np.unique`` then finds the first repeated cell
    among the rows before it, and whichever faulty row comes first is
    named, with its first failing check.  The whole-file checks (no data
    rows, ragged stride, missing cell) come after every row passes.  A
    16,000-row field parses in about 14-15 ms, whatever its values'
    spelling.
    """
    lines = _utf8(raw, path).splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise FormatError(f"expected header {CSV_HEADER!r}")
    days, pairs = {}, {}  # date text -> epoch day; (site, channel) -> column
    day = np.empty(len(lines), dtype=np.int64)
    col = np.empty(len(lines), dtype=np.int64)
    values = np.empty(len(lines))
    n, bad = 0, None  # rows stored; (class, message, row) of a failure
    for row in range(2, len(lines) + 1):
        line = lines[row - 1]
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            bad = FormatError, "expected 4 fields", row
            break
        date, site, channel, text = parts
        if date not in days:
            try:
                days[date] = date_to_epoch_days(date)
            except FormatError as exc:
                bad = FormatError, str(exc), row
                break
        try:
            value = float(text)
        except ValueError:
            bad = FormatError, f"non-numeric value {text!r}", row
            break
        if not 0.0 <= value < math.inf:  # nan fails too
            bad = ((ValidationError, "negative value", row)
                   if math.isfinite(value) else
                   (FormatError, f"non-finite value {text!r}", row))
            break
        day[n] = days[date]
        col[n] = pairs.setdefault((site, channel), len(pairs))
        values[n] = value
        n += 1

    def row_of(k):  # the file row of data row k; the header is row 1
        return int(np.flatnonzero([bool(line) for line in lines])[k + 1]) + 1

    columns = list(pairs)
    timestamps, t = np.unique(day[:n], return_inverse=True)
    cell = t * len(columns) + col[:n]
    first = np.unique(cell, return_index=True)[1]
    if len(first) < n:  # the first row whose cell an earlier row holds
        repeated = np.ones(n, dtype=bool)
        repeated[first] = False
        k = int(np.argmax(repeated))
        key = (int(day[k]), *columns[col[k]])
        bad = FormatError, f"duplicate cell {key}", row_of(k)
    if bad is not None:
        cls, message, row = bad
        raise cls(f"{message} at row {row}")
    if not n:
        raise FormatError("no data rows")

    strides = np.diff(timestamps)
    odd = np.flatnonzero(strides != strides[:1]) + 1  # one date breaks none
    if odd.size:
        k = int(odd[0])  # the first date off the stride
        raise FormatError(
            f"ragged dates: {epoch_days_to_date(timestamps[k])} (first seen "
            f"at row {row_of(int(np.argmax(t == k)))}) breaks the constant "
            f"stride")
    panel = np.full(len(timestamps) * len(columns), np.nan)
    panel[cell] = values[:n]  # every value read is finite
    missing = np.flatnonzero(np.isnan(panel))
    if missing.size:
        t_missing, j = divmod(int(missing[0]), len(columns))
        raise FormatError(
            f"missing cell for {epoch_days_to_date(timestamps[t_missing])} "
            f"({columns[j][0]}, {columns[j][1]})")
    return SeriesPanel(columns=columns, timestamps=timestamps,
                       values=panel.reshape(len(timestamps), len(columns)))


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
        values = self.n_sites * self.wells_per_site * self.n_steps
        if values > MAX_DRAWS:  # refused before any well series is allocated
            raise ParameterError(
                f"n_sites x wells_per_site x n_steps = {values} well values, "
                f"more than {MAX_DRAWS}; lower n_sites, wells_per_site or n_steps")
        for f in fields(self):  # each range is drawn from by rng.uniform
            ends = getattr(self, f.name)
            if isinstance(ends, tuple) and not (np.isfinite(ends).all()
                                                and ends[0] <= ends[1]):
                raise ParameterError(f"{f.name} needs finite lo <= hi, got "
                                     f"{ends[0]},{ends[1]}")
        if self.q_init_range[0] <= 0 or self.decline_range[0] <= 0:
            raise ParameterError("q_i and D_i must be positive")
        for name in ("b_range", "water_cut_max_range"):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi <= 1.0:
                raise ParameterError(f"{name} must sit inside [0, 1]")
        if self.noise_scale < 0:
            raise ParameterError("noise_scale must be nonnegative")
        for name in ("surge_decay_steps", "water_ramp_steps"):  # each divides
            if not getattr(self, name) > 0:  # NaN fails too
                raise ParameterError(f"production values must be finite, so "
                                     f"{name} must be > 0, got {getattr(self, name)}")
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
        if self.shutin_duration_range[0] < 0:  # a shut-in must not step back
            raise ParameterError(f"shutin_duration_range needs lo >= 0, got "
                                 f"{self.shutin_duration_range[0]}")
        if self.stride_days < 1:  # timestamps must increase
            raise ParameterError(f"stride_days must be >= 1, got "
                                 f"{self.stride_days}")
        first = self.start_day
        last = first + (self.n_steps - 1) * self.stride_days
        if not (_DAY_ONE <= first and last <= _DAY_LAST):  # first < last
            raise ParameterError(
                f"start_day={first}, stride_days={self.stride_days}, "
                f"n_steps={self.n_steps}: the dates run from epoch day {first} "
                f"to {last}, outside 0001-01-01..9999-12-31 (epoch days "
                f"{_DAY_ONE}..{_DAY_LAST})")


def arps_rate(q_init: float, decline: float, b: float, dt: np.ndarray) -> np.ndarray:
    """Hyperbolic decline; the b = 0 limit is exponential.  dt >= 0 in steps."""
    if b == 0.0:
        return q_init * np.exp(-decline * dt)
    return q_init * np.exp(-np.log1p(b * decline * dt) / b)


def _well_series(cfg: SyntheticFieldConfig, rng: np.random.Generator,
                 t: np.ndarray, profile: np.ndarray, first_well: bool = False):
    """One well's (oil, water) series on the shared timeline.

    ``t`` is the field's time axis, ``arange(n_steps)``, and ``profile`` the
    post-shut-in oil surge ``1 + surge_amplitude e^{-t / surge_decay_steps}``
    on it: a shut-in that ends at step e takes ``profile[:n_steps - e]`` from
    e on.  Decline is evaluated from the spud step and the water cut from
    breakthrough, each into zeros.

    The first well of a site spuds at t = 0 so sites produce from the start
    of the record; later wells stagger in over the leading fraction.
    """
    t_start = 0 if first_well else int(
        rng.integers(0, max(1, int(cfg.well_start_frac * cfg.n_steps))))
    q_init = rng.uniform(*cfg.q_init_range)
    decline = rng.uniform(*cfg.decline_range)
    b = rng.uniform(*cfg.b_range)
    delay = int(rng.integers(*cfg.breakthrough_delay_range))
    w_max = rng.uniform(*cfg.water_cut_max_range)
    t_bt = t_start + delay

    liquid = np.zeros(cfg.n_steps)
    liquid[t_start:] = arps_rate(q_init, decline, b, t[t_start:] - t_start)
    ramp = cfg.water_ramp_steps
    cut = np.zeros(cfg.n_steps)
    bt = max(t_bt, 0)  # a negative delay breaks through before the record
    cut[bt:] = w_max / (1.0 + np.exp(-(t[bt:] - t_bt - ramp) / (ramp / 4.0)))
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
        surge[end:] = profile[:cfg.n_steps - end]
        pos = end
    oil = oil * mask * surge
    water = water * mask

    if cfg.noise_scale > 0:
        oil = oil * np.exp(cfg.noise_scale * rng.standard_normal(cfg.n_steps))
        water = water * np.exp(cfg.noise_scale * rng.standard_normal(cfg.n_steps))
    return oil, water


@np.errstate(all="ignore")  # an overflowing product takes the string route
def _snap_6_decimals(values: np.ndarray) -> np.ndarray:
    """``float(f"{v:.6f}")`` of every finite value: the CSV's 6-decimal grid.

    rint(v * 1e6) / 1e6 gives the same bits: the integer is exact, and
    dividing it by the exact 1e6 rounds k / 10^6 correctly, as parsing the
    string does.  Rounding the product first can only move the integer
    where the product lies within an ulp of a half-integer; those, and
    products too large for exact integers, take the string route.
    """
    product = values * 1e6
    out = np.rint(product) / 1e6
    size = np.abs(product)
    slow = ~(size < 2.0 ** 52)
    slow |= np.abs(product - np.floor(product) - 0.5) <= np.spacing(size)
    for i in zip(*np.nonzero(slow)):
        out[i] = float(f"{values[i]:.6f}")
    return out


@np.errstate(all="ignore")  # overflow ends in the finiteness check, unwarned
def generate_synthetic(cfg: SyntheticFieldConfig) -> SeriesPanel:
    """Build the panel; deterministic per seed.

    Each site's channels sum its wells' ``_well_series``, drawn in site and
    well order from the (seed, DATA) stream.  Panel values are snapped to 6
    decimals, matching the CSV's %.6f representation so save -> load
    round-trips bit-exactly.
    """
    cfg.validate()
    rng = rng_mod.stream(cfg.seed, rng_mod.DATA)
    t = np.arange(cfg.n_steps, dtype=np.float64)
    profile = 1.0 + cfg.surge_amplitude * np.exp(-t / cfg.surge_decay_steps)
    columns = []
    series = []
    for s in range(cfg.n_sites):
        site = f"SITE{s:02d}"
        oil_sum = np.zeros(cfg.n_steps)
        water_sum = np.zeros(cfg.n_steps)
        for w in range(cfg.wells_per_site):
            oil, water = _well_series(cfg, rng, t, profile,
                                      first_well=(w == 0))
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
