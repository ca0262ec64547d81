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
    lines = [CSV_HEADER]
    for t in range(panel.n_steps):
        date = epoch_days_to_date(panel.timestamps[t])
        for j, (site, channel) in enumerate(panel.columns):
            lines.append(f"{date},{site},{channel},{panel.values[t, j]:.6f}")
    checkpoint.atomic_write(path, "\n".join(lines) + "\n")


def read_text(path) -> str:
    """The file's text, read as UTF-8; invalid bytes raise FormatError."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path} is not UTF-8 text: invalid byte 0x{raw[exc.start]:02x} "
            f"at offset {exc.start}") from None


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


# every line break of str.splitlines but "\n"
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# the bytes outside the value spellings that numpy's cast parses as float()
# does (digits, ".", "e", "E", "+" and "-")
_ODD = np.ones(256, dtype=bool)
_ODD[list(b"0123456789.eE+-")] = False
_DASHES = np.array([c == ord("-") for c in b"YYYY-MM-DD"])
_DAY_ONE = date_to_epoch_days("0001-01-01")  # fromisoformat's first day


def _spans(raw: bytes, starts: np.ndarray, lengths: np.ndarray):
    """For each span length: the rows whose span has that length, and the
    spans' bytes as an ``S<length>`` array (``b""`` in ``S1`` for length 0).
    """
    if not len(lengths):
        return
    low = lengths.min()
    for length in np.flatnonzero(np.bincount(lengths - low)) + low:
        rows = np.flatnonzero(lengths == length)
        if not length:
            yield rows, np.zeros(len(rows), dtype="S1")
            continue
        windows = np.ndarray(len(raw) - length + 1, dtype=f"S{length}",
                             buffer=raw, strides=(1,))
        yield rows, windows[starts[rows]]


def _texts(raw: bytes, starts: np.ndarray, ends: np.ndarray) -> list:
    return [raw[s:e].decode() for s, e in zip(starts.tolist(), ends.tolist())]


def _codes(raw: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple:
    """Number the spans' distinct byte strings in first-seen order: (the
    first row of each, each row's number).

    Spans are compared within one length, so spans that differ only in
    trailing NULs stay apart.  The period is the distance from the first
    span to its next repeat; a span equal to the one a period before it
    takes that one's number, so only the others are sorted.  In a file
    that ``save_csv`` wrote, dates repeat with period 1 and ``site,channel``
    pairs with period the number of columns.
    """
    firsts = [np.empty(0, dtype=np.int64)]
    code, count = np.empty(len(starts), dtype=np.int64), 0
    for rows, spans in _spans(raw, starts, ends - starts):
        m = len(rows)
        p = _first(spans[1:] == spans[0])
        p = m if p is None else p + 1
        head = np.ones(m, dtype=bool)
        head[p:] = spans[p:] != spans[:-p]
        heads = np.flatnonzero(head)
        _, at, inverse = np.unique(spans[heads], return_index=True,
                                   return_inverse=True)
        # each row's head: the last one at or before it, a whole number of
        # periods back
        back = np.zeros(-(-m // p) * p, dtype=np.int64)
        back[heads] = heads
        back = np.maximum.accumulate(back.reshape(-1, p), axis=0).ravel()
        number = np.empty(m, dtype=np.int64)
        number[heads] = count + inverse
        code[rows] = number[back[:m]]
        firsts.append(rows[heads[at]])
        count += len(at)
    first = np.concatenate(firsts)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[code]


def _iso_days(raw: bytes, starts: np.ndarray, ends: np.ndarray):
    """Epoch days of the date spans, as ``date_to_epoch_days`` gives them,
    when every span is a valid ``YYYY-MM-DD``; else None.

    numpy's datetime64 cast reads that form as ``fromisoformat`` does, but
    for year 0, which it takes and ``fromisoformat`` refuses.
    """
    if not np.all(ends - starts == 10):
        return None
    spans = np.ndarray(len(raw) - 9, dtype="S10", buffer=raw,
                       strides=(1,))[starts]
    byte = spans.view(np.uint8).reshape(-1, 10)
    digit = byte - np.uint8(ord("0")) < 10  # bytes below "0" wrap past 10
    if not np.where(_DASHES, byte == ord("-"), digit).all():
        return None
    try:
        days = spans.astype("datetime64[D]").astype(np.int64)
    except ValueError:  # a month or a day out of range
        return None
    return days if np.all(days >= _DAY_ONE) else None


def load_csv(path) -> SeriesPanel:
    """Parse a panel; every (date, site, channel) cell must be present
    exactly once.  Out-of-order dates are sorted; duplicates are errors.

    The file is parsed from its UTF-8 bytes with numpy, with no Python
    string per row.  A file holding any other line break of
    ``str.splitlines`` is first rewritten with ``\\n`` breaks.  One scan
    each finds the newlines and the commas, and ``searchsorted`` counts
    each line's commas.  The date and ``site,channel`` spans are numbered
    in first-seen order by numpy's unique.  The distinct dates go through
    numpy's datetime64 cast when all are ``YYYY-MM-DD``, and through
    ``date_to_epoch_days`` otherwise.  The value spans made of digits,
    ``.``, ``e``, ``E``, ``+`` and ``-`` are converted by one ``S`` to
    float64 cast per span length, which gives ``float``'s bits; any other
    value goes through ``float``.

    Each row check runs over the lines before the first failure found so
    far, in the order fields, date, number, range, duplicate, so the error
    names the first faulty row in file order and that row's first failing
    check.  The whole-file checks (no data rows, ragged stride, missing
    cell) come after every row passes.
    """
    text = read_text(path)
    if any(c in text for c in _BREAKS):
        text = "\n".join(text.splitlines()) + "\n"
    raw = text.encode("utf-8")
    del text
    byte = np.frombuffer(raw, dtype=np.uint8)
    # line i is raw[starts[i]:ends[i]]; a final line break ends no line
    ends = np.flatnonzero(byte == ord("\n"))
    if not raw.endswith(b"\n"):
        ends = np.append(ends, len(raw))
    if raw[:ends[0]] != CSV_HEADER.encode():
        raise FormatError(f"expected header {CSV_HEADER!r}")
    starts = np.r_[0, ends[:-1] + 1]
    commas = np.flatnonzero(byte == ord(","))
    # commas before each line; no comma lies between a line and the next
    before = np.searchsorted(commas, np.r_[starts, ends[-1]])
    lines = np.flatnonzero(ends > starts)[1:]  # nonblank, after the header
    rows = lines + 1  # file row numbers
    starts, ends = starts[lines], ends[lines]
    # rows[:n] pass every check so far; bad is (class, message) for row n
    n, bad = len(rows), None

    k = _first(before[lines + 1] - before[lines] != 3)
    if k is not None:
        n, bad = k, (FormatError, "expected 4 fields")
    starts, ends = starts[:n], ends[:n]
    date_end = commas[before[lines[:n]]]
    pair_end = commas[before[lines[:n]] + 2]  # the site,channel span's end
    del commas, before

    first, date_code = _codes(raw, starts, date_end)
    days = _iso_days(raw, starts[first], date_end[first])
    if days is None:  # first-seen order: a bad date is in the first bad row
        days = []
        isos = _texts(raw, starts[first], date_end[first])
        for k, iso in zip(first, isos):
            try:
                days.append(date_to_epoch_days(iso))
            except FormatError as exc:
                n, bad = k, (FormatError, str(exc))
                break

    def value_text(k):
        return raw[pair_end[k] + 1:ends[k]].decode()

    values = np.empty(n)
    slow = [np.empty(0, dtype=np.int64)]  # rows the cast does not parse
    for at, spans in _spans(raw, pair_end[:n] + 1,
                            ends[:n] - pair_end[:n] - 1):
        odd = np.flatnonzero(_ODD.take(spans.view(np.uint8)))
        plain = np.ones(len(at), dtype=bool)
        plain[odd // spans.itemsize] = False
        try:
            with np.errstate(over="ignore"):  # 1e999 reads inf, as in float
                values[at[plain]] = spans[plain].astype(np.float64)
        except ValueError:  # a plain spelling float refuses: find it below
            plain[:] = False
        slow.append(at[~plain])
    for k in np.sort(np.concatenate(slow)):
        try:
            values[k] = float(value_text(k))
        except ValueError:
            n, bad = k, (FormatError, f"non-numeric value {value_text(k)!r}")
            break
    values = values[:n]
    k = _first(~((values >= 0.0) & (values < math.inf)))  # nan fails both
    if k is not None:
        n, bad = k, ((ValidationError, "negative value")
                     if math.isfinite(values[k]) else
                     (FormatError, f"non-finite value {value_text(k)!r}"))
        values = values[:n]

    timestamps, t_of_string = np.unique(np.array(days, np.int64),
                                        return_inverse=True)
    t = t_of_string[date_code[:n]]
    first, col = _codes(raw, date_end[:n] + 1, pair_end[:n])
    columns = [tuple(pair.split(","))
               for pair in _texts(raw, date_end[first] + 1, pair_end[first])]
    cell = t * len(columns) + col
    count = np.bincount(cell, minlength=len(timestamps) * len(columns))
    if n and count.max() > 1:
        repeated = np.ones(n, dtype=bool)
        repeated[np.unique(cell, return_index=True)[1]] = False
        k = _first(repeated)
        key = (int(timestamps[t[k]]), *columns[col[k]])
        n, bad = k, (FormatError, f"duplicate cell {key}")
    if bad is not None:
        cls, message = bad
        raise cls(f"{message} at row {rows[n]}")
    if not n:
        raise FormatError("no data rows")

    strides = np.diff(timestamps)
    k = _first(strides != strides[:1])  # one date has no stride to break
    if k is not None:
        odd = k + 1  # the first date off the stride
        raise FormatError(
            f"ragged dates: {epoch_days_to_date(timestamps[odd])} (first seen "
            f"at row {rows[_first(t == odd)]}) breaks the constant stride")
    k = _first(count == 0)
    if k is not None:
        t_missing, j = divmod(k, len(columns))
        raise FormatError(
            f"missing cell for {epoch_days_to_date(timestamps[t_missing])} "
            f"({columns[j][0]}, {columns[j][1]})")
    panel = np.empty(count.size)
    panel[cell] = values
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
    if not np.isfinite(values).all():
        raise ValidationError("production values must be finite; lower "
                              "q_init_range or noise_scale")
    values = _snap_6_decimals(values)
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
