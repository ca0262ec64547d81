"""Measurement primitives of the wellcast benchmark.

Sample statistics with the sample-count rule for tail percentiles, the
ledger that turns failed operations into an error rate, the calibrator
that scales durations to a reference machine speed, spans with self time,
and the machine facts every result records.  Only the standard library is
imported here, so the benchmark's own tests run without numpy.
"""

import bisect
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

# A tail percentile is reported only when at least this many samples lie
# beyond it; below that its value is one or two outliers, not a tail.
MIN_SAMPLES_BEYOND = 10
PERCENTILE_LADDER = (99, 95, 90, 75)

# Thread-count variables of the BLAS builds numpy ships with or links to.
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------------------
# sample statistics
# ---------------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the sample at rank ceil(p/100 * n)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n - 1e-9))


def tail_percentile(n: int):
    """Highest ladder percentile with MIN_SAMPLES_BEYOND samples above it,
    or None when n samples support no tail at all."""
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND:
            return p
    return None


def percentile_if_supported(values, p: float):
    """The p-th percentile, or None when too few samples lie beyond it."""
    if samples_beyond(len(values), p) < MIN_SAMPLES_BEYOND:
        return None
    return percentile(values, p)


# ---------------------------------------------------------------------------
# operation accounting
# ---------------------------------------------------------------------------

@dataclass
class Ledger:
    """Attempted and failed operations, plus the reasons for failures.

    An operation is the workload's unit of work: a training window, an
    ensemble or a CLI cycle.  Every failed output check fails the
    operations it covers; a check that covers no operation (a count that
    should repeat exactly, say) marks the run incorrect without touching
    the error rate.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    run_errors: list = field(default_factory=list)

    def record(self, ops: int, failures) -> None:
        """Account one timed chunk of `ops` operations; any failure reason
        fails all of them, since the chunk's output is judged as a whole."""
        self.attempted += ops
        if failures:
            self.failed += ops
            self.reasons.extend(failures)

    def run_error(self, reason: str) -> None:
        self.run_errors.append(reason)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.run_errors


# ---------------------------------------------------------------------------
# machine-speed calibration
# ---------------------------------------------------------------------------

class Calibrator:
    """Times a fixed reference kernel between pieces of work.

    On a shared host the same code runs up to twice as slow for seconds at
    a time, while other tenants load the cores.  The kernel slows with it,
    so a duration divided by the kernel time measured around it, times the
    kernel's reference time, is the duration at the reference speed.
    Kernel runs inside an interval are cut out of it: each remaining gap
    is scaled by the mean of the two kernel times that bound it.
    """

    def __init__(self, kernel, ref_s: float, min_gap_s: float = 0.0,
                 clock=time.perf_counter):
        self.kernel = kernel
        self.ref_s = ref_s
        self.min_gap_s = min_gap_s
        self.clock = clock
        self.starts: list = []
        self.ends: list = []
        self.paused = False  # while set, maybe_sample does nothing

    def sample(self) -> None:
        t0 = self.clock()
        self.kernel()
        t1 = self.clock()
        self.starts.append(t0)
        self.ends.append(t1)

    def maybe_sample(self) -> None:
        """Sample unless paused or the last sample ended less than
        min_gap_s ago."""
        if self.paused:
            return
        if not self.ends or self.clock() - self.ends[-1] >= self.min_gap_s:
            self.sample()

    def kernel_seconds(self) -> list:
        return [b - a for a, b in zip(self.starts, self.ends)]

    def measure(self, a: float, b: float) -> tuple:
        """(raw, scaled) seconds of [a, b], without the kernel runs in it.

        Needs a sample that ends by `a` or starts inside [a, b], and one
        that starts at or after `b` or ends inside it.
        """
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.ends, b)
        inside = range(lo, hi)
        before = lo - 1 if lo > 0 and self.ends[lo - 1] <= a else None
        after = hi if hi < len(self.starts) else None
        bounds = ([before] if before is not None else []) + list(inside) \
            + ([after] if after is not None else [])
        if not bounds:
            raise ValueError("no calibration sample near the interval")
        cuts = [a] + [x for i in inside
                      for x in (self.starts[i], self.ends[i])] + [b]
        # gap g lies between kernel runs g-1 and g of `inside`; its bounding
        # samples are the nearest ones on each side that exist
        offset = 1 if before is not None else 0
        raw = scaled = 0.0
        for g in range(len(inside) + 1):
            gap = cuts[2 * g + 1] - cuts[2 * g]
            left = bounds[max(0, g - 1 + offset)]
            right = bounds[min(len(bounds) - 1, g + offset)]
            k = (self.ends[left] - self.starts[left]
                 + self.ends[right] - self.starts[right]) / 2
            raw += gap
            scaled += gap * self.ref_s / k
        return raw, scaled


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: int      # chunk the span belongs to; negative outside timed chunks


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its children.

    Children are unioned before subtraction, so overlapping children (which
    a single thread never produces, but a hand-built tree may) are not
    subtracted twice, and a child sticking out of its parent is clipped.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Keeps spans and counters in memory while wrapped callables run.

    `wrap` returns a stand-in that records one span per call; `count`
    adds to a counter of the current chunk.  Nothing is written until the
    caller asks for the spans at the end of the run.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: dict = {}
        self.op = -1
        self._open: list = []

    def count(self, name: str, amount=1) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name, before=None, after=None):
        """Span-recording stand-in for `fn`.

        `name` is a string or a function of (args, kwargs) giving one.
        `before(args, kwargs)` and `after(args, kwargs, result)` run outside
        the span, so what they inspect is not charged to the layer.
        """
        tracer = self
        spans = self.spans
        stack = self._open
        clock = self.clock

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(label, start, end, parent, tracer.op)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def self_time_by_name(self, ops) -> dict:
        """Summed self time per span name over spans of the given chunks."""
        ops = set(ops)
        totals: dict = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            if span.op in ops:
                totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def counts_of(self, op) -> dict:
        return {name: v for (o, name), v in self.counts.items() if o == op}


# ---------------------------------------------------------------------------
# process and machine facts
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_blas_threads() -> dict:
    """Set every BLAS thread variable to 1; call before importing numpy."""
    for var in THREAD_ENV_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_ENV_VARS}


def load_average() -> list:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []


def machine_facts(np_module) -> dict:
    blas = {}
    try:
        config = np_module.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):  # numpy < 1.26 has no mode=
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np_module.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV_VARS},
    }
