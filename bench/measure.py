"""The measuring loop of one workload run.

Set-up is repeated and timed; a warm-up follows; then timed chunks run
until the time is up.  A reference kernel runs between operations, so
every duration can also be given at the kernel's reference speed (see
`harness.Calibrator`).  In a traced run every other chunk is traced, so
the tracing overhead is measured against untraced chunks of the same
process, and the traced chunks give the per-layer metrics.
"""

import gc
import time
import traceback

import harness
import tracing
import workloads

# the last set-up before the chunks is the one measured
SETUPS_BEFORE, MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 2, 3, 9, 1.0
MIN_CHUNKS = 2  # per timing mode, so the byte-identity checks always run

# quality figure of a workload -> the per-layer metric that carries it
QUALITY_LAYER = {"timegrad_val_loss": "timegrad.val_loss",
                 "informer_val_loss": "seqmodels.val_loss",
                 "vanilla_val_loss": "seqmodels.val_loss",
                 "mase_best_mean": "evaluation.mase_best_mean"}

# the least time between two kernel runs that workloads request from
# inside an operation
KERNEL_MIN_GAP_S = 0.02


class Run:
    """Everything one workload run measured."""

    def __init__(self, wl, seed: int, seconds: float, traced: bool):
        # set-up is panel generation and small-op training everywhere, so
        # it is scaled by the small-ops kernel; operations by their own
        self.setup_cal = harness.Calibrator(
            workloads.SmallOpsKernel(), workloads.SmallOpsKernel.REF_S,
            KERNEL_MIN_GAP_S)
        self.cal = harness.Calibrator(wl.kernel(), wl.kernel.REF_S,
                                      KERNEL_MIN_GAP_S)
        self.wl = wl
        wl.cal = self.cal
        self.seed = seed
        self.seconds = seconds
        self.layers = tracing.LayerTrace() if traced else None
        self.ledger = harness.Ledger()
        # each a list of (seconds, seconds at the kernel's reference speed)
        self.setups: list = []
        self.ops: list = []          # untraced operations
        self.chunks: list = []       # untraced chunks
        self.cpu_per_wall: list = []  # untraced chunks
        self.traced_chunks: list = []      # chunk numbers
        self.traced_chunks_ref: list = []  # reference seconds per operation

    def measure(self) -> None:
        """Set-ups are split between the start and the end of the run, so
        their median does not rest on one moment of a shared machine."""
        for _ in range(SETUPS_BEFORE):
            self._setup()
        self.wl.warmup()
        self._chunks()
        self.quality = self.wl.quality()
        self.facts = self.wl.facts()
        while len(self.setups) < MIN_SETUPS or (
                len(self.setups) < MAX_SETUPS
                and sum(r for r, _ in self.setups) < SETUP_BUDGET_S):
            self._setup()

    def _setup(self) -> None:
        cal = self.wl.cal = self.setup_cal
        cal.sample()
        if self.layers:
            self.layers.install(tracing.SETUP)
        t0 = time.perf_counter()
        try:
            self.wl.setup(self.seed)
        finally:
            t1 = time.perf_counter()
            if self.layers:
                self.layers.uninstall()
            self.wl.cal = self.cal
        cal.sample()
        self.setups.append(cal.measure(t0, t1))

    def _chunks(self) -> None:
        wl, layers = self.wl, self.layers
        min_chunks = MIN_CHUNKS * (2 if layers else 1)
        start = time.perf_counter()
        i = 0
        while i < min_chunks or time.perf_counter() - start < self.seconds:
            traced = layers is not None and i % 2 == 1
            gc.collect()
            self.cal.sample()
            if traced:
                # traced chunks give raw layer times: no kernel inside them
                self.cal.paused = True
                layers.install(i)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                output, error = wl.chunk(i), None
            except Exception:  # one failed chunk must not end the run
                output, error = None, traceback.format_exc(limit=4)
            t1, c1 = time.perf_counter(), time.process_time()
            if traced:
                layers.uninstall()
                self.cal.paused = False
            self.cal.sample()
            chunk = self.cal.measure(t0, t1)
            if traced:
                self.traced_chunks.append(i)
                self.traced_chunks_ref.append(chunk[1] / wl.units)
            elif error is None:
                self.ops.extend(self.cal.measure(a, b)
                                for a, b in wl.op_intervals(t0, t1))
                self.chunks.append(chunk)
                self.cpu_per_wall.append((c1 - c0) / (t1 - t0))
            self.ledger.record(wl.units,
                               [error] if error else wl.check(i, output))
            i += 1

    def end_to_end(self) -> dict:
        return {"setup_s": harness.median([s for _, s in self.setups]),
                "op_ref_ms_p50": harness.median([s for _, s in self.ops]) * 1e3,
                "peak_rss_mb": harness.peak_rss_mb()}

    def per_layer(self) -> dict:
        """Per-operation layer metrics of the traced chunks.

        Times are averaged over every traced chunk.  Counts come from the
        first traced chunk, the same work in every run of a seed, so they
        repeat exactly between runs; the checks below hold them to that.
        """
        layers, wl = self.layers, self.wl
        chunks = self.traced_chunks
        values = layers.layer_metrics(chunks, wl.units * len(chunks))
        first = layers.layer_metrics(chunks[:1], wl.units)
        values.update({name: first[name] for name in tracing.COUNTS})
        # chunks that repeat the same work must repeat every count; other
        # chunks must repeat the counts the model shapes fix
        same = tracing.COUNTS if wl.same_work_each_chunk else wl.seed_independent
        for op in chunks[1:]:
            self._expect_equal(first, layers.layer_metrics([op], wl.units),
                               same, f"chunk {chunks[0]} and chunk {op}")
        if wl.seed_independent:
            other = (self.seed + 1) % (1 << 32)
            probes = []
            for op in (tracing.PROBE, tracing.PROBE_AGAIN):
                layers.install(op)
                try:
                    wl.probe(other)
                finally:
                    layers.uninstall()
                probes.append(layers.layer_metrics([op], 1))
            self._expect_equal(probes[0], probes[1], tracing.COUNTS,
                               f"two probes of seed {other}")
            self._expect_equal(first, probes[0], wl.seed_independent,
                               f"seed {self.seed} and seed {other}")
        values["data.generate_synthetic_s"] = layers.generate_seconds(
            len(self.setups))
        # the overhead compares chunks at the reference speed
        traced_ms = harness.median(self.traced_chunks_ref) * 1e3
        untraced_ms = harness.median([s for _, s in self.chunks]) \
            / wl.units * 1e3
        values.update({"trace.op_ms_traced": traced_ms,
                       "trace.op_ms_untraced": untraced_ms,
                       "trace.overhead_frac":
                           (traced_ms - untraced_ms) / untraced_ms})
        for name, (value, _unit) in self.quality.items():
            values[QUALITY_LAYER[name]] = value
        return {m: values.get(m, 0.0) for m, _, _ in tracing.PER_LAYER}

    def _expect_equal(self, a: dict, b: dict, names, where: str) -> None:
        for name in names:
            if a[name] != b[name]:
                self.ledger.run_error(f"{name} is not exact: {where} gave "
                                      f"{a[name]!r} and {b[name]!r}")

    def details(self) -> dict:
        """The workload's own figures (windows per second, forecast or cycle
        seconds, model quality) in plain seconds, with the median and the
        tail of the operation times and their sample count."""
        wl = self.wl
        ops = [r for r, _ in self.ops]
        n = len(ops)
        chunk_p50 = harness.median([r for r, _ in self.chunks])
        kernel = self.cal.kernel_seconds()
        out = {"op_samples": (n, "count"),
               "setups": (len(self.setups), "count"),
               "error_rate": (self.ledger.error_rate, "ratio"),
               "op_s_p50": (harness.median(ops), "s")}
        tail = harness.tail_percentile(n)
        if tail is not None:
            out[f"op_s_p{tail}"] = (harness.percentile(ops, tail), "s")
        out["setup_raw_s"] = (harness.median([r for r, _ in self.setups]),
                              "s")
        out["kernel_ms_p50"] = (harness.median(kernel) * 1e3, "ms")
        out["kernel_ms_range"] = (f"{min(kernel) * 1e3:.3f}.."
                                  f"{max(kernel) * 1e3:.3f}", "ms")
        out["cpu_per_wall"] = (harness.median(self.cpu_per_wall), "ratio")
        if wl.rate_metric:
            # windows per second of whole epochs, validation included
            out[wl.rate_metric] = (wl.units / chunk_p50, "1/s")
        elif wl.unit == "ensemble":
            out["forecast_s"] = (chunk_p50, "s")
        else:
            out["cycle_s_p50"] = (harness.median(ops), "s")
            p90 = harness.percentile_if_supported(ops, 90)
            out["cycle_s_p90"] = ((p90, "s") if p90 is not None else
                                  (f"n/a: {n} cycles, 100 needed", ""))
        out.update(self.quality)
        return out
