"""wellcast benchmark: one command for every workload, or one workload run.

    python3 bench/run.py                       # every workload, untraced
                                               # then traced, with tables
    python3 bench/run.py --workload tg_train --seed 3 --seconds 15 --trace 0

Run from the root of a wellcast checkout: the program is imported from
`src/` beside this directory, never from an installed copy.  A workload
run pins the BLAS thread count to 1, sets itself up several times (the
median is `setup_s`), warms up, then runs timed chunks until `--seconds`
have passed.  Its last line of output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  The full
record of each run is written to `bench/results/`.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import harness

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "_work"

WORKLOADS = ("tg_train", "tg_forecast", "informer_train", "vanilla_train",
             "reforecast")
DEFAULT_SECONDS = 15

# every workload reports all of these when untraced
END_TO_END = {"setup_s": "s", "op_ref_ms_p50": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="run one workload in this process; default: all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> None:
    """Import wellcast from this checkout's src/, or exit saying why not."""
    if not (SRC / "wellcast" / "__init__.py").is_file():
        raise SystemExit(f"error: no wellcast sources at {SRC}; run the "
                         f"benchmark from a wellcast checkout")
    sys.path.insert(0, str(SRC))
    import wellcast
    if Path(wellcast.__file__).resolve().parent != SRC / "wellcast":
        raise SystemExit(f"error: wellcast imported from {wellcast.__file__}, "
                         f"not from {SRC}")


def run_workload(args) -> int:
    harness.pin_blas_threads()  # before numpy is imported
    import_program()
    import numpy as np
    import measure
    import tracing
    import workloads

    seed = args.seed % (1 << 32)  # wellcast seeds must be nonnegative
    facts = harness.machine_facts(np)
    facts.update(workload=args.workload, seed=seed, seconds=args.seconds,
                 trace=args.trace,
                 load_average_start=harness.load_average())
    work = WORK / f"{args.workload}-{os.getpid()}"
    run = measure.Run(workloads.make(args.workload, work), seed,
                      args.seconds, traced=bool(args.trace))
    try:
        run.measure()
        if args.trace:
            metrics = run.per_layer()
            units = {m: u for m, u, _ in tracing.PER_LAYER}
        else:
            metrics = run.end_to_end()
            units = END_TO_END
    finally:
        run.wl.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only once no other run is using it
        except OSError:
            pass
    facts.update(run.facts)
    facts["load_average_end"] = harness.load_average()

    ledger = run.ledger
    result = {"correct": ledger.correct, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {m: {"value": v, "unit": units[m]}
                          for m, v in metrics.items()}}
    details = run.details()
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-trace{args.trace}-seed{seed}.json").write_text(
        json.dumps({"result": result, "facts": facts, "details": details,
                    "setup_samples_s": run.setups, "op_samples_s": run.ops,
                    "traced_chunk_ref_s_per_op": run.traced_chunks_ref,
                    "failures": ledger.reasons,
                    "run_errors": ledger.run_errors}, indent=1) + "\n")

    for key, value in facts.items():
        print(f"fact {key} = {value}")
    for name, (value, unit) in details.items():
        print(f"detail {name} = {value} {unit}")
    for reason in ledger.reasons + ledger.run_errors:
        print("failure " + " | ".join(reason.strip().splitlines()))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    results = {}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"== {name} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            results[(name, trace)] = result
            print(f"== {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for line in lines[:-1]:
                if line.startswith(("detail", "failure")):
                    print("  " + line)

    print("\nend-to-end metrics (untraced runs)")
    print_table(results, 0)
    print("\nper-layer metrics (traced runs, per operation)")
    print_table(results, 1)
    print("\ntracing overhead: traced minus untraced chunks of the traced run")
    for name in WORKLOADS:
        if (name, 1) in results:
            m = results[(name, 1)]["metrics"]
            base = m["trace.op_ms_untraced"]["value"]
            delta = m["trace.op_ms_traced"]["value"] - base
            print(f"  {name:<16}{delta:+12.3f} ms per op "
                  f"({delta / base:+.1%} of {base:.3f} ms)")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "summary.json").write_text(json.dumps(
        {f"{n}-trace{t}": r for (n, t), r in results.items()}, indent=1)
        + "\n")
    return 0 if ok else 1


def print_table(results, trace) -> None:
    names = [n for n in WORKLOADS if (n, trace) in results]
    if not names:
        return
    metrics = results[(names[0], trace)]["metrics"]
    print(f"  {'metric':<34}{'unit':<7}" + "".join(f"{n:>16}" for n in names))
    for metric, entry in metrics.items():
        row = [results[(n, trace)]["metrics"][metric]["value"] for n in names]
        print(f"  {metric:<34}{entry['unit']:<7}"
              + "".join(f"{v:>16.6g}" for v in row))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
