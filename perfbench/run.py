"""hmdlab benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload attack_mtd --seed 7 --seconds 36 --trace 0

Run it from the repository root. It imports hmdlab from `src/` next to this
directory and refuses to run without it.

With `--trace 0` the run measures set-up, then repeats the workload's timed
operation (at least once) while another one should end within `--seconds`,
and reports the end-to-end metrics of the run's slowest operation: for each
metric, the operation that scored worst on it. On a shared host the CPU
speed switches between a loaded state and bursts up to about 1.8x faster,
lasting from a tenth of a second to tens of seconds; the share of fast
bursts differs from run to run, the loaded state does not. The slowest
operation measures the loaded state, so runs agree; a median over a few
operations moves with the share of bursts. The p50 latency is taken per
operation (4000 requests in `detect_stream`) and the slowest operation's is
reported. The p99 latency is taken over every request of the run: a tail
percentile already measures the loaded state, and the slowest operation's
p99 would be set by a single stall. `per_op` in the information record
holds every operation's values.

BLAS runs one thread: the workloads are driven from one thread, and the run
uses the same thread count on every machine.

With `--trace 1` it runs the timed operation once untraced and once traced,
reports per-layer metrics from the traced run's spans (set-up included) and
writes the spans to `perfbench/out/`.

Every operation's outputs are checked; a failed check or an exception
counts as a failed operation and does not stop the run. The line before
the last is an information record: environment, results digest and, when
traced, fit counts. The last line is the result record.

The metrics that belong to the deployed-detector path (`ingest_rows_per_s`,
`detect_rows_per_s`, `detect_p50_ms`, `detect_p99_ms`) are measured on its
steps in `detect_stream`. A recipe has no separate ingest or detect step
and serves one request per operation, so on the recipe workloads the rates
are rows generated and rows routed through MTD pools per second of the
whole operation, and the percentiles are those of the operation times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

IMPORT_PROBES = 5  # fresh interpreters timed per run for the import cost
SETUPS = 2  # in-process set-ups timed per run; setup_s uses their median

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "ingest_rows_per_s": "rows/s",
    "detect_rows_per_s": "rows/s",
    "detect_p50_ms": "ms",
    "detect_p99_ms": "ms",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs that finish in seconds (self-tests)")
    return p.parse_args(argv)


def _import_hmdlab():
    """Import hmdlab from this checkout's src/, or return an error string."""
    sys.path.insert(0, str(SRC))
    try:
        import hmdlab
    except ImportError as exc:
        return f"cannot import hmdlab from {SRC}: {exc}"
    if Path(hmdlab.__file__).resolve().parent.parent != SRC:
        return f"hmdlab was imported from {hmdlab.__file__}, not from {SRC}"
    return None


# ---------------------------------------------------------------------------
# Environment


def _blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# Measurement


def _import_seconds():
    """Median wall time of a fresh interpreter importing the package."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import hmdlab.experiments, hmdlab.features, hmdlab.mtd, hmdlab.traces")
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms and
        # the measured time snaps to those steps.
        subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _digest(results):
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, requests, failures):
        self.attempted += requests
        self.failed += min(len(failures), requests)
        self.messages.extend(failures[: 5 - len(self.messages)])


def _run_op(wl, state, tally, tracer=None):
    """One timed operation, traced if a tracer is given; its outputs are
    checked afterwards, untraced. Returns (wall seconds, outcome or None)."""
    gc.collect()
    error = None
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            outcome = wl.timed(state)
        except Exception:
            outcome, error = None, traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
    if outcome is None:
        tally.add(1, [error])
        return wall, None
    try:
        failures = wl.check(state, outcome)
    except Exception:
        failures = [traceback.format_exc(limit=3)]
    tally.add(outcome.requests, failures)
    return wall, outcome


def measure(wl, seed, seconds, smoke, tally, info):
    """Untraced run: set-up, then timed operations for `seconds`."""
    import_s = _import_seconds()
    setups = []
    state = None
    for _ in range(SETUPS):
        if state is not None:
            wl.teardown(state)
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(seed, smoke, str(OUT))
        setups.append(time.perf_counter() - t0)
    try:
        walls, ingest, detect, p50, p99, pooled = [], [], [], [], [], []
        start = time.perf_counter()
        cycle = 0.0  # last operation plus its check
        # Start another operation only if it should end within `seconds`.
        while not walls or time.perf_counter() - start + cycle <= seconds:
            t0 = time.perf_counter()
            wall, outcome = _run_op(wl, state, tally)
            cycle = time.perf_counter() - t0
            walls.append(wall)
            if outcome is None:
                continue
            info["results_sha256"] = _digest(wl.results(state, outcome))
            ingest_rows, detect_rows = wl.rows(state, outcome)
            ingest.append(ingest_rows / outcome.steps.get("ingest", wall))
            detect.append(detect_rows / outcome.steps.get("detect", wall))
            latencies = outcome.latencies_s or [wall]
            pooled.extend(latencies)
            p50.append(float(np.percentile(latencies, 50)))
            p99.append(float(np.percentile(latencies, 99)))
            del outcome
    finally:
        wl.teardown(state)
    info["operations"] = len(walls)
    info["latency_samples"] = len(pooled)
    info["per_op"] = {"run_s": walls, "ingest_rows_per_s": ingest,
                      "detect_rows_per_s": detect, "detect_p50_s": p50,
                      "detect_p99_s": p99, "setup_s": setups,
                      "import_s": import_s}
    # The slowest operation on each metric, and p99 over every request of
    # the run: see the module docstring.
    values = {
        "setup_s": import_s + statistics.median(setups),
        "run_s": max(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": (tally.attempted - tally.failed) / tally.attempted,
        "ingest_rows_per_s": min(ingest) if ingest else 0.0,
        "detect_rows_per_s": min(detect) if detect else 0.0,
        "detect_p50_ms": 1000 * max(p50) if p50 else 0.0,
        "detect_p99_ms": (1000 * float(np.percentile(pooled, 99, method="higher"))
                          if pooled else 0.0),
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def measure_traced(wl, seed, smoke, tally, info, name):
    """Traced run: set-up traced, one untraced and one traced operation."""
    from tracing import Tracer

    tracer = Tracer()
    with tracer:
        state = wl.setup(seed, smoke, str(OUT))
    try:
        plain_s, plain = _run_op(wl, state, tally)
        tracer.op = "op-0"
        traced_s, traced = _run_op(wl, state, tally, tracer)
        if plain is not None and traced is not None:
            digest = _digest(wl.results(state, plain))
            info["results_sha256"] = digest
            same = digest == _digest(wl.results(state, traced))
            tally.add(1, [] if same else ["traced results differ from untraced"])
    finally:
        wl.teardown(state)
    layers = tracer.layer_metrics(overhead_s=traced_s - plain_s)
    info["fit_counts"] = {
        fit: {"calls": layers[f"{fit}.calls"]["value"],
              "unique": layers[f"{fit}.unique"]["value"],
              "expected_full_size": list(expected)}
        for fit, expected in wl.expected_fits.items()
    }
    spans_path = OUT / f"spans-{name}-{seed}.json"
    tracer.write(spans_path)
    info["spans_file"] = str(spans_path.relative_to(ROOT))
    info["spans"] = len(tracer.spans)
    return layers


def main(argv=None):
    args = _parse_args(argv)
    error = _import_hmdlab()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke, "env": environment()}
    tally = Tally()
    if args.trace:
        metrics = measure_traced(wl, args.seed, args.smoke, tally, info,
                                 args.workload)
    else:
        metrics = measure(wl, args.seed, args.seconds, args.smoke, tally, info)
    info["failures"] = tally.messages
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
