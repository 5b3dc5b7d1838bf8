"""Drift-calibrated benchmark of nilcomm.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify|classify|queries \
        --seed N --seconds S --trace 0|1

A run repeats whole rounds of one workload until ``--seconds`` have passed.
Every round starts from a fresh import of ``nilcomm``, so its caches start
cold, the way one ``nilcomm`` process starts.  Each round is a sequence of
units (one pair, one classification, one query).  A fixed calibration kernel
runs right before and right after every unit, and also every
``SAMPLE_PERIOD_S`` inside a long unit, from an interval-timer signal.  Each
stretch of program time is scaled by nominal kernel time / kernel time
measured at its ends, so times are in reference seconds and do not follow the
machine's speed phases.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (``calibrated_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` they are the per-layer ones from a traced run, which also writes
its spans to ``perfbench/out/``.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

LAYERS = ("diagrams", "invariants", "closure", "oracle", "linalg", "components",
          "selflarge", "excdata", "cli")

# Kernel time, in seconds, that defines one reference second: a stretch of
# program time t measured next to a kernel that took k is reported as
# t * NOMINAL_KERNEL_S / k.  Fixed once; changing it rescales every figure.
NOMINAL_KERNEL_S = 0.001
# Interval of the in-unit speed samples; the machine's speed phases last
# about half a second and longer.
SAMPLE_PERIOD_S = 0.1
# Extra set-ups before the first round, so that setup_s is a median of many.
EXTRA_SETUPS = 4


def _kernel_system():
    rng = random.Random(5)
    return [{j: rng.randint(1, 5) * rng.choice((-1, 1)) for j in rng.sample(range(16), 5)}
            for _ in range(10)]


KERNEL_SYSTEM = _kernel_system()
KERNEL_PROFILES = [tuple((i * 7 + k * 3) % 11 for k in range(12)) for i in range(28)]


def kernel() -> int:
    """The calibration kernel, about 1 ms, in two halves that stand for
    nilcomm's two hot paths: forward elimination of a fixed sparse integer
    system in Fraction arithmetic on dict rows (the oracle), and pairwise
    componentwise comparison of tuples with dict updates (the closure
    order).  Imports nothing from nilcomm."""
    pivots: dict[int, dict] = {}
    for row in KERNEL_SYSTEM:
        cur = dict(row)
        while cur:
            c = min(cur)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = cur
                break
            factor = Fraction(cur[c], 1) / piv[c]
            nxt = dict(cur)
            for k, v in piv.items():
                nv = nxt.get(k, 0) - factor * v
                if nv:
                    nxt[k] = nv
                else:
                    nxt.pop(k, None)
            cur = nxt
    below: dict[tuple, int] = {}
    for p in KERNEL_PROFILES:
        for q in KERNEL_PROFILES:
            if all(x <= y for x, y in zip(p, q)):
                below[q] = below.get(q, 0) + 1
    return len(pivots) + len(below)


def kernel_time() -> float:
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Clock:
    """Times stretches of program work and scales them by the kernel speed
    measured at both ends of each stretch.  Totals exclude the kernel runs."""

    def __init__(self):
        self.last_kernel = kernel_time()
        self.samples: list[tuple[float, float, float]] = []
        self.kernel_s = 0.0  # wall time spent in kernels, for the share
        self.span_hook = None  # set by the tracer: records in-unit samples

    def _on_alarm(self, _signum, _frame):
        t_in = time.perf_counter()
        k = kernel_time()
        t_out = time.perf_counter()
        self.samples.append((t_in, k, t_out))
        if self.span_hook is not None:
            self.span_hook(t_in, t_out)

    def measure(self, fn, *args):
        """Run fn(*args); return (result, raw_s, calibrated_s)."""
        self.samples = []
        k_before = self.last_kernel
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        k_after = kernel_time()
        self.last_kernel = k_after
        raw = cal = 0.0
        seg_start, k_left = start, k_before
        for t_in, k, t_out in self.samples:
            raw += t_in - seg_start
            cal += (t_in - seg_start) * NOMINAL_KERNEL_S / ((k_left + k) / 2)
            seg_start, k_left = t_out, k
            self.kernel_s += t_out - t_in
        raw += end - seg_start
        cal += (end - seg_start) * NOMINAL_KERNEL_S / ((k_left + k_after) / 2)
        self.kernel_s += k_after
        return result, raw, cal


def fresh_nilcomm() -> SimpleNamespace:
    """Import nilcomm from this checkout's src/ anew, dropping earlier module
    objects and with them every cache they hold."""
    for name in [m for m in sys.modules if m == "nilcomm" or m.startswith("nilcomm.")]:
        del sys.modules[name]
    pkg = importlib.import_module("nilcomm")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"nilcomm imported from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module("nilcomm." + name) for name in LAYERS + ("errors",)}
    return SimpleNamespace(**mods)


def setup(workload, inputs):
    """A round's set-up: a fresh import of nilcomm, the program's objects for
    the inputs, and the CLI parser for queries."""
    nc = fresh_nilcomm()
    return nc, workload.setup(nc, inputs)


def run_round(workload, inputs, clock: Clock, tracer=None) -> dict:
    gc.collect()
    (nc, units), setup_raw, setup_cal = clock.measure(setup, workload, inputs)
    if tracer is not None:
        tracer.install(nc, clock)
    raw = cal = 0.0
    results = []
    for unit in units:
        res, r, c = clock.measure(unit)
        results.append(res)
        raw += r
        cal += c
    layer = tracer.finish() if tracer is not None else None
    return {"setup_raw": setup_raw, "setup_cal": setup_cal, "raw": raw, "cal": cal,
            "units": len(units), "results": results, "layer": layer}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["certify", "classify", "queries"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    process_start = time.perf_counter()
    os.environ.pop("NILCOMM_CONFIG", None)
    sys.path.insert(0, SRC)
    try:
        fresh_nilcomm()
    except ImportError as exc:
        print(f"perfbench: cannot import nilcomm from {SRC}: {exc}", file=sys.stderr)
        return 1
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs_start = time.perf_counter()
    inputs = workload.make_inputs(args.seed)
    inputs_s = time.perf_counter() - inputs_start
    clock = Clock()

    setups = []
    for _ in range(EXTRA_SETUPS):
        gc.collect()
        setups.append(clock.measure(setup, workload, inputs)[2])
    first_unit_s = time.perf_counter() - process_start

    tracer = tracing.Tracer(LAYERS) if args.trace else None
    # A traced run alternates untraced and traced rounds; the difference of
    # their medians is the tracing overhead.
    rounds, traced, problems = [], [], []
    first_results = None
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_this = tracer is not None and len(rounds) > len(traced)
        r = run_round(workload, inputs, clock, tracer if trace_this else None)
        if first_results is None:
            first_results = r["results"]
        elif r["results"] != first_results:
            problems.append(f"round {len(rounds) + len(traced) + 1} gave other outputs than round 1")
        del r["results"]  # only the first round's outputs stay in memory
        (traced if trace_this else rounds).append(r)
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = time.perf_counter() - process_start

    # Everything below runs after the measured rounds: the checks may grow
    # the caches of a fresh import without touching peak_rss_mb.
    first = rounds[0]
    gc.collect()
    outcome = workload.check(fresh_nilcomm(), inputs, first_results)
    problems.extend(outcome.problems)
    n_rounds = len(rounds) + len(traced)
    attempted = first["units"] * n_rounds
    failed = outcome.failed * n_rounds

    setups.extend(r["setup_cal"] for r in rounds + traced)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "units_per_round": first["units"],
        "raw_s": [round(r["raw"], 4) for r in rounds],
        "calibrated_s": [round(r["cal"], 4) for r in rounds],
        "setup_raw_s": [round(r["setup_raw"], 4) for r in rounds],
        "inputs_s": round(inputs_s, 4),
        "process_start_to_first_unit_s": round(first_unit_s, 4),
        "kernel_share": round(clock.kernel_s / wall_s, 4),
        "wall_s": round(wall_s, 2),
        "problems": problems[:20],
    }
    print(json.dumps(detail, sort_keys=True))
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "calibrated_s": {"value": statistics.median(r["cal"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = tracer.metrics(rounds, traced)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}.tsv.gz")
        tracer.write_spans(path)
        print(f"spans of the last traced round written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
