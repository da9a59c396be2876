"""lampclock benchmark: one workload, one seed, one JSON line of metrics.

Usage, from the root of a lampclock checkout::

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Workloads: cli-cold, roundtrip, tick-day, enumerate (see BENCHMARK.json
and each ``wl_*.py`` for what they do and why). The loop is closed and
single-process: one op at a time, and at most one child process.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced rounds with traced rounds, in which
spans are recorded around every call into a lampclock layer; it reports
the per-layer metrics, each layer's self time and the tracing overhead,
and writes the spans to ``bench/out/`` when the run ends.

Every op's output is checked against the oracles in ``oracles.py``.
Failures are listed on stdout before the result; the last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5  # at least this many set-ups ...
SETUP_MIN_S = 1.5  # ... and until this much time has passed
MIN_OPS = 100  # so that at least ten samples lie beyond p90
HARD_STOP_FACTOR = 3  # give up on MIN_OPS after this many times --seconds
CALIBRATION_LOOPS = 600
CALIBRATION_REFERENCE_S = 1.0e-3
BUCKETS_PER_E = 1000  # latency histogram: log-spaced buckets 0.1 % wide
TRACE_CAPACITY = 800_000  # spans kept in memory by one traced run
SHOWN_FAILURES = 20
PROBE_FAILURE = "in-process "  # prefix of failures found by cli-cold's in-process probes

WORKLOADS = {
    "cli-cold": "wl_cli",
    "roundtrip": "wl_roundtrip",
    "tick-day": "wl_tick",
    "enumerate": "wl_enumerate",
}

# Per-layer timings: span name -> (metric name, unit, seconds per unit).
LAYER_TIMINGS = {
    "import.bare_python": ("import.bare_python_ms", "ms", 1e-3),
    "import.lampclock": ("import.lampclock_ms", "ms", 1e-3),
    "import.cli": ("import.cli_ms", "ms", 1e-3),
    "cli.parse": ("cli.parse_us", "us", 1e-6),
    "cli.main": ("cli.main_us", "us", 1e-6),
    "cli.tick_poll": ("cli.tick_poll_us", "us", 1e-6),
    "catalog.resolve_builtin": ("catalog.resolve_builtin_us", "us", 1e-6),
    "catalog.load_scheme": ("catalog.load_scheme_us", "us", 1e-6),
    "catalog.make_scheme": ("catalog.make_scheme_us", "us", 1e-6),
    "codec.encode": ("codec.encode_us", "us", 1e-6),
    "codec.decode": ("codec.decode_us", "us", 1e-6),
    "codec.validate": ("codec.validate_us", "us", 1e-6),
    "render.bits": ("render.bits_us", "us", 1e-6),
    "render.json": ("render.json_us", "us", 1e-6),
    "render.ansi": ("render.ansi_us", "us", 1e-6),
    "render.svg": ("render.svg_us", "us", 1e-6),
    "render.parse_bits": ("render.parse_bits_us", "us", 1e-6),
    "schemes.enumerate": ("schemes.enumerate_ms", "ms", 1e-3),
    "schemes.enumerate_cap": ("schemes.enumerate_cap_ms", "ms", 1e-3),
    "schemes.feasible": ("schemes.feasible_us", "us", 1e-6),
    "timesource.now": ("timesource.now_us", "us", 1e-6),
}
LAYERS = ("process", "import", "cli", "catalog", "codec", "render", "schemes", "timesource", "op")
IMPORTTIME = ("site", "lampclock", "lampclock_codec", "lampclock_cli")
# Measured by tick-day: the benchmark's own time inside each timed poll.
HARNESS = ("trace.harness_us_per_poll", "us")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quantile(histogram: Counter, p: float) -> float:
    """The ``p`` quantile of ``{value: count}``, interpolated between order
    statistics as ``statistics.quantiles(method="inclusive")`` does."""
    position = (sum(histogram.values()) - 1) * p
    below = int(position)
    values = sorted(histogram)
    seen = 0
    for i, value in enumerate(values):
        seen += histogram[value]
        if seen > below + 1 or (seen > below and position == below):
            return value
        if seen > below:
            return value + (values[i + 1] - value) * (position - below)
    raise ValueError("empty histogram")


@dataclass(frozen=True)
class _Cell:
    row: int
    lit: tuple[int, int]


def _reference_loop() -> None:
    """Fixed pure-Python work in the style of the library (frozen dataclasses,
    small tuples, dict updates, string building), using none of its code."""
    rows: dict[tuple[int, int], int] = {}
    text = []
    for i in range(CALIBRATION_LOOPS):
        cell = _Cell(i, (i % 5, i % 7))
        rows[cell.lit] = rows.get(cell.lit, 0) + cell.row
        text.append("1" * (i % 5) + "0" * (5 - i % 5))
    "/".join(text)
    sorted(rows.items())


def reference_slowness() -> float:
    """How slow the machine is right now: the best of three timings of the
    reference loop, over its time on the reference machine."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _reference_loop()
        best = min(best, perf_counter() - t0)
    return best / CALIBRATION_REFERENCE_S


class Phase:
    """Every op run in one mode (untraced or traced), pooled.

    Each round's latencies are divided by the machine slowness measured
    around that round, so they read as on the reference machine, and are
    counted in log-spaced buckets 0.1 % wide: fine enough for the
    percentiles, and a histogram that does not grow with the number of ops
    (kept exact, roundtrip's would, and peak memory with it).
    """

    def __init__(self):
        self.rounds = 0
        self.ops = 0
        self.timed = 0.0  # wall seconds inside ops
        self.timed_rescaled = 0.0
        self.log_latency: Counter[int] = Counter()  # rescaled, in buckets
        self.failures: list[str] = []

    def add(self, result, slowness):
        """Pool one round's ``(latencies in seconds, failures)``; the
        latencies may be any iterable, so a round need not keep them all."""
        latencies, failures = result
        histogram = self.log_latency
        ops, timed = 0, 0.0
        for x in latencies:
            ops += 1
            timed += x
            histogram[round(math.log(x / slowness) * BUCKETS_PER_E)] += 1
        self.rounds += 1
        self.ops += ops
        self.timed += timed
        self.timed_rescaled += timed / slowness
        self.failures += failures

    def summary(self):
        """(ops_per_s, p50 s, p90 s), rescaled to the reference machine."""
        p50, p90 = (math.exp(quantile(self.log_latency, p) / BUCKETS_PER_E) for p in (0.5, 0.9))
        return self.ops / self.timed_rescaled, p50, p90


def measure(work, seconds, tracer, boundaries, calibrate):
    """Run rounds until ``seconds`` have passed and MIN_OPS untraced ops are done.

    With a tracer, untraced and traced rounds alternate, so that drift in
    the machine's speed affects both alike; traced rounds stop once the
    span store could not hold another round.
    """
    plain, traced = Phase(), Phase()
    start = perf_counter()
    spans_per_round = 0
    slowness = calibrate()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds * HARD_STOP_FACTOR or (elapsed >= seconds and plain.ops >= MIN_OPS):
            break
        result = work.round(None)
        after = calibrate()
        plain.add(result, (slowness + after) / 2)
        slowness, result = after, None  # no round's data outlives it
        if tracer is not None and len(tracer) + spans_per_round <= tracer.capacity:
            before = len(tracer)
            with tracer.instrument(boundaries):
                result = work.round(tracer)
            after = calibrate()
            traced.add(result, (slowness + after) / 2)
            slowness, result = after, None
            spans_per_round = max(spans_per_round, len(tracer) - before)
    return plain, traced


def end_to_end(plain, setups, spawner):
    """The user-visible metrics, rescaled to the reference machine, and the
    raw wall-clock setup_s and ops_per_s; peak memory is the children's when
    ops are processes."""
    if spawner is not None:
        peak_kb = spawner.maxrss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rate, p50, p90 = plain.summary()
    raw = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "ops_per_s": (plain.ops / plain.timed, "1/s"),
    }
    return raw, {
        "setup_s": (statistics.median(s / k for s, k in setups), "s"),
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer(tracer, setup_spans, plain, traced):
    """Per-layer metrics, each a per-call median or a ratio, so that none
    grows with the number of rounds a run gets through. Spans recorded
    during the traced set-up feed only the per-call timings."""
    durations = tracer.durations()
    measured = tracer.durations(start=setup_spans)
    ops, wall = traced.ops, traced.timed
    metrics = {}
    for span_name, (name, unit, scale) in LAYER_TIMINGS.items():
        values = durations.get(span_name, [])
        in_ops = measured.get(span_name, [])
        metrics[name] = (statistics.median(values) / scale if values else 0.0, unit)
        metrics[name + ".calls_per_op"] = (_ratio(len(in_ops), ops), "1/op")
        metrics[name + ".share"] = (_ratio(sum(in_ops), wall), "ratio")

    polls = len(measured.get("cli.tick_poll", []))
    frames = tracer.children_named("cli.tick_poll", "render.")
    counters = tracer.counters
    renders = sum(len(measured.get(f"render.{fmt}", [])) for fmt in ("bits", "json", "ansi", "svg"))
    enumerations = len(measured.get("schemes.enumerate", [])) + len(measured.get("schemes.enumerate_cap", []))
    metrics["cli.tick_reuse_ratio"] = (1 - frames / polls if polls else 0.0, "ratio")
    metrics["render.bytes_per_call"] = (_ratio(counters["render.bytes_out"], renders), "bytes")
    metrics["schemes.shapes_per_call"] = (
        _ratio(counters["schemes.shapes_returned"], len(measured.get("schemes.enumerate", []))), "count")
    metrics["schemes.useful_ratio"] = (
        _ratio(counters["schemes.filtered_returned"], counters["schemes.filtered_factorizations"]), "ratio")
    metrics["schemes.cap_hit_ratio"] = (_ratio(counters["schemes.cap_hits"], enumerations), "ratio")
    for name, unit in [(f"import.xtime.{module}_ms", "ms") for module in IMPORTTIME] + [HARNESS]:
        values = tracer.samples.get(name, [])
        metrics[name] = (statistics.median(values) if values else 0.0, unit)
    # Raw, like the harness timing: its share of an untraced op's wall time.
    metrics["trace.harness_share"] = (metrics[HARNESS[0]][0] * 1e-6 * _ratio(plain.ops, plain.timed), "ratio")

    self_times = tracer.self_times(start=setup_spans)
    for layer in LAYERS:
        metrics[f"self.{layer}_us_per_op"] = (_ratio(self_times.get(layer, 0.0), ops) * 1e6, "us")
    metrics["trace.spans_per_op"] = (_ratio(len(tracer) - setup_spans, ops), "1/op")
    untraced_rate, traced_rate = plain.summary()[0], traced.summary()[0]
    metrics["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.speed_ratio"] = (traced_rate / untraced_rate, "ratio")
    return metrics


def report(metrics, raw=None):
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        line = f"  {name:<{width}}  {value:>14.6g} {unit}"
        if raw and name in raw and raw[name][0] != value:
            line += f"   (raw wall clock {raw[name][0]:.6g} {unit})"
        print(line)


def set_up(workload, ctx, seed, calibrate):
    """Set the workload up repeatedly; return the last one and every
    (seconds, slowness around it) pair. Each set-up starts from a heap
    without the one before it and without garbage."""
    setups = []
    started = perf_counter()
    slowness = calibrate()
    while len(setups) < SETUP_REPEATS or perf_counter() - started < SETUP_MIN_S:
        work = None
        gc.collect()
        t0 = perf_counter()
        work = workload.setup(ctx, random.Random(seed))
        seconds = perf_counter() - t0
        after = calibrate()
        setups.append((seconds, (slowness + after) / 2))
        slowness = after
    return work, setups


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lampclock" / "__init__.py").is_file():
        print(f"error: no lampclock sources under {ROOT / 'src'}; run from a lampclock checkout",
              file=sys.stderr)
        return 2
    # One core for the benchmark and its children: no op migrates mid-way,
    # and the calibration loop runs where the ops run.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import lampclock
    import tracing
    from spawner import Spawner

    workload = __import__(WORKLOADS[args.workload])
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)

    with contextlib.ExitStack() as stack:
        workdir = Path(stack.enter_context(tempfile.TemporaryDirectory(dir=out_dir)))
        spawner = None
        if args.workload == "cli-cold":  # ops are processes: run them from a small parent
            spawner = stack.enter_context(Spawner(workdir, workload.child_env(ROOT)))
        ctx = SimpleNamespace(root=ROOT, workdir=workdir, lampclock=lampclock, spawner=spawner)
        # A workload module may bring its own measure of machine slowness.
        calibrate = partial(workload.slowness, ctx) if hasattr(workload, "slowness") else reference_slowness
        work, setups = set_up(workload, ctx, args.seed, calibrate)

        tracer = boundaries = None
        setup_spans = 0
        if args.trace:
            tracer = tracing.Tracer(TRACE_CAPACITY)
            boundaries = tracing.layer_boundaries()
            with tracer.instrument(boundaries):
                tracer.new_op()
                workload.setup(ctx, random.Random(args.seed))
            setup_spans = len(tracer)
            tracer.counters.clear()
        plain, traced = measure(work, args.seconds, tracer, boundaries, calibrate)

    raw, e2e = end_to_end(plain, setups, spawner)
    attempted, failures = plain.ops + traced.ops, plain.failures + traced.failures
    # Probes re-run ops in-process; their failures are listed but are not ops.
    failed = len([f for f in failures if not f.startswith(PROBE_FAILURE)])
    print(f"workload {args.workload} seed {args.seed}: {plain.ops} untraced ops in "
          f"{plain.rounds} rounds ({plain.timed:.3f} s timed), "
          f"{len(setups)} set-ups; times rescaled to the reference machine")
    report({**e2e, "failed_frac": (failed / attempted, "ratio")}, raw)
    for failure in failures[:SHOWN_FAILURES]:
        print("  FAILED " + failure)
    if len(failures) > SHOWN_FAILURES:
        print(f"  ... and {len(failures) - SHOWN_FAILURES} more failures")

    metrics = e2e
    if tracer is not None:
        metrics = per_layer(tracer, setup_spans, plain, traced)
        print(f"traced: {traced.ops} ops in {traced.rounds} rounds, "
              f"{len(tracer)} spans")
        report(metrics)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.dump(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
