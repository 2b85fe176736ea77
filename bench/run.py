#!/usr/bin/env python3
"""Benchmark of `mg`: one seeded workload per run, outputs checked exactly.

    python3 bench/run.py --workload einv-chords --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
One client runs a closed loop in this single process: whole passes over the
workload's pool of items, as many as fit in `--seconds` (at least one).  Every
output is then checked against an independent reference, outside the timed
region.  Item times are in reference seconds (see clock.py).  The last line of
standard output is one JSON object `{"correct", "attempted", "failed",
"metrics"}`; a summary for people, with raw wall times, goes to standard
error.

`--trace 0` reports the end-to-end metrics.  `--trace 1` instead runs an
untraced half and a traced half and reports the per-layer metrics of
bench/README.md from spans the benchmark keeps itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from clock import REF_KERNEL_S, Clock
from inputs import GENERATORS
from quantiles import hd_quantile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_LAUNCHES = 7
REPLAY_SYSTEMS = 300  # solve_columns calls recorded for the kernel replay


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing `mg.cli`, which
    every `mg` command pays.  One untimed launch first writes the bytecode
    cache, as an installed package would have it.  Not scaled by the
    calibration kernel: process start-up does not follow it (scaling made
    the spread of this figure worse, 12% against 7%)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import mg.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Timings:
    """Every item run of a phase: latencies in wall and reference seconds."""

    def __init__(self):
        self.wall: list[float] = []
        self.ref: list[float] = []
        self.outputs: list[tuple] = []  # (item index, output or exception)
        self.passes = 0

    def items_per_s(self) -> float:
        return len(self.ref) / sum(self.ref)


def run_item(wl, item):
    try:
        return wl.run(item)
    except Exception as exc:  # an unexpected exception is a failed item
        return exc


def run_passes(wl, clock: Clock, budget: float, on_item=None) -> Timings:
    """Whole passes over the pool while the next one is expected to fit in
    `budget` seconds of wall time."""
    t = Timings()
    t0 = perf_counter()
    while True:
        for i, item in enumerate(wl.items):
            out, wall, ref = clock.time(run_item, wl, item)
            t.wall.append(wall)
            t.ref.append(ref)
            t.outputs.append((i, out))
            if on_item:
                on_item(i)
        t.passes += 1
        if (perf_counter() - t0) * (t.passes + 1) / t.passes > budget:
            return t


def count_failures(wl, outputs) -> int:
    failed = 0
    for i, out in outputs:
        if not wl.ok(i, out):
            failed += 1
            print(f"FAILED {wl.name} item {i}: {out!r:.300}", file=sys.stderr)
    return failed


def self_test(wl, outputs) -> bool:
    """Feed the checker one deliberately wrong answer; True iff it is caught."""
    for i, out in outputs:
        if wl.ok(i, out):
            return not wl.ok(i, wl.corrupt(out))
    return True  # nothing passed, so the run already reports failures


def end_to_end(wl, seconds: float) -> tuple[dict, list]:
    setup = setup_seconds()
    with Clock() as clock:
        t = run_passes(wl, clock, seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(t.ref)
    print(f"{wl.name}: {t.passes} passes, {n} items; wall p50 "
          f"{statistics.median(t.wall):.4f} s, {n / sum(t.wall):.4f} items/s; "
          f"{len(clock.samples)} kernel samples, median {statistics.median(clock.samples):.6f} s "
          f"(reference {REF_KERNEL_S} s)", file=sys.stderr)
    metrics = {
        "setup_s": (setup, "s"),
        "items_per_s": (t.items_per_s(), "1/s"),
        "latency_p50_s": (hd_quantile(t.ref, 0.5), "s"),
        "latency_p90_s": (hd_quantile(t.ref, 0.9), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return metrics, t.outputs


def exact_counts_of(wl, item) -> tuple:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        run_item(wl, item)
    finally:
        tracer.uninstall()
    return tracer.exact_counts()


def per_layer(wl, seconds: float) -> tuple[dict, list]:
    import mg.linalg
    from spans import Tracer

    tracer = Tracer(record_systems=REPLAY_SYSTEMS)
    item_counts: dict[int, tuple] = {}
    last = (0, 0, 0)

    def count_item(i):
        nonlocal last
        now = tracer.exact_counts()
        delta = tuple(b - a for a, b in zip(last, now))
        last = now
        if item_counts.setdefault(i, delta) != delta:
            raise SystemExit(f"exact counts of item {i} differ between runs: "
                             f"{item_counts[i]} then {delta}")

    with Clock() as clock:
        untraced = run_passes(wl, clock, seconds / 2)
        k0 = len(clock.samples)
        clock.on_sample = tracer.pause
        tracer.install()
        try:
            traced = run_passes(wl, clock, seconds / 2, count_item)
        finally:
            tracer.uninstall()
            clock.on_sample = None
        speed = REF_KERNEL_S / statistics.median(clock.samples[k0:])
        replay = clock.time(lambda: [mg.linalg.solve_columns(a, b)
                                     for a, b in tracer.systems])[2]
    # one more traced run of item 0, so counts are compared even after one pass
    if exact_counts_of(wl, wl.items[0]) != item_counts[0]:
        raise SystemExit("exact counts of item 0 differ between runs")
    counts = tuple(sum(c[k] for c in item_counts.values()) for k in range(3))
    print(f"{wl.name}: traced {traced.passes} passes; exact counts per pass "
          f"(solve_columns, subdivide_at, classify_node) = {counts}", file=sys.stderr)

    t = tracer
    passes = traced.passes
    item_wall = sum(traced.wall) - t.bookkeeping

    def secs(x: float):
        return x * speed / passes, "s"

    def calls(key: str):
        return t.calls(key) // passes, "count"

    r = "ratio"
    metrics = {
        "linalg.solve_calls": (counts[0], "count"),
        "linalg.solve_s": secs(t.incl("mg.linalg.solve_columns")),
        "linalg.solves_per_item": (counts[0] / len(wl.items), r),
        "linalg.dim_max": (max(t.dims, default=0), "rows"),
        "linalg.dim_mean": (statistics.fmean(t.dims) if t.dims else 0.0, "rows"),
        "linalg.rhs_cols": (t.rhs_cols // passes, "count"),
        "linalg.operand_bits_max": (t.operand_bits_max, "bits"),
        "linalg.flops_computed": (t.flops / passes, "flop"),
        "linalg.replay_s": (replay, "s"),
        "green.constant_c_s": secs(t.incl("mg.green.constant_c")),
        "green.canonical_measure_s": secs(t.incl("mg.green.canonical_measure")),
        "green.green_system_s": secs(t.self_time("mg.green.green_system")),
        "green.constant_c_share": (t.incl("mg.green.constant_c") / item_wall, r),
        "green.eval_s": secs(t.incl("mg.green.GreenSystem.eval")),
        "green.eval_calls": calls("mg.green.GreenSystem.eval"),
        "resistance.effective_s": secs(t.incl("mg.resistance.effective_resistance")),
        "resistance.effective_calls": calls("mg.resistance.effective_resistance"),
        "resistance.deleted_edge_calls": calls("mg.resistance.resistance_in_deleted_edge"),
        "resistance.deleted_edge_s": secs(t.incl("mg.resistance.resistance_in_deleted_edge")),
        "graphs.subdivide_calls": (counts[1], "count"),
        "graphs.subdivide_s": secs(t.incl("mg.graphs.subdivide_at")),
        "graphs.validate_s": secs(t.incl("mg.graphs.MetrizedGraph.validate")),
        "fibers.report_s": secs(t.self_time("mg.fibers.fiber_report")),
        "fibers.classify_calls": (counts[2], "count"),
        "fibers.delta_vector_s": secs(t.incl("mg.fibers.delta_vector")),
        "fileformat.parse_s": secs(t.incl("mg.fileformat.parse_graph_file")
                                   + t.incl("mg.fileformat.parse_fiber_file")),
        "cli.self_s": secs(t.layer_self("cli")),
        "cli.calls": calls("mg.cli.main"),
        "bench.trace_overhead_items_per_s":
            (untraced.items_per_s() - traced.items_per_s(), "1/s"),
    }
    return metrics, untraced.outputs + traced.outputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mg" / "__init__.py").is_file():
        print(f"error: no mg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mg

    if Path(mg.__file__).resolve().parent != SRC / "mg":
        print(f"error: imported mg from {mg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    tag = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir, twin = WORK / tag, WORK / f"{tag}-twin"
    try:
        wl = cls(args.seed, workdir)
        digest = hashlib.sha256(wl.input_bytes()).hexdigest()
        if hashlib.sha256(cls(args.seed, twin).input_bytes()).hexdigest() != digest:
            print("error: the generator is not deterministic", file=sys.stderr)
            return 1
        print(f"{args.workload} seed {args.seed}: {len(wl.items)} items per pass, "
              f"inputs sha256 {digest[:16]}", file=sys.stderr)
        run_item(wl, wl.items[0])  # warm-up: first-call costs users do not pay per item
        if args.trace:
            metrics, outputs = per_layer(wl, args.seconds)
        else:
            metrics, outputs = end_to_end(wl, args.seconds)
        failed = count_failures(wl, outputs)
        if not self_test(wl, outputs):
            print("error: the checker accepted a deliberately wrong answer", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(twin, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted = len(outputs)
    print(f"{args.workload}: {failed} of {attempted} items failed "
          f"(fail_ratio {failed / attempted:.4f})", file=sys.stderr)
    if not args.trace:
        metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
