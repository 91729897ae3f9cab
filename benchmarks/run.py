#!/usr/bin/env python3
"""nilmag benchmark: one workload per call, end-to-end metrics or a traced run.

Run from the repository root:

    python3 benchmarks/run.py --workload type1-dense --seed 1 --seconds 15 --trace 0

With --trace 0 the workload runs untraced and the last line of standard
output is a JSON object with `correct`, `attempted`, `failed` and the
end-to-end metrics.  With --trace 1 the workload runs once untraced and once
with spans and call counters, the per-layer probes run, the spans are
written to .bench_out/, and the metrics are the per-layer ones.  The line
before the result records versions, thread settings and failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("type1-dense", "type1-sweep", "h3-elliptic", "cli-cold")
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description="nilmag benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_rounds(wl, seconds, tracer, records, outputs, host) -> int:
    """Run whole rounds until `seconds` have passed; returns the round count.

    records gets (case, nanoseconds, output key, error) per op; outputs keeps
    one output per distinct key, so repeated identical results are checked
    once and memory does not grow with the run.  host gets a reference
    kernel time after an op, at most once per hostspeed.GAP_S: the process
    kernel's when the ops are fresh interpreters, else the in-process one's.
    """
    import hostspeed

    gauge = hostspeed.sample_process if wl.in_children else hostspeed.sample
    start = last_kernel = time.perf_counter()
    r = 0
    while True:
        for case in wl.rounds[r % len(wl.rounds)]:
            with tracer.op(case.name):
                t0 = time.perf_counter_ns()
                try:
                    out, err = case.run(tracer), None
                except Exception as exc:  # a failing op is recorded, never fatal
                    out, err = None, f"raised {exc!r}"
                elapsed = time.perf_counter_ns() - t0
            key = None
            if err is None:
                key = (id(case), out.digest() if hasattr(out, "digest") else len(records))
                outputs.setdefault(key, (case, out))
            records.append((case, elapsed, key, err))
            if time.perf_counter() - last_kernel >= hostspeed.GAP_S:
                host.append(gauge())
                last_kernel = time.perf_counter()
        r += 1
        if time.perf_counter() - start >= seconds:
            return r


def check_records(records, outputs) -> dict:
    """case name -> failure messages of its failed ops."""
    verdict = {}
    for key, (case, out) in outputs.items():
        try:
            verdict[key] = case.check(out)
        except Exception as exc:
            verdict[key] = [f"check raised {exc!r}"]
    failures = {}
    for case, _elapsed, key, err in records:
        msgs = [err] if err is not None else verdict[key]
        if msgs:
            failures.setdefault(case.name, []).append(msgs)
    return failures


def measure_setup(args, host) -> list:
    """Wall seconds of fresh interpreters that import nilmag and make the inputs.

    host gets one process kernel time after each interpreter.
    """
    import hostspeed

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
        host.append(hostspeed.sample_process())
    return walls


def kind_times(records) -> dict:
    """case name -> median op seconds over the run."""
    by_kind = {}
    for case, elapsed, _key, _err in records:
        by_kind.setdefault(case.name, []).append(elapsed / 1e9)
    return {name: statistics.median(v) for name, v in by_kind.items()}


def end_to_end(records, setup_walls, peak_rss_kb, scale=1.0, setup_scale=1.0) -> dict:
    """Time metrics of one round with every op kind at its median time in the run.

    A round runs each op kind once.  On a shared host other load slows every
    op by up to 1.8x, in phases of seconds to minutes, with the fast state
    the rarer one.  The median of an op kind's repeats reads the usual state
    and moves little when a run catches a fast phase or misses it; the
    fastest repeat depends on whether it caught one, and spread three times
    as much between runs of the long ops.  Throughput is the round's work
    over the sum of the medians, and the percentiles are taken over them,
    one per op of the round.  Op times are multiplied by scale and the
    set-up time by setup_scale, the factors that carry them to the
    reference host speed (hostspeed.py).
    """
    import numpy as np

    times = {name: t * scale for name, t in kind_times(records).items()}
    points = {case.name: case.points for case, *_ in records}
    round_s = sum(times.values())
    ms = np.array(list(times.values())) * 1e3
    return {
        "points_per_s": (sum(points.values()) / round_s, "points/s"),
        "ops_per_s": (len(times) / round_s, "ops/s"),
        "op_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_walls) * setup_scale, "s"),
    }


def traced(wl, args, tmp, records, outputs) -> dict:
    """Untraced then traced halves of the run, the layer probes, and the span dump."""
    import hostspeed
    import layers
    from spans import Tracer, counter_targets

    plain = Tracer(False)
    half = args.seconds / 2.0
    host_plain, host_traced = [], []
    run_rounds(wl, half, plain, records, outputs, host_plain)
    n_plain = len(records)
    tracer = Tracer(True)
    with tracer.counting(counter_targets()):
        run_rounds(wl, half, tracer, records, outputs, host_traced)
    ref = hostspeed.PROCESS_REF_S if wl.in_children else hostspeed.REF_S
    untraced, spanned = (sum(kind_times(part).values()) * hostspeed.scale(host, ref)
                         for part, host in ((records[:n_plain], host_plain), (records[n_plain:], host_traced)))
    metrics = layers.probe(args.seed, tmp)
    metrics["trace.overhead_pct"] = (100.0 * (spanned / untraced - 1.0), "%")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.dump(path)
    self_ms = {k: v / 1e6 for k, v in tracer.self_times_ns().most_common()}
    print(json.dumps({"trace": {"file": os.path.relpath(path, ROOT), "counts": dict(tracer.counts),
                                "self_ms": self_ms}}))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nilmag", "__init__.py")):
        print(f"error: the nilmag sources are missing ({SRC})", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy loads, inherited by every child
    sys.path.insert(0, SRC)
    import workloads  # imports numpy, scipy and nilmag
    from spans import Tracer

    os.makedirs(workloads.SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workloads.SCRATCH)
    try:
        wl = workloads.make(args.workload, args.seed, tmp)
        if args.setup_only:
            return 0
        records, outputs = [], {}
        if args.trace:
            metrics = traced(wl, args, tmp, records, outputs)
        else:
            import hostspeed

            procs, host = [], []
            setup_walls = measure_setup(args, procs)
            rounds = run_rounds(wl, args.seconds, Tracer(False), records, outputs, host)
            if wl.in_children:
                peak = max(out.maxrss_kb for _case, out in outputs.values())
            else:
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            ref = hostspeed.PROCESS_REF_S if wl.in_children else hostspeed.REF_S
            metrics = end_to_end(records, setup_walls, peak, hostspeed.scale(host, ref),
                                 hostspeed.scale(procs, hostspeed.PROCESS_REF_S))
            unscaled = end_to_end(records, setup_walls, peak)
        failures = check_records(records, outputs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    import numpy
    import scipy

    n_failed = sum(len(v) for v in failures.values())
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "ops_per_round": [len(r) for r in wl.rounds], "attempted": len(records),
        "failures": {name: {"count": len(v), "first": v[0]} for name, v in failures.items()},
        "unexpected_failures": sorted(set(failures) - wl.known_faults),
    }
    if not args.trace:
        info["rounds"] = rounds
        info["setup_walls_s"] = setup_walls
        info["op_kernel_ms"] = statistics.median(host) * 1e3  # the process kernel's on cli-cold
        info["setup_kernel_ms"] = statistics.median(procs) * 1e3
        info["unscaled"] = {name: value for name, (value, _unit) in unscaled.items()}
        info["kind_ms_unscaled"] = {name: t * 1e3 for name, t in kind_times(records).items()}
    print(json.dumps({"info": info}))
    result = {
        "correct": not info["unexpected_failures"],
        "attempted": len(records),
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
