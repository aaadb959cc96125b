"""Closed-loop workload process: one client calling ``hhcert.cli.main`` in-process.

Started by run.py in a fresh interpreter with ``src`` on PYTHONPATH and the
BLAS thread counts pinned to 1:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

Each op's stdout and stderr are captured; the next op starts when the
previous one returns.  With ``--trace 0`` whole rotation cycles run until
``--seconds`` have passed and at least MIN_OPS ops were made.  With
``--trace 1`` a fixed number of cycles runs once untraced and once with every
hhcert layer wrapped in spans; both passes must print the same bytes.

Output is JSON lines: one ``{"op": ...}`` line per op with its argv, exit
status, output and latency, written as soon as the op is measured, then one
``{"summary": ...}`` line.  A timed run keeps no op record in memory, so the
process's peak resident memory is the program's, not the stored outputs'.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import workloads
from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_op(main, op: workloads.Op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    exc = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(list(op.argv))
        except SystemExit as stop:
            rc = stop.code
        except Exception as error:  # recorded and checked as the op's outcome
            exc = f"{type(error).__name__}: {error}"
        elapsed = time.perf_counter() - start
    return {"kind": op.kind, "argv": list(op.argv), "expect": op.expect, "rc": rc,
            "exc": exc, "out": out.getvalue(), "err": err.getvalue(), "ms": elapsed * 1e3}


def run_ops(cli, ops, before_op=None) -> tuple[list[dict], float]:
    records = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if before_op is not None:
            before_op(i)
        records.append(run_op(cli.main, op))
    return records, time.perf_counter() - start


def emit(key: str, value) -> None:
    sys.stdout.write(json.dumps({key: value}) + "\n")


def measure(cli, workload: str, seed: int, seconds: float) -> dict:
    n_ops = n_cycles = 0
    emitting = 0.0  # time spent writing records, left out of the wall time
    start = time.perf_counter()
    for cycle in workloads.cycles(workload, seed):
        for op in cycle:
            rec = run_op(cli.main, op)
            mark = time.perf_counter()
            emit("op", rec)
            emitting += time.perf_counter() - mark
        n_ops += len(cycle)
        n_cycles += 1
        if time.perf_counter() - start >= seconds and n_ops >= workloads.MIN_OPS:
            break
    return {"wall_s": time.perf_counter() - start - emitting, "cycles": n_cycles}


def measure_traced(cli, workload: str, seed: int) -> dict:
    gen = workloads.cycles(workload, seed)
    ops = [op for _ in range(workloads.TRACE_CYCLES[workload]) for op in next(gen)]
    plain, plain_wall = run_ops(cli, ops)
    tracer = Tracer()
    tracer.install()

    def before_op(i):
        tracer.op = i

    traced, traced_wall = run_ops(cli, ops, before_op)
    mismatches = sum(
        (p["rc"], p["exc"], p["out"], p["err"]) != (t["rc"], t["exc"], t["out"], t["err"])
        for p, t in zip(plain, traced))
    metrics, by_kind = tracer.metrics(
        sum(len(r["out"].encode()) for r in traced), [op.kind for op in ops])
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    for rec in traced:
        emit("op", rec)
    return {"wall_s": traced_wall, "cycles": workloads.TRACE_CYCLES[workload],
            "trace": {"metrics": metrics, "by_kind": by_kind, "mismatches": mismatches,
                      "spans": len(tracer.span_name)}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import hhcert.cli as cli

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(cli.__file__), src]) != src:
        print(f"hhcert imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    for argv in workloads.WARMUP:
        run_op(cli.main, workloads.Op("warmup", argv, 0))
    if args.trace:
        result = measure_traced(cli, args.workload, args.seed)
    else:
        result = measure(cli, args.workload, args.seed, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit("summary", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
