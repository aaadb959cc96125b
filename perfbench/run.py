"""hhcert benchmark: seeded closed-loop CLI workloads with reference-checked output.

    python3 perfbench/run.py --workload {sweep-scan,certify-coarse,quad-2d,all} \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in its own fresh process
(perfbench/worker.py) with one client calling ``hhcert.cli.main`` in a closed
loop and OMP/OpenBLAS/MKL pinned to one thread.  Afterwards every op's output
is checked against an independent reference (perfbench/checks.py), outside
the timed region.

``--trace 0`` prints the end-to-end metrics: set-up time of a fresh
interpreter importing the CLI, ops per second, median and 90th-percentile
latency of a ``main`` call, peak resident memory, and the failed and defect
ratios.  ``--trace 1`` runs a fixed op set once plainly and once with spans
around every hhcert layer, and prints the per-layer metrics.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``metrics``.  The sha256 of the concatenated stdout of the leading cycles
every run executes is printed (not gated), so CLI output can be compared
byte for byte between commits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import checks  # noqa: E402  (imports numpy through scipy: threads pinned first)
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 160


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup() -> list[float]:
    """Wall time from a fresh interpreter to an imported CLI with its parser
    built; one untimed run first so every timed one finds compiled bytecode."""
    cmd = [sys.executable, "-c", "import hhcert.cli as c; c.build_parser()"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return times


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    *lines, last = proc.stdout.splitlines()
    return {**json.loads(last)["summary"], "ops": [json.loads(line)["op"] for line in lines]}


def stdout_digest(workload: str, ops: list[dict]) -> tuple[str, int]:
    """sha256 over the stdout of the leading cycles that every run executes."""
    cycle_len = len(next(workloads.cycles(workload, 0)))
    n = min(len(ops), workloads.digest_cycles(workload) * cycle_len)
    h = hashlib.sha256()
    for rec in ops[:n]:
        h.update(rec["out"].encode())
    return h.hexdigest(), n


def spec_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for the ``end_to_end`` or ``per_layer`` list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def beyond(values: list[float], threshold: float) -> int:
    return sum(v > threshold for v in values)


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 setup: list[float] | None) -> dict:
    result = run_worker(workload, seed, seconds, trace)
    ops = result["ops"]
    verdicts = [checks.check(rec) for rec in ops]
    n = len(ops)
    n_failed = sum(v.status == checks.FAILED for v in verdicts)
    n_defects = sum(v.status == checks.DEFECT for v in verdicts)
    digest, digest_ops = stdout_digest(workload, ops)

    print(f"workload={workload} seed={seed} trace={trace} ops={n} "
          f"cycles={result['cycles']} wall_s={result['wall_s']:.3f}")
    # Every failure up to a few, and the first op of each kind with a defect.
    failures = [(rec, v) for rec, v in zip(ops, verdicts) if v.status == checks.FAILED]
    defects: dict[str, tuple] = {}
    for rec, v in zip(ops, verdicts):
        if v.status == checks.DEFECT:
            defects.setdefault(" ".join(rec["argv"]), (rec, v))
    for rec, v in failures[:8] + list(defects.values()):
        print(f"  {v.status}: {' '.join(rec['argv'])}: {v.reason}")
    print(f"  failed_ratio {n_failed / n:.6g} ratio ({n_failed} of {n} ops)")
    print(f"  defect_ratio {n_defects / n:.6g} ratio ({n_defects} of {n} ops hit a known "
          f"ROADMAP defect; not counted as failed)")
    print(f"  stdout_sha256 {digest} (stdout of the first {digest_ops} ops)")

    metrics: dict[str, dict] = {}
    units = spec_units("per_layer" if trace else "end_to_end")

    def put(name, value, note=""):
        unit = units[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name} {value:.6g} {unit}" + (f" ({note})" if note else ""))

    if trace:
        tr = result["trace"]
        layers = dict(tr["metrics"])
        layers["quadrature.integrate_2d.err_underreport_max"] = max(
            (v.underreport for v in verdicts if v.underreport is not None), default=0.0)
        layers["quadrature.kink_underreports"] = sum(
            v.defect == checks.UNDERREPORT_KINK for v in verdicts)
        layers["cli.exit_contract_violations"] = sum(
            rec["expect"] == 2 and v.status != checks.OK for rec, v in zip(ops, verdicts))
        assert layers.keys() == LAYER_NOTES.keys(), layers.keys() ^ LAYER_NOTES.keys()
        print(f"  per-layer metrics over {n} traced ops, {tr['spans']} spans "
              "(-> the end-to-end metric each should move):")
        for name, value in layers.items():
            put(name, value, f"-> {LAYER_NOTES[name]}")
        wall = result["wall_s"]
        print("  share of traced wall time: "
              f"check_convexity self {layers['catalog.check_convexity.self_s'] / wall:.1%}, "
              f"integrate_1d self {layers['quadrature.integrate_1d.self_s'] / wall:.1%}, "
              f"integrate_2d total {layers['quadrature.integrate_2d.total_s'] / wall:.1%}, "
              f"cli self {layers['cli.self_s'] / wall:.1%}")
        for kind, values in tr["by_kind"].items():
            if any(values.values()):
                print(f"  by kind {kind}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in values.items()))
        if tr["mismatches"]:
            n_failed += tr["mismatches"]
            print(f"  traced output differs from untraced output on {tr['mismatches']} ops")
    else:
        lat = [rec["ms"] for rec in ops]
        p50 = statistics.median(lat)
        p90 = statistics.quantiles(lat, n=10)[8]
        put("setup_s", statistics.median(setup), f"median of {len(setup)} fresh interpreters")
        put("ops_per_s", n / result["wall_s"], f"{n} ops in {result['wall_s']:.3f} s")
        put("latency_p50_ms", p50, f"n={n}, {beyond(lat, p50)} beyond")
        put("latency_p90_ms", p90, f"n={n}, {beyond(lat, p90)} beyond")
        put("peak_rss_mb", result["peak_rss_mb"], "worker process")
        by_kind: dict[str, list[float]] = {}
        for rec in ops:
            by_kind.setdefault(rec["kind"], []).append(rec["ms"])
        print("  median ms by kind: " + " ".join(
            f"{kind}={statistics.median(v):.4g}(n={len(v)})" for kind, v in by_kind.items()))
    assert metrics.keys() == units.keys(), metrics.keys() ^ units.keys()
    return {"correct": n_failed == 0, "attempted": n, "failed": n_failed, "metrics": metrics}


_SCAN = "ops_per_s and latency_p50_ms on sweep-scan; flat on quad-2d"
_QUAD_1D = "ops_per_s on certify-coarse"
_QUAD_2D = "latency_p90_ms and ops_per_s on quad-2d"
_CLI = "latency_p50_ms on certify-coarse"
_GUARD = "none: a guard that no workload should move"

# The end-to-end metric and workload each per-layer metric should move; units
# and directions are those of BENCHMARK.json.
LAYER_NOTES = {
    "catalog.check_convexity.self_s": _SCAN,
    "catalog.check_convexity.calls": _SCAN,
    "catalog.check_hypothesis.calls": _SCAN,
    "catalog.scan_samples": _SCAN,
    "catalog.scan_unique_ratio": _SCAN,
    "quadrature.integrate_1d.calls": _QUAD_1D,
    "quadrature.integrate_1d.self_s": _QUAD_1D,
    "quadrature.integrate_1d.subdivisions": _QUAD_1D,
    "quadrature.integrate_1d.nonconverged": _QUAD_1D,
    "quadrature.kink_underreports": "defect_ratio on certify-coarse, quad-2d",
    "bounds.self_s": _QUAD_1D,
    "bounds.midpoint_gap.calls": _QUAD_1D,
    "bounds.hh_sandwich.calls": _QUAD_1D,
    "bounds.integrations_per_case": _QUAD_1D,
    "quadrature.integrate_2d.calls": _QUAD_2D,
    "quadrature.integrate_2d.self_s": _QUAD_2D,
    "quadrature.integrate_2d.total_s": _QUAD_2D,
    "quadrature.integrate_2d.inner_calls": _QUAD_2D,
    "quadrature.integrate_2d.nonconverged": _QUAD_2D,
    "quadrature.integrate_2d.err_underreport_max": "defect_ratio on quad-2d",
    "kernel.kernel_m.calls": "latency_p90_ms on quad-2d",
    "kernel.kernel_m.self_s": "latency_p90_ms on quad-2d",
    "means.check_proposition.calls": _CLI,
    "means.self_s": _CLI,
    "sampling.draw_interval.calls": _GUARD,
    "sampling.draw_interval.self_s": _GUARD,
    "cli.self_s": _CLI,
    "cli.bytes_out": _CLI,
    "cli.exit_contract_violations": "defect_ratio on certify-coarse",
    "trace.overhead_ratio": "none: the cost of tracing itself",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "hhcert", "cli.py")):
        print(f"hhcert sources not found under {SRC}", file=sys.stderr)
        return 2
    setup = None if args.trace else measure_setup()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace, setup)
               for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
