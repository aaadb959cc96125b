"""Tests of the benchmark itself: seeded inputs, digests, checks and tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import run_op  # noqa: E402

import hhcert  # noqa: E402,F401  (every submodule must be loaded before tracing)
import hhcert.cli as cli  # noqa: E402


def first_cycles(workload, seed, n):
    gen = workloads.cycles(workload, seed)
    return [next(gen) for _ in range(n)]


def run_ops(ops):
    return [run_op(cli.main, op) for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    assert first_cycles(workload, 7, 3) == first_cycles(workload, 7, 3)
    assert first_cycles(workload, 7, 1) != first_cycles(workload, 8, 1)


def test_generated_numbers_parse_as_values():
    parser = cli.build_parser()
    for x in (-5.659241527711245e-05, -2.0, 1e-4, 0.06654893440044951):
        args = parser.parse_args(["identity", "--lemma", "1", "--fn", "exp",
                                  "--interval", workloads._num(x), "1"])
        assert args.interval[0] == x
    for workload in workloads.WORKLOADS:
        for cycle in first_cycles(workload, 1, 3):
            for op in cycle:
                parser.parse_args(list(op.argv))


def test_same_seed_same_digest():
    ops = first_cycles("certify-coarse", 3, 1)[0]
    first, second = run_ops(ops), run_ops(ops)
    assert run.stdout_digest("certify-coarse", first) == \
        run.stdout_digest("certify-coarse", second)
    other = run_ops(first_cycles("certify-coarse", 4, 1)[0])
    assert run.stdout_digest("certify-coarse", first) != \
        run.stdout_digest("certify-coarse", other)


def test_every_output_format_passes_its_check():
    records = run_ops(first_cycles("certify-coarse", 5, 1)[0])
    for rec in records:
        verdict = checks.check(rec)
        if rec["kind"] == "error/overflow":
            assert verdict.status in (checks.OK, checks.DEFECT), verdict.reason
        else:
            assert verdict.status == checks.OK, (rec["argv"], verdict.reason)


def kernel_record(p, tol):
    argv = ("kernel", "--p", p, "--tol", tol, "--format", "json")
    return run_ops([workloads.Op(f"kernel/p{p}", argv, 0)])[0]


def with_output(rec, out, **changes):
    return {**rec, "out": out, **changes}


def doctored_kernel(rec, error, estimate):
    doc = json.loads(rec["out"])
    doc["numeric"] = doc["closed_form"] + error
    doc["discrepancy"] = abs(doc["closed_form"] - doc["numeric"])
    doc["numeric_error_estimate"] = estimate
    return checks.check(with_output(rec, json.dumps(doc)))


@pytest.mark.parametrize("p, tol, error, estimate, status", [
    ("2", "1e-10", 1e-12, 1e-15, checks.FAILED),  # estimate below the actual error
    ("1.5", "1e-10", 1e-9, 1e-8, checks.FAILED),  # beyond tol, though estimated
    ("2", "1e-10", 3e-4, 1.0, checks.FAILED),  # far off the closed form
    ("1", "1e-6", 15e-6, 3e-7, checks.DEFECT),  # the known p = 1 under-report
    ("1", "1e-6", 2 * checks.DEFECT_SLACK * 1e-6, 3e-7, checks.FAILED),
])
def test_doctored_kernel_value(p, tol, error, estimate, status):
    rec = kernel_record(p, tol)
    assert checks.check(rec).status == checks.OK
    verdict = doctored_kernel(rec, error, estimate)
    assert verdict.status == status, verdict.reason
    assert verdict.underreport == pytest.approx(error / estimate, rel=1e-3)


def sweep_record():
    argv = ("sweep", "--fn", "ln", "--cases", "3", "--grid-points", "9", "--seed", "11",
            "--format", "csv")
    return run_ops([workloads.Op("sweep/coarse", argv, 0)])[0]


def test_sweep_row_with_perturbed_gap_fails():
    rec = sweep_record()
    assert checks.check(rec).status == checks.OK
    lines = rec["out"].splitlines(keepends=True)
    fields = lines[3].split(",")  # case_id,a,b,q,theorem,gap,bound,ratio,...
    gap = float(fields[5]) * (1 + 1e-6) + 1e-9
    fields[5], fields[7] = repr(gap), repr(gap / float(fields[6]))
    lines[3] = ",".join(fields)
    verdict = checks.check(with_output(rec, "".join(lines)))
    assert verdict.status == checks.FAILED
    assert "gap" in verdict.reason


def test_gap_off_across_an_unsplit_kink_is_a_defect_only_near_its_allowance():
    argv = ("sweep", "--fn", "abs_pow:2.5", "--interval-range", "-0.5", "0.5", "--cases", "1",
            "--grid-points", "9", "--seed", "3", "--format", "csv")
    rec = run_ops([workloads.Op("sweep/coarse", argv, 0)])[0]
    assert checks.check(rec).status == checks.OK
    lines = rec["out"].splitlines(keepends=True)
    fields = lines[2].split(",")
    a, b = float(fields[1]), float(fields[2])
    assert a < 0 < b
    fn = checks.function("abs_pow:2.5")
    allow = checks.gap_allowance(fn, a, b, 1e-10)
    for shift, status in ((10 * allow, checks.DEFECT),
                          (2 * checks.DEFECT_SLACK * allow, checks.FAILED)):
        gap = float(fields[5]) + shift
        doctored = fields[:5] + [repr(gap), fields[6], repr(gap / float(fields[6]))] + fields[8:]
        verdict = checks.check(with_output(rec, "".join(lines[:2] + [",".join(doctored)]
                                                        + lines[3:])))
        assert verdict.status == status, verdict.reason


@pytest.mark.parametrize("fn, residual, status", [
    ("abs_pow:2.5", 10, checks.DEFECT),
    ("abs_pow:2.5", 2 * checks.DEFECT_SLACK, checks.FAILED),
    ("exp", 10, checks.FAILED),
])
def test_identity_residual_above_tol_is_a_defect_only_near_a_kink(fn, residual, status):
    argv = ("identity", "--lemma", "1", "--fn", fn, "--interval", "-0.5", "0.5",
            "--format", "json")
    rec = run_ops([workloads.Op("identity/L1", argv, 0)])[0]
    assert checks.check(rec).status == checks.OK
    doc = json.loads(rec["out"])
    doc["residual"] = residual * 1e-10
    assert checks.check(with_output(rec, json.dumps(doc))).status == status


def test_worker_streams_every_op_record():
    result = run.run_worker("certify-coarse", 1, 0.0, 0)
    cycle = next(workloads.cycles("certify-coarse", 1))
    assert len(result["ops"]) == result["cycles"] * len(cycle) >= workloads.MIN_OPS
    assert [rec["argv"] for rec in result["ops"][:len(cycle)]] == [list(op.argv) for op in cycle]
    assert result["wall_s"] > 0 and result["peak_rss_mb"] > 0


def test_sweep_interval_not_from_the_seed_fails():
    rec = sweep_record()
    out = rec["out"].replace(rec["out"].splitlines()[2].split(",")[1], "0.5", 1)
    assert checks.check(with_output(rec, out)).status == checks.FAILED


def test_exit_1_where_0_expected_fails():
    rec = sweep_record()
    verdict = checks.check({**rec, "rc": 1})
    assert verdict.status == checks.FAILED
    assert "exit 1" in verdict.reason


def test_exit_contract_ops():
    unknown = workloads.Op("error/unknown-fn", ("sweep", "--fn", "nosuch"), 2)
    assert checks.check(run_ops([unknown])[0]).status == checks.OK
    overflow = {"kind": "error/overflow", "argv": ["kernel", "--p", "1e6"], "expect": 2,
                "rc": None, "exc": "OverflowError: (34, 'Numerical result out of range')",
                "out": "", "err": ""}
    assert checks.check(overflow).status == checks.DEFECT
    assert checks.check({**overflow, "exc": "ZeroDivisionError: x"}).status == checks.FAILED
    assert checks.check({**overflow, "exc": None, "rc": 1}).status == checks.FAILED


def test_means_value_off_fails():
    op = workloads.Op("means", ("means", "--a", "0.5", "--b", "3", "--p", "2",
                                "--format", "csv"), 0)
    rec = run_ops([op])[0]
    assert checks.check(rec).status == checks.OK
    line = rec["out"].splitlines()[2]  # the logarithmic mean L
    value = line.split(",")[1]
    doctored = rec["out"].replace(line, line.replace(value, repr(float(value) * (1 + 1e-10))))
    assert checks.check(with_output(rec, doctored)).status == checks.FAILED


@pytest.fixture
def tracer():
    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name == "hhcert" or name.startswith("hhcert.")}
    tr = Tracer()
    tr.install()
    yield tr
    for name, namespace in saved.items():
        vars(sys.modules[name]).update(namespace)


def test_trace_reads_the_baseline_layer_counts(tracer):
    grid = ("--grid-points", "9")
    ops = [
        workloads.Op("sweep/q2", ("sweep", "--fn", "exp", "--cases", "2", *grid), 0),
        workloads.Op("sweep/q3", ("sweep", "--fn", "exp", "--cases", "2", "--q", "3", *grid), 0),
        workloads.Op("verify", ("verify", "--fn", "exp", "--interval", "0", "1", *grid), 0),
        workloads.Op("kernel", ("kernel", "--p", "2"), 0),
    ]
    for i, op in enumerate(ops):
        tracer.op = i
        assert run_op(cli.main, op)["rc"] == 0
    metrics, by_kind = tracer.metrics(0, [op.kind for op in ops])
    assert by_kind["sweep/q2"]["bounds.integrations_per_case"] == 3
    assert by_kind["verify"]["bounds.integrations_per_case"] == 4
    assert by_kind["sweep/q2"]["catalog.scan_unique_ratio"] == pytest.approx(1 / 3)
    assert by_kind["sweep/q3"]["catalog.scan_unique_ratio"] == pytest.approx(2 / 3)
    assert metrics["catalog.check_convexity.calls"] == 6 + 6 + 4
    assert metrics["catalog.check_hypothesis.calls"] == 6 + 6 + 3
    assert metrics["quadrature.integrate_2d.calls"] == 1
    assert metrics["quadrature.integrate_2d.inner_calls"] > 0
    # Top-level 1D integrations: 3 per sweep case, 4 for verify.
    assert metrics["quadrature.integrate_1d.calls"] == 6 + 6 + 4
    assert metrics["sampling.draw_interval.calls"] == 4
    assert metrics["cli.self_s"] > 0
