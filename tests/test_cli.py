"""End-to-end CLI behavior: formats, determinism, exit statuses."""

import dataclasses
import decimal
import inspect
import json
import math
import pathlib
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from hhcert import bounds, catalog, cli
from hhcert.catalog import MAX_CASES, MAX_GRID_POINTS

_SCHEMA_KEYS = [
    "case_id", "function", "a", "b", "q", "theorem",
    "gap", "bound", "ratio", "hypothesis_verdict", "holds",
]


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _reference_fmt(v) -> str:
    """The branch-per-case text/CSV formatter the one-branch cli._fmt replaced."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.17g}"
    if v is None:
        return ""
    return str(v)


def _reference_json_scalar(v) -> str:
    """The json.dumps-based JSON formatter cli._json_scalar replaced."""
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_reference_json_scalar(x) for x in v) + "]"
    if v is None or isinstance(v, float) and math.isnan(v):
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    return f'"{_reference_fmt(v)}"' if isinstance(v, float) and math.isinf(v) else _reference_fmt(v)


_WRITER_VALUES = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    sys.float_info.max, sys.float_info.min, 1.0 / 3.0, 2.0, 1e22, 1e-7,
    np.float64(math.nan), np.float64(-math.inf), np.float64(-0.0), np.float64(0.1),
    True, False, 0, -7, 2**70, None,
    "", "T2", 'say "hi"', "back\\slash", "tab\tnew\nline\r\x00\x1f\x7f", "π ≈ 3.14", "é𝄞",
]


class TestFormatting:
    @pytest.mark.parametrize("v", _WRITER_VALUES, ids=repr)
    def test_writers_match_their_reference(self, v):
        assert cli._fmt(v) == _reference_fmt(v)
        assert cli._json_scalar(v) == _reference_json_scalar(v)

    def test_json_lists_match_their_reference(self):
        for v in ([], [1.0, math.inf], (math.nan, -0.0), [np.float64(5e-324), "q\"", None, True],
                  [[1, 2.5], []]):
            assert cli._json_scalar(v) == _reference_json_scalar(v)

    def test_float_rendering(self):
        assert cli._fmt(1.0 / 3.0) == "0.33333333333333331"
        assert cli._fmt(2.0) == "2"
        assert cli._fmt(math.nan) == "nan"
        assert cli._fmt(math.inf) == "inf"
        assert cli._fmt(True) == "true"
        assert cli._fmt(False) == "false"
        assert cli._fmt(None) == ""

    def test_json_scalar_rendering(self):
        assert cli._json_scalar(math.nan) == "null"
        assert cli._json_scalar(None) == "null"
        assert cli._json_scalar(0.5) == "0.5"
        assert cli._json_scalar([1.0, 2.0]) == "[1, 2]"


class TestVerify:
    def test_exit_ok_and_json_schema(self, capsys):
        code, out = _run(
            capsys,
            ["verify", "--fn", "pow:2", "--interval", "0", "1", "--q", "3", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "verify"
        assert doc["function"] == "pow:2"
        assert [r["theorem"] for r in doc["records"]] == ["T2", "T3", "KO", "HH"]
        for rec in doc["records"]:
            assert list(rec.keys()) == _SCHEMA_KEYS
            if rec["theorem"] == "HH":
                assert rec["q"] is None
                assert rec["holds"] == (rec["gap"] <= rec["bound"])
            else:
                assert rec["holds"] == (rec["gap"] <= rec["bound"] + 1e-12)

    def test_q2_theorem3_row_matches_theorem2(self, capsys):
        code, out = _run(
            capsys,
            ["verify", "--fn", "exp", "--interval", "0", "1", "--format", "json",
             "--grid-points", "33"],
        )
        assert code == 0
        recs = {r["theorem"]: r for r in json.loads(out)["records"]}
        assert recs["T3"]["gap"] == recs["T2"]["gap"]
        assert recs["T3"]["bound"] == pytest.approx(recs["T2"]["bound"], rel=1e-14)

    def test_degenerate_interval_is_ok(self, capsys):
        code, out = _run(
            capsys,
            ["verify", "--fn", "pow:2", "--interval", "1", "1", "--format", "json"],
        )
        assert code == 0
        recs = json.loads(out)["records"]
        assert all(r["holds"] for r in recs)
        assert recs[0]["ratio"] is None  # 0/0 gap-to-bound ratio is nan -> null

    def test_violated_sandwich_hypothesis_is_flagged_not_failed(self, capsys):
        # ln is concave: ordering flips, but a violated hypothesis never exits 1
        code, out = _run(
            capsys,
            ["verify", "--fn", "ln", "--interval", "1", "3", "--format", "json",
             "--grid-points", "33"],
        )
        assert code == 0
        recs = {r["theorem"]: r for r in json.loads(out)["records"]}
        assert recs["HH"]["hypothesis_verdict"] == "violated"
        assert not recs["HH"]["holds"]
        assert recs["T2"]["hypothesis_verdict"] == "no-violation-found"
        assert recs["T2"]["holds"]

    def test_csv_has_comment_header_and_rows(self, capsys):
        code, out = _run(
            capsys,
            ["verify", "--fn", "exp", "--interval", "0", "1", "--format", "csv",
             "--grid-points", "33"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# command=verify")
        assert lines[1] == ",".join(cli.CSV_COLUMNS)
        assert len(lines) == 2 + 4

    def test_text_headline_reports_sandwich(self, capsys):
        code, out = _run(
            capsys,
            ["verify", "--fn", "exp", "--interval", "0", "1", "--grid-points", "33"],
        )
        assert code == 0
        assert "sandwich" in out.splitlines()[0]
        assert "ordered=true" in out.splitlines()[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--fn", "pow:0", "--interval", "0", "1"],
            ["verify", "--fn", "nosuch", "--interval", "0", "1"],
            ["verify", "--fn", "exp", "--interval", "2", "1"],
            ["verify", "--fn", "exp", "--interval", "0", "1", "--q", "1"],
            ["verify", "--fn", "ln", "--interval", "-1", "1"],
        ],
    )
    def test_config_errors_exit_2(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("fn,shown", [("pow:nan", "nan"), ("pow:inf", "inf"),
                                          ("pow:1e400", "inf")])
    def test_non_finite_pow_exponent_is_a_config_error(self, capsys, fn, shown):
        code = cli.main(["verify", "--fn", fn, "--interval", "0", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", f"error: pow requires an integer exponent, got {shown}\n")

    @pytest.mark.parametrize("a,b", [("-1", "-1"), ("0", "0"), ("0", "1")])
    def test_interval_outside_domain_is_a_domain_error(self, capsys, a, b):
        code = cli.main(["verify", "--fn", "ln", "--interval", a, b])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: [{float(a)}, {float(b)}] is not inside the domain of ln\n"


class TestSweep:
    _ARGS = ["sweep", "--fn", "exp", "--cases", "12", "--seed", "7",
             "--grid-points", "33", "--interval-range", "-2", "2"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_byte_identical_across_runs(self, capsys, fmt):
        code1, out1 = _run(capsys, self._ARGS + ["--format", fmt])
        code2, out2 = _run(capsys, self._ARGS + ["--format", fmt])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_csv_shape(self, capsys):
        code, out = _run(capsys, self._ARGS + ["--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# command=sweep rng=splitmix64 seed=7")
        assert lines[1] == ",".join(cli.CSV_COLUMNS)
        assert len(lines) == 2 + 3 * 12

    def test_json_meta_and_count(self, capsys):
        code, out = _run(capsys, self._ARGS + ["--format", "json"])
        doc = json.loads(out)
        assert doc["rng"] == "splitmix64"
        assert doc["seed"] == 7
        assert len(doc["records"]) == 3 * 12
        assert all(r["holds"] for r in doc["records"])

    def test_seed_changes_output(self, capsys):
        _, out1 = _run(capsys, self._ARGS + ["--format", "csv"])
        args2 = [x if x != "7" else "8" for x in self._ARGS]
        _, out2 = _run(capsys, args2 + ["--format", "csv"])
        assert out1.splitlines()[2:] != out2.splitlines()[2:]

    def test_range_intersected_with_domain(self, capsys):
        code, out = _run(
            capsys,
            ["sweep", "--fn", "pow:-1", "--cases", "6", "--seed", "1",
             "--interval-range", "-5", "5", "--grid-points", "33", "--format", "json"],
        )
        assert code == 0
        for rec in json.loads(out)["records"]:
            assert 0.0 < rec["a"] < rec["b"]

    def test_empty_range_is_config_error(self, capsys):
        code = cli.main(
            ["sweep", "--fn", "ln", "--cases", "2", "--interval-range", "-5", "-1"]
        )
        capsys.readouterr()
        assert code == 2


    def test_negative_cases_is_config_error(self, capsys):
        code = cli.main(["sweep", "--fn", "exp", "--cases", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: cases must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "fn,lo,hi",
        [
            ("exp", "0", "1e-7"),
            ("exp", "0", "inf"),
            ("ln", "-5", "1e-300"),
            ("exp", "0", "1.5e-6"),
            ("exp", "-1" + "0" * 308, "1" + "0" * 308),  # a width that overflows
        ],
    )
    def test_range_too_narrow_or_not_finite_exits_2(self, fn, lo, hi):
        # no 1e-6 interval fits these ranges, so a draw loop would never end
        proc = subprocess.run(
            [sys.executable, "-m", "hhcert", "sweep", "--fn", fn, "--cases", "1",
             "--interval-range", lo, hi],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: sampling range [")
        assert proc.stderr.endswith("must be finite and at least 2e-06 wide\n")

    def test_range_twice_the_minimum_width_is_drawn(self, capsys):
        code, out = _run(capsys, ["sweep", "--fn", "exp", "--cases", "2", "--grid-points", "9",
                                  "--interval-range", "0", "2e-6", "--format", "json"])
        assert code == 0
        for rec in json.loads(out)["records"]:
            assert 0.0 < rec["a"] and rec["b"] - rec["a"] >= 1e-6 and rec["b"] < 2e-6


class TestIdentity:
    def test_csv_residual_small(self, capsys):
        code, out = _run(
            capsys,
            ["identity", "--lemma", "2", "--fn", "exp", "--interval", "-1", "2",
             "--format", "csv"],
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == "lemma,function,a,b,tol,residual"
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["lemma"] == "L2"
        assert float(fields["residual"]) <= 1e-8

    def test_text_output(self, capsys):
        code, out = _run(
            capsys, ["identity", "--lemma", "1", "--fn", "pow:3", "--interval", "0", "2"]
        )
        assert code == 0
        assert out.startswith("identity L1 pow:3")
        assert "residual=" in out


    @pytest.mark.parametrize(
        "lemma,label,a,b",
        [("1", "ln", "0", "1"), ("2", "recip", "-1", "1"), ("1", "ln", "-1", "1")],
    )
    def test_interval_outside_domain_is_a_domain_error(self, capsys, lemma, label, a, b):
        code = cli.main(["identity", "--lemma", lemma, "--fn", label, "--interval", a, b])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: [{float(a)}, {float(b)}] is not inside the domain of {label}\n"
        )


class TestKernel:
    def test_json_p2(self, capsys):
        code, out = _run(capsys, ["kernel", "--p", "2", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["closed_form"] == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert doc["J1"] == pytest.approx(1.0 / 96.0, rel=1e-14)
        assert doc["J2"] == pytest.approx(7.0 / 96.0, rel=1e-14)
        assert doc["discrepancy"] <= 1e-9

    def test_invalid_p_exits_2(self, capsys):
        code = cli.main(["kernel", "--p", "0.5"])
        capsys.readouterr()
        assert code == 2


class TestMeans:
    def test_csv_values(self, capsys):
        code, out = _run(
            capsys, ["means", "--a", "1", "--b", "2", "--p", "2", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "item,value,lhs,rhs,variant,holds"
        table = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert float(table["A"][1]) == 1.5
        assert float(table["L"][1]) == pytest.approx(1.4426950408889634, rel=1e-14)
        assert set(table) == {"A", "L", "I", "L_2", "P1", "P2", "P3", "P4"}
        assert all(table[p][5] == "true" for p in ("P1", "P2", "P3", "P4"))

    def test_printed_p1_failure_exits_1(self, capsys):
        code, out = _run(
            capsys,
            ["means", "--a", "3", "--b", "6", "--n", "-1", "--variant", "as-printed",
             "--format", "csv"],
        )
        assert code == 1
        rows = [ln.split(",") for ln in out.splitlines()[1:]]
        p1 = next(r for r in rows if r[0] == "P1")
        assert p1[5] == "false"

    def test_derived_variant_same_pair_exits_0(self, capsys):
        code, _ = _run(capsys, ["means", "--a", "3", "--b", "6", "--n", "-1"])
        assert code == 0

    def test_pair_one_ulp_apart_exits_0_without_traceback(self):
        a, b = 0.01, 0.010000000000000002
        proc = subprocess.run(
            [sys.executable, "-m", "hhcert", "means", "--a", repr(a), "--b", repr(b),
             "--format", "csv"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        table = {ln.split(",")[0]: ln.split(",") for ln in proc.stdout.splitlines()[1:]}
        for item in ("A", "L", "I"):
            assert a <= float(table[item][1]) <= b

    @pytest.mark.parametrize(
        "argv", [["--a", "1e-60", "--b", "2e-60", "--q", "3"],
                 ["--a", "1e-110", "--b", "2e-110", "--q", "3"]]
    )
    def test_underflowing_rhs_exits_0(self, capsys, argv):
        # P4 printed rhs=0 holds=false (exit 1), and at 1e-110 divided by zero (exit 2)
        code, out = _run(capsys, ["means", *argv, "--format", "csv"])
        assert code == 0
        rows = {ln.split(",")[0]: ln.split(",") for ln in out.splitlines()[1:]}
        assert all(float(rows[p][3]) > 0.0 and rows[p][5] == "true"
                   for p in ("P1", "P2", "P3", "P4"))

    def test_tol_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["means", "--a", "1", "--b", "2", "--tol", "-5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_nonpositive_pair_is_config_error(self, capsys):
        code = cli.main(["means", "--a", "-1", "--b", "2"])
        capsys.readouterr()
        assert code == 2


# Options that no evaluation read (a degenerate interval, no sweep cases) and
# that exited 0; the unknown function, a malformed interval and the domain
# are still reported first.
_UNREAD_OPTIONS = [
    (["verify", "--fn", "exp", "--interval", "1", "1", "--tol", "0", "--grid-points", "5000"],
     "tol must be positive and finite, got 0.0"),
    (["verify", "--fn", "exp", "--interval", "1", "1", "--tol", "nan"],
     "tol must be positive and finite, got nan"),
    (["verify", "--fn", "exp", "--interval", "1", "1", "--grid-points", "5000"],
     "grid_points must be <= 2049, got 5000"),
    (["verify", "--fn", "exp", "--interval", "2", "2", "--grid-points", "2"],
     "grid_points must be >= 3, got 2"),
    (["sweep", "--fn", "exp", "--cases", "0", "--tol", "-1", "--interval-range", "5", "1"],
     "empty sampling range [5.0, 1.0]"),
    (["sweep", "--fn", "exp", "--cases", "0", "--tol", "-1"],
     "tol must be positive and finite, got -1.0"),
    (["sweep", "--fn", "exp", "--cases", "0", "--grid-points", "2050"],
     "grid_points must be <= 2049, got 2050"),
    (["sweep", "--fn", "exp", "--cases", "0", "--interval-range", "0", "0.0000001"],
     "sampling range [0.0, 1e-07] must be finite and at least 2e-06 wide"),
    (["sweep", "--fn", "ln", "--cases", "0", "--interval-range", "-5", "-1"],
     "empty sampling range [0.0, -1.0]"),
    (["sweep", "--fn", "nosuch", "--cases", "-1", "--tol", "-1"],
     "unknown function 'nosuch'; available: abs_pow, exp, ln, neg_ln, pow, recip"),
    (["sweep", "--fn", "exp", "--cases", "-1", "--tol", "-1"], "cases must be >= 0, got -1"),
    (["sweep", "--fn", "exp", "--cases", str(MAX_CASES + 1), "--tol", "-1"],
     f"cases must be <= {MAX_CASES}, got {MAX_CASES + 1}"),
    (["verify", "--fn", "nosuch", "--interval", "1", "1", "--tol", "0"],
     "unknown function 'nosuch'; available: abs_pow, exp, ln, neg_ln, pow, recip"),
    (["verify", "--fn", "exp", "--interval", "2", "1", "--tol", "0"],
     "interval endpoints out of order: [2.0, 1.0]"),
    (["verify", "--fn", "ln", "--interval", "-1", "-1", "--tol", "0"],
     "[-1.0, -1.0] is not inside the domain of ln"),
]


@pytest.mark.parametrize("argv,err", _UNREAD_OPTIONS, ids=[" ".join(a) for a, _ in _UNREAD_OPTIONS])
def test_every_option_is_checked_before_any_work(capsys, argv, err):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--fn", "exp", "--interval", "0", "1"],
        ["sweep", "--fn", "exp", "--cases", "2"],
    ],
)
def test_grid_above_cap_exits_2_before_allocating(capsys, argv):
    # one slice at the rejected size would take 2050**2 * 8 bytes = 34 MB
    tracemalloc.start()
    try:
        code = cli.main(argv + ["--grid-points", str(MAX_GRID_POINTS + 1)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: grid_points must be <= {MAX_GRID_POINTS}, got {MAX_GRID_POINTS + 1}\n"
    assert peak < 4_000_000


def test_cases_above_cap_exit_2_before_any_case(capsys):
    # a sweep holds every record until output, about 5 KB a case
    tracemalloc.start()
    try:
        code = cli.main(["sweep", "--fn", "exp", "--cases", str(MAX_CASES + 1)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: cases must be <= {MAX_CASES}, got {MAX_CASES + 1}\n"
    assert peak < 4_000_000


def test_cases_cap_admits_its_own_value(capsys, monkeypatch):
    # the cap at a size that is cheap to run
    monkeypatch.setattr(cli, "MAX_CASES", 2)
    argv = ["sweep", "--fn", "exp", "--grid-points", "9", "--format", "json", "--cases"]
    code, out = _run(capsys, argv + ["2"])
    assert code == 0 and {rec["case_id"] for rec in json.loads(out)["records"]} == {0, 1}
    assert _run(capsys, argv + ["3"]) == (2, "")
    assert capsys.readouterr().err == ""


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_exit_logic_ignores_violated_hypothesis_rows():
    rows = [
        {"hypothesis_verdict": "violated", "holds": False},
        {"hypothesis_verdict": "no-violation-found", "holds": True},
    ]
    assert cli._exit_from_records(rows) == 0
    rows.append({"hypothesis_verdict": "no-violation-found", "holds": False})
    assert cli._exit_from_records(rows) == 1


def test_a_q_whose_conjugate_rounds_to_1_keeps_every_row(capsys):
    # from q of about 1e16 on, q/(q-1) rounds to p = 1.0, and T3's constant
    # is kernel_p_norm(1) = 1/3: T3's bound is (b - a)/2 times it
    code, out = _run(capsys, ["verify", "--fn", "ln", "--interval", "2", "3", "--q", "1e16",
                              "--format", "json"])
    assert code == 0
    records = json.loads(out)["records"]
    assert [rec["theorem"] for rec in records] == ["T2", "T3", "KO", "HH"]
    assert records[1]["bound"] == pytest.approx(1.0 / 6.0, rel=4 * 2.0**-52)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hhcert", "kernel", "--p", "3", "--format", "csv"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.endswith("\n")
    assert "closed_form" in proc.stdout


# inputs whose arithmetic leaves the float range (a division by zero at a
# domain edge, or an overflow) or that lie outside the function's domain
_ARITHMETIC_ERROR_ARGV = [
    ["verify", "--fn", "ln", "--interval", "0", "1"],
    ["verify", "--fn", "ln", "--interval", "-1", "-1"],
    ["verify", "--fn", "ln", "--interval", "0", "0"],
    ["verify", "--fn", "recip", "--interval", "0", "1"],
    ["verify", "--fn", "pow:-1", "--interval", "0", "1"],
    ["identity", "--lemma", "1", "--fn", "recip", "--interval", "-1", "1"],
    ["identity", "--lemma", "2", "--fn", "recip", "--interval", "-1", "1"],
    ["means", "--a", "1", "--b", "1e10", "--p", "400"],
    ["means", "--a", "1", "--b", "1e200", "--n", "5"],
    ["verify", "--fn", "pow:-1", "--interval", "1e-300", "1"],
    ["kernel", "--p", "1e6"],
]


@pytest.mark.parametrize("argv", _ARITHMETIC_ERROR_ARGV, ids=" ".join)
def test_arithmetic_error_exits_2_without_traceback(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hhcert", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# The first error in evaluation order wins: the domain, then T2 (its scan's
# grid check), then T3 (its conjugate exponent, also on a degenerate
# interval, then its declared hypothesis, a |f'|^q past the float range),
# before any output.
_ERROR_ORDER = [
    (["verify", "--fn", "ln", "--interval", "-1", "1", "--q", "0.5"],
     "error: [-1.0, 1.0] is not inside the domain of ln"),
    (["verify", "--fn", "exp", "--interval", "0", "1", "--grid-points", "2", "--q", "0.5"],
     "error: grid_points must be >= 3, got 2"),
    (["verify", "--fn", "exp", "--interval", "0", "1", "--q", "1"],
     "error: conjugate_of requires q > 1, got q=1.0"),
    (["verify", "--fn", "exp", "--interval", "1", "1", "--q", "1"],
     "error: conjugate_of requires q > 1, got q=1.0"),
    (["verify", "--fn", "exp", "--interval", "230", "240", "--q", "3"],
     "error: function not finite everywhere on [230.0, 240.0]"),
    (["verify", "--fn", "exp", "--interval", "0", "1", "--grid-points", "2050"],
     "error: grid_points must be <= 2049, got 2050"),
    (["sweep", "--fn", "exp", "--cases", "1", "--q", "0.5"],
     "error: conjugate_of requires q > 1, got q=0.5"),
]


@pytest.mark.parametrize("argv,err", _ERROR_ORDER, ids=[" ".join(a) for a, _ in _ERROR_ORDER])
def test_error_order(capsys, argv, err):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err + "\n")


_NEG_1E308, _NEG_17E308 = f"{-1e308:.1f}", f"{-1.7e308:.1f}"  # argparse takes -1e308 for an option

# Inputs past the float range keep the error the integral of f reports: the
# gaps of abs_pow:2.5 near the float maximum, where a + b overflows but the
# midpoint is halved first, and exp past x = 709.78 are not finite at a node.
# The declared gaps never hang.
_RANGE_ERRORS = [
    (["verify", "--fn", "abs_pow:2.5", "--interval", "1e308", "1.7e308"],
     "error: integrand not finite at x=1.0014953100538579e+308"),
    (["verify", "--fn", "abs_pow:2.5", "--interval", _NEG_17E308, _NEG_1E308],
     "error: integrand not finite at x=-1.698504689946142e+308"),
    (["sweep", "--fn", "abs_pow:2.5", "--cases", "2", "--interval-range", "1e308", "1.7e308"],
     "error: integrand not finite at x=1.3027451533136525e+308"),
    (["sweep", "--fn", "abs_pow:2.5", "--cases", "2", "--interval-range", _NEG_17E308, _NEG_1E308],
     "error: integrand not finite at x=-1.3972548466863474e+308"),
    (["verify", "--fn", "exp", "--interval", "710", "711"],
     "error: integrand not finite at x=710.0021361572198"),
    (["verify", "--fn", "exp", "--interval", "-800", "800"],
     "error: integrand not finite at x=745.9457693439076"),
    (["sweep", "--fn", "exp", "--cases", "1", "--interval-range", "710", "720"],
     "error: integrand not finite at x=714.3249307616236"),
]


@pytest.mark.parametrize("argv,err", _RANGE_ERRORS, ids=[" ".join(a)[:60] for a, _ in _RANGE_ERRORS])
def test_range_errors_keep_the_integral_message(capsys, argv, err):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err + "\n")


@pytest.mark.parametrize("lo,hi", [("1e308", "1.7e308"), (_NEG_17E308, _NEG_1E308)],
                         ids=["positive", "negative"])
def test_an_overflowing_a_plus_b_is_no_error(capsys, lo, hi):
    # a + b overflows, but the midpoint (a+b)/2 and the sandwich's
    # (f(a)+f(b))/2 are halved first: pow:1's gaps are 0 and its bounds finite
    assert cli.main(["verify", "--fn", "pow:1", "--interval", lo, hi, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    records = json.loads(captured.out)["records"]
    assert [r["theorem"] for r in records] == ["T2", "T3", "KO", "HH"]
    assert all(r["holds"] and r["gap"] == 0 for r in records)
    assert records[0]["bound"] == 2.8577380332470413e+307
    assert cli.main(["verify", "--fn", "pow:1", "--interval", lo, hi]) == 0
    m = "-1.35e+308" if lo.startswith("-") else "1.35e+308"
    assert f"lower={m} middle={m} upper={m} ordered=true" in capsys.readouterr().out
    assert cli.main(["sweep", "--fn", "pow:1", "--cases", "3", "--interval-range", lo, hi,
                     "--format", "json"]) == 0
    captured = capsys.readouterr()
    records = json.loads(captured.out)["records"]
    assert captured.err == "" and len(records) == 9
    assert all(r["holds"] and r["gap"] == 0 and 0.0 < r["bound"] < math.inf for r in records)


def test_an_underflowing_power_near_the_float_maximum_is_no_error(capsys):
    # x^-2 over [1e308, 1.7e308] underflows to 0 at every point, gaps included
    assert cli.main(["verify", "--fn", "pow:-2", "--interval", "1e308", "1.7e308",
                     "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [(r["gap"], r["bound"], r["holds"]) for r in json.loads(captured.out)["records"]] == [
        (0, 0, True), (0, 0, True), (0, 0, True), (0, 1e-10, True)]


def test_verify_over_an_interval_wider_than_the_float_maximum(capsys):
    # b - a overflows in the HH scan's grid too: no warning, no false domain
    # error; the bounds, linear in b - a, are finite
    argv = ["verify", "--fn", "pow:1", "--interval", _NEG_1E308, "1.7e308", "--format", "json"]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    printed = {r["theorem"]: r["bound"] for r in json.loads(captured.out)["records"]}
    with decimal.localcontext(decimal.Context(prec=40)):
        width = decimal.Decimal(1.7e308) - decimal.Decimal(float(_NEG_1E308))
        # |f'| = 1 at both ends; T3's constant at q = 2 is (2/12)^(1/2)
        expected = {"T2": width / decimal.Decimal(6).sqrt(),
                    "T3": width / decimal.Decimal(6).sqrt(),
                    "KO": width * decimal.Decimal(3).sqrt() / 4}
        for theorem, reference in expected.items():
            assert abs(decimal.Decimal(printed[theorem]) - reference) <= 4 * decimal.Decimal(sys.float_info.epsilon) * reference


@pytest.mark.parametrize("fmt,hh_row", [
    ("text", "  HH  case_id=0  gap=0  bound=1e-10  ratio=0  holds=true"),
    ("json", '"theorem": "HH", "gap": 0, "bound": 1e-10, "ratio": 0,'),
    ("csv", "0,0,1,,HH,0,1e-10,0,"),
], ids=["text", "json", "csv"])
def test_hh_gap_of_an_affine_function_is_zero_not_minus_zero(capsys, fmt, hh_row):
    # both signed gaps of an affine f are +0.0; the worst violation is 0, not -0
    assert cli.main(["verify", "--fn", "pow:1", "--interval", "0", "1", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hh_row in out
    assert "-0" not in out


# x^n's exact gaps would need integers of about |n| x 53 bits here (minutes and
# hundreds of MB at n = 10^7); past a fixed size they are summed in floats.
# recip's f' = -1/x^2 at x past 1.34e154 underflows to -0.0 (a float x**2
# raised OverflowError there), as pow:-1's does.
@pytest.mark.parametrize("argv,code", [
    (["verify", "--fn", "pow:1000000", "--interval", "0.5", "0.9"], 0),
    (["verify", "--fn", "pow:-1000000", "--interval", "1.0", "1.0001"], 0),
    (["verify", "--fn", "pow:1000000", "--interval", "1.1", "1.3"], 2),
    (["means", "--a", "1.0", "--b", "1.0001", "--n", "1000000"], 0),
    (["means", "--a", "1.1", "--b", "1.3", "--n", "10000000"], 2),
    (["means", "--a", "1.1", "--b", "1.3", "--n", "-10000000"], 2),
    (["verify", "--fn", "recip", "--interval", "1e200", "1e201"], 0),
    (["sweep", "--fn", "recip", "--interval-range", "1e150", "1e160"], 0),
])
def test_large_exponents_take_no_time(capsys, argv, code):
    start = time.perf_counter()
    assert cli.main(argv) == code
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert captured.err in ("", "error: (34, 'Numerical result out of range')\n")


_RUNTIME_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
import hhcert.cli as cli
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
added = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(" ".join(sorted(added - {{"hhcert", "numpy"}} - set(sys.stdlib_module_names))))
"""


# numpy is imported where an array is built, and nowhere else.  In a fresh
# interpreter, import hhcert loads every layer the benchmark tracer wraps but
# cli, which the tracer's process imports itself, and no numpy; neither do
# the CLI and its parser, nor then each (argv, exit code) of runs, where
# numpy_loaded says whether numpy is loaded after each run.
_NUMPY_PROBE = """
import contextlib, importlib.util, io, sys
spec = importlib.util.spec_from_file_location("spans", {spans!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
def missing():
    return [layer for layer in spans.LAYERS if "hhcert." + layer not in sys.modules]
import hhcert
assert "numpy" not in sys.modules, "import hhcert"
assert missing() == ["cli"], missing()
import hhcert.cli as cli
cli.build_parser()
assert "numpy" not in sys.modules, "build_parser"
assert missing() == [], missing()
for argv, code in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == code, argv
    assert ("numpy" in sys.modules) == {numpy_loaded!r}, argv
"""
_SPANS = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")


def _probe(source: str) -> str:
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_runtime_imports_only_numpy_and_the_standard_library():
    argvs = [
        ["verify", "--fn", "exp", "--interval", "0", "1", "--grid-points", "9"],
        ["sweep", "--fn", "exp", "--cases", "1", "--grid-points", "9"],
        ["identity", "--lemma", "1", "--fn", "exp", "--interval", "0", "1"],
        ["identity", "--lemma", "2", "--fn", "exp", "--interval", "0", "1"],
        ["kernel", "--p", "2"],
        ["means", "--a", "1", "--b", "2"],
    ]
    assert _probe(_RUNTIME_PROBE.format(argvs=argvs)) == "\n"

    # the converse: sweep, means and an exit 2 evaluate floats only, and load no numpy
    functions = ["exp", "ln", "neg_ln", "recip", "pow:3", "pow:-2", "abs_pow:2.5"]
    assert {fn.partition(":")[0] for fn in functions} == set(catalog._CATALOG)
    runs = [(["sweep", "--fn", fn, "--cases", "3", "--format", fmt], 0)
            for fn in functions for fmt in ("text", "json", "csv")]
    runs += [(["means", "--a", "1", "--b", "2"], 0),
             (["means", "--a", "0.5", "--b", "4", "--p", "1.5"], 0),
             (["sweep", "--fn", "nosuch"], 2)]
    _probe(_NUMPY_PROBE.format(spans=_SPANS, runs=runs, numpy_loaded=False))
    # verify's scan of f, identity's integrals and kernel's cubature build arrays
    for argv in argvs[0], argvs[3], argvs[4]:
        _probe(_NUMPY_PROBE.format(spans=_SPANS, runs=[(argv, 0)], numpy_loaded=True))


def _formula(g):
    """The code of the formula of a catalog f or f' (a _ufunc.pointwise
    function, rebuilt per parse); any other g itself."""
    if getattr(g, "float_path", False):
        return inspect.getclosurevars(g).nonlocals["formula"].__code__
    return g


def test_sweep_scans_nothing_and_verify_scans_only_f(monkeypatch, capsys):
    scanned = []
    real = catalog.check_convexity

    def counting(g, iv, *args, **kwargs):
        scanned.append(g)
        return real(g, iv, *args, **kwargs)

    monkeypatch.setattr(catalog, "check_convexity", counting)
    monkeypatch.setattr(bounds, "check_convexity", counting)
    fd_eval = catalog.parse_function_id("pow:3").eval
    assert cli.main(["sweep", "--fn", "pow:3", "--cases", "5", "--q", "3"]) == 0
    assert scanned == []
    assert cli.main(["verify", "--fn", "pow:3", "--interval", "0", "2", "--q", "3"]) == 0
    assert len(scanned) == 1 and _formula(scanned[0]) is _formula(fd_eval)


@pytest.mark.parametrize(
    "argv,cases",
    [
        (["verify", "--fn", "exp", "--interval", "0", "1"], 1),
        (["verify", "--fn", "abs_pow:2.5", "--interval", "-1", "2", "--q", "3"], 1),
        (["verify", "--fn", "exp", "--interval", "1", "1"], 0),
        (["sweep", "--fn", "ln", "--cases", "5", "--q", "3"], 5),
        (["sweep", "--fn", "abs_pow:2.5", "--cases", "4", "--interval-range", "-2", "2"], 4),
    ],
)
def test_one_integral_of_f_per_case(monkeypatch, capsys, argv, cases):
    # catalog functions declare their gaps and integrate nothing; without the
    # declaration the T rows' gap and the sandwich's mean come from one integral
    integrands = []
    real = bounds.integrate_1d

    def counting(g, *args, **kwargs):
        integrands.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(bounds, "integrate_1d", counting)
    assert cli.main(argv + ["--grid-points", "9"]) == 0
    assert integrands == []

    def hand_built(text):
        return dataclasses.replace(catalog.parse_function_id(text), gaps=None)

    monkeypatch.setattr(cli, "parse_function_id", hand_built)
    assert cli.main(argv + ["--grid-points", "9"]) == 0
    # f itself: a catalog formula is rebuilt per parse, so compare its code;
    # over panels graded toward a kink, f through the graded map
    fd_eval = catalog.parse_function_id(argv[2]).eval
    assert len(integrands) == cases
    integrands = [inspect.getclosurevars(g).nonlocals["g"]
                  if getattr(g, "__qualname__", "") == "_graded.<locals>.mapped" else g
                  for g in integrands]
    assert all(_formula(g) is _formula(fd_eval) for g in integrands)


# T2/T3/KO hypotheses that the sampled scan flagged as violated on rounding
# noise alone (|g| times eps above its absolute 1e-12); the HH row's own
# scan of f is unchanged.
@pytest.mark.parametrize(
    "argv,hh",
    [
        (["verify", "--fn", "exp", "--interval", "5", "5.000001", "--q", "3"],
         "no-violation-found"),
        (["verify", "--fn", "exp", "--interval", "8", "8.0000001", "--q", "3"], "violated"),
        (["verify", "--fn", "pow:4", "--interval", "1000", "1000.0001"], "violated"),
    ],
)
def test_bound_hypotheses_are_decided_in_closed_form(capsys, argv, hh):
    code, out = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    verdicts = [rec["hypothesis_verdict"] for rec in json.loads(out)["records"]]
    assert verdicts == ["no-violation-found"] * 3 + [hh]


@pytest.mark.parametrize("a", ["118.29711881556399", "236.35764339349686"])
def test_no_domain_error_from_a_secant_point_past_b(capsys, a):
    # the scan's t = 3/8 secant point of (b, b) rounded one ulp above b,
    # where e^(3x) overflows
    code, out = _run(capsys, ["verify", "--fn", "exp", "--interval", a, "236.59423763112798",
                              "--q", "3", "--format", "json"])
    assert code == 0
    for rec in json.loads(out)["records"]:
        assert rec["hypothesis_verdict"] == "no-violation-found" and rec["holds"]
        assert math.isfinite(rec["bound"])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--fn", "exp", "--interval", "236.4", "236.5", "--q", "3"],
        ["verify", "--fn", "exp", "--interval", "354.7", "354.8"],
    ],
)
def test_power_mean_overflow_prints_a_finite_bound(capsys, argv):
    code, out = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    for rec in json.loads(out)["records"][:3]:
        assert math.isfinite(rec["bound"]) and rec["ratio"] > 0.0


# |f'|^2 underflows to 0 at both endpoints, and T2 and T3 read a zero bound
# (ln on [1e300, 1e308] then refuted T2 with exit 1)
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--fn", "exp", "--interval", "-700", "-699.9"],
        ["verify", "--fn", "ln", "--interval", "1e300", "1e308"],
        ["verify", "--fn", "ln", "--interval", "1e307", "1.0000000000000002e307", "--q", "3"],
    ],
)
def test_power_mean_underflow_prints_a_positive_bound(capsys, argv):
    code, out = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    t2, t3, ko = json.loads(out)["records"][:3]
    for rec in (t2, t3):
        assert rec["holds"] and rec["bound"] > 0.0 and math.isfinite(rec["ratio"])
        assert rec["bound"] == pytest.approx(ko["bound"], rel=0.5)


def test_kinked_sweep_gap_is_converged_to_its_reference(capsys):
    # case 3 is [-1.3788564729135357, 1.1738956418783024]; its reference gap
    # is 0.5373455266843635, which the unsplit integral missed by 2.5e-7
    code, out = _run(capsys, ["sweep", "--fn", "abs_pow:2.5", "--cases", "4", "--format", "csv",
                              "--seed", "1091258408269961877", "--interval-range", "-2", "2"])
    assert code == 0
    gap = float(out.splitlines()[11].split(",")[5])
    assert gap == pytest.approx(0.5373455266843635, abs=1e-14)


class TestParser:
    _ARGVS = [
        ["verify", "--fn", "exp", "--interval", "0", "1"],
        ["sweep", "--fn", "ln", "--cases", "3", "--q", "3", "--interval-range", "1", "2"],
        ["sweep", "--fn", "ln"],
        ["identity", "--lemma", "2", "--fn", "pow:3", "--interval", "-1", "2", "--format", "csv"],
        ["kernel", "--p", "2", "--tol", "1e-12"],
        ["means", "--a", "1", "--b", "2", "--p", "3", "--variant", "as-printed"],
        ["means", "--a", "1", "--b", "2"],
        ["verify", "--fn", "exp", "--interval", "0", "1", "--q", "3", "--grid-points", "9"],
    ]

    def test_repeated_and_interleaved_calls_parse_as_a_fresh_parser(self):
        for argv in self._ARGVS + self._ARGVS[::-1] + self._ARGVS:
            got = cli._parser().parse_args(argv)
            assert vars(got) == vars(cli.build_parser().parse_args(argv))

    def test_main_builds_the_parser_once(self, monkeypatch, capsys):
        builds = []
        real = cli.build_parser

        def counting():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert cli.main(["means", "--a", "1", "--b", "2"]) == 0
        finally:
            cli._parser.cache_clear()
        assert builds == [1]

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["verify", "--help"], ["sweep", "-h"], [], ["verify"], ["bogus"],
         ["sweep", "--fn", "exp", "--cases", "x"], ["means", "--a", "1", "--b", "2",
                                                   "--variant", "bad"],
         ["identity", "--lemma", "3", "--fn", "exp", "--interval", "0", "1"]],
        ids=lambda argv: " ".join(argv) or "no-args",
    )
    def test_help_and_usage_errors_match_a_fresh_parser(self, capsys, argv):
        def outcome(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        cli.main(["means", "--a", "1", "--b", "2"])  # the cached parser has parsed before
        capsys.readouterr()
        assert outcome(cli.main) == outcome(cli.build_parser().parse_args)
