"""End-to-end CLI behavior: formats, determinism, exit statuses."""

import json
import math
import subprocess
import sys
import tracemalloc

import pytest

from hhcert import bounds, catalog, cli
from hhcert.catalog import MAX_GRID_POINTS

_SCHEMA_KEYS = [
    "case_id", "function", "a", "b", "q", "theorem",
    "gap", "bound", "ratio", "hypothesis_verdict", "holds",
]


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestFormatting:
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
# interval, then the overflow of |f'|^q in its bound), before any output.
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
     "error: (34, 'Numerical result out of range')"),
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


def test_runtime_imports_only_numpy_and_the_standard_library():
    argvs = [
        ["verify", "--fn", "exp", "--interval", "0", "1", "--grid-points", "9"],
        ["sweep", "--fn", "exp", "--cases", "1", "--grid-points", "9"],
        ["identity", "--lemma", "1", "--fn", "exp", "--interval", "0", "1"],
        ["kernel", "--p", "2"],
        ["means", "--a", "1", "--b", "2"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _RUNTIME_PROBE.format(argvs=argvs)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


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
    assert len(scanned) == 1 and scanned[0].__code__ is fd_eval.__code__


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
    # the T rows' gap and the sandwich's mean come from one integral
    integrands = []
    real = bounds.integrate_1d

    def counting(g, *args, **kwargs):
        integrands.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(bounds, "integrate_1d", counting)
    assert cli.main(argv + ["--grid-points", "9"]) == 0
    # f itself: a catalog lambda is rebuilt per parse, so compare its code
    fd_eval = catalog.parse_function_id(argv[2]).eval
    assert len(integrands) == cases
    assert all(getattr(g, "__code__", g) is getattr(fd_eval, "__code__", fd_eval)
               for g in integrands)


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
