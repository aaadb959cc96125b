"""The CLI's exit contract, as a property over all five subcommands.

Every argv drawn here is well formed for argparse, so ``main`` runs the
handler: it must return 0, 1 or 2 without raising (an escaping exception is
a traceback on the command line), and on 2 print nothing on stdout and one
``error:`` line on stderr.  Numbers are written in positional notation, since
argparse takes a token such as ``-5e-05`` for an option flag.

The draws are bounded so that one example takes well under a second:

* ``identity --lemma 2`` integrates f' over the unit square, and its cost
  grows with the range of f' over the interval: ``--fn exp --interval -400
  400`` takes 12.7 s, ``-700 700`` more than 90 s, and ``--fn pow:-3
  --interval 0.01 20`` about 200 s.  Identity endpoints therefore stay in
  [-16, 16], or [0.1, 10] on the positive half-line, where the worst case
  measured takes about 0.1 s.
* Tolerances below 1e-10 make ``kernel --p 1`` take seconds (1.8 s at
  1e-12), so valid tolerances are drawn from 1e-6, 1e-8 and 1e-10.
* Scan grids are drawn from a few sizes up to 33, plus the rejected 2 and
  2050; the default 257 costs time without reaching another code path.

Three more properties run verify, sweep and means across the whole float
range, and with exponents up to 10^7, where nothing else draws.

The verdict oracle adds one claim for catalog functions under valid options:
``verify`` and ``sweep`` never exit 1.  Every catalog function declares its
T2/T3/KO hypotheses true, the theorems hold under them, and their gaps are
closed-form, so an exit 1 would be a false refutation; the HH row counts only
where its sampled scan finds f convex.  Its intervals are short, where a gap
taken from quadrature was rounding noise: b is a plus 1-64 ulps, or a plus
10^U(-12, 1).  A counterexample found here is a finding to investigate, not
an input to filter out.
"""

import contextlib
import io
import math
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hhcert import cli

_SETTINGS = settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FUNCTIONS = ("exp", "ln", "neg_ln", "recip", "pow:1", "pow:2", "pow:3", "pow:-1", "pow:-3",
              "abs_pow:2", "abs_pow:2.5", "abs_pow:7")
_BAD_FUNCTIONS = ("nosuch", "pow:0", "pow:1.5", "abs_pow:1", "exp:2", "pow:")


def _num(x: float) -> str:
    return format(Decimal(repr(float(x))), "f")


def _numbers(lo: float, hi: float):
    """Positional-notation numbers in [lo, hi], with the edge values that
    break things most often."""
    edges = st.sampled_from([0.0, 1.0, -1.0, 1e-300, 0.5])
    values = st.floats(lo, hi, allow_nan=False) | edges.filter(lambda v: lo <= v <= hi)
    return values.map(_num)


_fn = st.sampled_from(_FUNCTIONS) | st.sampled_from(_BAD_FUNCTIONS)
_q = st.sampled_from(["2", "3", "1.5", "1", "0.5", "7.25"])
_tol = st.sampled_from(["0.000001", "0.00000001", "0.0000000001", "0", "-1", "nan", "inf"])
_grid = st.sampled_from(["2", "3", "9", "17", "33", "2050"])
_fmt = st.sampled_from(["text", "json", "csv"])


def _check_contract(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n"), (
            argv, err.getvalue())
    return code


@_SETTINGS
@given(fn=_fn, a=_numbers(-1e3, 1e3), b=_numbers(-1e3, 1e3), q=_q, tol=_tol, grid=_grid,
       fmt=_fmt)
def test_verify_keeps_the_exit_contract(fn, a, b, q, tol, grid, fmt):
    _check_contract(["verify", "--fn", fn, "--interval", a, b, "--q", q, "--tol", tol,
                     "--grid-points", grid, "--format", fmt])


@_SETTINGS
@given(fn=_fn, cases=st.integers(-1, 3), seed=st.integers(0, 2**64 - 1),
       lo=_numbers(-1e3, 1e3), hi=_numbers(-1e3, 1e3), q=_q, tol=_tol, grid=_grid, fmt=_fmt)
def test_sweep_keeps_the_exit_contract(fn, cases, seed, lo, hi, q, tol, grid, fmt):
    _check_contract(["sweep", "--fn", fn, "--cases", str(cases), "--seed", str(seed),
                     "--interval-range", lo, hi, "--q", q, "--tol", tol, "--grid-points", grid,
                     "--format", fmt])


@_SETTINGS
@given(lemma=st.sampled_from(["1", "2"]), fn=_fn, a=_numbers(-16.0, 16.0),
       b=_numbers(-16.0, 16.0), tol=_tol, fmt=_fmt, data=st.data())
def test_identity_keeps_the_exit_contract(lemma, fn, a, b, tol, fmt, data):
    if fn in ("ln", "neg_ln", "recip", "pow:-1", "pow:-3"):
        # f' ranges over more than a few decades near 0 (see the module docstring)
        a, b = data.draw(_numbers(0.1, 10.0)), data.draw(_numbers(0.1, 10.0))
    _check_contract(["identity", "--lemma", lemma, "--fn", fn, "--interval", a, b,
                     "--tol", tol, "--format", fmt])


@_SETTINGS
@given(p=_numbers(1.0, 8.0) | st.sampled_from(["0.5", "0", "-1", "1000000", "nan", "inf"]),
       tol=_tol, fmt=_fmt)
def test_kernel_keeps_the_exit_contract(p, tol, fmt):
    _check_contract(["kernel", "--p", p, "--tol", tol, "--format", fmt])


@_SETTINGS
@given(a=_numbers(-1.0, 1e300), b=_numbers(-1.0, 1e300),
       tiny=st.sampled_from([1e-60, 2e-60, 1e-110, 2e-110, 1e-300]).map(_num),
       n=st.integers(-6, 6), q=_q, p=st.none() | _numbers(-4.0, 4.0),
       variant=st.sampled_from(["as-derived", "as-printed"]), fmt=_fmt, use_tiny=st.booleans())
def test_means_keeps_the_exit_contract(a, b, tiny, n, q, p, variant, fmt, use_tiny):
    if use_tiny:
        a = tiny
    argv = ["means", "--a", a, "--b", b, "--n", str(n), "--q", q, "--variant", variant,
            "--format", fmt]
    _check_contract(argv + (["--p", p] if p is not None else []))


# Across the whole float range, where a + b, f, f' or a gap overflows, and
# with exponents whose exact gaps would need integers of millions of bits.
_WIDE_FUNCTIONS = _FUNCTIONS + ("pow:1000000", "pow:-1000", "abs_pow:1000000")


def _wide_numbers():
    edges = st.sampled_from([1e308, 1.7e308, 1e154, 1.3e154, 709.9, 5e-324, 1e-310])
    return (st.floats(-1.7e308, 1.7e308, allow_nan=False)
            | edges | edges.map(lambda v: -v)).map(_num)


@_SETTINGS
@given(fn=st.sampled_from(_WIDE_FUNCTIONS), a=_wide_numbers(), b=_wide_numbers(), q=_q,
       grid=st.sampled_from(["3", "9"]), fmt=_fmt)
def test_verify_keeps_the_exit_contract_across_the_float_range(fn, a, b, q, grid, fmt):
    _check_contract(["verify", "--fn", fn, "--interval", a, b, "--q", q, "--grid-points", grid,
                     "--format", fmt])


@_SETTINGS
@given(fn=st.sampled_from(_WIDE_FUNCTIONS), seed=st.integers(0, 2**64 - 1),
       lo=_wide_numbers(), hi=_wide_numbers(), q=_q, fmt=_fmt)
def test_sweep_keeps_the_exit_contract_across_the_float_range(fn, seed, lo, hi, q, fmt):
    _check_contract(["sweep", "--fn", fn, "--cases", "2", "--seed", str(seed),
                     "--interval-range", lo, hi, "--q", q, "--grid-points", "9",
                     "--format", fmt])


@_SETTINGS
@given(a=_wide_numbers(), b=_wide_numbers(), n=st.sampled_from([-10**7, -1000, 1000, 10**7]),
       fmt=_fmt)
def test_means_keeps_the_exit_contract_with_large_exponents(a, b, n, fmt):
    _check_contract(["means", "--a", a, "--b", b, "--n", str(n), "--format", fmt])


_POSITIVE_FUNCTIONS = ("ln", "neg_ln", "recip", "pow:-1", "pow:-3")
_valid_q = st.sampled_from(["2", "3", "1.5", "7.25"])
_valid_tol = st.sampled_from(["0.000001", "0.00000001", "0.0000000001", "0.0000000000001"])
_valid_grid = st.sampled_from(["3", "9", "17", "33"])


@st.composite
def _short_interval(draw, fn: str) -> tuple[str, str]:
    """[a, b] with b = a + 1-64 ulps or a + 10^U(-12, 1), inside fn's domain."""
    if fn in _POSITIVE_FUNCTIONS:
        a = 10 ** draw(st.floats(-3.0, 3.0))
    else:
        a = draw(st.floats(-1e3, 1e3, allow_nan=False))
    if draw(st.booleans()):
        b = a
        for _ in range(draw(st.integers(1, 64))):
            b = math.nextafter(b, math.inf)
    else:
        b = max(a + 10 ** draw(st.floats(-12.0, 1.0)), math.nextafter(a, math.inf))
    return _num(a), _num(b)


_ORACLE_SETTINGS = settings(_SETTINGS, max_examples=300)


@_ORACLE_SETTINGS
@given(fn=st.sampled_from(_FUNCTIONS), q=_valid_q, tol=_valid_tol, grid=_valid_grid,
       data=st.data())
def test_verify_refutes_no_catalog_theorem(fn, q, tol, grid, data):
    a, b = data.draw(_short_interval(fn))
    argv = ["verify", "--fn", fn, "--interval", a, b, "--q", q, "--tol", tol,
            "--grid-points", grid, "--format", "json"]
    assert _check_contract(argv) != 1, argv


@_ORACLE_SETTINGS
@given(fn=st.sampled_from(_FUNCTIONS), cases=st.integers(1, 3), seed=st.integers(0, 2**64 - 1),
       q=_valid_q, tol=_valid_tol, grid=_valid_grid, data=st.data())
def test_sweep_refutes_no_catalog_theorem(fn, cases, seed, q, tol, grid, data):
    lo, hi = data.draw(_short_interval(fn))
    argv = ["sweep", "--fn", fn, "--cases", str(cases), "--seed", str(seed),
            "--interval-range", lo, hi, "--q", q, "--tol", tol, "--grid-points", grid,
            "--format", "csv"]
    assert _check_contract(argv) != 1, argv


# Range errors keep one message each.  recip's f' at x = 1e-200 is -1/x^2,
# whose x*x underflows to 0: the same range error as pow:-1's x**-2, the same
# function.  exp's float path gives inf past x = 709.78, as numpy's does, so
# the integral of f still names the node where f left the float range, and
# the declared hypothesis its |f'|^2.
_RANGE_MESSAGES = [
    (["verify", "--fn", "recip", "--interval", "1e-200", "1e-199"],
     "error: (34, 'Numerical result out of range')"),
    (["verify", "--fn", "pow:-1", "--interval", "1e-200", "1e-199"],
     "error: (34, 'Numerical result out of range')"),
    (["verify", "--fn", "exp", "--interval", "700", "710"],
     "error: integrand not finite at x=709.8727697808569"),
    (["verify", "--fn", "exp", "--interval", "709", "709.5"],
     "error: function not finite everywhere on [709.0, 709.5]"),
    (["sweep", "--fn", "exp", "--interval-range", "700", "720", "--cases", "3"],
     "error: integrand not finite at x=709.9727046798608"),
]


@pytest.mark.parametrize("argv,err", _RANGE_MESSAGES, ids=[" ".join(a) for a, _ in _RANGE_MESSAGES])
def test_range_errors_print_one_message(argv, err):
    out, captured = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(captured):
        code = cli.main(argv)
    assert (code, out.getvalue(), captured.getvalue()) == (2, "", err + "\n")
