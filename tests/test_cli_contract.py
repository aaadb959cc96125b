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
"""

import contextlib
import io
from decimal import Decimal

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


def _check_contract(argv: list[str]) -> None:
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
