"""The declared signed gaps of every catalog function, against mpmath.

d1 = mean - f(m) and d2 = (f(a)+f(b))/2 - mean over [a, b].  The reference
takes the mean from an exact antiderivative, F(b) - F(a) over b - a, with
mpmath at 120 digits: a 1-ulp width cancels about 16 digits in F(b) - F(a)
and the gap about 32 more against f(m), so every reference keeps at least
50 correct digits.
"""

import contextlib
import io
import json
import math
import random
import sys

import mpmath
import pytest

from hhcert import bounds, catalog, cli
from hhcert.catalog import Interval, parse_function_id
from hhcert.errors import NonFiniteEvaluation
from hhcert.quadrature import integrate_1d

EPS = 2.0**-52
# Each signed gap is within GAP_ULPS * eps of its reference, relative to it.
# The worst seen over 25 000 such draws is 16 eps (ln), where the difference
# quotient takes over from the series at x = h/m = 0.6.
GAP_ULPS = 32

_LABELS = (
    "exp", "ln", "neg_ln", "recip", "pow:1", "pow:2", "pow:3", "pow:4", "pow:5", "pow:6",
    "pow:-1", "pow:-2", "pow:-3", "pow:-4", "abs_pow:2", "abs_pow:2.5", "abs_pow:7",
)


def _reference(label: str):
    """(f, F) in mpmath: the function and an antiderivative."""
    name, _, param = label.partition(":")
    if name == "exp":
        return mpmath.exp, mpmath.exp
    if name == "ln":
        return mpmath.log, lambda x: x * mpmath.log(x) - x
    if name == "neg_ln":
        return lambda x: -mpmath.log(x), lambda x: x - x * mpmath.log(x)
    if name == "recip":
        return lambda x: 1 / x, mpmath.log
    if name == "pow":
        n = int(param)
        if n == -1:
            return lambda x: 1 / x, mpmath.log
        return lambda x: x**n, lambda x: x ** (n + 1) / (n + 1)
    r = mpmath.mpf(param)
    return lambda x: abs(x) ** r, lambda x: mpmath.sign(x) * abs(x) ** (r + 1) / (r + 1)


def reference_gaps(label: str, a: float, b: float) -> tuple[float, float]:
    f, anti = _reference(label)
    with mpmath.workdps(120):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        mean = (anti(mb) - anti(ma)) / (mb - ma)
        return mean - f((ma + mb) / 2), (f(ma) + f(mb)) / 2 - mean


def _positions(label: str, rng: random.Random) -> float:
    name = label.partition(":")[0]
    if parse_function_id(label).domain.lower == 0.0:
        return 10 ** rng.uniform(-3.0, 3.0)
    # exp over most of its range, where e^m at a rounded m = (a+b)/2 is off by
    # up to |m| eps / 2: the declared gap takes e^m at the exact midpoint
    return rng.uniform(-690.0, 690.0) if name == "exp" else rng.uniform(-10.0, 10.0)


def _intervals(label: str) -> list[tuple[float, float]]:
    """Seeded intervals: widths 10^U(-12, 1) and widths of 1-64 ulps."""
    rng = random.Random(f"gaps:{label}")
    out = []
    for i in range(60):
        a = _positions(label, rng)
        if i % 2:
            b = a
            for _ in range(rng.randint(1, 64)):
                b = math.nextafter(b, math.inf)
        else:
            b = max(a + 10 ** rng.uniform(-12.0, 1.0), math.nextafter(a, math.inf))
        out.append((a, b))
    if label.startswith("abs_pow"):
        # 0 inside, at an endpoint and at the midpoint, and the kink 1 ulp away
        out += [(-1.0, 2.0), (-3.0, 0.5), (-0.001, 7.0), (0.0, 1.5), (-2.5, 0.0), (-2.0, 2.0),
                (-1e-9, 1e-9), (-5e-324, 1.0), (-1.0, 5e-324), (0.0, 5e-324), (-5e-324, 0.0)]
    return out


def _relative_error(got: float, ref) -> float:
    """|got - ref| relative to ref, or to the smallest normal float for a
    subnormal ref, whose float carries fewer digits (exp near -690)."""
    if ref == 0:
        return 0.0 if got == 0.0 else math.inf
    return float(abs(mpmath.mpf(got) - ref) / max(abs(ref), sys.float_info.min))


@pytest.mark.parametrize("label", _LABELS)
def test_gaps_match_mpmath(label):
    fd = parse_function_id(label)
    worst = (0.0, None)
    for a, b in _intervals(label):
        d1, d2 = fd.gaps(a, b)
        r1, r2 = reference_gaps(label, a, b)
        err = max(_relative_error(d1, r1), _relative_error(d2, r2))
        if err > worst[0]:
            worst = (err, (a, b))
    assert worst[0] <= GAP_ULPS * EPS, f"{label}: {worst[0] / EPS:.1f} eps at {worst[1]}"


@pytest.mark.parametrize("label,a,b", [
    ("abs_pow:1100", 0.25, 0.75),  # m^r underflows; the series would read 0
    ("abs_pow:1100", 0.9, 1.0),
    ("abs_pow:1100", -0.7, 0.9),
    ("pow:1100", 0.9, 1.0),  # C(1100, 550) is beyond the float range
    ("pow:1101", -1.0, 0.999),
])
def test_large_exponents_match_mpmath(label, a, b):
    d1, d2 = parse_function_id(label).gaps(a, b)
    r1, r2 = reference_gaps(label, a, b)
    assert max(_relative_error(d1, r1), _relative_error(d2, r2)) <= GAP_ULPS * EPS


def _large_exponent_intervals(n: int) -> list[tuple[float, float]]:
    """Seeded intervals on which x^n stays in range: |n ln x| < 500."""
    rng = random.Random(f"large:{n}")
    out = []
    for i in range(16):
        c = math.exp(rng.uniform(-500.0, 500.0) / abs(n))
        width = c * 10 ** rng.uniform(-12.0, math.log10(min(1.0, 100.0 / abs(n))))
        if n > 0 and i % 4 == 1:
            out.append((-c - width, -c))
        elif n > 0 and i % 4 == 3:
            out.append((-c * rng.uniform(0.5, 1.0), c))  # 0 inside
        else:
            out.append((c, c + width))
    return out


@pytest.mark.parametrize("n", [400, 2001, -400, -1000, 100000])
def test_exponents_past_the_exact_size_match_mpmath(n):
    # Past catalog._EXACT_POWER_BITS the gaps of x^n are summed in floats.
    # m = (a+b)/2 and a/b are rounded once, and raised to the n-th power that
    # costs up to |n|/2 eps: the bound is |n| eps (worst seen 0.5 |n| eps).
    label = f"pow:{n}"
    fd = parse_function_id(label)
    for a, b in _large_exponent_intervals(n):
        d1, d2 = fd.gaps(a, b)
        r1, r2 = reference_gaps(label, a, b)
        err = max(_relative_error(d1, r1), _relative_error(d2, r2))
        assert err <= abs(n) * EPS, f"{label}: {err / EPS:.1f} eps at ({a!r}, {b!r})"


@pytest.mark.parametrize("label,a,b", [
    ("ln", 1e308, 1.7e308), ("neg_ln", 1e308, 1.7e308), ("recip", 1e308, 1.7e308),
    ("pow:-2", 1e308, 1.7e308), ("pow:2", 1e308, 1.7e308), ("exp", -1.7e308, -1e308),
    ("abs_pow:2.5", 1e308, 1.7e308), ("abs_pow:2.5", -1.7e308, -1e308),
])
def test_gaps_where_a_plus_b_overflows(label, a, b):
    # m is a/2 + b/2, not the inf that (a+b)/2 gives: each gap is its
    # reference, or out of range (inf, or OverflowError) where the reference is
    refs = reference_gaps(label, a, b)
    in_range = [abs(ref) <= sys.float_info.max for ref in refs]
    try:
        gaps = parse_function_id(label).gaps(a, b)
    except OverflowError:
        assert not all(in_range)
        return
    for got, ref, ok in zip(gaps, refs, in_range):
        if ok:
            assert _relative_error(got, ref) <= GAP_ULPS * EPS
        else:
            assert not math.isfinite(got)


@pytest.mark.parametrize("t2", [math.inf, -math.inf, math.nan])
def test_series_stops_at_a_sum_out_of_range(t2):
    # a nan term never leaves the sums unchanged, so only this check ends them
    d1, d2 = catalog._taylor_gaps(t2, lambda k: 0.25)
    assert not math.isfinite(d1) and not math.isfinite(d2)


def test_affine_gaps_are_exactly_zero():
    fd = parse_function_id("pow:1")
    for a, b in _intervals("pow:1"):
        assert fd.gaps(a, b) == (0.0, 0.0)


@pytest.mark.parametrize("label", ("pow:3", "pow:-3", "pow:6"))
def test_powers_are_rounded_once(label):
    # x^n is rational in a and b, so its gaps are the exact values rounded
    fd = parse_function_id(label)
    for a, b in _intervals(label):
        r1, r2 = reference_gaps(label, a, b)
        assert fd.gaps(a, b) == (float(r1), float(r2))


@pytest.mark.parametrize("label", _LABELS)
def test_gaps_match_the_quadrature(label):
    # where G7/K15 at tol 1e-13 is accurate: widths of 0.05 to 5, f' moderate
    fd = parse_function_id(label)
    rng = random.Random(f"quadrature:{label}")
    lo, hi = (0.2, 4.0) if fd.domain.lower == 0.0 else (-3.0, 3.0)
    for _ in range(10):
        a = rng.uniform(lo, hi - 0.05)
        b = min(a + 10 ** rng.uniform(-1.3, 0.7), hi)
        iv = Interval(a, b)
        edges = (iv.midpoint, *fd.kinks_inside(a, b))
        mean = integrate_1d(fd.eval, iv, 1e-13, breakpoints=edges).value / iv.width
        fa, fm, fb = (float(fd.eval(x)) for x in (a, iv.midpoint, b))
        allowance = 1e-13 / iv.width + 64 * EPS * max(abs(fa), abs(fm), abs(fb))
        d1, d2 = fd.gaps(a, b)
        assert d1 == pytest.approx(mean - fm, abs=allowance)
        assert d2 == pytest.approx(0.5 * (fa + fb) - mean, abs=allowance)


@pytest.mark.parametrize("label,a,b,error", [
    ("exp", 709.0, 711.0, NonFiniteEvaluation),
    ("recip", 1e-320, 2e-320, NonFiniteEvaluation),
    ("pow:5", 1.0, 1e200, NonFiniteEvaluation),
    # no quadrature node comes near enough to 1e-200 to overflow x^-3 there
    ("pow:-3", 1e-200, 1.0, OverflowError),
])
def test_out_of_range_gaps_raise(label, a, b, error):
    # a gap past the float range is an error, never a printed inf or nan; where
    # the integral of f meets a value of f out of range, its error is raised
    fd = parse_function_id(label)
    with pytest.raises(error):
        bounds.midpoint_gap(fd, Interval(a, b))


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# Each refuted the theorems (exit 1) when its gap came from quadrature: the
# printed gap was the rounding of f(m) - mean, 0.033 against 5.6e-18 on exp.
@pytest.mark.parametrize("argv", [
    ["verify", "--fn", "exp", "--interval", "30", "30.000000000000004"],
    ["verify", "--fn", "exp", "--interval", "20", "20.000000000000004"],
    ["verify", "--fn", "pow:3", "--interval", "1e6", "1000000.0000000001"],
])
def test_short_intervals_certify_true_theorems(argv):
    code, out = _main(argv + ["--format", "json"])
    assert code == 0
    records = json.loads(out)["records"]
    label, a, b = argv[2], float(argv[4]), float(argv[5])
    ref = abs(reference_gaps(label, a, b)[0])
    for rec in records[:3]:
        assert rec["holds"] is True
        assert _relative_error(rec["gap"], ref) <= GAP_ULPS * EPS


def test_means_near_equal_pair_holds():
    # P1's lhs was rounding noise on A^-3 = 1e9 (3.6e-7 against rhs 2.7e-7): exit 1
    a, b = 0.001, 0.0010000000000000002
    code, out = _main(["means", "--a", repr(a), "--b", repr(b), "--n", "-3", "--format", "json"])
    assert code == 0
    lhs = {rec["item"]: rec["lhs"] for rec in json.loads(out)["records"] if "lhs" in rec}
    refs = {
        "P1": abs(reference_gaps("pow:-3", a, b)[0]),
        "P2": abs(reference_gaps("pow:-3", a, b)[1]),
        "P3": abs(reference_gaps("ln", a, b)[0]),
        "P4": abs(reference_gaps("recip", a, b)[0]),
    }
    for item, ref in refs.items():
        assert _relative_error(lhs[item], ref) <= GAP_ULPS * EPS, item
