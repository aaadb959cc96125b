"""Special means and the four derived mean-comparison propositions."""

import math
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhcert.bounds import evaluate_case
from hhcert.catalog import Interval, parse_function_id
from hhcert.errors import InvalidExponent, InvalidParameter
from hhcert.means import (
    MeanPair,
    check_proposition,
    mean_arithmetic,
    mean_identric,
    mean_logarithmic,
    mean_p_logarithmic,
)

_positive = st.floats(0.01, 100.0)


class TestMeanValues:
    def test_arithmetic(self):
        assert mean_arithmetic(MeanPair(1.0, 3.0)) == 2.0

    def test_logarithmic(self):
        assert mean_logarithmic(MeanPair(1.0, 2.0)) == pytest.approx(
            1.4426950408889634, rel=1e-14
        )
        assert mean_logarithmic(MeanPair(1.0, math.e)) == pytest.approx(
            math.e - 1.0, rel=1e-14
        )

    def test_identric(self):
        # I(1, e) = e^(1/(e-1))
        assert mean_identric(MeanPair(1.0, math.e)) == pytest.approx(
            1.7895723968418336, rel=1e-13
        )

    def test_p_logarithmic(self):
        # L_2(1, 3)^2 = (27 - 1) / (3 * 2)
        assert mean_p_logarithmic(MeanPair(1.0, 3.0), 2.0) == pytest.approx(
            2.0816659994661326, rel=1e-14
        )

    @pytest.mark.parametrize("mean", [mean_arithmetic, mean_logarithmic, mean_identric])
    def test_equal_arguments(self, mean):
        assert mean(MeanPair(2.5, 2.5)) == 2.5

    def test_p_logarithmic_equal_arguments(self):
        assert mean_p_logarithmic(MeanPair(2.5, 2.5), 3.0) == 2.5

    @pytest.mark.parametrize("p", [-1.0, 0.0])
    def test_p_logarithmic_excluded_exponents(self, p):
        with pytest.raises(InvalidExponent):
            mean_p_logarithmic(MeanPair(1.0, 2.0), p)

    @pytest.mark.parametrize("pair", [(1.0, 2.0), (0.3, 7.7), (5.0, 5.5)])
    def test_p1_coincides_with_arithmetic(self, pair):
        mp = MeanPair(*pair)
        assert mean_p_logarithmic(mp, 1.0) == pytest.approx(
            mean_arithmetic(mp), rel=1e-14
        )

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, math.nan), (1.0, math.inf)])
    def test_pair_requires_positive_finite(self, a, b):
        with pytest.raises(ValueError):
            MeanPair(a, b)

    def test_symmetry_is_exact(self):
        for mean in (mean_arithmetic, mean_logarithmic, mean_identric):
            assert mean(MeanPair(0.7, 4.3)) == mean(MeanPair(4.3, 0.7))
        assert mean_p_logarithmic(MeanPair(0.7, 4.3), 2.0) == mean_p_logarithmic(
            MeanPair(4.3, 0.7), 2.0
        )


@settings(max_examples=100)
@given(a=_positive, b=_positive)
@example(a=0.010000000000000002, b=0.01)  # one ulp apart: ln b - ln a rounds to 0
def test_chain_logarithmic_identric_arithmetic(a, b):
    mp = MeanPair(a, b)
    l, i, ar = mean_logarithmic(mp), mean_identric(mp), mean_arithmetic(mp)
    assert l <= i + 1e-12 * max(1.0, i)
    assert i <= ar + 1e-12 * max(1.0, ar)


@settings(max_examples=60)
@given(a=_positive, b=_positive, lam=st.floats(0.01, 50.0))
@example(a=0.010000000000000002, b=0.01, lam=0.01171875)
@example(a=65.375, b=65.3125, lam=29.0)  # near-equal pair: difference quotients cancel
def test_homogeneity(a, b, lam):
    mp, scaled = MeanPair(a, b), MeanPair(lam * a, lam * b)
    assert mean_arithmetic(scaled) == pytest.approx(lam * mean_arithmetic(mp), rel=1e-12)
    assert mean_logarithmic(scaled) == pytest.approx(lam * mean_logarithmic(mp), rel=1e-12)
    assert mean_identric(scaled) == pytest.approx(lam * mean_identric(mp), rel=1e-12)
    assert mean_p_logarithmic(scaled, 2.0) == pytest.approx(
        lam * mean_p_logarithmic(mp, 2.0), rel=1e-12
    )


class TestPropositionExamples:
    def test_p1_printed_example(self):
        rep = check_proposition("P1", MeanPair(1.0, 3.0), n=2, variant="as-printed")
        assert rep.proposition == "P1"
        assert rep.variant == "as-printed"
        assert rep.lhs == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert rep.rhs == pytest.approx(8.16496580927726, rel=1e-12)
        assert rep.holds

    def test_p1_derived_example(self):
        rep = check_proposition("P1", MeanPair(1.0, 3.0), n=2, variant="as-derived")
        assert rep.rhs == pytest.approx(3.6514837167011076, rel=1e-12)
        assert rep.holds

    def test_p3_derived_example(self):
        rep = check_proposition("P3", MeanPair(1.0, 2.0), q=2.0, variant="as-derived")
        assert rep.lhs == pytest.approx(0.019170746988273982, rel=1e-10)
        assert rep.rhs == pytest.approx(0.3227486121839514, rel=1e-12)
        assert rep.holds

    def test_p3_printed_lhs_is_nonpositive(self):
        rep = check_proposition("P3", MeanPair(1.0, 2.0), q=2.0, variant="as-printed")
        assert rep.lhs <= 0.0
        assert rep.holds

    def test_p4_example(self):
        rep = check_proposition("P4", MeanPair(1.0, 2.0), q=2.0)
        assert rep.lhs == pytest.approx(0.026480513893278657, rel=1e-10)
        assert rep.rhs == pytest.approx(0.2975595178559521, rel=1e-12)
        assert rep.holds

    def test_p2_example_holds(self):
        rep = check_proposition("P2", MeanPair(1.0, 3.0), n=3, q=2.0)
        assert rep.holds
        assert rep.lhs < rep.rhs

    def test_p1_printed_counterexample(self):
        # the unrooted arithmetic-mean factor is too small here
        rep = check_proposition("P1", MeanPair(3.0, 6.0), n=-1, variant="as-printed")
        assert rep.lhs == pytest.approx(0.008826837964426182, rel=1e-8)
        assert rep.rhs == pytest.approx(0.008032663122552861, rel=1e-12)
        assert not rep.holds

    def test_p1_derived_fixes_counterexample(self):
        rep = check_proposition("P1", MeanPair(3.0, 6.0), n=-1, variant="as-derived")
        assert rep.holds

    def test_equal_endpoints_hold_trivially(self):
        for prop, kw in [
            ("P1", {"n": 2}),
            ("P2", {"n": 2, "q": 2.0}),
            ("P3", {"q": 2.0}),
            ("P4", {"q": 2.0}),
        ]:
            rep = check_proposition(prop, MeanPair(1.5, 1.5), **kw)
            assert rep.holds
            assert rep.lhs == rep.rhs == 0.0


class TestPropositionValidation:
    def test_unknown_proposition(self):
        with pytest.raises(ValueError):
            check_proposition("P5", MeanPair(1.0, 2.0), q=2.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            check_proposition("P1", MeanPair(1.0, 2.0), n=2, variant="fixed")

    def test_p1_requires_n(self):
        with pytest.raises(InvalidParameter):
            check_proposition("P1", MeanPair(1.0, 2.0))

    @pytest.mark.parametrize("n", [0, 2.5, math.nan])
    def test_bad_n(self, n):
        with pytest.raises(InvalidParameter):
            check_proposition("P1", MeanPair(1.0, 2.0), n=n)

    @pytest.mark.parametrize("q", [1.0, 0.5])
    def test_bad_q(self, q):
        with pytest.raises(InvalidExponent):
            check_proposition("P4", MeanPair(1.0, 2.0), q=q)


class TestConsistencyWithBounds:
    """The propositions are the bounds specialised to power-type integrands."""

    @pytest.mark.parametrize("a,b,q", [(1.0, 2.0, 2.0), (0.5, 3.0, 3.0), (2.0, 7.0, 1.5)])
    def test_p4_matches_reciprocal_bound(self, a, b, q):
        rep = check_proposition("P4", MeanPair(a, b), q=q)
        fd = parse_function_id("recip")
        iv = Interval(a, b)
        _, t3, _ = evaluate_case(fd, iv, q, grid_points=33)
        assert rep.lhs == pytest.approx(t3.gap, abs=1e-8)
        assert rep.rhs == pytest.approx(t3.bound, rel=1e-12)

    @pytest.mark.parametrize("a,b,n", [(1.0, 2.0, 3), (0.5, 1.5, 2), (1.0, 4.0, -2)])
    def test_p1_derived_matches_power_bound(self, a, b, n):
        rep = check_proposition("P1", MeanPair(a, b), n=n, variant="as-derived")
        fd = parse_function_id(f"pow:{n}")
        iv = Interval(a, b)
        t2 = evaluate_case(fd, iv, 2.0, grid_points=33)[0]
        assert rep.lhs == pytest.approx(t2.gap, abs=1e-8)
        assert rep.rhs == pytest.approx(t2.bound, rel=1e-12)

    @pytest.mark.parametrize("a,b,n,q", [(1.0, 2.0, 3, 2.0), (0.5, 1.5, 2, 3.0), (1.0, 4.0, -2, 1.5)])
    def test_p2_matches_power_bound(self, a, b, n, q):
        # P2's lhs is the trapezoid gap of x^n, its rhs T3's bound of x^n
        rep = check_proposition("P2", MeanPair(a, b), n=n, q=q)
        _, t3, _ = evaluate_case(parse_function_id(f"pow:{n}"), Interval(a, b), q, grid_points=33)
        assert rep.rhs == pytest.approx(t3.bound, rel=1e-12)

    @pytest.mark.parametrize("a,b,q", [(1.0, 2.0, 2.0), (0.4, 1.1, 3.0)])
    def test_p3_derived_matches_neg_ln_bound(self, a, b, q):
        rep = check_proposition("P3", MeanPair(a, b), q=q, variant="as-derived")
        fd = parse_function_id("neg_ln")
        iv = Interval(a, b)
        _, t3, _ = evaluate_case(fd, iv, q, grid_points=33)
        assert rep.lhs == pytest.approx(t3.gap, abs=1e-8)
        assert rep.rhs == pytest.approx(t3.bound, rel=1e-12)


def _rhs_reference(prop: str, a: float, b: float, n: int, q: float) -> float:
    """The as-derived rhs of P1..P4 at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, b, q = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(q)
        p = q / (q - 1)
        norm = (2 / ((p + 1) * (p + 2))) ** (1 / p)

        def power_mean(s, r):
            return ((a**s + b**s) / 2) ** r

        width = b - a
        return float({
            "P1": abs(n) * width / mpmath.sqrt(6) * power_mean(2 * (n - 1), mpmath.mpf(0.5)),
            "P2": abs(n) * width * norm * power_mean(q * (n - 1), 1 / q),
            "P3": width / (a * b) * norm * power_mean(q, 1 / q),
            "P4": width / (a * b) ** 2 * norm * power_mean(2 * q, 1 / q),
        }[prop])


# Pairs whose direct rhs underflows: a**(2q) is 0 for P4 at 1e-60 (it printed
# rhs=0 and holds=false), and at 1e-110 P2/P3 printed rhs=0 for q = 3 and
# P4's (a*b)**2 divided by zero.
@pytest.mark.parametrize(
    "a,b,q", [(1e-60, 2e-60, 3.0), (1e-110, 2e-110, 2.0), (1e-110, 2e-110, 3.0)]
)
def test_underflowing_rhs_matches_a_50_digit_reference(a, b, q):
    mp = MeanPair(a, b)
    for prop in ("P1", "P2", "P3", "P4"):
        rep = check_proposition(prop, mp, n=2, q=q)
        assert rep.holds, prop
        assert rep.rhs == pytest.approx(_rhs_reference(prop, a, b, 2, q), rel=1e-14, abs=0.0), prop


def test_overflowing_printed_p1_rhs_matches_a_50_digit_reference():
    # as printed, P1's rhs lacks the square root; a**(2(n - 1)) = 1e324
    # overflows, the rhs, about 1e297, does not
    a, b, n = 1e-27, 2e-27, -5
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        ref = float(abs(n) * (mb - ma) / mpmath.sqrt(6) * (ma ** (2 * n - 2) + mb ** (2 * n - 2)) / 2)
    rep = check_proposition("P1", MeanPair(a, b), n=n, variant="as-printed")
    assert rep.rhs == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("a,b", [(0.5, 4.0), (3.0, 6.0), (0.1, 9.7)])
@pytest.mark.parametrize("n", [-3, -1, 1, 2, 3])
def test_direct_rhs_matches_a_50_digit_reference(a, b, n):
    mp = MeanPair(a, b)
    for prop in ("P1", "P2", "P3", "P4"):
        rep = check_proposition(prop, mp, n=n, q=3.0)
        assert rep.rhs == pytest.approx(_rhs_reference(prop, a, b, n, 3.0), rel=1e-13), prop


# b/a beyond the float range: P4's (a*b)**2 divided by zero even after the
# pair was scaled by b's exponent, and P3's rhs came back inf with holds=true.
def test_rhs_beyond_the_float_range_raises():
    mp = MeanPair(1e-310, 1.0)
    for prop in ("P3", "P4"):  # 1/a alone is 1e310
        with pytest.raises(OverflowError):
            check_proposition(prop, mp, q=2.0)
    for prop in ("P1", "P2"):
        rep = check_proposition(prop, mp, n=2, q=2.0)
        assert rep.rhs == pytest.approx(_rhs_reference(prop, 1e-310, 1.0, 2, 2.0), rel=1e-14, abs=0.0)
    # too small for any float but 0: the printed P1 rhs here is about 1e-538
    with pytest.raises(OverflowError):
        check_proposition("P1", MeanPair(1e-60, 2e-60), n=5, variant="as-printed")


def test_rhs_of_a_pair_across_the_float_range():
    # P4's b**(2q) = 1e400 overflowed and raised, although its rhs is finite
    mp = MeanPair(1e-100, 1e100)
    for prop in ("P1", "P2", "P3", "P4"):
        rep = check_proposition(prop, mp, n=2, q=2.0)
        ref = _rhs_reference(prop, 1e-100, 1e100, 2, 2.0)
        assert rep.rhs == pytest.approx(ref, rel=1e-14, abs=0.0), prop


# The direct float form passed through subnormal powers such as (a*b)**2 and
# printed P1 7.4 % low and P4 1.2 % high; only its final rhs was range-checked.
@pytest.mark.parametrize("prop,a,b,n,q", [
    ("P1", 5.42693557376356e+80, 2.2643927232936233e+218, -1, 2.0),
    ("P4", 1e-82, 1e-79, 2, 1.5),
])
def test_rhs_through_subnormal_powers_matches_a_50_digit_reference(prop, a, b, n, q):
    rep = check_proposition(prop, MeanPair(a, b), n=n, q=q)
    assert rep.rhs == pytest.approx(_rhs_reference(prop, a, b, n, q), rel=1e-14, abs=0.0)


def test_rhs_of_an_endpoint_power_beyond_one_libm_power():
    # a^(n-1) is about 2^-1045, subnormal as one libm power of a's
    # mantissa; the rhs, about 3.7e-307, is not
    a, b, n = 1.0 + 2.0**-20, 2.0, -760000000
    for prop in ("P1", "P2"):
        rep = check_proposition(prop, MeanPair(a, b), n=n, q=2.0)
        assert rep.rhs == pytest.approx(_rhs_reference(prop, a, b, n, 2.0), rel=1e-14, abs=0.0), prop


def test_seeded_rhs_lie_within_256_ulps_of_a_50_digit_reference():
    # pairs across the float range, near-equal (a few ulps or a relative
    # 1e-15 apart) and far apart, with large |n| and q up to 1e3
    rng = random.Random(2727)
    checked = 0
    for _ in range(2000):
        a = 10.0 ** rng.uniform(-300, 300) if rng.random() < 0.5 else rng.uniform(0.01, 100.0)
        u = rng.random()
        if u < 0.3:
            b = a + rng.choice((1, 3, 100, 10000)) * math.ulp(a)
        elif u < 0.7:
            b = a * (1.0 + 10.0 ** rng.uniform(-15, 1))
        else:
            b = 10.0 ** rng.uniform(-300, 300)
        a, b = min(a, b), max(a, b)
        n = rng.choice((1, 2, 3, 5, 100, 1000, 100000, 1000000)) * rng.choice((1, -1))
        q = rng.choice((1.5, 2.0, 3.0, 7.0, 1e3))
        for prop in ("P1", "P2", "P3", "P4"):
            try:
                rhs = check_proposition(prop, MeanPair(a, b), n=n, q=q).rhs
            except OverflowError:  # a rhs or lhs past the float range
                continue
            ref = _rhs_reference(prop, a, b, n, q)
            assert abs(rhs - ref) <= 256 * math.ulp(ref), (prop, a, b, n, q, rhs, ref)
            checked += 1
    assert checked > 4000  # of the 8000 calls


def test_cli_import_leaves_decimal_unloaded():
    # means' rhs is evaluated in floats alone, even where it once fell back
    # to 40-digit decimals (a pair near 1e-160)
    probe = ("import contextlib, io, sys\n"
             "import hhcert.cli as cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert cli.main(['means', '--a', '1e-160', '--b', '2e-160', '--n', '-1']) == 0\n"
             "print('decimal' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_cli_rhs_beyond_the_float_range_exits_2(capsys):
    from hhcert import cli

    assert cli.main(["means", "--a", "1e-310", "--b", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: (34, 'Numerical result out of range')\n"



@pytest.mark.parametrize("a,b,n", [(1.0, 2.0, 2), (3.0, 7.0, -3)])
@pytest.mark.parametrize("q", [1e19, 1e100, 1e300])
def test_cli_huge_q_prints_the_rhs_of_q_1e18(capsys, a, b, n, q):
    # b^q, or a^(q(n-1)), left even the decimal exponent range, and the
    # command exited 2 with a range error; the text output names no q
    from hhcert import cli

    argv = ["means", "--a", repr(a), "--b", repr(b), "--n", str(n), "--q"]
    assert cli.main(argv + ["1e18"]) == 0
    want = capsys.readouterr()
    assert cli.main(argv + [repr(q)]) == 0
    got = capsys.readouterr()
    assert (got.out, got.err) == (want.out, "")
