"""Gap evaluation, the three endpoint-derivative bounds, and the identities."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhcert import bounds
from hhcert.bounds import (
    ConjugatePair,
    conjugate_of,
    evaluate_case,
    theorem3_constant,
    verify_case,
    verify_identity,
)
from hhcert.catalog import VIOLATED, Interval, check_convexity, parse_function_id
from hhcert.errors import DomainViolation, InvalidExponent, NonFiniteEvaluation
from hhcert.kernel import kernel_p_norm

_UNIT = Interval(0.0, 1.0)


def _row(theorem, fd, iv, q=2.0, grid_points=257):
    """The T2, T3 or KO report of one case, from evaluate_case."""
    return evaluate_case(fd, iv, q, grid_points=grid_points)[("T2", "T3", "KO").index(theorem)]


def _gap(fd, iv):
    """The midpoint gap of one case, as its rows report it."""
    return _row("T2", fd, iv).gap


def _sandwich(fd, iv):
    """The sandwich of one case, from verify_case."""
    return verify_case(fd, iv, 2.0, grid_points=9)[0]


class TestConjugate:
    @pytest.mark.parametrize("q,p", [(2.0, 2.0), (3.0, 1.5), (1.5, 3.0), (1.1, 11.0)])
    def test_values(self, q, p):
        pair = conjugate_of(q)
        assert pair.q == q
        assert pair.p == pytest.approx(p, rel=1e-12)

    @given(st.floats(1.01, 50.0))
    def test_invariant(self, q):
        pair = conjugate_of(q)
        assert abs(1.0 / pair.p + 1.0 / pair.q - 1.0) <= 1e-14

    @pytest.mark.parametrize("q", [1.0, 0.5, 0.0, -2.0, math.nan, math.inf])
    def test_rejects_bad_q(self, q):
        with pytest.raises(InvalidExponent):
            conjugate_of(q)

    def test_direct_pair_must_be_conjugate(self):
        with pytest.raises(InvalidExponent):
            ConjugatePair(p=2.0, q=3.0)
        ConjugatePair(p=1.5, q=3.0)


class TestTheorem3Constant:
    # from p near 1e9 (where the kernel's 2^(p+1) pieces overflow) to p near 1,
    # and to p = 1.0, where q/(q-1) rounds to 1
    _QS = [1.0 + 1e-9, 1.0 + 1e-6, 1.0001, 1.001, 1.1, 1.5, 2.0, 3.0, 7.5, 1e3, 1e6, 1e16, 1e300]

    @pytest.mark.parametrize("q", _QS)
    def test_is_the_kernel_norm_at_the_conjugate(self, q):
        got = theorem3_constant(q)
        assert math.isfinite(got)
        assert repr(got) == repr(kernel_p_norm(conjugate_of(q).p))

    @pytest.mark.parametrize("q", [1.0, 0.5, -2.0, math.nan])
    def test_rejects_q_at_most_1_as_conjugate_of_does(self, q):
        with pytest.raises(InvalidExponent, match="conjugate_of requires q > 1"):
            theorem3_constant(q)


class TestMidpointGap:
    def test_square(self):
        # mean of x^2 on [0,1] is 1/3, midpoint value 1/4
        gap = _gap(parse_function_id("pow:2"), _UNIT)
        assert gap == pytest.approx(1.0 / 12.0, abs=1e-10)

    def test_cube(self):
        gap = _gap(parse_function_id("pow:3"), _UNIT)
        assert gap == pytest.approx(1.0 / 8.0, abs=1e-10)

    def test_affine_gap_vanishes(self):
        assert _gap(parse_function_id("pow:1"), Interval(2.0, 5.0)) <= 1e-12

    def test_degenerate(self):
        assert _gap(parse_function_id("exp"), Interval(3.0, 3.0)) == 0.0

    @pytest.mark.parametrize(
        "label,a,b", [("ln", 0.0, 1.0), ("ln", -1.0, -1.0), ("recip", -1.0, 1.0)]
    )
    def test_outside_domain_raises(self, label, a, b):
        # checked before the degenerate shortcut and before any evaluation
        with pytest.raises(DomainViolation, match=f"not inside the domain of {label}"):
            _gap(parse_function_id(label), Interval(a, b))


_CATALOG_LABELS = (
    "exp", "ln", "neg_ln", "recip", "pow:1", "pow:2", "pow:3", "pow:4", "pow:5",
    "pow:-1", "pow:-2", "pow:-3", "abs_pow:2", "abs_pow:2.5", "abs_pow:3.7",
)


def _seeded_intervals(label: str, n: int = 4) -> list[Interval]:
    lo, hi = (0.1, 10.0) if parse_function_id(label).domain.lower == 0.0 else (-3.0, 3.0)
    rng = random.Random(label)
    return [Interval(*sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))) for _ in range(n)]


_ONE_INTEGRAL_CASES = [(label, iv) for label in _CATALOG_LABELS for iv in _seeded_intervals(label)]
_ONE_INTEGRAL_CASES += [
    ("abs_pow:2.5", Interval(-1.0, 2.0)),  # the kink inside the interval
    ("abs_pow:2.5", Interval(-2.0, 2.0)),  # the kink at the midpoint
    ("abs_pow:3.7", Interval(-0.3, 1.7)),
    ("exp", Interval(1.0, 1.0)),
]


def _hand_built(label: str):
    """The catalog descriptor without its declared gaps, as a hand-built one is."""
    return dataclasses.replace(parse_function_id(label), gaps=None)


class TestOneIntegralPerCase:
    """Every gap and the sandwich read the same case values, bit for bit."""

    @pytest.mark.parametrize("q", [2.0, 3.0])
    @pytest.mark.parametrize(
        "label,iv", _ONE_INTEGRAL_CASES, ids=[f"{lb}-{iv.a!r}-{iv.b!r}" for lb, iv in
                                              _ONE_INTEGRAL_CASES]
    )
    def test_gaps_are_read_off_the_sandwich(self, label, iv, q):
        fd = parse_function_id(label)
        sandwich, (*rows, hh) = verify_case(fd, iv, q, grid_points=9)
        assert [r.theorem for r in rows] == ["T2", "T3", "KO"]
        d1, d2 = fd.gaps(iv.a, iv.b) if not iv.is_degenerate else (0.0, 0.0)
        for rep in rows:
            assert rep.gap == abs(d1)
        assert sandwich.middle == sandwich.lower + d1
        assert hh.gap == max(-d1, -d2, 0.0)
        assert sandwich.ordered == hh.holds == (hh.gap <= bounds.ORDER_SLACK)
        assert evaluate_case(fd, iv, q, grid_points=9) == tuple(rows)

    @pytest.mark.parametrize("q", [2.0, 3.0])
    @pytest.mark.parametrize(
        "label,iv", _ONE_INTEGRAL_CASES, ids=[f"{lb}-{iv.a!r}-{iv.b!r}" for lb, iv in
                                              _ONE_INTEGRAL_CASES]
    )
    def test_hand_built_gaps_are_read_off_the_sandwich(self, label, iv, q):
        # without declared gaps, the integral mean is the sandwich's middle
        fd = _hand_built(label)
        sandwich, (*rows, hh) = verify_case(fd, iv, q, grid_points=9)
        for rep in rows:
            assert rep.gap == abs(sandwich.lower - sandwich.middle)
        assert hh.gap == max(sandwich.lower - sandwich.middle, sandwich.middle - sandwich.upper,
                             0.0)
        assert sandwich.ordered == hh.holds == (hh.gap <= bounds.ORDER_SLACK)
        assert evaluate_case(fd, iv, q, grid_points=9) == tuple(rows)


# abs_pow:2.5 intervals around its kink at 0 where an unsplit integral missed
# the gap by 2.5e-7 and the identities by 1.6e-8
_KINKED_GAP = Interval(-1.3788564729135357, 1.1738956418783024)
_KINKED_IDENTITY = Interval(-0.2539862570578202, 0.5042608607277401)


_KINK_EDGE = Interval(-0.032021394392498514, 1.7664130283632349)


def _kink_spanning(r: float, n: int = 4) -> list[Interval]:
    """n seeded intervals around the kink at 0, each end 10^U(-3, 0.3) from it."""
    rng = random.Random(f"abs_pow:{r}")
    return [Interval(-(10 ** rng.uniform(-3.0, 0.3)), 10 ** rng.uniform(-3.0, 0.3))
            for _ in range(n)]


# r = 2.3 and 3.7 have L1 residuals of 6.2e-12 and 1.4e-13 here without grading
_NEAR_KINK = [(r, iv) for r in (2.3, 2.5, 3.0, 3.7) for iv in _kink_spanning(r)]


def _abs_pow_mean(iv: Interval, r: float = 2.5):
    mpmath = __import__("mpmath")
    with mpmath.workdps(40):
        a, b = mpmath.mpf(iv.a), mpmath.mpf(iv.b)
        return mpmath.quad(lambda x: abs(x) ** r, [a, 0, b]) / (b - a)


class TestKinks:
    def test_gap_matches_a_reference(self):
        # declared in closed form, and integrated with the kink as a breakpoint
        iv = _KINKED_GAP
        ref = abs(abs(iv.midpoint) ** 2.5 - _abs_pow_mean(iv))
        for fd in (parse_function_id("abs_pow:2.5"), _hand_built("abs_pow:2.5")):
            assert _gap(fd, iv) == pytest.approx(float(ref), abs=1e-14)

    def test_sandwich_mean_matches_a_reference(self):
        for fd in (parse_function_id("abs_pow:2.5"), _hand_built("abs_pow:2.5")):
            rep = _sandwich(fd, _KINKED_IDENTITY)
            assert rep.middle == pytest.approx(float(_abs_pow_mean(_KINKED_IDENTITY)), abs=1e-13)

    @pytest.mark.parametrize("lemma", ["L1", "L2"])
    def test_identities_reach_rounding_noise(self, lemma):
        fd = parse_function_id("abs_pow:2.5")
        assert verify_identity(lemma, fd, _KINKED_IDENTITY) <= 1e-13

    @pytest.mark.parametrize("lemma", ["L1", "L2"])
    def test_kink_edge_identities_reach_rounding_noise(self, lemma):
        # the panel ending at the kink claimed convergence with an estimate
        # of 6.7e-11 while L1 missed by 6.2e-10; graded, it is exact
        fd = parse_function_id("abs_pow:2.5")
        assert verify_identity(lemma, fd, _KINK_EDGE) <= 1e-13

    @pytest.mark.parametrize("lemma", ["L1", "L2"])
    @pytest.mark.parametrize("r,iv", _NEAR_KINK, ids=[f"{r}-{iv.a:.3g}-{iv.b:.3g}"
                                                      for r, iv in _NEAR_KINK])
    def test_identities_near_the_kink(self, lemma, r, iv):
        assert verify_identity(lemma, parse_function_id(f"abs_pow:{r}"), iv) <= 1e-13

    @pytest.mark.parametrize("iv", [Interval(0.0, 1.0), Interval(-1.0, 0.0), Interval(1.0, 2.0)])
    def test_kink_on_or_outside_an_endpoint_is_no_breakpoint(self, iv):
        fd = parse_function_id("abs_pow:2.5")
        assert _gap(fd, iv) > 0.0
        assert _sandwich(fd, iv).ordered
        assert verify_identity("L1", fd, iv) <= 1e-13

    @staticmethod
    def _integrals(monkeypatch, fd) -> list:
        """The integrals of evaluate_case, verify_case and both identities of fd on [-1, 2]."""
        seen = []
        real_1d, real_2d = bounds.integrate_1d, bounds.integrate_2d

        def spy_1d(f, iv, tol, breakpoints=()):
            seen.append((iv.a, iv.b, tuple(breakpoints)))
            return real_1d(f, iv, tol, breakpoints)

        def spy_2d(f, tol, breakpoints=()):
            seen.append(tuple(breakpoints))
            return real_2d(f, tol, breakpoints)

        monkeypatch.setattr(bounds, "integrate_1d", spy_1d)
        monkeypatch.setattr(bounds, "integrate_2d", spy_2d)
        iv = Interval(-1.0, 2.0)
        evaluate_case(fd, iv, 3.0)
        verify_case(fd, iv, 3.0, grid_points=9)
        verify_identity("L1", fd, iv)
        verify_identity("L2", fd, iv)
        return seen

    _T_K = 2.0 / 3.0  # x(t) = -t + 2(1 - t) is 0 at t = b/(b-a)

    def test_kink_is_a_breakpoint_of_every_integral(self, monkeypatch):
        t_k = self._T_K
        assert self._integrals(monkeypatch, _hand_built("abs_pow:2.5")) == [
            (-1.0, 2.0, (0.5, 0.0)),
            (-1.0, 2.0, (0.5, 0.0)),
            (-1.0, 2.0, (0.5, 0.0)), (0.0, 0.5, ()), (0.5, 1.0, (t_k,)),
            (-1.0, 2.0, (0.5, 0.0)), (0.5, t_k),
        ]

    def test_declared_gaps_leave_only_the_integrals_of_f_prime(self, monkeypatch):
        t_k = self._T_K
        assert self._integrals(monkeypatch, parse_function_id("abs_pow:2.5")) == [
            (0.0, 0.5, ()), (0.5, 1.0, (t_k,)), (0.5, t_k),
        ]


class TestSandwich:
    def test_exp_values_and_order(self):
        rep = _sandwich(parse_function_id("exp"), _UNIT)
        assert rep.lower == pytest.approx(math.exp(0.5), rel=1e-12)
        assert rep.middle == pytest.approx(math.e - 1.0, rel=1e-10)
        assert rep.upper == pytest.approx((1.0 + math.e) / 2.0, rel=1e-12)
        assert rep.ordered

    def test_concave_function_breaks_order(self):
        rep = _sandwich(parse_function_id("ln"), Interval(1.0, 3.0))
        assert rep.lower > rep.middle
        assert not rep.ordered

    def test_degenerate(self):
        rep = _sandwich(parse_function_id("exp"), Interval(2.0, 2.0))
        assert rep.lower == rep.middle == rep.upper == pytest.approx(math.exp(2.0))
        assert rep.ordered

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (-1.0, -1.0), (0.0, 1.0)])
    def test_outside_domain_raises(self, a, b):
        with pytest.raises(DomainViolation, match="not inside the domain of ln"):
            _sandwich(parse_function_id("ln"), Interval(a, b))


class TestHHReport:
    """The HH row that verify_case adds after the T2, T3 and KO rows."""

    @pytest.mark.parametrize("label,a,b", [("exp", 0.0, 1.0), ("ln", 1.0, 3.0)])
    def test_sandwich_as_a_bound_row(self, label, a, b):
        fd, iv = parse_function_id(label), Interval(a, b)
        sandwich, reports = verify_case(fd, iv, 2.0, grid_points=33)
        rep = reports[-1]
        assert rep.theorem == "HH"
        assert rep.bound == bounds.ORDER_SLACK
        d1, d2 = fd.gaps(a, b)
        assert sandwich.middle == sandwich.lower + d1
        assert rep.gap == max(-d1, -d2, 0.0)
        assert rep.holds == sandwich.ordered == (rep.gap <= rep.bound)
        assert rep.hypothesis == check_convexity(fd.eval, iv, 33)

    def test_concave_function_is_flagged(self):
        rep = verify_case(parse_function_id("ln"), Interval(1.0, 3.0), 2.0, grid_points=33)[1][-1]
        assert rep.hypothesis.verdict == VIOLATED
        assert not rep.holds

    def test_degenerate_is_trivial(self):
        sandwich, reports = verify_case(parse_function_id("exp"), Interval(2.0, 2.0), 2.0)
        rep = reports[-1]
        assert sandwich.ordered and rep.holds
        assert rep.gap == rep.ratio == 0.0
        assert rep.hypothesis.ok and rep.hypothesis.samples == 0

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.0, 1.0)])
    def test_outside_domain_raises(self, a, b):
        with pytest.raises(DomainViolation, match="not inside the domain of ln"):
            verify_case(parse_function_id("ln"), Interval(a, b), 2.0)


class TestTheorem2:
    def test_square_on_unit(self):
        rep = _row("T2", parse_function_id("pow:2"), _UNIT)
        assert rep.theorem == "T2"
        assert rep.gap == pytest.approx(1.0 / 12.0, abs=1e-10)
        assert rep.bound == pytest.approx(0.5773502691896258, rel=1e-14)
        assert rep.ratio == pytest.approx(rep.gap / rep.bound, rel=1e-15)
        assert rep.hypothesis.ok
        assert rep.holds

    def test_cube_on_unit(self):
        rep = _row("T2", parse_function_id("pow:3"), _UNIT)
        assert rep.gap == pytest.approx(1.0 / 8.0, abs=1e-10)
        assert rep.bound == pytest.approx(0.8660254037844386, rel=1e-14)
        assert rep.holds

    def test_concave_f_is_fine_when_deriv_power_is_convex(self):
        rep = _row("T2", parse_function_id("ln"), Interval(0.5, 3.0))
        assert rep.hypothesis.ok
        assert rep.holds

    def test_degenerate_reports_trivially(self):
        rep = _row("T2", parse_function_id("exp"), Interval(1.0, 1.0))
        assert rep.gap == 0.0
        assert rep.bound == 0.0
        assert math.isnan(rep.ratio)
        assert rep.holds

    def test_shift_covariance_of_ratio(self):
        # for exp both gap and bound scale by e^c under a shift by c
        fd = parse_function_id("exp")
        base = _row("T2", fd, Interval(0.3, 1.1), grid_points=65)
        for c in (0.7, -1.2):
            shifted = _row("T2", fd, Interval(0.3 + c, 1.1 + c), grid_points=65)
            assert shifted.ratio == pytest.approx(base.ratio, rel=1e-12)


class TestPowerMeanOverflow:
    # |f'(a)|^q + |f'(b)|^q overflows although each power is finite
    @pytest.mark.parametrize("a,b,q", [(236.4, 236.5, 3.0), (354.7, 354.8, 2.0)])
    def test_bound_is_finite_and_matches_a_reference(self, a, b, q):
        mpmath = __import__("mpmath")
        fd, iv = parse_function_id("exp"), Interval(a, b)
        da, db = math.exp(a), math.exp(b)
        t2, t3, _ = evaluate_case(fd, iv, q, grid_points=9)
        with mpmath.workdps(40):
            w, ma, mb = mpmath.mpf(b - a), mpmath.mpf(da), mpmath.mpf(db)
            ref2 = w / mpmath.sqrt(6) * mpmath.sqrt((ma**2 + mb**2) / 2)
            ref3 = w * theorem3_constant(q) * ((ma**q + mb**q) / 2) ** (1 / mpmath.mpf(q))
        assert t2.bound == pytest.approx(float(ref2), rel=4e-16)
        assert t3.bound == pytest.approx(float(ref3), rel=4e-16)
        assert t3.holds and t3.ratio > 0.0


class TestTheorem3:
    def test_q3_square_on_unit(self):
        rep = _row("T3", parse_function_id("pow:2"), _UNIT, q=3.0)
        assert rep.theorem == "T3"
        assert rep.bound == pytest.approx(0.5934278973544118, rel=1e-12)
        assert rep.holds

    @pytest.mark.parametrize(
        "label,a,b",
        [("exp", 0.0, 1.0), ("pow:3", 0.0, 2.0), ("recip", 0.5, 2.0)],
    )
    def test_q2_reduces_to_theorem2(self, label, a, b):
        fd = parse_function_id(label)
        iv = Interval(a, b)
        t2, t3, _ = evaluate_case(fd, iv, 2.0, grid_points=65)
        assert t3.bound == pytest.approx(t2.bound, rel=1e-14)
        assert t3.gap == t2.gap

    @pytest.mark.parametrize("q", [1.0, 0.8, math.nan])
    def test_rejects_bad_q(self, q):
        with pytest.raises(InvalidExponent):
            evaluate_case(parse_function_id("exp"), _UNIT, q)

    @settings(deadline=None, max_examples=15)
    @given(q=st.floats(1.05, 20.0))
    def test_exp_bound_holds_for_any_q(self, q):
        rep = _row("T3", parse_function_id("exp"), Interval(-1.0, 2.0), q=q, grid_points=33)
        assert rep.holds


class TestKirmaciOzdemir:
    def test_square_on_unit(self):
        rep = _row("KO", parse_function_id("pow:2"), _UNIT, q=2.0)
        assert rep.theorem == "KO"
        assert rep.bound == pytest.approx(0.4330127018922193, rel=1e-14)
        assert rep.holds

    def test_cube_on_unit(self):
        rep = _row("KO", parse_function_id("pow:3"), _UNIT, q=2.0)
        assert rep.bound == pytest.approx(0.649519052838329, rel=1e-14)
        assert rep.holds

    def test_rejects_bad_q(self):
        # through T3's conjugate_of, which is evaluated before KO
        with pytest.raises(InvalidExponent, match="conjugate_of"):
            evaluate_case(parse_function_id("exp"), _UNIT, 1.0)

    def test_degenerate_reports_trivially(self):
        rep = _row("KO", parse_function_id("recip"), Interval(2.0, 2.0), q=3.0)
        assert rep.holds and rep.gap == rep.bound == 0.0


class TestEvaluateCase:
    @pytest.mark.parametrize("q,scans", [(2.0, [2.0]), (3.0, [2.0, 3.0])])
    @pytest.mark.parametrize("declared,integrals", [(True, 0), (False, 1)])
    def test_one_gap_and_one_scan_per_exponent(self, monkeypatch, q, scans, declared, integrals):
        # catalog gaps are declared; a hand-built descriptor integrates f once
        hyp_qs, gaps = [], []
        real_hyp, real_1d = bounds.check_hypothesis, bounds.integrate_1d

        def counting_hyp(fd, iv, hyp_q, **kwargs):
            hyp_qs.append(hyp_q)
            return real_hyp(fd, iv, hyp_q, **kwargs)

        def counting_1d(*args, **kwargs):
            gaps.append(args)
            return real_1d(*args, **kwargs)

        monkeypatch.setattr(bounds, "check_hypothesis", counting_hyp)
        monkeypatch.setattr(bounds, "integrate_1d", counting_1d)
        fd = parse_function_id("pow:3") if declared else _hand_built("pow:3")
        evaluate_case(fd, _UNIT, q, grid_points=33)
        assert hyp_qs == scans
        assert len(gaps) == integrals

    @pytest.mark.parametrize(
        "label,a,b",
        [("ln", -1.0, -1.0), ("ln", 0.0, 0.0), ("neg_ln", 0.0, 0.0),
         ("ln", 0.0, 1.0), ("recip", 0.0, 1.0), ("pow:-1", 0.0, 1.0)],
    )
    def test_domain_checked_before_any_evaluation(self, label, a, b):
        # a degenerate interval is not reported trivially, and f' is not
        # evaluated at a boundary point (1/0 raised ZeroDivisionError)
        with pytest.raises(DomainViolation, match=f"not inside the domain of {label}"):
            evaluate_case(parse_function_id(label), Interval(a, b), 3.0)

    def test_errors_in_public_call_order(self):
        # the arguments are checked first, so their errors win over an invalid q ...
        with pytest.raises(DomainViolation):
            evaluate_case(parse_function_id("ln"), Interval(-1.0, 1.0), 0.5)
        with pytest.raises(ValueError, match="grid_points must be >= 3"):
            evaluate_case(parse_function_id("exp"), _UNIT, 0.5, grid_points=2)
        # ... and T2's report is complete before q is checked: an overflowing
        # T2 bound (e^355 squared) and a gap past the float range come first
        exp = parse_function_id("exp")
        with pytest.raises(OverflowError, match="Numerical result out of range"):
            evaluate_case(exp, Interval(355.0, 356.0), 0.5)
        with pytest.raises(NonFiniteEvaluation):
            verify_case(exp, Interval(710.0, 711.0), 0.5)
        for iv in (_UNIT, Interval(1.0, 1.0)):
            for case in (evaluate_case, verify_case):
                with pytest.raises(InvalidExponent, match="conjugate_of"):
                    case(exp, iv, 1.0)


    @pytest.mark.parametrize("iv", [_UNIT, Interval(1.0, 1.0)])
    def test_each_report_carries_its_hypothesis_exponent(self, iv):
        fd = parse_function_id("exp")
        reports = evaluate_case(fd, iv, q=3, grid_points=9)
        assert [(r.theorem, r.q) for r in reports] == [("T2", 2), ("T3", 3), ("KO", 3)]
        _, rows = verify_case(fd, iv, 3, grid_points=9)
        assert [(r.theorem, r.q) for r in rows] == [("T2", 2), ("T3", 3), ("KO", 3), ("HH", None)]


class TestIdentities:
    @pytest.mark.parametrize("lemma", ["L1", "L2"])
    @pytest.mark.parametrize(
        "label,a,b",
        [
            ("exp", -1.0, 2.0),
            ("pow:3", -2.0, 1.5),
            ("abs_pow:2.5", -1.0, 2.0),
            ("ln", 0.2, 3.0),
            ("recip", 0.5, 4.0),
        ],
    )
    def test_residual_small(self, lemma, label, a, b):
        resid = verify_identity(lemma, parse_function_id(label), Interval(a, b))
        assert resid <= 1e-8

    def test_unknown_lemma(self):
        with pytest.raises(ValueError):
            verify_identity("L3", parse_function_id("exp"), _UNIT)

    @pytest.mark.parametrize("label,a,b", [("exp", 0.0, 1.0), ("ln", -1.0, 1.0)])
    def test_unknown_lemma_rejected_before_the_domain_and_any_integral(
        self, monkeypatch, label, a, b
    ):
        calls = []
        real = bounds.integrate_1d

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bounds, "integrate_1d", counting)
        with pytest.raises(ValueError, match="lemma must be 'L1' or 'L2', got 'L3'"):
            verify_identity("L3", parse_function_id(label), Interval(a, b))
        assert calls == []

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            verify_identity("L1", parse_function_id("exp"), Interval(1.0, 1.0))

    @pytest.mark.parametrize("lemma", ["L1", "L2"])
    @pytest.mark.parametrize(
        "label,a,b", [("ln", 0.0, 1.0), ("recip", -1.0, 1.0), ("ln", -1.0, 1.0), ("ln", 0.0, 0.0)]
    )
    def test_outside_domain_raises(self, lemma, label, a, b):
        # checked before the degenerate check and before any evaluation
        with pytest.raises(DomainViolation, match=f"not inside the domain of {label}"):
            verify_identity(lemma, parse_function_id(label), Interval(a, b))
