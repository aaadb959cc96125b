"""Special means of positive reals and the derived mean inequalities.

For 0 < a <= b the toolkit uses the arithmetic mean A, the logarithmic mean
L, the identric mean I, and the p-logarithmic mean L_p.  Instantiating the
midpoint-gap bounds with power, reciprocal, and logarithm functions yields
four propositions comparing combinations of these means:

    P1:  |A(a,b)^n - L_n(a,b)^n|      vs  a quadratic-mean rhs      (needs n)
    P2:  |A(a^n,b^n) - L_n(a,b)^n|    vs  a power-mean rhs          (needs n, q)
    P3:  a log-ratio of I and A       vs  a power-mean rhs          (needs q)
    P4:  |A(a,b)^-1 - L(a,b)^-1|      vs  a power-mean rhs          (needs q)

P1 and P3 each exist in two variants.  P1 as-printed applies no square root
to the mean of squared endpoint derivatives; as-derived applies the square
root that the quadratic-mean bound actually produces.  The as-printed form
is NOT a consequence of that bound and fails for some admissible pairs
(for example a=3, b=6, n=-1); it is evaluated so the discrepancy stays
observable.  P3 as-printed uses the signed lhs ln(I/A), which is never
positive and makes the inequality vacuous; as-derived uses |ln(A/I)|.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .bounds import HOLDS_SLACK, theorem3_constant
from .errors import InvalidExponent, InvalidParameter

VARIANTS = ("as-printed", "as-derived")


@dataclass(frozen=True)
class MeanPair:
    """Pair of strictly positive reals."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and self.b > 0.0 and math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"mean pair must be strictly positive and finite, got ({self.a}, {self.b})")


@dataclass(frozen=True)
class PropositionReport:
    """One proposition evaluation: lhs <= rhs up to slack."""

    proposition: str
    lhs: float
    rhs: float
    holds: bool
    variant: str


def mean_arithmetic(mp: MeanPair) -> float:
    """A(a, b) = (a + b) / 2."""
    return 0.5 * (mp.a + mp.b)


def _ordered(mp: MeanPair) -> tuple[float, float]:
    return (mp.a, mp.b) if mp.a <= mp.b else (mp.b, mp.a)


def _near_ratio(a: float, b: float) -> float | None:
    """x = (b - a)/a for a < b <= 2a, else None.

    On that range b - a is exact (Sterbenz) and x carries one rounding, so
    log1p(x) and expm1 keep the relative accuracy that ln b - ln a and
    b^r - a^r lose to cancellation as b -> a.  Wider ratios keep the direct
    difference quotients: there x can overflow and its forms return nan.
    """
    return (b - a) / a if b <= 2.0 * a else None


def _within(value: float, a: float, b: float) -> float:
    """Clamp a mean of a <= b into [a, b], where every mean lies."""
    return min(max(value, a), b)


def mean_logarithmic(mp: MeanPair) -> float:
    """L(a, b) = (b - a) / (ln b - ln a); equals a when a = b."""
    a, b = _ordered(mp)
    if a == b:
        return a
    x = _near_ratio(a, b)
    if x is not None:
        return _within((b - a) / math.log1p(x), a, b)
    return (b - a) / (math.log(b) - math.log(a))


def mean_identric(mp: MeanPair) -> float:
    """I(a, b) = (1/e) (b^b / a^a)^(1/(b-a)), evaluated in log space."""
    a, b = _ordered(mp)
    if a == b:
        return a
    x = _near_ratio(a, b)
    if x is not None:
        # ln(I/a) = (1+x) ln(1+x) / x - 1
        return _within(a * math.exp((1.0 + x) * math.log1p(x) / x - 1.0), a, b)
    return math.exp((b * math.log(b) - a * math.log(a)) / (b - a) - 1.0)


def mean_p_logarithmic(mp: MeanPair, p: float) -> float:
    """L_p(a, b) = [(b^(p+1) - a^(p+1)) / ((p+1)(b-a))]^(1/p), p not in {-1, 0}."""
    if not math.isfinite(p) or p == -1.0 or p == 0.0:
        raise InvalidExponent(f"p-logarithmic mean undefined for p={p}")
    a, b = _ordered(mp)
    if a == b:
        return a
    x = _near_ratio(a, b)
    if x is not None:
        # (L_p/a)^p = ((1+x)^(p+1) - 1) / ((p+1) x)
        ratio = math.expm1((p + 1.0) * math.log1p(x)) / ((p + 1.0) * x)
        return _within(a * ratio ** (1.0 / p), a, b)
    return ((b ** (p + 1.0) - a ** (p + 1.0)) / ((p + 1.0) * (b - a))) ** (1.0 / p)


def _avg(x: float, y: float) -> float:
    return 0.5 * (x + y)


def _power_integral_mean(a: float, b: float, n: int) -> float:
    """Mean value of x^n over [a, b]; equals L_n(a,b)^n for n outside {-1, 0}."""
    x = _near_ratio(a, b)
    if x is None:
        if n == -1:
            return (math.log(b) - math.log(a)) / (b - a)
        return (b ** (n + 1) - a ** (n + 1)) / ((n + 1) * (b - a))
    if n == -1:
        return math.log1p(x) / (b - a)
    return a**n * (math.expm1((n + 1) * math.log1p(x)) / ((n + 1) * x))


def _require_n(n) -> int:
    if n is None:
        raise InvalidParameter("this proposition requires the exponent n")
    if not math.isfinite(n) or n != int(n):
        raise InvalidParameter(f"n must be an integer, got {n}")
    n = int(n)
    if abs(n) < 1:
        raise InvalidParameter(f"n requires |n| >= 1, got {n}")
    return n


def _require_q(q) -> float:
    if q is None:
        raise InvalidParameter("this proposition requires the exponent q")
    if not (math.isfinite(q) and q > 1.0):
        raise InvalidExponent(f"propositions require q > 1, got q={q}")
    return float(q)


def _direct_rhs(prop: str, a: float, b: float, n, q, norm, variant: str) -> float:
    width = b - a
    if prop == "P1":
        base = _avg(a ** (2 * (n - 1)), b ** (2 * (n - 1)))
        if variant == "as-derived":
            base = math.sqrt(base)
        return abs(n) * width / math.sqrt(6.0) * base
    if prop == "P2":
        return abs(n) * width * norm * _avg(a ** (q * (n - 1)), b ** (q * (n - 1))) ** (1.0 / q)
    if prop == "P3":
        return width / (a * b) * norm * _avg(b**q, a**q) ** (1.0 / q)
    return width / (a * b) ** 2 * norm * _avg(a ** (2.0 * q), b ** (2.0 * q)) ** (1.0 / q)


def _rhs(prop: str, a: float, b: float, n, q, norm, variant: str) -> float:
    """The rhs of prop at a < b, in its direct form wherever that is a normal float.

    Where the direct form underflows (a**(2q) is 0 at a = 1e-60, q = 3),
    overflows or divides by an underflowed (a*b)**2, b's binary exponent k is
    factored out instead: the rhs is homogeneous in (a, b), of degree n (P1
    as-derived, P2), 2n - 1 (P1 as-printed), 0 (P3) or -1 (P4), so it is the
    rhs at (a, b) / 2^k, an exact scaling, times 2^(k * degree).
    """
    try:
        rhs = _direct_rhs(prop, a, b, n, q, norm, variant)
    except ZeroDivisionError:
        rhs = 0.0
    if sys.float_info.min <= rhs < math.inf:
        return rhs
    if prop == "P1":
        degree = n if variant == "as-derived" else 2 * n - 1
    else:
        degree = {"P2": n, "P3": 0, "P4": -1}[prop]
    k = math.frexp(b)[1]
    scaled = _direct_rhs(prop, math.ldexp(a, -k), math.ldexp(b, -k), n, q, norm, variant)
    return math.ldexp(scaled, k * degree)


def check_proposition(
    prop: str,
    mp: MeanPair,
    n: int | None = None,
    q: float | None = None,
    variant: str = "as-derived",
) -> PropositionReport:
    """Evaluate one of P1..P4 on a pair with a < b (a = b degenerates to 0 <= 0).

    ``variant`` selects the formula variant for P1 and P3; for P2 and P4 the
    printed and derived forms coincide and the flag only tags the report.
    """
    if prop not in ("P1", "P2", "P3", "P4"):
        raise ValueError(f"unknown proposition {prop!r}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if mp.a > mp.b:
        raise ValueError(f"propositions require a <= b, got ({mp.a}, {mp.b})")
    if mp.a == mp.b:
        return PropositionReport(prop, 0.0, 0.0, True, variant)

    a, b = mp.a, mp.b
    A = mean_arithmetic(mp)
    norm = None
    if prop == "P1":
        n = _require_n(n)
        lhs = abs(A**n - _power_integral_mean(a, b, n))
    elif prop == "P2":
        n = _require_n(n)
        q = _require_q(q)
        norm = theorem3_constant(q)
        lhs = abs(_avg(a**n, b**n) - _power_integral_mean(a, b, n))
    elif prop == "P3":
        q = _require_q(q)
        norm = theorem3_constant(q)
        ident = mean_identric(mp)
        lhs = math.log(ident / A) if variant == "as-printed" else abs(math.log(A / ident))
    else:  # P4
        q = _require_q(q)
        norm = theorem3_constant(q)
        lhs = abs(1.0 / A - 1.0 / mean_logarithmic(mp))
    rhs = _rhs(prop, a, b, n, q, norm, variant)
    return PropositionReport(prop, lhs, rhs, lhs <= rhs + HOLDS_SLACK, variant)
