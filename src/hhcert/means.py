"""Special means of positive reals and the derived mean inequalities.

For 0 < a <= b the toolkit uses the arithmetic mean A, the logarithmic mean
L, the identric mean I, and the p-logarithmic mean L_p.  Instantiating the
midpoint-gap bounds with power, reciprocal, and logarithm functions yields
four propositions comparing combinations of these means:

    P1:  |A(a,b)^n - L_n(a,b)^n|      vs  a quadratic-mean rhs      (needs n)
    P2:  |A(a^n,b^n) - L_n(a,b)^n|    vs  a power-mean rhs          (needs n, q)
    P3:  a log-ratio of I and A       vs  a power-mean rhs          (needs q)
    P4:  |A(a,b)^-1 - L(a,b)^-1|      vs  a power-mean rhs          (needs q)

Each rhs is a bound of the one T2/T3 evaluator in bounds: P1's is T2's bound
of x^n, and P2's, P3's and P4's are T3's bounds of x^n, ln and 1/x.

P1 and P3 each exist in two variants.  P1 as-printed applies no square root
to the mean of squared endpoint derivatives; as-derived applies the square
root that the quadratic-mean bound actually produces.  The as-printed form
is NOT a consequence of that bound and fails for some admissible pairs
(for example a=3, b=6, n=-1); it is evaluated, by its own formula, so the
discrepancy stays observable.  P3 as-printed uses the signed lhs ln(I/A),
which is never positive and makes the inequality vacuous; as-derived uses
|ln(A/I)|.

Each lhs is a signed gap of a catalog function over [a, b], declared in
closed form (see catalog): the midpoint gap mean - f(m) of x^n (P1), of ln
(P3: ln(I/A)) and of 1/x (P4: 1/L - 1/A), and the trapezoid gap of x^n (P2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import HOLDS_SLACK, _t2_bound, _t3_bound
from .catalog import finite_gap, lookup_function
from .errors import InvalidExponent, InvalidParameter, range_error

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


def _gap(name: str, params: tuple, a: float, b: float, which: int) -> float:
    """The signed midpoint (which=0) or trapezoid (which=1) gap of a catalog
    function; inf or nan where it leaves the float range."""
    return lookup_function(name, params).gaps(a, b)[which]


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


def _power(x: float, k: int) -> tuple[float, int]:
    """(r, s) with x**k = r * 2**s and r in [0.5, 1), for a float x > 0 and an integer k.

    x = m * 2**e with m in [sqrt(1/2), sqrt(2)), so x**k = m**k * 2**(e*k)
    with an exact integer e*k, and |log2 m**k| <= |k|/2.  m**k is a product
    of at most five libm powers m**j, none beyond 2**±1000, so r carries one
    rounding per power.  Past 2**±4000, m**k puts x**k at least as far out,
    where a rhs leaves the float range or does not feel it: r is then 1/2.
    """
    m, e = math.frexp(x)
    if m < math.sqrt(0.5):
        m, e = 2.0 * m, e - 1
    bits = k * math.log2(m)
    if abs(bits) > 4000.0:
        return 0.5, e * k + round(bits)
    r, s, pieces = 1.0, e * k, 1 + int(abs(bits) // 1000.0)
    for i in range(pieces):
        r, t = math.frexp(r * m ** ((i + 1) * k // pieces - i * k // pieces))
        s += t
    return r, s


def _rhs(prop: str, a: float, b: float, n, q, variant: str) -> float:
    """The rhs of prop at a < b: T2 (P1) or T3 (P2-P4) at |f'| = c x^k, or
    P1 as-printed's |n| (b-a)/sqrt(6) A(a^(2(n-1)), b^(2(n-1))).

    The bound is fed the width and the endpoint powers, each scaled by an
    exact power of two (the larger power into [0.5, 1)), and is scaled back
    once, so nothing leaves the float range unless the rhs does: a rhs too
    large for a float, or too small for any but 0, raises the range error.
    """
    c, k = (abs(n), n - 1) if prop in ("P1", "P2") else (1, -1 if prop == "P3" else -2)
    printed = prop == "P1" and variant == "as-printed"
    (ra, sa), (rb, sb) = (_power(x, 2 * k if printed else k) for x in (a, b))
    top = max(sa, sb)
    da, db = math.ldexp(ra, sa - top), math.ldexp(rb, sb - top)
    width, shift = math.frexp(b - a)
    if printed:
        rhs = c * width / math.sqrt(6.0) * ((da + db) / 2)
    elif prop == "P1":
        rhs = _t2_bound(width, c * da, c * db)
    else:
        rhs = _t3_bound(width, c * da, c * db, q)
    try:
        rhs = math.ldexp(rhs, shift + top)
    except OverflowError:
        rhs = 0.0
    if rhs == 0.0:
        raise range_error()
    return rhs


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
    if prop == "P1":
        n = _require_n(n)
        lhs = abs(_gap("pow", (n,), a, b, 0))
    elif prop == "P2":
        n, q = _require_n(n), _require_q(q)
        lhs = abs(_gap("pow", (n,), a, b, 1))
    elif prop == "P3":
        q = _require_q(q)
        lhs = _gap("ln", (), a, b, 0)
        if variant == "as-derived":
            lhs = abs(lhs)
    else:  # P4
        q = _require_q(q)
        lhs = abs(_gap("recip", (), a, b, 0))
    rhs = _rhs(prop, a, b, n, q, variant)
    lhs = finite_gap(lhs)  # after the rhs, whose range errors come first
    return PropositionReport(prop, lhs, rhs, lhs <= rhs + HOLDS_SLACK, variant)
