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

Each lhs is a signed gap of a catalog function over [a, b], declared in
closed form (see catalog): the midpoint gap mean - f(m) of x^n (P1), of ln
(P3: ln(I/A)) and of 1/x (P4: 1/L - 1/A), and the trapezoid gap of x^n (P2).
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from decimal import Decimal

from .bounds import HOLDS_SLACK, theorem3_constant
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


def _avg(x, y):
    return (x + y) / 2


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


def _power_mean(x, y, k: int, q):
    """The power mean A(x^(kq), y^(kq))^(1/q), directly."""
    return _avg(x ** (k * q), y ** (k * q)) ** (1 / q)


def _scaled_power_mean(x, y, k: int, q):
    """_power_mean with the base of the larger power, w, factored out:
    w^k A((x/w)^(kq), (y/w)^(kq))^(1/q).  Neither power exceeds 1 and one is
    1, so for any q neither overflows, and their mean is at least 1/2."""
    w = max(x, y) if k > 0 else min(x, y)
    return w**k * _avg((x / w) ** (k * q), (y / w) ** (k * q)) ** (1 / q)


def _direct_rhs(prop: str, a, b, n, q, norm, variant: str, sqrt=math.sqrt, pmean=_power_mean):
    """The rhs of prop, in floats or, given Decimal a, b, q and norm, in Decimals."""
    width = b - a
    if prop == "P1":
        base = _avg(a ** (2 * (n - 1)), b ** (2 * (n - 1)))
        if variant == "as-derived":
            base = sqrt(base)
        return abs(n) * width / sqrt(6.0) * base
    if prop == "P2":
        return abs(n) * width * norm * pmean(a, b, n - 1, q)
    if prop == "P3":
        return width / (a * b) * norm * pmean(b, a, 1, q)
    return width / (a * b) ** 2 * norm * pmean(a, b, 2, q)


# Wide enough that no power of a float pair leaves the exponent range; any
# that still would gives an infinity or NaN instead of raising.
_WIDE = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[])


def _rhs(prop: str, a: float, b: float, n, q, norm, variant: str) -> float:
    """The rhs of prop at a < b, in its direct form wherever that is a normal float.

    Where the direct form underflows (a**(2q) is 0 at a = 1e-60, q = 3),
    overflows or divides by an underflowed (a*b)**2, the formula is evaluated
    in 40-digit decimals, whose exponent range holds every power of a float
    pair, and rounded once; there each power mean of P2-P4 factors out the
    base of its larger power, so a q as large as 1e300 stays in range.  A
    rhs beyond the float range, too large for a float or too small for any
    but 0, raises the range error a float power raises.
    """
    try:
        rhs = _direct_rhs(prop, a, b, n, q, norm, variant)
    except (ZeroDivisionError, OverflowError):
        rhs = math.nan
    if sys.float_info.min <= rhs < math.inf:
        return rhs
    with decimal.localcontext(_WIDE):
        rhs = float(_direct_rhs(
            prop, Decimal(a), Decimal(b), n, None if q is None else Decimal(q),
            None if norm is None else Decimal(norm), variant, sqrt=lambda x: Decimal(x).sqrt(),
            pmean=_scaled_power_mean,
        ))
    if not 0.0 < rhs < math.inf:
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
    norm = None
    if prop == "P1":
        n = _require_n(n)
        lhs = abs(_gap("pow", (n,), a, b, 0))
    elif prop == "P2":
        n = _require_n(n)
        q = _require_q(q)
        norm = theorem3_constant(q)
        lhs = abs(_gap("pow", (n,), a, b, 1))
    elif prop == "P3":
        q = _require_q(q)
        norm = theorem3_constant(q)
        lhs = _gap("ln", (), a, b, 0)
        if variant == "as-derived":
            lhs = abs(lhs)
    else:  # P4
        q = _require_q(q)
        norm = theorem3_constant(q)
        lhs = abs(_gap("recip", (), a, b, 0))
    rhs = _rhs(prop, a, b, n, q, norm, variant)
    lhs = finite_gap(lhs)  # after the rhs, whose range errors come first
    return PropositionReport(prop, lhs, rhs, lhs <= rhs + HOLDS_SLACK, variant)
