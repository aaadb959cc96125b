"""Catalog of differentiable test functions and their convexity hypotheses.

Each catalog entry packs an evaluator, its exact derivative, the open domain
on which both are finite, and the points where f' is not smooth.  Every entry
also declares that |f'|^q is convex on its whole domain for every q >= 1, a
fact that follows from the form of f' (see _CATALOG), so declared_hypothesis
decides that hypothesis from |f'| at the two endpoints.  The sampled secant
scan, check_convexity, serves the hypotheses nothing is declared for (f
itself, and hand-built descriptors); a clean pass there is evidence, not
proof.

Every entry also declares its signed gaps over [a, b]: the midpoint gap
mean - f(m) and the trapezoid gap (f(a)+f(b))/2 - mean, where m = (a+b)/2,
h = (b-a)/2 and mean is the integral mean of f.  They are computed without
subtracting nearly equal numbers: from the even Taylor terms of f about m
(_taylor_gaps) while h, or x = h/m, is small, and from the difference quotient
of an antiderivative beyond that.  x^n is rational in a and b for n outside
{0, -1}, so for moderate |n| its gaps are computed exactly in integers and
rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from ._ufunc import eval_elementwise, pointwise
from .errors import (
    DomainViolation,
    InvalidExponent,
    InvalidParameter,
    UnknownFunction,
    range_error,
)

if TYPE_CHECKING:
    import numpy as np

NO_VIOLATION = "no-violation-found"
VIOLATED = "violated"

# t-grid for the secant inequality; includes 1/2, the midpoint-convexity case.
_T_GRID = tuple(k / 8.0 for k in range(1, 8))
_T_HALF = _T_GRID.index(0.5)

# A scan flags a violation only when the worst secant slack is below -SCAN_TOL.
SCAN_TOL = 1e-12

# Largest accepted grid: one scan slice is MAX_GRID_POINTS**2 floats (34 MB).
MAX_GRID_POINTS = 2049

# Largest accepted sweep: every record is held until output, about 5 KB a
# case, so MAX_CASES cases take about 50 MB.
MAX_CASES = 10_000

# Declared gaps sum the Taylor series while x = h/m <= _SERIES_MAX_X (and
# r x <= _SERIES_MAX_RX for |x|^r, whose terms first grow like (r x)^k / k!),
# or for exp while h <= _SERIES_MAX_H.  Beyond these the difference quotient
# of an antiderivative loses a few ulps to cancellation: the worst relative
# error of a gap in tests/test_gaps.py is 16 eps.
_SERIES_MAX_X = 0.6
_SERIES_MAX_RX = 4.0
_SERIES_MAX_H = 2.0

# x^n's gaps are exact while |n| times the bit length of its scaled endpoints
# stays within this many bits, which keeps a case to a few milliseconds; the
# integers, and their cost, otherwise grow with |n| without bound.  Beyond it
# the gaps are summed in floats, with a relative error that grows like |n| eps.
_EXACT_POWER_BITS = 20_000


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with finite endpoints, a <= b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if self.a > self.b:
            raise ValueError(f"interval endpoints out of order: [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        """(a+b)/2, also where a + b overflows."""
        return _midpoint(self.a, self.b)

    @property
    def is_degenerate(self) -> bool:
        return self.a == self.b


@dataclass(frozen=True)
class Domain:
    """Open domain (lower, upper); infinite bounds mean the whole line."""

    lower: float = -math.inf
    upper: float = math.inf

    def contains(self, x: float) -> bool:
        return self.lower < x < self.upper

    def contains_interval(self, iv: Interval) -> bool:
        return self.lower < iv.a and iv.b < self.upper


@dataclass(frozen=True)
class FunctionDescriptor:
    """A catalog function: identifier, parameters, evaluator, derivative, domain.

    ``eval`` and ``deriv`` accept floats or numpy arrays elementwise.  A
    catalog entry's are _ufunc.pointwise formulas.  They evaluate a float in
    math, without loading numpy or warning, to the float numpy gives on it
    (e^x to within an ulp): inf, nan or 0 where a value leaves the float
    range, except that pow's x**n raises as a float power does (the range
    error, or ZeroDivisionError at 0 for n < 0), and recip's f' raises the
    range error where x*x underflows.  They evaluate an array by numpy.
    bounds evaluates a hand-built descriptor's functions through numpy, on
    floats as well.
    ``convex_deriv_powers`` declares that |f'|^q is convex on the whole
    domain for every q >= 1; without it check_hypothesis samples the secant
    inequality.  ``kinks`` are the points where f' is not smooth, which
    quadrature over f or f' takes as panel edges.  ``gaps(a, b)``, for
    a < b inside the domain, declares the signed pair (mean - f(m),
    (f(a)+f(b))/2 - mean); a value that leaves the float range is inf or nan,
    or raises OverflowError, and readers pass it through finite_gap.  Without
    it the gaps come from quadrature of f.
    """

    id: str
    parameters: tuple[float, ...]
    eval: Callable[[float], float]
    deriv: Callable[[float], float]
    domain: Domain = field(default_factory=Domain)
    convex_deriv_powers: bool = False
    kinks: tuple[float, ...] = ()
    gaps: Callable[[float, float], tuple[float, float]] | None = None

    def kinks_inside(self, lo: float, hi: float) -> tuple[float, ...]:
        """The kinks in the open interval (lo, hi)."""
        return tuple(k for k in self.kinks if lo < k < hi)

    @property
    def label(self) -> str:
        """Identifier in catalog grammar form, e.g. ``pow:3`` or ``exp``.

        Each parameter prints as ``{p:g}`` where that parses back to p, and
        otherwise as its shortest round-trip repr, so parse_function_id of a
        label rebuilds the same parameters.
        """
        if not self.parameters:
            return self.id
        params = ",".join(f"{p:g}" if float(f"{p:g}") == p else repr(p) for p in self.parameters)
        return f"{self.id}:{params}"


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of a sampled secant-inequality scan."""

    verdict: str
    worst_violation: float
    witness: tuple[float, float, float] | None
    samples: int

    @property
    def ok(self) -> bool:
        return self.verdict == NO_VIOLATION


# The report of a hypothesis decided without sampling: a declared one, or one on
# a degenerate interval, where no secant exists to sample.
TRIVIAL_HYPOTHESIS = ConvexityReport(
    verdict=NO_VIOLATION, worst_violation=0.0, witness=None, samples=0
)


def finite_gap(value: float) -> float:
    """A declared gap, checked: inf and nan mean the gap left the float range,
    which raises OverflowError(ERANGE), as an overflowing float power does."""
    if not math.isfinite(value):
        raise range_error()
    return value


def _taylor_gaps(t2: float, ratio: Callable[[int], float]) -> tuple[float, float]:
    """The signed gaps from the even Taylor terms t_k = f^(k)(m) h^k / k!, k >= 2.

    The integral mean is f(m) + sum t_k/(k+1) and (f(a)+f(b))/2 is
    f(m) + sum t_k, so the gaps are sum t_k/(k+1) and sum k t_k/(k+1).  The
    caller gives t_2 and t_(k+2)/t_k = ratio(k); the sums stop at the first
    term that changes neither, so a zero term ends a finite sum, or at the
    first sum that is not finite, which is returned.
    """
    d1 = d2 = 0.0
    t, k = t2, 2
    while True:
        n1, n2 = d1 + t / (k + 1), d2 + t * k / (k + 1)
        if (n1 == d1 and n2 == d2) or not (math.isfinite(n1) and math.isfinite(n2)):
            return n1, n2
        d1, d2, t, k = n1, n2, t * ratio(k), k + 2


def _midpoint(a: float, b: float) -> float:
    """(a+b)/2, also where a + b overflows; then a/2 and b/2 are exact."""
    s = a + b
    return 0.5 * s if math.isfinite(s) else 0.5 * a + 0.5 * b


def _log_ratio(u: float, v: float) -> float:
    """ln(u/v) for u, v > 0, also where u/v leaves the float range."""
    r = u / v
    return math.log(r) if 0.0 < r < math.inf else math.log(u) - math.log(v)


def _exp_gaps(a: float, b: float) -> tuple[float, float]:
    # e^m (sinh h/h - 1) and e^m (cosh h - sinh h/h).  e^m is taken at the exact
    # midpoint: s + err = a + b exactly (two-sum), and e^(err/2) = 1 + err/2.
    s = a + b
    if math.isfinite(s):
        bv = s - a
        err = (a - (s - bv)) + (b - bv)
        em = math.exp(0.5 * s) * (1.0 + 0.5 * err)
    else:  # e^m is out of range, or 0
        em = math.exp(_midpoint(a, b))
    h = 0.5 * (b - a)
    if h <= _SERIES_MAX_H:
        y = h * h
        return _taylor_gaps(0.5 * em * y, lambda k: y / ((k + 1) * (k + 2)))
    ea, eb = math.exp(a), math.exp(b)
    mean = (eb - ea) / (b - a)
    return mean - em, 0.5 * (ea + eb) - mean


def _ln_gaps(a: float, b: float) -> tuple[float, float]:
    # -sum x^(2j) / (2j (2j+1)) and -(atanh(x)/x - 1), x = h/m
    m = _midpoint(a, b)
    x = (b - a) / m * 0.5  # h/m, without halving a subnormal b - a
    if x <= _SERIES_MAX_X:
        y = x * x
        return _taylor_gaps(-0.5 * y, lambda k: y * k / (k + 2))
    w = (b - a) / m
    d1 = (b / m * math.log(b / m) - a / m * _log_ratio(a, m)) / w - 1.0
    return d1, 1.0 - _log_ratio(b, a) / w


def _neg_ln_gaps(a: float, b: float) -> tuple[float, float]:
    d1, d2 = _ln_gaps(a, b)
    return -d1, -d2


def _recip_gaps(a: float, b: float) -> tuple[float, float]:
    # (atanh(x)/x - 1)/m and (x^2/(1-x^2) - atanh(x)/x + 1)/m, x = h/m
    m = _midpoint(a, b)
    x = (b - a) / m * 0.5  # h/m, without halving a subnormal b - a
    if x <= _SERIES_MAX_X:
        y = x * x
        return _taylor_gaps(y / m, lambda k: y)
    mean = _log_ratio(b, a) / (b - a)
    return mean - 1.0 / m, 0.5 * (1.0 / a + 1.0 / b) - mean


def _quotient(num: int, den: int) -> float:
    """num/den rounded once, den > 0; +-inf where it leaves the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _one_sided_power_gaps(r: float, a: float, b: float) -> tuple[float, float]:
    """Gaps of x^r over 0 <= a < b, r outside {0, -1}."""
    if a == 0.0:  # the mean is b^r/(r+1), and m = b/2 may underflow to 0
        mean, br = 1.0 / (r + 1.0), b**r
        return br * (mean - 0.5**r), br * (0.5 - mean)
    m = _midpoint(a, b)
    x = (b - a) / m * 0.5  # h/m, without halving a subnormal b - a
    if x <= _SERIES_MAX_X and abs(r) * x <= _SERIES_MAX_RX:
        # t_k = m^r C(r, k) x^k, the generalized binomial series
        y = x * x
        return _taylor_gaps(m**r * r * (r - 1.0) / 2.0 * y,
                            lambda k: (r - k) * (r - k - 1.0) / ((k + 1) * (k + 2)) * y)
    # in units of c^r, c the endpoint where x^r is larger, with u = o/c
    c, o = (b, a) if r > 0.0 else (a, b)
    u = o / c
    mean = (1.0 - u ** (r + 1.0)) / ((r + 1.0) * ((c - o) / c))
    cr = c**r
    return cr * (mean - (m / c) ** r), cr * (0.5 * (1.0 + u**r) - mean)


def _float_power_gaps(n: int, a: float, b: float) -> tuple[float, float]:
    """Gaps of x^n in floats, for n outside {0, -1}."""
    if a >= 0.0:
        return _one_sided_power_gaps(float(n), a, b)
    if b <= 0.0:  # x^n = (-1)^n |x|^n
        d1, d2 = _one_sided_power_gaps(float(n), -b, -a)
        return (d1, d2) if n % 2 == 0 else (-d1, -d2)
    mean = (b ** (n + 1) - a ** (n + 1)) / ((n + 1) * (b - a))
    return mean - (0.5 * (a + b)) ** n, 0.5 * (a**n + b**n) - mean


def _power_gaps(n: int) -> Callable[[float, float], tuple[float, float]]:
    """Gaps of x^n for n outside {0, -1}, exact: the mean is
    (b^(n+1) - a^(n+1)) / ((n+1)(b-a)), rational in a and b.  Over the
    common scale q, a power of 2 with a = A/q and b = B/q, every term is an
    integer and each gap one quotient.  The integers have about |n| times the
    bit length of q, A and B; beyond _EXACT_POWER_BITS the float formulas of
    _float_power_gaps serve instead."""
    k = -n

    def gaps(a: float, b: float) -> tuple[float, float]:
        (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
        q = max(da, db)
        A, B = na * (q // da), nb * (q // db)
        if abs(n) * max(q, abs(A), abs(B)).bit_length() > _EXACT_POWER_BITS:
            return _float_power_gaps(n, a, b)
        if n > 0:
            # mean = s / (den q^n), f(m) = (A+B)^n / (2q)^n, f(a), f(b) = A^n, B^n / q^n
            s, den = B ** (n + 1) - A ** (n + 1), (n + 1) * (B - A)
            scale = den * q**n
            return (_quotient((s << n) - den * (A + B) ** n, scale << n),
                    _quotient(den * (A**n + B**n) - 2 * s, 2 * scale))
        # mean = q^k s / (den P), f(m) = q^k 2^k / (A+B)^k, f(a), f(b) = q^k / A^k, B^k
        s, den, p = B ** (k - 1) - A ** (k - 1), (k - 1) * (B - A), (A * B) ** (k - 1)
        return (_quotient(q**k * (s * (A + B) ** k - (den * p << k)), den * p * (A + B) ** k),
                _quotient(q**k * (den * (A**k + B**k) - 2 * s * A * B), 2 * den * p * A * B))

    return gaps


def _abs_pow_gaps(r: float) -> Callable[[float, float], tuple[float, float]]:
    def gaps(a: float, b: float) -> tuple[float, float]:
        if a < 0.0 < b:
            # the mean is the sum of the two positive one-sided integrals
            mean = ((-a) ** (r + 1.0) + b ** (r + 1.0)) / ((r + 1.0) * (b - a))
            return mean - abs(0.5 * (a + b)) ** r, 0.5 * ((-a) ** r + b ** r) - mean
        if b <= 0.0:  # f is even
            a, b = -b, -a
        return _one_sided_power_gaps(r, a, b)

    return gaps


def _require_integer(name: str, value: float) -> int:
    if not (math.isfinite(value) and value == int(value)):
        raise InvalidParameter(f"{name} requires an integer exponent, got {value}")
    return int(value)


def _make_pow(params: Sequence[float]) -> FunctionDescriptor:
    if len(params) != 1:
        raise InvalidParameter("pow takes exactly one parameter, the exponent n")
    n = _require_integer("pow", params[0])
    if abs(n) < 1:
        raise InvalidParameter(f"pow requires |n| >= 1, got n={n}")
    domain = Domain(lower=0.0) if n < 0 else Domain()
    return FunctionDescriptor(
        id="pow",
        parameters=(float(n),),
        eval=pointwise(lambda ops, x: x**n),
        deriv=pointwise(lambda ops, x: n * x ** (n - 1)),
        domain=domain,
        # |f'|^q = |n|^q |x|^(q(n-1)): for n >= 2 a power >= 1 of |x|, for
        # n = 1 a constant, for n <= -1 a negative power of x > 0
        convex_deriv_powers=True,
        gaps=_recip_gaps if n == -1 else _power_gaps(n),
    )


def _make_abs_pow(params: Sequence[float]) -> FunctionDescriptor:
    if len(params) != 1:
        raise InvalidParameter("abs_pow takes exactly one parameter, the exponent r")
    r = float(params[0])
    if not (math.isfinite(r) and r >= 2.0):
        raise InvalidParameter(f"abs_pow requires r >= 2, got r={r}")
    return FunctionDescriptor(
        id="abs_pow",
        parameters=(r,),
        eval=pointwise(lambda ops, x: ops.power(ops.abs(x), r)),
        deriv=pointwise(lambda ops, x: r * ops.sign(x) * ops.power(ops.abs(x), r - 1.0)),
        # |f'|^q = r^q |x|^(q(r-1)), a power >= 1 of |x| since r >= 2
        convex_deriv_powers=True,
        # for an even integer r, f' = r x^(r-1) is a polynomial, and grading
        # a panel toward a point where f' is smooth only costs levels
        kinks=() if r % 2.0 == 0.0 else (0.0,),
        gaps=_abs_pow_gaps(r),
    )


def _make_simple(fid: str, ev, dv, domain: Domain, gaps):
    def build(params: Sequence[float]) -> FunctionDescriptor:
        if params:
            raise InvalidParameter(f"{fid} takes no parameters")
        return FunctionDescriptor(id=fid, parameters=(), eval=ev, deriv=dv, domain=domain,
                                  convex_deriv_powers=True, gaps=gaps)

    return build

_POSITIVE = Domain(lower=0.0)
_EXP = pointwise(lambda ops, x: ops.exp(x))
_RECIPROCAL = pointwise(lambda ops, x: ops.reciprocal(x))

# Every entry declares |f'|^q convex for q >= 1, by the form of |f'|^q:
_CATALOG: dict[str, Callable[[Sequence[float]], FunctionDescriptor]] = {
    "pow": _make_pow,  # see _make_pow
    "exp": _make_simple("exp", _EXP, _EXP, Domain(), _exp_gaps),  # e^(qx)
    "ln": _make_simple(  # x^(-q) on x > 0
        "ln", pointwise(lambda ops, x: ops.log(x)), _RECIPROCAL, _POSITIVE, _ln_gaps),
    "recip": _make_simple(  # x^(-2q) on x > 0
        "recip", _RECIPROCAL, pointwise(lambda ops, x: -ops.inverse_square(x)), _POSITIVE,
        _recip_gaps),
    "neg_ln": _make_simple(  # x^(-q) on x > 0
        "neg_ln", pointwise(lambda ops, x: -ops.log(x)),
        pointwise(lambda ops, x: -ops.reciprocal(x)), _POSITIVE, _neg_ln_gaps),
    "abs_pow": _make_abs_pow,  # see _make_abs_pow
}


def lookup_function(name: str, params: Sequence[float] = ()) -> FunctionDescriptor:
    """Build the descriptor for a catalog function.

    Raises UnknownFunction for an id outside the catalog and InvalidParameter
    for parameters outside the entry's admissible set.
    """
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise UnknownFunction(
            f"unknown function {name!r}; available: {', '.join(sorted(_CATALOG))}"
        ) from None
    return builder(tuple(float(p) for p in params))


def parse_function_id(text: str) -> FunctionDescriptor:
    """Parse ``name`` or ``name:param1[,param2]`` into a descriptor.

    Examples: ``exp``, ``pow:3``, ``abs_pow:2.5``.
    """
    name, sep, rest = text.partition(":")
    name = name.strip()
    if not name:
        raise UnknownFunction(f"empty function id in {text!r}")
    if not sep:
        return lookup_function(name)
    try:
        params = [float(tok) for tok in rest.split(",")] if rest.strip() else []
    except ValueError:
        raise InvalidParameter(f"malformed parameter list in {text!r}") from None
    return lookup_function(name, params)


def check_grid_points(grid_points: int) -> None:
    """Raise ValueError unless 3 <= grid_points <= MAX_GRID_POINTS."""
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(f"grid_points must be <= {MAX_GRID_POINTS}, got {grid_points}")


def _check_scan_args(iv: Interval, grid_points: int) -> None:
    if iv.is_degenerate:
        raise ValueError("check_convexity requires a non-degenerate interval")
    check_grid_points(grid_points)


def _not_finite(iv: Interval) -> DomainViolation:
    return DomainViolation(f"function not finite everywhere on [{iv.a}, {iv.b}]")


def _require_finite(values: np.ndarray, iv: Interval) -> None:
    import numpy as np

    if not np.all(np.isfinite(values)):
        raise _not_finite(iv)


def check_convexity(
    g: Callable[[float], float],
    iv: Interval,
    grid_points: int = 257,
) -> ConvexityReport:
    """Scan the secant inequality g(tx+(1-t)y) <= t g(x) + (1-t) g(y) on a grid.

    Endpoints x, y run over distinct points of a uniform grid_points grid on
    [iv.a, iv.b] and t over eighths {1/8, ..., 7/8} (midpoint checks are the
    t = 1/2 slice).  Pairs with x = y are skipped: their true slack is
    identically zero, so they only measure rounding noise.  The verdict flags
    a violation only when the worst secant slack drops below -SCAN_TOL; a pass
    means no counterexample was found among the samples.

    Only the slices t <= 1/2 are evaluated, one grid_points x grid_points
    slice at a time.  Since 1 - k/8 is exact, the sample (1-t, y, x) is the
    same float sum as (t, x, y), so the slices t > 1/2 repeat these bit for
    bit and each of their minimisers has a mirror at an earlier (t, x, y)
    index: the report (including the first-found witness) is that of the
    full 7-slice scan.  grid_points is capped at MAX_GRID_POINTS.
    """
    _check_scan_args(iv, grid_points)
    import numpy as np

    if math.isinf(iv.width):
        # the grid of the halved endpoints, doubled exactly: np.linspace
        # takes b - a, which overflows here
        xs = 2.0 * np.linspace(0.5 * iv.a, 0.5 * iv.b, grid_points)
    else:
        xs = np.linspace(iv.a, iv.b, grid_points)
    gx = eval_elementwise(g, xs)
    _require_finite(gx, iv)

    diag = np.arange(grid_points)
    min_slack, best_k, best_flat = math.inf, 0, 0
    for k, t in enumerate(_T_GRID[: _T_HALF + 1]):
        mix = t * xs[:, None] + (1.0 - t) * xs[None, :]
        gmix = eval_elementwise(g, mix)
        _require_finite(gmix, iv)
        slack = t * gx[:, None] + (1.0 - t) * gx[None, :] - gmix
        slack[diag, diag] = np.inf
        flat = int(np.argmin(slack))
        if slack.flat[flat] < min_slack:
            min_slack, best_k, best_flat = float(slack.flat[flat]), k, flat
    i, j = divmod(best_flat, grid_points)
    worst = min_slack if min_slack < 0.0 else 0.0
    witness = (float(xs[i]), float(xs[j]), float(_T_GRID[best_k]))
    verdict = VIOLATED if worst < -SCAN_TOL else NO_VIOLATION
    return ConvexityReport(
        verdict=verdict,
        worst_violation=worst,
        witness=witness,
        samples=len(_T_GRID) * grid_points * (grid_points - 1),
    )


def require_domain(fd: FunctionDescriptor, iv: Interval) -> None:
    """Raise DomainViolation unless iv lies inside the open domain of fd."""
    if not fd.domain.contains_interval(iv):
        raise DomainViolation(f"[{iv.a}, {iv.b}] is not inside the domain of {fd.label}")


def declared_hypothesis(da: float, db: float, q: float, iv: Interval) -> ConvexityReport:
    """The report of a declared |f'|^q hypothesis on a non-degenerate iv, from
    the floats da = |f'(a)| and db = |f'(b)|.

    The report is TRIVIAL_HYPOTHESIS once da**q and db**q are finite: a
    convex non-negative function is largest at an endpoint, so it is then
    finite on all of iv.  Otherwise it raises DomainViolation; a power past
    the float range, inf or the OverflowError of a float power, is not finite.
    """
    try:
        finite = math.isfinite(da**q) and math.isfinite(db**q)
    except OverflowError:
        finite = False
    if not finite:
        raise _not_finite(iv)
    return TRIVIAL_HYPOTHESIS


def check_hypothesis(
    fd: FunctionDescriptor,
    iv: Interval,
    q: float,
    grid_points: int = 257,
) -> ConvexityReport:
    """Check convexity of |f'|^q on iv, q >= 1.

    For a descriptor that declares convex_deriv_powers (every catalog entry)
    the hypothesis is proven, and the report is declared_hypothesis's from
    f' at the endpoints.  Otherwise it is that of check_convexity on a
    grid_points grid.  Either way the arguments are validated as for the scan,
    and a |f'|^q that is not finite raises DomainViolation.
    """
    if not (math.isfinite(q) and q >= 1.0):
        raise InvalidExponent(f"hypothesis exponent requires q >= 1, got q={q}")
    require_domain(fd, iv)
    import numpy as np

    def power_of_deriv(x):
        return np.abs(fd.deriv(x)) ** q

    if not fd.convex_deriv_powers:
        return check_convexity(power_of_deriv, iv, grid_points=grid_points)
    _check_scan_args(iv, grid_points)
    da, db = np.abs(eval_elementwise(fd.deriv, np.array([iv.a, iv.b])))
    return declared_hypothesis(float(da), float(db), q, iv)
