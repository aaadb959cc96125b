"""Catalog of differentiable test functions and their convexity hypotheses.

Each catalog entry packs an evaluator, its exact derivative, the open domain
on which both are finite, and the points where f' is not smooth.  Every entry
also declares that |f'|^q is convex on its whole domain for every q >= 1, a
fact that follows from the form of f' (see _CATALOG), so check_hypothesis
decides that hypothesis in closed form.  The sampled secant scan,
check_convexity, serves the hypotheses nothing is declared for (f itself, and
hand-built descriptors); a clean pass there is evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._ufunc import eval_elementwise
from .errors import DomainViolation, InvalidExponent, InvalidParameter, UnknownFunction

NO_VIOLATION = "no-violation-found"
VIOLATED = "violated"

# t-grid for the secant inequality; includes 1/2, the midpoint-convexity case.
_T_GRID = tuple(k / 8.0 for k in range(1, 8))
_T_HALF = _T_GRID.index(0.5)

# A scan flags a violation only when the worst secant slack is below -SCAN_TOL.
SCAN_TOL = 1e-12

# Largest accepted grid: one scan slice is MAX_GRID_POINTS**2 floats (34 MB).
MAX_GRID_POINTS = 2049


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
        return 0.5 * (self.a + self.b)

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

    ``eval`` and ``deriv`` accept scalars or numpy arrays elementwise.
    ``convex_deriv_powers`` declares that |f'|^q is convex on the whole
    domain for every q >= 1; without it check_hypothesis samples the secant
    inequality.  ``kinks`` are the points where f' is not smooth, which
    quadrature over f or f' takes as panel edges.
    """

    id: str
    parameters: tuple[float, ...]
    eval: Callable[[float], float]
    deriv: Callable[[float], float]
    domain: Domain = field(default_factory=Domain)
    convex_deriv_powers: bool = False
    kinks: tuple[float, ...] = ()

    def kinks_inside(self, lo: float, hi: float) -> tuple[float, ...]:
        """The kinks in the open interval (lo, hi)."""
        return tuple(k for k in self.kinks if lo < k < hi)

    @property
    def label(self) -> str:
        """Identifier in catalog grammar form, e.g. ``pow:3`` or ``exp``."""
        if not self.parameters:
            return self.id
        params = ",".join(f"{p:g}" for p in self.parameters)
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


def _require_integer(name: str, value: float) -> int:
    if value != int(value):
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
        eval=lambda x: x**n,
        deriv=lambda x: n * x ** (n - 1),
        domain=domain,
        # |f'|^q = |n|^q |x|^(q(n-1)): for n >= 2 a power >= 1 of |x|, for
        # n = 1 a constant, for n <= -1 a negative power of x > 0
        convex_deriv_powers=True,
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
        eval=lambda x: np.abs(x) ** r,
        deriv=lambda x: r * np.sign(x) * np.abs(x) ** (r - 1.0),
        # |f'|^q = r^q |x|^(q(r-1)), a power >= 1 of |x| since r >= 2
        convex_deriv_powers=True,
        kinks=(0.0,),
    )


def _make_simple(fid: str, ev, dv, domain: Domain):
    def build(params: Sequence[float]) -> FunctionDescriptor:
        if params:
            raise InvalidParameter(f"{fid} takes no parameters")
        return FunctionDescriptor(
            id=fid, parameters=(), eval=ev, deriv=dv, domain=domain, convex_deriv_powers=True
        )

    return build

_POSITIVE = Domain(lower=0.0)

# Every entry declares |f'|^q convex for q >= 1, by the form of |f'|^q:
_CATALOG: dict[str, Callable[[Sequence[float]], FunctionDescriptor]] = {
    "pow": _make_pow,  # see _make_pow
    "exp": _make_simple("exp", np.exp, np.exp, Domain()),  # e^(qx)
    "ln": _make_simple("ln", np.log, lambda x: 1.0 / x, _POSITIVE),  # x^(-q) on x > 0
    "recip": _make_simple(  # x^(-2q) on x > 0
        "recip", lambda x: 1.0 / x, lambda x: -1.0 / x**2, _POSITIVE),
    "neg_ln": _make_simple(  # x^(-q) on x > 0
        "neg_ln", lambda x: -np.log(x), lambda x: -1.0 / x, _POSITIVE),
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


def _check_scan_args(iv: Interval, grid_points: int) -> None:
    if iv.is_degenerate:
        raise ValueError("check_convexity requires a non-degenerate interval")
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(f"grid_points must be <= {MAX_GRID_POINTS}, got {grid_points}")


def _require_finite(values: np.ndarray, iv: Interval) -> None:
    if not np.all(np.isfinite(values)):
        raise DomainViolation(f"function not finite everywhere on [{iv.a}, {iv.b}]")


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


def check_hypothesis(
    fd: FunctionDescriptor,
    iv: Interval,
    q: float,
    grid_points: int = 257,
) -> ConvexityReport:
    """Check convexity of |f'|^q on iv, q >= 1.

    For a descriptor that declares convex_deriv_powers (every catalog entry)
    the hypothesis is proven, and the report is TRIVIAL_HYPOTHESIS once
    |f'|^q is finite at both endpoints: a convex non-negative function is
    largest at an endpoint, so it is then finite on all of iv.  Otherwise the
    report is that of check_convexity on a grid_points grid.  Either way the
    arguments are validated as for the scan, and a |f'|^q that is not finite
    raises DomainViolation.
    """
    if not (math.isfinite(q) and q >= 1.0):
        raise InvalidExponent(f"hypothesis exponent requires q >= 1, got q={q}")
    require_domain(fd, iv)

    def power_of_deriv(x):
        return np.abs(fd.deriv(x)) ** q

    if not fd.convex_deriv_powers:
        return check_convexity(power_of_deriv, iv, grid_points=grid_points)
    _check_scan_args(iv, grid_points)
    _require_finite(eval_elementwise(power_of_deriv, np.array([iv.a, iv.b])), iv)
    return TRIVIAL_HYPOTHESIS
