"""Catalog of differentiable test functions and sampled convexity checks.

Each catalog entry packs an evaluator, its exact derivative, and the open
domain on which both are finite.  The convexity checker samples the secant
inequality on a deterministic grid; a clean pass is evidence, not proof.
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
    """

    id: str
    parameters: tuple[float, ...]
    eval: Callable[[float], float]
    deriv: Callable[[float], float]
    domain: Domain = field(default_factory=Domain)

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
    )


def _make_simple(fid: str, ev, dv, domain: Domain):
    def build(params: Sequence[float]) -> FunctionDescriptor:
        if params:
            raise InvalidParameter(f"{fid} takes no parameters")
        return FunctionDescriptor(id=fid, parameters=(), eval=ev, deriv=dv, domain=domain)

    return build

_POSITIVE = Domain(lower=0.0)

_CATALOG: dict[str, Callable[[Sequence[float]], FunctionDescriptor]] = {
    "pow": _make_pow,
    "exp": _make_simple("exp", np.exp, np.exp, Domain()),
    "ln": _make_simple("ln", np.log, lambda x: 1.0 / x, _POSITIVE),
    "recip": _make_simple("recip", lambda x: 1.0 / x, lambda x: -1.0 / x**2, _POSITIVE),
    "neg_ln": _make_simple("neg_ln", lambda x: -np.log(x), lambda x: -1.0 / x, _POSITIVE),
    "abs_pow": _make_abs_pow,
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
    if iv.is_degenerate or iv.a >= iv.b:
        raise ValueError("check_convexity requires a non-degenerate interval")
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(f"grid_points must be <= {MAX_GRID_POINTS}, got {grid_points}")

    xs = np.linspace(iv.a, iv.b, grid_points)
    gx = eval_elementwise(g, xs)
    if not np.all(np.isfinite(gx)):
        raise DomainViolation(f"function not finite everywhere on [{iv.a}, {iv.b}]")

    diag = np.arange(grid_points)
    min_slack, best_k, best_flat = math.inf, 0, 0
    for k, t in enumerate(_T_GRID[: _T_HALF + 1]):
        mix = t * xs[:, None] + (1.0 - t) * xs[None, :]
        gmix = eval_elementwise(g, mix)
        if not np.all(np.isfinite(gmix)):
            raise DomainViolation(f"function not finite everywhere on [{iv.a}, {iv.b}]")
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
    """Check convexity of |f'|^q on iv for a catalog function f."""
    if not (math.isfinite(q) and q >= 1.0):
        raise InvalidExponent(f"hypothesis exponent requires q >= 1, got q={q}")
    require_domain(fd, iv)

    def power_of_deriv(x):
        with np.errstate(all="ignore"):
            return np.abs(fd.deriv(x)) ** q

    return check_convexity(power_of_deriv, iv, grid_points=grid_points)
