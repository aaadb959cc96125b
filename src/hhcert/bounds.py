"""Midpoint-rule error bounds for functions with convex derivative powers.

The quantity of interest is the midpoint gap

    gap(f, [a,b]) = | f((a+b)/2) - (1/(b-a)) * integral_a^b f |.

Three bounds on the gap are evaluated from the endpoint derivative magnitudes
alone, each valid when |f'|^q is convex on [a, b] for its exponent:

    T2:  ((b-a)/sqrt(6)) * sqrt((|f'(a)|^2 + |f'(b)|^2) / 2)          (q = 2)
    T3:  (b-a) * (2/((p+1)(p+2)))^(1/p)
             * ((|f'(a)|^q + |f'(b)|^q) / 2)^(1/q),   1/p + 1/q = 1  (q > 1)
    KO:  (3^(1-1/q) / 8) * (b-a) * (|f'(a)| + |f'(b)|)               (q > 1)

T3 at q = 2 coincides with T2.  _t2_bound and _t3_bound, which evaluate T2
and T3 from (b-a, |f'(a)|, |f'(b)|, q), are the one evaluator of both: the
special-means propositions of means read them too.  Their power mean factors
out max(|f'(a)|, |f'(b)|) where a power would leave the float range.  A case
is evaluated whole: evaluate_case gives its T2, T3 and KO reports, and
verify_case adds the Hermite-Hadamard sandwich f(m) <= mean <= (f(a)+f(b))/2
and its HH report, whose hypothesis (f convex) is always sampled.  Both
share one private evaluator, which reads the gap and the endpoint
derivatives once and decides each report's hypothesis once per distinct
exponent: from those two derivatives, by catalog.declared_hypothesis, for
catalog functions, and by the sampled scan of catalog.check_hypothesis for
hand-built descriptors.  A bound is reported even when its hypothesis fails,
since the gap/bound comparison is still informative.  A case evaluates f and
f' at single points as plain floats: a catalog function in math, so that
evaluate_case loads no numpy, and a hand-built one through eval_elementwise,
which silences numpy's warnings; node arrays, of an integral or a scan, go
through eval_elementwise too.

_case_values owns a case's f(m) and its signed gaps d1 = mean - f(m) and
d2 = (f(a)+f(b))/2 - mean, which every gap, sandwich and identity reads.
Catalog functions declare the gaps in closed form, so they integrate nothing
for them, unless a gap leaves the float range: then the integral of f runs
only to raise its error.  A hand-built descriptor gets one integral of f,
split at the midpoint and the kinks of f'; integrals of f' are split at the
kinks too.

Two exact integral identities back the bounds and are checkable numerically:
L1 expresses the signed gap through two weighted integrals of f' and L2
through a double integral of f' differences against kernel differences.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._ufunc import eval_elementwise
from .catalog import (
    TRIVIAL_HYPOTHESIS,
    ConvexityReport,
    FunctionDescriptor,
    Interval,
    _midpoint,
    check_convexity,
    check_grid_points,
    check_hypothesis,
    declared_hypothesis,
    finite_gap,
    require_domain,
)
from .errors import InvalidExponent
from .kernel import kernel_m, kernel_p_norm
from .quadrature import check_tol, graded_map, integrate_1d, integrate_2d

HOLDS_SLACK = 1e-12
ORDER_SLACK = 1e-10


@dataclass(frozen=True)
class ConjugatePair:
    """Holder-conjugate exponents with 1/p + 1/q = 1.

    p may be 1.0: the conjugate of a q of about 1e16 or more, where q/(q-1)
    rounds to 1; the residual check then holds for every q >= 1e14.
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (self.p >= 1.0 and self.q > 1.0):
            raise InvalidExponent(
                f"conjugate exponents need p >= 1 and q > 1, got p={self.p}, q={self.q}")
        resid = abs(1.0 / self.p + 1.0 / self.q - 1.0)
        if resid > 1e-14:
            raise InvalidExponent(
                f"1/p + 1/q = 1 violated by {resid:.3g} for p={self.p}, q={self.q}"
            )


def conjugate_of(q: float) -> ConjugatePair:
    """Conjugate pair for a given q > 1, p = q/(q-1)."""
    if not (math.isfinite(q) and q > 1.0):
        raise InvalidExponent(f"conjugate_of requires q > 1, got q={q}")
    return ConjugatePair(p=q / (q - 1.0), q=q)


def theorem3_constant(q: float) -> float:
    """T3's constant kernel_p_norm(p) at the conjugate p of q > 1; P2-P4 use it too."""
    return kernel_p_norm(conjugate_of(q).p)


@dataclass(frozen=True)
class BoundReport:
    """One gap-versus-bound comparison; q is the exponent of the hypothesis
    |f'|^q convex (2 for T2), None for HH, whose hypothesis is f convex."""

    gap: float
    bound: float
    ratio: float
    theorem: str
    q: float | None
    hypothesis: ConvexityReport
    holds: bool


@dataclass(frozen=True)
class SandwichReport:
    """Midpoint value, integral mean, and endpoint average, with ordering."""

    lower: float
    middle: float
    upper: float
    ordered: bool


def _at(g, x: float) -> float:
    """g(x) as a float.

    A catalog f or f' (a _ufunc.pointwise formula, g.float_path) computes it
    in math, with no numpy.  Any other g goes through eval_elementwise, which
    imports numpy and silences its warnings: g gets the float x itself, and a
    g that is not float-aware (one that raises TypeError or ValueError) is
    retried by its scalar loop.
    """
    if getattr(g, "float_path", False):
        return g(x)
    return float(eval_elementwise(g, x))


def _case_values(
    fd: FunctionDescriptor, iv: Interval, tol: float
) -> tuple[float, float, float, float | None]:
    """(f(m), mean, d1, d2) over a non-degenerate iv, d1 = mean - f(m) and
    d2 = (f(a)+f(b))/2 - mean: the one owner of a case's gaps.

    A descriptor that declares gaps gives d1 and d2 in closed form, and the
    mean is f(m) + d1.  Otherwise one integral of f, pre-split at the midpoint
    and at the kinks of f', gives the mean, d1 is mean - f(m), and d2 is None:
    the sandwich takes it from f(a) and f(b).  A d1 or mean out of the float
    range raises OverflowError.  Where a declared gap leaves the range, the
    integral of f runs first, and its error, which names the node where f
    left the range, is the one raised.
    """
    if fd.gaps is not None:
        try:
            d1, d2 = fd.gaps(iv.a, iv.b)
            f_mid = _at(fd.eval, iv.midpoint)
            return f_mid, finite_gap(f_mid + finite_gap(d1)), d1, d2
        except OverflowError:
            _integral_mean(fd, iv, tol)
            raise
    mean = _integral_mean(fd, iv, tol)
    f_mid = _at(fd.eval, iv.midpoint)
    return f_mid, mean, mean - f_mid, None


def _integral_mean(fd: FunctionDescriptor, iv: Interval, tol: float) -> float:
    """The integral mean of f over a non-degenerate iv, from one integral
    pre-split at the midpoint and at the kinks of f', and graded toward them."""
    breakpoints = (iv.midpoint, *fd.kinks_inside(iv.a, iv.b))
    f = _graded(fd.eval, (iv.a, *breakpoints, iv.b), _kinks_on(fd, iv.a, iv.b))
    return integrate_1d(f, iv, tol, breakpoints=breakpoints).value / iv.width


def _kinks_on(fd: FunctionDescriptor, a: float, b: float) -> tuple[float, ...]:
    """The kinks of f' in the closed [a, b]: at an end of the range as well
    as inside it, an integral's panel ends there."""
    return tuple(k for k in fd.kinks if a <= k <= b)


def _graded(g, edges, toward):
    """g(x(u)) dx/du for the quadrature.graded_map of the panels between edges
    toward the points toward, or g itself when no panel ends at one of them.

    Near a kink k of abs_pow:r, f behaves like |x - k|^r and f' like
    |x - k|^(r-1), whose higher derivatives are unbounded for a non-integer
    r, and the embedded estimate of a panel that ends at k can under-report;
    graded, |x - k|^c becomes a multiple of w^(2c+1).
    """
    if not set(edges) & set(toward):
        return g
    phi = graded_map(edges, toward)

    def mapped(u):
        x, dx = phi(u)
        return g(x) * dx

    return mapped


def _sandwich(fd: FunctionDescriptor, iv: Interval, values) -> tuple[SandwichReport, float]:
    """The sandwich from values = _case_values(...), and its worst ordering
    violation max(-d1, -d2, 0), which decides ordered; all three values are
    f(a) when values is None.  The upper value (f(a)+f(b))/2 is halved first
    where f(a) + f(b) overflows."""
    fa = _at(fd.eval, iv.a)
    if values is None:
        return SandwichReport(lower=fa, middle=fa, upper=fa, ordered=True), 0.0
    lower, middle, d1, d2 = values
    upper = _midpoint(fa, _at(fd.eval, iv.b))
    # 0.0 first: max keeps the first of equal values, and -d1 is -0.0 when f is affine
    violation = max(0.0, -d1, -(upper - middle if d2 is None else finite_gap(d2)))
    sandwich = SandwichReport(lower=lower, middle=middle, upper=upper,
                              ordered=violation <= ORDER_SLACK)
    return sandwich, violation


def _ratio(gap: float, bound: float) -> float:
    if bound > 0.0:
        return gap / bound
    return math.nan if gap == 0.0 else math.inf


def _power_mean(da: float, db: float, q: float, root) -> float:
    """root(0.5 * (da**q + db**q)), root being the q-th root.

    Where a power overflows (a float ** raises OverflowError) or the sum
    leaves the normal range, although max(da, db) is positive and finite,
    max(da, db) is factored out first; every other sum keeps its bits.
    """
    m = max(da, db)
    try:
        total = da**q + db**q
    except OverflowError:
        total = math.inf
    if not (sys.float_info.min <= total < math.inf) and 0.0 < m < math.inf:
        return m * root(0.5 * ((da / m) ** q + (db / m) ** q))
    return root(0.5 * total)


def _t2_bound(width: float, da: float, db: float) -> float:
    """T2's bound from the width and the endpoint derivative magnitudes."""
    return width / math.sqrt(6.0) * _power_mean(da, db, 2, math.sqrt)


def _t3_bound(width: float, da: float, db: float, q: float) -> float:
    """T3's bound from the width and the endpoint derivative magnitudes; an
    invalid q raises theorem3_constant's error, also on a zero width."""
    return width * theorem3_constant(q) * _power_mean(da, db, q, lambda s: s ** (1.0 / q))


def _report(
    fd: FunctionDescriptor, iv: Interval, q: float, tol: float, grid_points: int
) -> tuple[tuple | None, tuple[BoundReport, BoundReport, BoundReport]]:
    """The case values of _case_values (None on a degenerate iv) and the T2,
    T3 and KO reports, T2's hypothesis at q = 2 and the others' at q.

    The domain, tol and grid_points are checked first, before any evaluation.
    The endpoint derivatives and the case values are evaluated once, and the
    hypothesis decided once per distinct exponent in {2, q}: a declared one
    from the two endpoint derivatives, any other by the sampled scan.  T2's
    report is complete before q is checked, so an error of T2's bound, of the
    case values or of the q = 2 hypothesis comes before an invalid q.
    """
    require_domain(fd, iv)
    check_tol(tol)
    check_grid_points(grid_points)
    degenerate = iv.is_degenerate
    da = db = 0.0  # a degenerate interval: zero bounds and gap, f and f' unevaluated
    if not degenerate:
        da, db = abs(_at(fd.deriv, iv.a)), abs(_at(fd.deriv, iv.b))
    # every bound is linear in the width; past the float maximum b - a
    # overflows, and the bound comes from the half-width, doubled
    scale, width = (1.0, iv.width) if math.isfinite(iv.width) else (2.0, 0.5 * iv.b - 0.5 * iv.a)

    def hypothesis(hyp_q: float) -> ConvexityReport:
        if degenerate:
            return TRIVIAL_HYPOTHESIS
        if fd.convex_deriv_powers:
            return declared_hypothesis(da, db, hyp_q, iv)
        return check_hypothesis(fd, iv, hyp_q, grid_points=grid_points)

    def report(theorem: str, bound: float, hyp_q: float, hyp: ConvexityReport) -> BoundReport:
        return BoundReport(gap=gap, bound=bound, ratio=_ratio(gap, bound), theorem=theorem,
                           q=hyp_q, hypothesis=hyp, holds=gap <= bound + HOLDS_SLACK)

    t2_bound = scale * _t2_bound(width, da, db)
    values = None if degenerate else _case_values(fd, iv, tol)
    gap = 0.0 if values is None else abs(values[2])
    hyp_2 = hypothesis(2.0)
    t2 = report("T2", t2_bound, 2.0, hyp_2)
    t3_bound = scale * _t3_bound(width, da, db, q)
    hyp_q = hyp_2 if q == 2.0 else hypothesis(q)
    ko_bound = scale * (3.0 ** (1.0 - 1.0 / q) / 8.0 * width * (da + db))
    return values, (t2, report("T3", t3_bound, q, hyp_q), report("KO", ko_bound, q, hyp_q))


def evaluate_case(
    fd: FunctionDescriptor,
    iv: Interval,
    q: float,
    tol: float = 1e-10,
    grid_points: int = 257,
) -> tuple[BoundReport, BoundReport, BoundReport]:
    """The T2, T3 and KO reports of one case.

    The gap and the endpoint derivatives are evaluated once, and the
    convexity of |f'|^q is decided once per distinct exponent in {2, q}.
    The domain, tol and grid_points are checked before any evaluation, and
    an invalid q (not > 1) is reported only after the T2 report succeeds.
    """
    return _report(fd, iv, q, tol, grid_points)[1]


def verify_case(
    fd: FunctionDescriptor,
    iv: Interval,
    q: float,
    tol: float = 1e-10,
    grid_points: int = 257,
) -> tuple[SandwichReport, tuple[BoundReport, ...]]:
    """The sandwich of one case and its T2, T3, KO and HH reports, from one set of case values.

    The first three are evaluate_case's, errors included.  HH's hypothesis is the
    sampled convexity scan of f (trivial on a degenerate interval), its gap the worst
    ordering violation max(-d1, -d2, 0), and its bound ORDER_SLACK, so its holds is
    the sandwich's ordered.  On a degenerate interval the sandwich's three values
    are f(a), and it is ordered.
    """
    values, reports = _report(fd, iv, q, tol, grid_points)
    sandwich, gap = _sandwich(fd, iv, values)
    convexity = TRIVIAL_HYPOTHESIS if iv.is_degenerate else check_convexity(fd.eval, iv, grid_points)
    hh = BoundReport(gap=gap, bound=ORDER_SLACK, ratio=gap / ORDER_SLACK, theorem="HH", q=None,
                     hypothesis=convexity, holds=sandwich.ordered)
    return sandwich, (*reports, hh)


def _lemma2_integrand(fd: FunctionDescriptor, x_of, phi=None):
    """(f'(x(t)) - f'(x(s))) (m(s) - m(t)), the Lemma 2 integrand for integrate_2d.

    t and s are integrate_2d's node vectors, which broadcast to its tensor
    nodes: fd.deriv and kernel_m take each axis's nodes once, and the
    differences broadcast.  With phi, a quadrature.graded_map, both axes are
    mapped by it and the integrand takes both Jacobians.
    """

    def integrand(t, s):
        if phi is not None:
            (t, dt), (s, ds) = phi(t), phi(s)
        value = (fd.deriv(x_of(t)) - fd.deriv(x_of(s))) * (kernel_m(s) - kernel_m(t))
        return value if phi is None else value * (dt * ds)

    return integrand


def verify_identity(
    lemma: str,
    fd: FunctionDescriptor,
    iv: Interval,
    tol: float = 1e-10,
) -> float:
    """Numerically confirm an exact integral identity; returns |lhs - rhs|.

    ``lemma`` selects the identity.  "L1": the integral mean minus the
    midpoint value equals (b-a) times two weighted integrals of f' over the
    unit parameter with weights t and t-1.  "L2": the midpoint value minus
    the integral mean equals ((b-a)/2) times the double integral of
    (f'(x(t)) - f'(x(s))) (m(s) - m(t)) over the unit square, where
    x(u) = u a + (1-u) b.  Both double/weighted integrals are pre-split at
    the kernel break, and every integral at the kinks of f': a kink k is
    t = (b-k)/(b-a) on the unit parameter.  The lhs is the case's signed
    midpoint gap (closed form for catalog functions), and the residual
    carries quadrature noise of order tol.
    iv must lie inside fd's domain.  An unknown lemma is rejected before iv.
    """
    if lemma not in ("L1", "L2"):
        raise ValueError(f"lemma must be 'L1' or 'L2', got {lemma!r}")
    require_domain(fd, iv)
    if iv.is_degenerate:
        raise ValueError("identity check requires a non-degenerate interval")
    a, b = iv.a, iv.b
    d1 = _case_values(fd, iv, tol)[2]
    graded_t = tuple((b - k) / (b - a) for k in _kinks_on(fd, a, b))
    kinks_t = tuple(t for t in graded_t if 0.0 < t < 1.0)

    def x_of(u):
        return u * a + (1.0 - u) * b

    if lemma == "L1":
        def half(lo, hi, weight):
            inside = tuple(t for t in kinks_t if lo < t < hi)
            g = _graded(lambda t: weight(t) * fd.deriv(x_of(t)), (lo, *inside, hi), graded_t)
            return integrate_1d(g, Interval(lo, hi), tol, breakpoints=inside).value

        left = half(0.0, 0.5, lambda t: t)
        right = half(0.5, 1.0, lambda t: t - 1.0)
        return abs(d1 - iv.width * (left + right))
    edges = (0.5, *kinks_t)
    phi = graded_map((0.0, *edges, 1.0), graded_t) if graded_t else None
    dbl = integrate_2d(_lemma2_integrand(fd, x_of, phi), tol, breakpoints=edges)
    return abs(-d1 - 0.5 * iv.width * dbl.value)
