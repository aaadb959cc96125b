"""Midpoint-rule error bounds for functions with convex derivative powers.

The quantity of interest is the midpoint gap

    gap(f, [a,b]) = | f((a+b)/2) - (1/(b-a)) * integral_a^b f |.

Three bounds on the gap are evaluated from the endpoint derivative magnitudes
alone, each valid when |f'|^q is convex on [a, b] for its exponent:

    T2:  ((b-a)/sqrt(6)) * sqrt((|f'(a)|^2 + |f'(b)|^2) / 2)          (q = 2)
    T3:  (b-a) * (2/((p+1)(p+2)))^(1/p)
             * ((|f'(a)|^q + |f'(b)|^q) / 2)^(1/q),   1/p + 1/q = 1  (q > 1)
    KO:  (3^(1-1/q) / 8) * (b-a) * (|f'(a)| + |f'(b)|)               (q > 1)

T3 at q = 2 coincides with T2.  Each evaluator also checks its hypothesis
with catalog.check_hypothesis, which decides it in closed form for catalog
functions and samples it for hand-built descriptors, and reports the verdict
alongside the bound; a bound is computed even when the hypothesis check
fails, since the gap/bound comparison is still informative.  evaluate_case
gives all three reports of one case and shares the gap and the hypothesis
checks between them, and verify_case adds the Hermite-Hadamard sandwich and
its report, whose hypothesis (f convex) is always sampled.

One integral of f per case, split at the midpoint and the kinks of f', feeds
every gap, sandwich and identity; integrals of f' are split at the kinks too.

Two exact integral identities back the bounds and are checkable numerically:
L1 expresses the signed gap through two weighted integrals of f' and L2
through a double integral of f' differences against kernel differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ufunc import eval_elementwise
from .catalog import (
    TRIVIAL_HYPOTHESIS,
    ConvexityReport,
    FunctionDescriptor,
    Interval,
    check_convexity,
    check_grid_points,
    check_hypothesis,
    require_domain,
)
from .errors import InvalidExponent
from .kernel import kernel_m, kernel_p_norm
from .quadrature import check_tol, integrate_1d, integrate_2d

HOLDS_SLACK = 1e-12
ORDER_SLACK = 1e-10


@dataclass(frozen=True)
class ConjugatePair:
    """Holder-conjugate exponents with 1/p + 1/q = 1."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (self.p > 1.0 and self.q > 1.0):
            raise InvalidExponent(f"conjugate exponents must exceed 1, got p={self.p}, q={self.q}")
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


def _f_mid_and_mean(fd: FunctionDescriptor, iv: Interval, tol: float) -> tuple[float, float]:
    """f(m) and the integral mean of f over a non-degenerate iv: the one integral of f
    per case, pre-split at the midpoint and at the kinks of f'."""
    kinks = fd.kinks_inside(iv.a, iv.b)
    integral = integrate_1d(fd.eval, iv, tol, breakpoints=(iv.midpoint, *kinks))
    return float(eval_elementwise(fd.eval, iv.midpoint)), integral.value / iv.width


def midpoint_gap(fd: FunctionDescriptor, iv: Interval, tol: float = 1e-10) -> float:
    """Absolute midpoint-rule error |f(m) - mean| of fd over iv.

    A degenerate interval gives exactly zero.  iv must lie inside fd's domain.
    """
    require_domain(fd, iv)
    if iv.is_degenerate:
        return 0.0
    f_mid, mean = _f_mid_and_mean(fd, iv, tol)
    return abs(f_mid - mean)


def _sandwich(fd: FunctionDescriptor, iv: Interval, values) -> SandwichReport:
    """The sandwich from values = (f(m), mean); all three are f(a) when values is None."""
    fa = float(eval_elementwise(fd.eval, iv.a))
    if values is None:
        return SandwichReport(lower=fa, middle=fa, upper=fa, ordered=True)
    lower, middle = values
    upper = 0.5 * (fa + float(eval_elementwise(fd.eval, iv.b)))
    ordered = lower <= middle + ORDER_SLACK and middle <= upper + ORDER_SLACK
    return SandwichReport(lower=lower, middle=middle, upper=upper, ordered=ordered)


def hh_sandwich(fd: FunctionDescriptor, iv: Interval, tol: float = 1e-10) -> SandwichReport:
    """Evaluate midpoint value <= integral mean <= endpoint average.

    The ordering holds for convex fd; each comparison is allowed ORDER_SLACK
    of numerical slack.  On a degenerate interval all three values equal
    fd.eval(a) and the report is ordered.  iv must lie inside fd's domain.
    """
    require_domain(fd, iv)
    return _sandwich(fd, iv, None if iv.is_degenerate else _f_mid_and_mean(fd, iv, tol))


def _ratio(gap: float, bound: float) -> float:
    if bound > 0.0:
        return gap / bound
    return math.nan if gap == 0.0 else math.inf


def _power_mean(da: float, db: float, q: float, root) -> float:
    """root(0.5 * (da**q + db**q)), root being the q-th root.

    When the sum overflows although each power is finite, max(da, db) is
    factored out first; every finite sum keeps the direct form's bits.
    """
    total, m = da**q + db**q, max(da, db)
    if math.isinf(total) and math.isfinite(m):
        return m * root(0.5 * ((da / m) ** q + (db / m) ** q))
    return root(0.5 * total)


def _bound(theorem: str, q: float, width: float, da: float, db: float) -> float:
    """The T2, T3 or KO bound from the width and the endpoint |f'| values.

    T3 and KO check q first, so a zero width gives 0.0 only for a valid q.
    """
    if theorem == "T2":
        return width / math.sqrt(6.0) * _power_mean(da, db, 2, math.sqrt)
    if theorem == "T3":
        return width * theorem3_constant(q) * _power_mean(da, db, q, lambda s: s ** (1.0 / q))
    if not (math.isfinite(q) and q > 1.0):
        raise InvalidExponent(f"bound_kirmaci_ozdemir requires q > 1, got q={q}")
    return 3.0 ** (1.0 - 1.0 / q) / 8.0 * width * (da + db)


def _report(
    fd: FunctionDescriptor,
    iv: Interval,
    theorems,
    q: float,
    tol: float,
    grid_points: int,
    read: list | None = None,
) -> list[BoundReport]:
    """One BoundReport per theorem name, T2's hypothesis at q = 2 and the others' at q.

    The domain, tol and grid_points are checked first, before any evaluation.
    The endpoint derivatives and the integral are evaluated once, and the
    hypothesis once per distinct exponent.  Each theorem checks q only after
    the reports before it are complete, as if each were evaluated on its own.
    The (f(m), mean) pair the gaps read is appended to read, if given, unless
    iv is degenerate.
    """
    require_domain(fd, iv)
    check_tol(tol)
    check_grid_points(grid_points)
    da = db = 0.0  # a degenerate interval: zero bounds and gap, f and f' unevaluated
    if not iv.is_degenerate:
        da = abs(float(eval_elementwise(fd.deriv, iv.a)))
        db = abs(float(eval_elementwise(fd.deriv, iv.b)))
    values = None
    hypotheses: dict[float, ConvexityReport] = {}
    reports = []
    for theorem in theorems:
        bound = _bound(theorem, q, iv.width, da, db)
        hyp_q = 2.0 if theorem == "T2" else q
        if values is None and not iv.is_degenerate:
            values = _f_mid_and_mean(fd, iv, tol)
        gap = abs(values[0] - values[1]) if values else 0.0
        if hyp_q not in hypotheses:
            hypotheses[hyp_q] = TRIVIAL_HYPOTHESIS if iv.is_degenerate else check_hypothesis(
                fd, iv, hyp_q, grid_points=grid_points
            )
        reports.append(BoundReport(
            gap=gap,
            bound=bound,
            ratio=_ratio(gap, bound),
            theorem=theorem,
            q=hyp_q,
            hypothesis=hypotheses[hyp_q],
            holds=gap <= bound + HOLDS_SLACK,
        ))
    if read is not None and values is not None:
        read.append(values)
    return reports


def bound_theorem2(
    fd: FunctionDescriptor,
    iv: Interval,
    tol: float = 1e-10,
    grid_points: int = 257,
) -> BoundReport:
    """Quadratic-mean bound on the midpoint gap; hypothesis |f'|^2 convex."""
    return _report(fd, iv, ("T2",), 2.0, tol, grid_points)[0]


def bound_theorem3(
    fd: FunctionDescriptor,
    iv: Interval,
    q: float,
    tol: float = 1e-10,
    grid_points: int = 257,
) -> BoundReport:
    """Power-mean bound on the midpoint gap; hypothesis |f'|^q convex, q > 1.

    At q = 2 this reduces to the quadratic-mean bound of bound_theorem2.
    """
    _bound("T3", q, 0.0, 0.0, 0.0)  # q is checked before the domain
    return _report(fd, iv, ("T3",), q, tol, grid_points)[0]


def bound_kirmaci_ozdemir(
    fd: FunctionDescriptor,
    iv: Interval,
    q: float,
    tol: float = 1e-10,
    grid_points: int = 257,
) -> BoundReport:
    """Endpoint-sum bound (3^(1-1/q)/8) * (b-a) * (|f'(a)| + |f'(b)|), q > 1.

    The same q feeds both the constant and the convexity hypothesis check.
    """
    _bound("KO", q, 0.0, 0.0, 0.0)  # q is checked before the domain
    return _report(fd, iv, ("KO",), q, tol, grid_points)[0]


def evaluate_case(
    fd: FunctionDescriptor,
    iv: Interval,
    q: float,
    tol: float = 1e-10,
    grid_points: int = 257,
) -> tuple[BoundReport, BoundReport, BoundReport]:
    """The T2, T3 and KO reports of one case, equal to the three public calls.

    The gap and the endpoint derivatives are evaluated once, and the
    convexity of |f'|^q is checked once per distinct exponent in {2, q}.
    Errors are raised in the order of bound_theorem2, bound_theorem3,
    bound_kirmaci_ozdemir called in turn: an invalid q is reported only after
    the T2 report succeeds.
    """
    return tuple(_report(fd, iv, ("T2", "T3", "KO"), q, tol, grid_points))


def verify_case(
    fd: FunctionDescriptor,
    iv: Interval,
    q: float,
    tol: float = 1e-10,
    grid_points: int = 257,
) -> tuple[SandwichReport, tuple[BoundReport, ...]]:
    """The sandwich of one case and its T2, T3, KO and HH reports, from one integral of f.

    The first three are evaluate_case's, errors included.  HH's hypothesis is the
    sampled convexity scan of f (trivial on a degenerate interval), its gap the worst
    ordering violation clamped at 0, and its bound ORDER_SLACK, so (gap <= bound) == ordered.
    """
    read: list[tuple[float, float]] = []
    reports = _report(fd, iv, ("T2", "T3", "KO"), q, tol, grid_points, read)
    sandwich = _sandwich(fd, iv, read[0] if read else None)
    convexity = TRIVIAL_HYPOTHESIS if iv.is_degenerate else check_convexity(fd.eval, iv, grid_points)
    gap = max(sandwich.lower - sandwich.middle, sandwich.middle - sandwich.upper, 0.0)
    hh = BoundReport(gap=gap, bound=ORDER_SLACK, ratio=gap / ORDER_SLACK, theorem="HH", q=None,
                     hypothesis=convexity, holds=sandwich.ordered)
    return sandwich, (*reports, hh)


def _lemma2_integrand(fd: FunctionDescriptor, x_of):
    """(f'(x(t)) - f'(x(s))) (m(s) - m(t)), the Lemma 2 integrand for integrate_2d.

    integrate_2d passes s as a column with one outer node per row.  f'(x(s))
    is taken one Python float per distinct node, as a lone node would get it,
    since fd.deriv can round differently on arrays.
    """

    def integrand(t, s):
        nodes, row_node = np.unique(s, return_inverse=True)
        ds = np.array([fd.deriv(x_of(v)) for v in nodes.tolist()])
        ds = ds[row_node].reshape(np.shape(s))
        return (fd.deriv(x_of(t)) - ds) * (kernel_m(s) - kernel_m(t))

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
    t = (b-k)/(b-a) on the unit parameter.  The residual carries quadrature
    noise of order tol.
    iv must lie inside fd's domain.  An unknown lemma is rejected before iv.
    """
    if lemma not in ("L1", "L2"):
        raise ValueError(f"lemma must be 'L1' or 'L2', got {lemma!r}")
    require_domain(fd, iv)
    if iv.is_degenerate:
        raise ValueError("identity check requires a non-degenerate interval")
    a, b = iv.a, iv.b
    f_mid, mean = _f_mid_and_mean(fd, iv, tol)
    kinks_t = tuple((b - k) / (b - a) for k in fd.kinks_inside(a, b))

    def x_of(u):
        return u * a + (1.0 - u) * b

    if lemma == "L1":
        left = integrate_1d(lambda t: t * fd.deriv(x_of(t)), Interval(0.0, 0.5), tol,
                            breakpoints=tuple(t for t in kinks_t if t < 0.5))
        right = integrate_1d(lambda t: (t - 1.0) * fd.deriv(x_of(t)), Interval(0.5, 1.0), tol,
                             breakpoints=tuple(t for t in kinks_t if t > 0.5))
        return abs((mean - f_mid) - iv.width * (left.value + right.value))
    edges = (0.5, *kinks_t)
    dbl = integrate_2d(_lemma2_integrand(fd, x_of), tol, breakpoints_t=edges, breakpoints_s=edges)
    return abs((f_mid - mean) - 0.5 * iv.width * dbl.value)
