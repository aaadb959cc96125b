"""Midpoint-rule error bounds for functions with convex derivative powers.

The quantity of interest is the midpoint gap

    gap(f, [a,b]) = | f((a+b)/2) - (1/(b-a)) * integral_a^b f |.

Three bounds on the gap are evaluated from the endpoint derivative magnitudes
alone, each valid when |f'|^q is convex on [a, b] for its exponent:

    T2:  ((b-a)/sqrt(6)) * sqrt((|f'(a)|^2 + |f'(b)|^2) / 2)          (q = 2)
    T3:  (b-a) * (2/((p+1)(p+2)))^(1/p)
             * ((|f'(a)|^q + |f'(b)|^q) / 2)^(1/q),   1/p + 1/q = 1  (q > 1)
    KO:  (3^(1-1/q) / 8) * (b-a) * (|f'(a)| + |f'(b)|)               (q > 1)

T3 at q = 2 coincides with T2.  Each evaluator also runs the sampled
convexity check for its hypothesis and reports the verdict alongside the
bound; a bound is computed even when the hypothesis check fails, since the
gap/bound comparison is still informative.  evaluate_case gives all three
reports of one case and shares the gap and the scans between them, and
hh_report gives the Hermite-Hadamard sandwich as a fourth report.

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
    check_hypothesis,
    require_domain,
)
from .errors import InvalidExponent
from .kernel import kernel_m, kernel_p_norm
from .quadrature import integrate_1d, integrate_2d

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


def midpoint_gap(fd: FunctionDescriptor, iv: Interval, tol: float = 1e-10) -> float:
    """Absolute midpoint-rule error of the integral mean of fd over iv.

    The integral is pre-split at the midpoint; a degenerate interval gives
    exactly zero.
    """
    if iv.is_degenerate:
        return 0.0
    integral = integrate_1d(fd.eval, iv, tol, breakpoints=(iv.midpoint,))
    return abs(float(eval_elementwise(fd.eval, iv.midpoint)) - integral.value / iv.width)


def hh_sandwich(fd: FunctionDescriptor, iv: Interval, tol: float = 1e-10) -> SandwichReport:
    """Evaluate midpoint value <= integral mean <= endpoint average.

    The ordering holds for convex fd; each comparison is allowed ORDER_SLACK
    of numerical slack.  On a degenerate interval all three values equal
    fd.eval(a) and the report is ordered.  iv must lie inside fd's domain.
    """
    require_domain(fd, iv)
    if iv.is_degenerate:
        v = float(eval_elementwise(fd.eval, iv.a))
        return SandwichReport(lower=v, middle=v, upper=v, ordered=True)
    lower = float(eval_elementwise(fd.eval, iv.midpoint))
    middle = integrate_1d(fd.eval, iv, tol).value / iv.width
    upper = 0.5 * (
        float(eval_elementwise(fd.eval, iv.a)) + float(eval_elementwise(fd.eval, iv.b))
    )
    ordered = lower <= middle + ORDER_SLACK and middle <= upper + ORDER_SLACK
    return SandwichReport(lower=lower, middle=middle, upper=upper, ordered=ordered)


def hh_report(
    fd: FunctionDescriptor,
    iv: Interval,
    tol: float = 1e-10,
    grid_points: int = 257,
) -> tuple[SandwichReport, BoundReport]:
    """hh_sandwich of fd on iv, and the same result as an "HH" BoundReport.

    The report's hypothesis is the sampled convexity scan of f itself (trivial
    on a degenerate interval).  Its gap is the worst ordering violation,
    clamped at 0, and its bound ORDER_SLACK, so that holds == (gap <= bound)
    reproduces ``ordered`` exactly.
    """
    sandwich = hh_sandwich(fd, iv, tol)
    if iv.is_degenerate:
        convexity = TRIVIAL_HYPOTHESIS
    else:
        convexity = check_convexity(fd.eval, iv, grid_points)
    gap = max(sandwich.lower - sandwich.middle, sandwich.middle - sandwich.upper, 0.0)
    return sandwich, BoundReport(
        gap=gap, bound=ORDER_SLACK, ratio=gap / ORDER_SLACK, theorem="HH", q=None,
        hypothesis=convexity, holds=sandwich.ordered,
    )


def _ratio(gap: float, bound: float) -> float:
    if bound > 0.0:
        return gap / bound
    return math.nan if gap == 0.0 else math.inf


def _bound(theorem: str, q: float, width: float, da: float, db: float) -> float:
    """The T2, T3 or KO bound from the width and the endpoint |f'| values.

    T3 and KO check q first, so a zero width gives 0.0 only for a valid q.
    """
    if theorem == "T2":
        return width / math.sqrt(6.0) * math.sqrt(0.5 * (da**2 + db**2))
    if theorem == "T3":
        return width * theorem3_constant(q) * (0.5 * (da**q + db**q)) ** (1.0 / q)
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
) -> list[BoundReport]:
    """One BoundReport per theorem name, T2's hypothesis at q = 2 and the others' at q.

    The domain is checked first, before any evaluation.  The endpoint
    derivatives and the gap are evaluated once, and the hypothesis scan once
    per distinct exponent.  Each theorem checks q only after the reports
    before it are complete, as if each were evaluated on its own.
    """
    require_domain(fd, iv)
    da = db = 0.0  # a degenerate interval: zero bounds and gap, f' unevaluated
    if not iv.is_degenerate:
        da = abs(float(eval_elementwise(fd.deriv, iv.a)))
        db = abs(float(eval_elementwise(fd.deriv, iv.b)))
    gap = None
    hypotheses: dict[float, ConvexityReport] = {}
    reports = []
    for theorem in theorems:
        bound = _bound(theorem, q, iv.width, da, db)
        hyp_q = 2.0 if theorem == "T2" else q
        if gap is None:
            gap = midpoint_gap(fd, iv, tol)
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

    The gap and the endpoint derivatives are evaluated once, and |f'|^q is
    scanned once per distinct exponent in {2, q}.  Errors are raised in the
    order of bound_theorem2, bound_theorem3, bound_kirmaci_ozdemir called in
    turn: an invalid q is reported only after the T2 report succeeds.
    """
    t2, t3, ko = _report(fd, iv, ("T2", "T3", "KO"), q, tol, grid_points)
    return t2, t3, ko


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
    the kernel break.  The residual carries quadrature noise of order tol.
    iv must lie inside fd's domain.  An unknown lemma is rejected before iv.
    """
    if lemma not in ("L1", "L2"):
        raise ValueError(f"lemma must be 'L1' or 'L2', got {lemma!r}")
    require_domain(fd, iv)
    if iv.is_degenerate:
        raise ValueError("identity check requires a non-degenerate interval")
    a, b = iv.a, iv.b
    mid = iv.midpoint
    mean = integrate_1d(fd.eval, iv, tol, breakpoints=(mid,)).value / iv.width
    f_mid = float(eval_elementwise(fd.eval, mid))

    def x_of(u):
        return u * a + (1.0 - u) * b

    if lemma == "L1":
        left = integrate_1d(lambda t: t * fd.deriv(x_of(t)), Interval(0.0, 0.5), tol)
        right = integrate_1d(lambda t: (t - 1.0) * fd.deriv(x_of(t)), Interval(0.5, 1.0), tol)
        return abs((mean - f_mid) - iv.width * (left.value + right.value))
    dbl = integrate_2d(
        _lemma2_integrand(fd, x_of), tol, breakpoints_t=(0.5,), breakpoints_s=(0.5,)
    )
    return abs((f_mid - mean) - 0.5 * iv.width * dbl.value)
