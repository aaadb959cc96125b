"""Acceptance suite: twelve numbered criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
without ``-s`` they still appear in the captured output of any failing test.
Shared case grids are seeded and module-scoped so the randomized criteria all
see the same draws.

The as-printed variant of the first mean-comparison proposition is false:
the printed right-hand side omits the square root on its arithmetic-mean
factor, and the inequality fails for some pairs where that factor is below 1.
test_c10_proposition1_printed_variant therefore checks the refutation: the
program's as-printed verdicts must match a 50-digit evaluation of the printed
formula, and the failing pairs must be the ones the missing root explains.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hhcert.bounds import (
    HOLDS_SLACK,
    bound_kirmaci_ozdemir,
    bound_theorem2,
    bound_theorem3,
    hh_sandwich,
    midpoint_gap,
    verify_identity,
)
from hhcert.catalog import Interval, parse_function_id
from hhcert.cli import CSV_COLUMNS, main as cli_main
from hhcert.kernel import kernel_m, kernel_p_moment
from hhcert.means import (
    MeanPair,
    check_proposition,
    mean_arithmetic,
    mean_identric,
    mean_logarithmic,
    mean_p_logarithmic,
)
from hhcert.quadrature import integrate_1d, integrate_2d
from hhcert.sampling import SplitMix64, draw_interval

_T3_EXPONENTS = (1.1, 1.5, 2.0, 3.0, 10.0)
_MOMENT_EXPONENTS = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0)
_GRID = 65  # hypothesis sampling density for the bulk randomized criteria

# (label, endpoint sampling range); ranges keep negative-power and log
# families inside their open domains
_BOUND_FAMILIES = (
    ("pow:2", -6.0, 6.0),
    ("pow:3", -4.0, 4.0),
    ("pow:4", -3.0, 3.0),
    ("pow:5", -2.5, 2.5),
    ("pow:-1", 0.05, 8.0),
    ("pow:-2", 0.1, 8.0),
    ("exp", -3.0, 3.0),
    ("ln", 0.05, 9.0),
    ("recip", 0.05, 9.0),
    ("neg_ln", 0.05, 9.0),
    ("abs_pow:2", -5.0, 5.0),
    ("abs_pow:2.5", -4.0, 4.0),
    ("abs_pow:3", -3.0, 3.0),
)

# entries convex as functions (pow:3/pow:5 restricted to x >= 0; ln excluded)
_CONVEX_FAMILIES = (
    ("pow:1", -6.0, 6.0),
    ("pow:2", -6.0, 6.0),
    ("pow:3", 0.0, 4.0),
    ("pow:4", -3.0, 3.0),
    ("pow:5", 0.0, 2.5),
    ("pow:-1", 0.05, 8.0),
    ("pow:-2", 0.1, 8.0),
    ("exp", -3.0, 3.0),
    ("recip", 0.05, 9.0),
    ("neg_ln", 0.05, 9.0),
    ("abs_pow:2", -5.0, 5.0),
    ("abs_pow:2.5", -4.0, 4.0),
    ("abs_pow:3", -3.0, 3.0),
)

# one representative per catalog family for the identity residuals
_IDENTITY_FAMILIES = (
    ("pow:3", -3.0, 3.0),
    ("exp", -2.0, 2.0),
    ("ln", 0.05, 6.0),
    ("recip", 0.05, 6.0),
    ("neg_ln", 0.05, 6.0),
    ("abs_pow:2.5", -3.0, 3.0),
)

_P1_EXPONENTS = (-3, -2, -1, 1, 2, 3, 4, 5)
_PROP_EXPONENTS = (1.5, 2.0, 3.0)


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _rel(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale > 0.0 else 0.0


@pytest.fixture(scope="module")
def bound_cases():
    rng = SplitMix64(1069)
    cases = []
    for i in range(1000):
        label, lo, hi = _BOUND_FAMILIES[i % len(_BOUND_FAMILIES)]
        fd = parse_function_id(label)
        cases.append((fd, draw_interval(rng, lo, hi, fd.domain)))
    return cases


@pytest.fixture(scope="module")
def t2_reports(bound_cases):
    return [bound_theorem2(fd, iv, grid_points=_GRID) for fd, iv in bound_cases]


@pytest.fixture(scope="module")
def t3_reports(bound_cases):
    return {
        q: [bound_theorem3(fd, iv, q, grid_points=_GRID) for fd, iv in bound_cases]
        for q in _T3_EXPONENTS
    }


def _draw_pairs(seed: int, count: int, min_width: float) -> list[MeanPair]:
    rng = SplitMix64(seed)
    pairs = []
    while len(pairs) < count:
        x = rng.uniform(0.01, 10.0)
        y = rng.uniform(0.01, 10.0)
        a, b = min(x, y), max(x, y)
        if b - a >= min_width:
            pairs.append(MeanPair(a, b))
    return pairs


@pytest.fixture(scope="module")
def mean_pairs():
    return _draw_pairs(seed=2069, count=1000, min_width=1e-6)


def test_c01_kernel_second_moment():
    res = integrate_2d(
        lambda t, s: (kernel_m(t) - kernel_m(s)) ** 2,
        tol=1e-10,
        breakpoints=(0.5,),
    )
    err = abs(res.value - 1.0 / 6.0)
    _verdict(
        "C01",
        res.converged and err <= 1e-10,
        f"2D moment vs 1/6: |err|={err:.3g}, converged={res.converged}",
    )


def _unit_square_numeric(f, inner_breaks, tol):
    """Iterated double integral over [0,1]^2 with s-aware inner breakpoints.

    |m(t)-m(s)|^p has a C0 crease along t = s whose position depends on the
    outer variable, so the crease must be handed to the inner rule per outer
    node; a fixed 2D breakpoint grid cannot express that and the embedded
    estimate under-reports on such creases.
    """
    unit = Interval(0.0, 1.0)
    state = {"ok": True}

    def outer(s):
        if np.ndim(s) != 0:
            raise TypeError("outer integrand is scalar-only")
        sv = float(s)
        res = integrate_1d(lambda t: f(t, sv), unit, tol, inner_breaks(sv))
        state["ok"] = state["ok"] and res.converged
        return res.value

    top = integrate_1d(outer, unit, tol, (0.5,))
    return top.value, state["ok"] and top.converged


def test_c02_kernel_p_moments():
    # kernel-difference shifts on the four quarter squares (J1..J4)
    deltas = (0.0, 0.5, -0.5, 0.0)
    worst = 0.0
    for p in _MOMENT_EXPONENTS:
        mom = kernel_p_moment(p)
        full, ok = _unit_square_numeric(
            lambda t, s: abs(kernel_m(t) - kernel_m(s)) ** p,
            lambda s: (0.5, s),
            1e-9 * mom.closed_form,
        )
        assert ok
        worst = max(worst, _rel(full, mom.closed_form))
        for piece, delta in zip(mom.pieces, deltas):
            # quarter mapped onto the unit square; d(t)d(s) picks up 1/4
            num, ok = _unit_square_numeric(
                lambda u, v: abs(0.5 * (u - v) + delta) ** p,
                lambda v: (v,),
                max(1e-13, 4e-9 * 4.0 * piece),
            )
            assert ok
            worst = max(worst, _rel(0.25 * num, piece))
    _verdict(
        "C02",
        worst <= 1e-8,
        f"closed forms and J pieces vs numeric, p in {_MOMENT_EXPONENTS}: "
        f"worst rel err={worst:.3g}",
    )


def _identity_worst_residual(lemma: str) -> float:
    rng = SplitMix64(4069)
    worst = 0.0
    for label, lo, hi in _IDENTITY_FAMILIES:
        fd = parse_function_id(label)
        for _ in range(10):
            iv = draw_interval(rng, lo, hi, fd.domain)
            worst = max(worst, verify_identity(lemma, fd, iv))
    return worst


def test_c03_lemma2_identity():
    worst = _identity_worst_residual("L2")
    _verdict("C03", worst <= 1e-8, f"L2 residual over 6x10 cases: worst={worst:.3g}")


def test_c04_lemma1_identity():
    worst = _identity_worst_residual("L1")
    _verdict("C04", worst <= 1e-8, f"L1 residual over 6x10 cases: worst={worst:.3g}")


def test_c05_theorem2_holds(t2_reports):
    gated = [r for r in t2_reports if r.hypothesis.ok]
    failures = sum(not r.holds for r in gated)
    _verdict(
        "C05",
        failures == 0,
        f"T2 on {len(gated)}/{len(t2_reports)} hypothesis-passing cases: "
        f"{failures} failures",
    )


def test_c06_theorem3_holds(t3_reports):
    detail = []
    failures = 0
    for q in _T3_EXPONENTS:
        gated = [r for r in t3_reports[q] if r.hypothesis.ok]
        bad = sum(not r.holds for r in gated)
        failures += bad
        detail.append(f"q={q}: {len(gated)} gated, {bad} failed")
    _verdict("C06", failures == 0, "; ".join(detail))


def test_c07_theorem3_reduces_to_theorem2(t2_reports, t3_reports):
    worst = max(
        _rel(t3.bound, t2.bound)
        for t2, t3 in zip(t2_reports, t3_reports[2.0])
    )
    _verdict(
        "C07",
        worst <= 1e-14,
        f"T3(q=2) vs T2 bound over 1000 cases: worst rel diff={worst:.3g}",
    )


def test_c08_kirmaci_ozdemir_holds(bound_cases):
    reports = [
        bound_kirmaci_ozdemir(fd, iv, 2.0, grid_points=_GRID) for fd, iv in bound_cases
    ]
    gated = [r for r in reports if r.hypothesis.ok]
    failures = sum(not r.holds for r in gated)
    _verdict(
        "C08",
        failures == 0,
        f"KO(q=2) on {len(gated)}/{len(reports)} hypothesis-passing cases: "
        f"{failures} failures",
    )


def test_c09_sandwich_ordering():
    rng = SplitMix64(3069)
    unordered = 0
    for i in range(500):
        label, lo, hi = _CONVEX_FAMILIES[i % len(_CONVEX_FAMILIES)]
        fd = parse_function_id(label)
        iv = draw_interval(rng, lo, hi, fd.domain)
        if not hh_sandwich(fd, iv).ordered:
            unordered += 1
    _verdict(
        "C09",
        unordered == 0,
        f"sandwich over 500 intervals of {len(_CONVEX_FAMILIES)} convex entries: "
        f"{unordered} unordered",
    )


def test_c10_propositions_derived_variants(mean_pairs):
    failures = 0
    for i, mp in enumerate(mean_pairs):
        n = _P1_EXPONENTS[i % len(_P1_EXPONENTS)]
        q = _PROP_EXPONENTS[i % len(_PROP_EXPONENTS)]
        reports = (
            check_proposition("P1", mp, n=n, variant="as-derived"),
            check_proposition("P2", mp, n=n, q=q),
            check_proposition("P3", mp, q=q, variant="as-derived"),
            check_proposition("P4", mp, q=q),
        )
        failures += sum(not rep.holds for rep in reports)
    _verdict(
        "C10",
        failures == 0,
        f"P1-P4 as-derived on {len(mean_pairs)} pairs: {failures} failures",
    )


def test_c10_proposition3_printed_variant(mean_pairs):
    failures = 0
    for i, mp in enumerate(mean_pairs):
        q = _PROP_EXPONENTS[i % len(_PROP_EXPONENTS)]
        if not check_proposition("P3", mp, q=q, variant="as-printed").holds:
            failures += 1
    _verdict(
        "C10",
        failures == 0,
        f"P3 as-printed on {len(mean_pairs)} pairs: {failures} failures",
    )


def _printed_p1_decimal(a: float, b: float, n: int) -> tuple[Decimal, Decimal, Decimal]:
    """(lhs, rhs, factor) of the printed P1 at 50 digits, from the floats' exact values.

    lhs = |A^n - L_n^n| with L_n^n the mean of x^n over [a, b];
    rhs = |n| (b-a) / sqrt(6) * factor, factor = A(a^(2(n-1)), b^(2(n-1))).
    """
    with localcontext() as ctx:
        ctx.prec = 50
        da, db = Decimal(a), Decimal(b)
        width = db - da
        if n == -1:
            power_mean = (db.ln() - da.ln()) / width
        else:
            power_mean = (db ** (n + 1) - da ** (n + 1)) / ((n + 1) * width)
        lhs = abs(((da + db) / 2) ** n - power_mean)
        factor = (da ** (2 * (n - 1)) + db ** (2 * (n - 1))) / 2
        rhs = abs(n) * width / Decimal(6).sqrt() * factor
        return +lhs, +rhs, +factor


def test_c10_proposition1_printed_variant(mean_pairs):
    """The printed P1 is evaluated faithfully, and its falsity stays visible.

    The printed right-hand side uses the arithmetic mean of the endpoint
    powers a^(2(n-1)), b^(2(n-1)) directly, where the derivation produces its
    square root.  When that mean is below 1 (negative n with endpoints above
    1, for instance) the printed bound is smaller than the derived one and
    can drop below the left-hand side; a = 3, b = 6, n = -1 is a concrete
    counterexample.  So this test asserts the refutation, not the claim:
    every as-printed verdict equals an independent 50-digit evaluation of the
    printed inequality, the known counterexample and at least one seeded pair
    are refuted, and every refuted pair has that mean below 1 and holds in
    the as-derived form.  A program that stopped evaluating the printed
    formula (by adding the square root, say) disagrees with the reference.
    """
    slack = Decimal(HOLDS_SLACK)
    cases = [(MeanPair(3.0, 6.0), -1)] + [
        (mp, _P1_EXPONENTS[i % len(_P1_EXPONENTS)]) for i, mp in enumerate(mean_pairs)
    ]
    disagreements = []
    refuted = []
    unexplained = []
    closest = math.inf
    for mp, n in cases:
        rep = check_proposition("P1", mp, n=n, variant="as-printed")
        lhs, rhs, factor = _printed_p1_decimal(mp.a, mp.b, n)
        if rep.holds != (lhs <= rhs + slack):
            disagreements.append((mp.a, mp.b, n))
        closest = min(closest, float(abs(lhs - rhs - slack)))
        if not rep.holds:
            refuted.append((mp.a, mp.b, n))
            derived = check_proposition("P1", mp, n=n, variant="as-derived")
            if not (factor < 1 and derived.holds):
                unexplained.append((mp.a, mp.b, n))
    known = (3.0, 6.0, -1) in refuted
    seeded = len(refuted) - known
    _verdict(
        "C10",
        not disagreements and known and seeded >= 1 and not unexplained,
        f"P1 as-printed on {len(mean_pairs)} pairs + (3, 6, -1): "
        f"{len(disagreements)} verdicts differ from the 50-digit reference "
        f"(closest margin {closest:.3g}); (3, 6, -1) refuted={known}; "
        f"{seeded} seeded pairs refuted, {len(unexplained)} of all refuted "
        f"without factor < 1 and as-derived holding"
        + (f"; first disagreement (a,b,n)={disagreements[0]}" if disagreements else ""),
    )


def test_c10_p4_matches_reciprocal_bound(mean_pairs):
    worst_lhs = worst_rhs = 0.0
    fd = parse_function_id("recip")
    for i, mp in enumerate(mean_pairs):
        q = _PROP_EXPONENTS[i % len(_PROP_EXPONENTS)]
        rep = check_proposition("P4", mp, q=q)
        iv = Interval(mp.a, mp.b)
        worst_lhs = max(worst_lhs, abs(rep.lhs - midpoint_gap(fd, iv)))
        worst_rhs = max(
            worst_rhs, _rel(rep.rhs, bound_theorem3(fd, iv, q, grid_points=33).bound)
        )
    _verdict(
        "C10",
        worst_lhs <= 1e-8 and worst_rhs <= 1e-12,
        f"P4 vs recip machinery on {len(mean_pairs)} pairs: "
        f"worst lhs abs diff={worst_lhs:.3g}, worst rhs rel diff={worst_rhs:.3g}",
    )


def test_c11_means_sanity():
    # chain pairs keep width >= 1e-3: below that the strict chain gaps
    # (quadratic in the width) sink beneath log/difference-quotient rounding
    chain_pairs = _draw_pairs(seed=2169, count=1000, min_width=1e-3)
    chain_bad = 0
    for mp in chain_pairs:
        l, i, a = mean_logarithmic(mp), mean_identric(mp), mean_arithmetic(mp)
        if not (l <= i + 1e-12 and i <= a + 1e-12):
            chain_bad += 1

    l1_pairs = [(1.0, 2.0), (1.0, 3.0), (0.5, 9.5), (2.0, 2.5), (0.3, 7.7)]
    worst_l1 = max(
        _rel(mean_p_logarithmic(MeanPair(a, b), 1.0), mean_arithmetic(MeanPair(a, b)))
        for a, b in l1_pairs
    )

    worst_hom = 0.0
    for mp in chain_pairs[:100]:
        for lam in (0.5, 2.0, 10.0):
            scaled = MeanPair(lam * mp.a, lam * mp.b)
            for mean in (mean_arithmetic, mean_logarithmic, mean_identric):
                worst_hom = max(worst_hom, _rel(mean(scaled), lam * mean(mp)))
            worst_hom = max(
                worst_hom,
                _rel(mean_p_logarithmic(scaled, 2.0), lam * mean_p_logarithmic(mp, 2.0)),
            )

    ok = chain_bad == 0 and worst_l1 <= 1e-14 and worst_hom <= 1e-12
    _verdict(
        "C11",
        ok,
        f"chain violations={chain_bad}/1000, L_1 vs A worst rel={worst_l1:.3g}, "
        f"homogeneity worst rel={worst_hom:.3g}",
    )


def test_c12_cli_determinism_and_exit_statuses(capsys):
    sweep_args = [
        "sweep", "--fn", "exp", "--cases", "100", "--seed", "42", "--q", "2",
        "--format", "csv", "--grid-points", str(_GRID),
    ]
    code1 = cli_main(sweep_args)
    out1 = capsys.readouterr().out
    code2 = cli_main(sweep_args)
    out2 = capsys.readouterr().out
    rows = out1.splitlines()
    shape_ok = (
        rows[1] == ",".join(CSV_COLUMNS)
        and len(rows) == 2 + 300
        and code1 == code2 == 0
    )

    exit1 = cli_main(["verify", "--fn", "pow:2", "--interval", "0", "1", "--q", "2",
                      "--format", "json"])
    exit2 = cli_main(["verify", "--fn", "pow:2", "--interval", "1", "1", "--q", "2"])
    exit3 = cli_main(["verify", "--fn", "pow:0", "--interval", "0", "1", "--q", "2"])
    err3 = capsys.readouterr().err
    exits_ok = (exit1, exit2, exit3) == (0, 0, 2) and "error" in err3

    _verdict(
        "C12",
        out1 == out2 and shape_ok and exits_ok,
        f"sweep byte-identical={out1 == out2}, rows={len(rows) - 2}, "
        f"verify exits={(exit1, exit2, exit3)}",
    )
