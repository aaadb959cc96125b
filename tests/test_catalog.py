"""Catalog descriptors, the id grammar, and the sampled convexity check."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhcert.catalog import (
    MAX_GRID_POINTS,
    NO_VIOLATION,
    TRIVIAL_HYPOTHESIS,
    VIOLATED,
    ConvexityReport,
    Domain,
    FunctionDescriptor,
    Interval,
    check_convexity,
    check_grid_points,
    check_hypothesis,
    lookup_function,
    parse_function_id,
)
from hhcert._ufunc import eval_elementwise
from hhcert.quadrature import check_tol
from hhcert.sampling import SplitMix64, draw_interval, sampling_range
from hhcert.errors import (
    DomainViolation,
    InvalidExponent,
    InvalidParameter,
    UnknownFunction,
)


class TestEvalElementwise:
    def test_a_float_gives_the_scalar_result_bit_for_bit(self):
        got = eval_elementwise(lambda x: x**3, 0.7)
        assert got.shape == ()
        assert repr(float(got)) == repr(0.7**3)

    def test_numpy_warnings_are_silenced_for_a_float(self):
        # pyproject.toml makes RuntimeWarning an error, so a leaked warning fails here
        assert float(eval_elementwise(np.exp, 1000.0)) == math.inf
        assert math.isnan(float(eval_elementwise(np.log, -1.0)))

    @pytest.mark.parametrize(
        "g,x,exc",
        [(lambda x: 1.0 / x, 0.0, ZeroDivisionError), (lambda x: x**3, 1e200, OverflowError)],
    )
    def test_a_callables_own_arithmetic_error_on_a_float_propagates(self, g, x, exc):
        with pytest.raises(exc) as err:
            eval_elementwise(g, x)
        with pytest.raises(exc) as direct:
            g(x)
        assert str(err.value) == str(direct.value)


    def test_a_scalar_or_one_arguments_shape_is_broadcast(self):
        t, s = np.array([[1.0], [2.0]]), np.array([[0.5, 1.5, 2.5]])
        const = eval_elementwise(lambda x: 2.0, np.arange(3.0))
        assert const.tolist() == [2.0, 2.0, 2.0] and const.flags.writeable
        got = eval_elementwise(lambda t, s: 3.0 * s, t, s)
        assert got.tolist() == [[1.5, 4.5, 7.5]] * 2

    def test_another_shape_is_evaluated_one_point_at_a_time(self):
        t, s = np.array([[1.0], [2.0]]), np.array([[0.5, 1.5, 2.5]])
        got = eval_elementwise(lambda t, s: np.transpose(t - s), t, s)
        assert got.tolist() == [[0.5, -0.5, -1.5], [1.5, 0.5, -0.5]]


class TestInterval:
    def test_properties(self):
        iv = Interval(1.0, 4.0)
        assert iv.width == 3.0
        assert iv.midpoint == 2.5
        assert not iv.is_degenerate
        assert Interval(2.0, 2.0).is_degenerate

    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (math.nan, 1.0), (0.0, math.inf)])
    def test_rejects_bad_endpoints(self, a, b):
        with pytest.raises(ValueError):
            Interval(a, b)


class TestLookup:
    @pytest.mark.parametrize(
        "name,params,x,fx,dfx",
        [
            ("pow", [2], 3.0, 9.0, 6.0),
            ("pow", [3], -2.0, -8.0, 12.0),
            ("pow", [1], 5.0, 5.0, 1.0),
            ("pow", [-1], 2.0, 0.5, -0.25),
            ("pow", [-2], 2.0, 0.25, -0.25),
            ("exp", [], 0.0, 1.0, 1.0),
            ("ln", [], math.e, 1.0, 1.0 / math.e),
            ("recip", [], 4.0, 0.25, -0.0625),
            ("neg_ln", [], 1.0, 0.0, -1.0),
            ("abs_pow", [2.5], -4.0, 32.0, -20.0),
            ("abs_pow", [2.0], -3.0, 9.0, -6.0),
        ],
    )
    def test_values_and_derivatives(self, name, params, x, fx, dfx):
        fd = lookup_function(name, params)
        assert fd.eval(x) == pytest.approx(fx, rel=1e-14)
        assert fd.deriv(x) == pytest.approx(dfx, rel=1e-14)

    def test_domains(self):
        assert lookup_function("pow", [3]).domain == Domain()
        assert lookup_function("pow", [-2]).domain == Domain(lower=0.0)
        assert lookup_function("ln").domain.lower == 0.0
        assert not lookup_function("recip").domain.contains(0.0)
        assert lookup_function("exp").domain.contains(-1e9)
        assert lookup_function("ln").domain.contains_interval(Interval(0.5, 2.0))
        assert not lookup_function("ln").domain.contains_interval(Interval(0.0, 2.0))

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            lookup_function("sinh")

    @pytest.mark.parametrize(
        "name,params",
        [
            ("pow", [0]),
            ("pow", [2.5]),
            ("pow", []),
            ("pow", [2, 3]),
            ("abs_pow", [1.5]),
            ("abs_pow", []),
            ("exp", [1.0]),
            ("ln", [2.0]),
        ],
    )
    def test_invalid_parameters(self, name, params):
        with pytest.raises(InvalidParameter):
            lookup_function(name, params)

    @pytest.mark.parametrize(
        "text,shown", [("pow:nan", "nan"), ("pow:inf", "inf"), ("pow:-inf", "-inf"),
                       ("pow:1e400", "inf")],
    )
    def test_non_finite_exponent_is_not_an_integer(self, text, shown):
        # int() of these raised ValueError or OverflowError, not InvalidParameter
        with pytest.raises(InvalidParameter) as excinfo:
            parse_function_id(text)
        assert str(excinfo.value) == f"pow requires an integer exponent, got {shown}"

    def test_labels(self):
        assert lookup_function("exp").label == "exp"
        assert lookup_function("pow", [3]).label == "pow:3"
        assert lookup_function("abs_pow", [2.5]).label == "abs_pow:2.5"


class TestParseGrammar:
    @pytest.mark.parametrize("text", ["exp", "pow:3", "pow:-2", "abs_pow:2.5", "ln"])
    def test_round_trip(self, text):
        assert parse_function_id(text).label == text

    @pytest.mark.parametrize(
        "text,label",
        [("abs_pow:2.1234567", "abs_pow:2.1234567"), ("abs_pow:2.50", "abs_pow:2.5"),
         ("pow:9007199254740993", "pow:9007199254740992.0"), ("pow:1e20", "pow:1e+20")],
    )
    def test_label_keeps_every_digit(self, text, label):
        # {p:g} printed these as abs_pow:2.12346 and pow:9.0072e+15
        assert parse_function_id(text).label == label

    @given(st.one_of(
        st.floats(2.0, 1e300).map(lambda r: f"abs_pow:{r!r}"),
        st.integers(1, 2**70).map(lambda n: f"pow:{n}"),
        st.integers(-(2**70), -1).map(lambda n: f"pow:{n}"),
    ))
    def test_label_parses_back_to_the_same_parameters(self, text):
        fd = parse_function_id(text)
        assert parse_function_id(fd.label).parameters == fd.parameters

    def test_malformed_params(self):
        with pytest.raises(InvalidParameter):
            parse_function_id("pow:x")

    def test_empty_id(self):
        with pytest.raises(UnknownFunction):
            parse_function_id("")

    def test_unknown_id(self):
        with pytest.raises(UnknownFunction):
            parse_function_id("tanh:3")


_INTERIOR_POINTS = {
    "pow:2": (-1.7, -0.4, 0.6, 2.3),
    "pow:3": (-1.7, -0.4, 0.6, 2.3),
    "pow:-1": (0.35, 1.0, 2.6),
    "pow:-3": (0.35, 1.0, 2.6),
    "exp": (-1.7, -0.4, 0.6, 2.3),
    "ln": (0.35, 1.0, 2.6),
    "recip": (0.35, 1.0, 2.6),
    "neg_ln": (0.35, 1.0, 2.6),
    "abs_pow:2.5": (-1.7, -0.4, 0.6, 2.3),
    "abs_pow:2": (-1.7, -0.4, 0.6, 2.3),
}


@pytest.mark.parametrize("label", sorted(_INTERIOR_POINTS))
def test_deriv_matches_central_difference(label):
    # step 1e-5, relative agreement 1e-6 at interior points
    fd = parse_function_id(label)
    h = 1e-5
    for x in _INTERIOR_POINTS[label]:
        fdiff = (fd.eval(x + h) - fd.eval(x - h)) / (2.0 * h)
        exact = fd.deriv(x)
        assert abs(fdiff - exact) <= 1e-6 * max(1.0, abs(exact))


def test_abs_pow_derivative_at_zero():
    fd = lookup_function("abs_pow", [2.5])
    assert fd.deriv(0.0) == 0.0
    h = 1e-5
    fdiff = (fd.eval(h) - fd.eval(-h)) / (2.0 * h)
    assert abs(fdiff) <= 1e-6


class TestCheckConvexity:
    def test_convex_passes_with_zero_worst(self):
        rep = check_convexity(lambda x: x * x, Interval(-2.0, 3.0))
        assert rep.verdict == NO_VIOLATION
        assert rep.worst_violation == 0.0
        assert rep.samples == 7 * 257 * 256

    def test_concave_flagged_with_witness(self):
        rep = check_convexity(np.log, Interval(0.5, 4.0))
        assert rep.verdict == VIOLATED
        assert rep.worst_violation < -1e-12
        x, y, t = rep.witness
        slack = t * math.log(x) + (1 - t) * math.log(y) - math.log(t * x + (1 - t) * y)
        assert slack == pytest.approx(rep.worst_violation, rel=1e-9)

    def test_affine_worst_is_rounding_level(self):
        rep = check_convexity(lambda x: 3.0 * x + 1.0, Interval(-5.0, 5.0))
        assert rep.verdict == NO_VIOLATION
        assert abs(rep.worst_violation) <= 1e-12

    def test_affine_shift_invariance(self):
        # the secant slack is unchanged by adding an affine function
        iv = Interval(-1.0, 2.0)
        base = check_convexity(lambda x: -(x**2), iv)
        shifted = check_convexity(lambda x: -(x**2) + 7.0 * x - 2.0, iv)
        assert base.verdict == shifted.verdict == VIOLATED
        assert shifted.worst_violation == pytest.approx(base.worst_violation, rel=1e-9, abs=1e-12)

    def test_scalar_only_callable(self):
        rep = check_convexity(lambda x: math.exp(float(x)), Interval(0.0, 1.0), grid_points=17)
        assert rep.verdict == NO_VIOLATION

    def test_non_finite_raises(self):
        with pytest.raises(DomainViolation):
            check_convexity(np.log, Interval(-1.0, 1.0))

    def test_interval_wider_than_the_float_maximum(self):
        # b - a overflows; the grid still runs from a to b without a warning
        iv = Interval(-1e308, 1.7e308)
        seen = []
        rep = check_convexity(lambda x: seen.append(np.copy(x)) or x, iv, grid_points=9)
        assert rep.verdict == NO_VIOLATION
        assert (seen[0][0], seen[0][-1]) == (iv.a, iv.b)

    def test_rejects_degenerate_interval(self):
        with pytest.raises(ValueError):
            check_convexity(lambda x: x, Interval(1.0, 1.0))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            check_convexity(lambda x: x, Interval(0.0, 1.0), grid_points=2)

    @given(
        slope=st.floats(-100.0, 100.0),
        intercept=st.floats(-100.0, 100.0),
    )
    def test_affine_never_violates(self, slope, intercept):
        rep = check_convexity(
            lambda x: slope * x + intercept, Interval(-2.0, 2.0), grid_points=33
        )
        assert rep.verdict == NO_VIOLATION


def _full_scan(g, iv, grid_points=257, tol=1e-12):
    """Reference scan: all seven t-slices at once, first argmin of the tensor."""
    xs = np.linspace(iv.a, iv.b, grid_points)
    gx = eval_elementwise(g, xs)
    if not np.all(np.isfinite(gx)):
        raise DomainViolation("gx")
    ts = np.array([k / 8.0 for k in range(1, 8)])[:, None, None]
    mix = ts * xs[None, :, None] + (1.0 - ts) * xs[None, None, :]
    gmix = eval_elementwise(g, mix)
    if not np.all(np.isfinite(gmix)):
        raise DomainViolation("gmix")
    slack = ts * gx[None, :, None] + (1.0 - ts) * gx[None, None, :] - gmix
    diag = np.arange(grid_points)
    slack[:, diag, diag] = np.inf
    k, i, j = np.unravel_index(int(np.argmin(slack)), slack.shape)
    min_slack = float(slack[k, i, j])
    worst = min_slack if min_slack < 0.0 else 0.0
    return ConvexityReport(
        verdict=VIOLATED if worst < -tol else NO_VIOLATION,
        worst_violation=worst,
        witness=(float(xs[i]), float(xs[j]), float(ts[k, 0, 0])),
        samples=7 * grid_points * (grid_points - 1),
    )


def _deriv_power(fd, q):
    def g(x):
        with np.errstate(all="ignore"):
            return np.abs(fd.deriv(x)) ** q
    return g


_SCAN_CASES = [
    ("pow:3", -2.0, 1.5),
    ("pow:-2", 0.3, 4.0),
    ("exp", -1.0, 2.0),
    ("ln", 0.2, 3.0),
    ("recip", 0.5, 4.0),
    ("neg_ln", 0.7, 9.0),
    ("abs_pow:2.5", -2.0, 2.0),
]


class TestScanMatchesFullTensor:
    """The half-slice scan returns the 7-slice report bit for bit."""

    @staticmethod
    def _assert_same(g, iv, grid_points):
        got = check_convexity(g, iv, grid_points=grid_points)
        ref = _full_scan(g, iv, grid_points=grid_points)
        assert got == ref
        assert math.copysign(1.0, got.worst_violation) == math.copysign(1.0, ref.worst_violation)

    @pytest.mark.parametrize("grid_points", [3, 9, 257])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("label,a,b", _SCAN_CASES)
    def test_deriv_powers(self, label, a, b, q, grid_points):
        self._assert_same(_deriv_power(parse_function_id(label), q), Interval(a, b), grid_points)

    @pytest.mark.parametrize("grid_points", [3, 9, 257])
    @pytest.mark.parametrize("label,a,b", _SCAN_CASES)
    def test_function_values(self, label, a, b, grid_points):
        # concave entries (ln) violate, so the witness is a real minimiser
        self._assert_same(parse_function_id(label).eval, Interval(a, b), grid_points)

    @pytest.mark.parametrize("grid_points", [3, 9, 257])
    @pytest.mark.parametrize(
        "g", [lambda x: 0.0 * x, lambda x: 3.0 * x + 1.0, lambda x: -0.1 * x + 7.0],
        ids=["zero", "affine", "affine-neg"],
    )
    def test_all_ties(self, g, grid_points):
        self._assert_same(g, Interval(-5.0, 5.0), grid_points)

    @pytest.mark.parametrize("grid_points", [3, 9, 257])
    def test_worst_at_midpoint_slice(self, grid_points):
        # -x^2 has slack -t(1-t)(x-y)^2, lowest on the t = 1/2 slice
        self._assert_same(lambda x: -(x * x), Interval(-1.0, 2.0), grid_points)

    def test_scalar_only_callable(self):
        self._assert_same(lambda x: math.exp(float(x)), Interval(0.0, 1.0), 17)

    def test_domain_violation_parity(self):
        with pytest.raises(DomainViolation):
            _full_scan(np.log, Interval(-1.0, 1.0))
        with pytest.raises(DomainViolation):
            check_convexity(np.log, Interval(-1.0, 1.0))


class TestGridCap:
    def test_above_cap_rejected_before_evaluation(self):
        calls = []

        def g(x):
            calls.append(x)
            return x

        with pytest.raises(ValueError, match=f"<= {MAX_GRID_POINTS}"):
            check_convexity(g, Interval(0.0, 1.0), grid_points=MAX_GRID_POINTS + 1)
        assert calls == []


class TestCheckHypothesis:
    def test_exp_all_exponents(self):
        fd = lookup_function("exp")
        for q in (1.0, 1.5, 2.0, 10.0):
            assert check_hypothesis(fd, Interval(-2.0, 2.0), q, grid_points=65).ok

    def test_concave_function_can_still_satisfy(self):
        # ln is concave but |1/x|^q is convex on x > 0
        fd = lookup_function("ln")
        assert check_hypothesis(fd, Interval(0.5, 3.0), 2.0, grid_points=65).ok

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponent):
            check_hypothesis(lookup_function("exp"), Interval(0.0, 1.0), 0.5)

    def test_interval_outside_domain(self):
        with pytest.raises(DomainViolation):
            check_hypothesis(lookup_function("ln"), Interval(-1.0, 1.0), 2.0)

    def test_checks_in_order_before_the_closed_form(self):
        exp = lookup_function("exp")
        with pytest.raises(InvalidExponent):
            check_hypothesis(lookup_function("ln"), Interval(-1.0, -1.0), 0.5, grid_points=2)
        with pytest.raises(DomainViolation, match="not inside the domain"):
            check_hypothesis(lookup_function("ln"), Interval(-1.0, -1.0), 2.0, grid_points=2)
        with pytest.raises(ValueError, match="non-degenerate interval"):
            check_hypothesis(exp, Interval(1.0, 1.0), 2.0, grid_points=2)
        with pytest.raises(ValueError, match="grid_points must be >= 3, got 2"):
            check_hypothesis(exp, Interval(0.0, 1.0), 2.0, grid_points=2)
        with pytest.raises(ValueError, match="grid_points must be <= 2049, got 2050"):
            check_hypothesis(exp, Interval(0.0, 1.0), 2.0, grid_points=2050)

    def test_not_finite_at_an_endpoint_is_the_scans_domain_error(self):
        # e^(3x) overflows at x = 240: the scan raised this on its grid
        exp = lookup_function("exp")
        with pytest.raises(DomainViolation) as exc:
            check_hypothesis(exp, Interval(230.0, 240.0), 3.0)
        assert str(exc.value) == "function not finite everywhere on [230.0, 240.0]"
        assert check_hypothesis(exp, Interval(230.0, 236.5), 3.0) is TRIVIAL_HYPOTHESIS

    def test_undeclared_descriptor_is_sampled(self):
        # |f'|^2 = sin^2 is concave near pi/2
        fd = FunctionDescriptor(id="neg_cos", parameters=(), eval=lambda x: -np.cos(x),
                                deriv=np.sin)
        assert not fd.convex_deriv_powers
        rep = check_hypothesis(fd, Interval(0.0, 3.0), 2.0, grid_points=65)
        assert rep.verdict == VIOLATED
        assert rep.samples == 7 * 65 * 64


# Every catalog entry: each declares |f'|^q convex for q >= 1.
_CATALOG_LABELS = (
    "exp", "ln", "neg_ln", "recip", "pow:1", "pow:2", "pow:3", "pow:4", "pow:5",
    "pow:-1", "pow:-2", "pow:-3", "abs_pow:2", "abs_pow:2.5", "abs_pow:3.7",
)


@pytest.mark.parametrize("label", _CATALOG_LABELS)
def test_declared_hypothesis_agrees_with_the_sampled_scan(label):
    # The oracle scans |f'|^q divided by its larger endpoint value, a positive
    # constant that keeps convexity: the scan's tolerance is absolute, and
    # unscaled values up to 1e28 would drown it in rounding.
    fd = parse_function_id(label)
    assert fd.convex_deriv_powers
    lo, hi = (0.1, 10.0) if fd.domain.lower == 0.0 else (-3.0, 3.0)
    rng = SplitMix64(20100)
    for _ in range(6):
        iv = draw_interval(rng, lo, hi, fd.domain)
        for q in (1.0, 1.5, 2.0, 3.0, 7.0):
            assert check_hypothesis(fd, iv, q) is TRIVIAL_HYPOTHESIS

            def g(x, q=q):
                return np.abs(fd.deriv(x)) ** q

            scale = max(float(g(iv.a)), float(g(iv.b)))
            rep = check_convexity(lambda x: g(x) / scale, iv, grid_points=33)
            assert rep.verdict == NO_VIOLATION, (iv, q, rep)


@pytest.mark.parametrize("r,kinks", [(2.0, ()), (4.0, ()), (3.0, (0.0,)), (2.5, (0.0,))])
def test_abs_pow_declares_a_kink_only_where_f_prime_has_one(r, kinks):
    # for an even integer r, f' = r x^(r-1) is a polynomial
    assert lookup_function("abs_pow", [r]).kinks == kinks


def test_kinks_inside_is_the_open_interval():
    fd = lookup_function("abs_pow", [2.5])
    assert fd.kinks == (0.0,)
    assert fd.kinks_inside(-1.0, 2.0) == (0.0,)
    assert fd.kinks_inside(0.0, 2.0) == fd.kinks_inside(-1.0, 0.0) == ()
    assert lookup_function("exp").kinks_inside(-1.0, 1.0) == ()


class TestOptionValidators:
    """The checks the CLI runs on its options before any evaluation."""

    @pytest.mark.parametrize("grid", [3, 257, MAX_GRID_POINTS])
    def test_grid_points_in_range_pass(self, grid):
        check_grid_points(grid)

    @pytest.mark.parametrize("grid", [-1, 0, 2, MAX_GRID_POINTS + 1])
    def test_grid_points_out_of_range_raise(self, grid):
        with pytest.raises(ValueError, match="grid_points must be"):
            check_grid_points(grid)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            check_tol(tol)

    def test_sampling_range_is_intersected_with_the_domain(self):
        assert sampling_range(-5.0, 5.0, Domain(lower=0.0)) == (0.0, 5.0)
        assert sampling_range(-5.0, 5.0, Domain()) == (-5.0, 5.0)
        with pytest.raises(ValueError, match="empty sampling range"):
            sampling_range(-5.0, -1.0, Domain(lower=0.0))
