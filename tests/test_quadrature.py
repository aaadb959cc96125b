"""Adaptive Gauss-Kronrod integration, over panels in 1D and over boxes in 2D."""

import dataclasses
import errno
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhcert import bounds, kernel, quadrature
from hhcert.bounds import verify_identity
from hhcert.catalog import Interval, parse_function_id
from hhcert.errors import NonFiniteEvaluation
from hhcert.kernel import _moment_integrand, kernel_m, kernel_p_numeric
from hhcert.quadrature import QuadratureResult, graded_map, integrate_1d, integrate_2d


@pytest.mark.parametrize(
    "g,a,b,exact",
    [
        (lambda x: np.ones_like(x), -1.5, 2.0, 3.5),
        (lambda x: x, -1.5, 2.0, (4.0 - 2.25) / 2.0),
        (lambda x: x**2, -1.5, 2.0, (8.0 + 3.375) / 3.0),
        (lambda x: x**3, 0.0, 1.0, 0.25),
    ],
)
def test_polynomials_without_refinement(g, a, b, exact):
    # G7/K15 is exact here; the first pass must accept every panel
    res = integrate_1d(g, Interval(a, b))
    assert res.converged
    assert res.subdivisions == 0
    assert res.value == pytest.approx(exact, abs=1e-13)


def test_exp_matches_closed_form():
    res = integrate_1d(np.exp, Interval(0.0, 1.0), tol=1e-10)
    assert res.converged
    assert abs(res.value - (math.e - 1.0)) <= 1e-10


def test_kink_with_breakpoint_is_exact():
    g = lambda x: np.abs(x - 1.0 / 3.0)
    res = integrate_1d(g, Interval(0.0, 1.0), breakpoints=(1.0 / 3.0,))
    assert res.converged
    assert res.subdivisions == 0
    assert res.value == pytest.approx(5.0 / 18.0, abs=1e-14)


def test_kink_without_breakpoint_still_converges():
    g = lambda x: np.abs(x - 1.0 / 3.0)
    res = integrate_1d(g, Interval(0.0, 1.0), tol=1e-10)
    assert res.converged
    assert res.subdivisions > 0
    assert res.value == pytest.approx(5.0 / 18.0, abs=1e-9)


class TestGradedMap:
    # [-1, -0.25] is graded toward its upper end; each panel after it has a
    # graded point at both ends and is split at its midpoint (0.625 for [0.5, 0.75])
    _EDGES = (-1.0, -0.25, 0.5, 0.75, 2.0)
    _TOWARD = (-0.25, 0.5, 0.75, 2.0)

    def test_maps_every_edge_onto_itself_and_is_monotone(self):
        phi = graded_map(self._EDGES, self._TOWARD)
        x, dx = phi(np.array(self._EDGES + (0.625,)))
        assert x.tolist() == list(self._EDGES + (0.625,))
        assert dx.tolist() == [2.0, 0.0, 0.0, 0.0, 0.0, 2.0]
        x, dx = phi(np.linspace(-1.0, 2.0, 30001))
        assert np.all(np.diff(x) > 0.0) and np.all(dx >= 0.0)

    def test_scalar_and_array_arguments_agree(self):
        phi = graded_map(self._EDGES, self._TOWARD)
        u = np.linspace(-1.0, 2.0, 97)
        x, dx = phi(u)
        for j, v in enumerate(u.tolist()):
            assert tuple(map(float, phi(v))) == (x[j], dx[j])

    @settings(max_examples=50)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=6, unique=True), st.data())
    def test_graded_points_exact_and_other_edges_up_to_rounding(self, edges, data):
        # a panel's far end is k + (end - k): two roundings at the scale of the edges
        toward = data.draw(st.lists(st.sampled_from(edges), max_size=3))
        phi = graded_map(edges, toward)
        edges = sorted(edges)
        scale = max(map(abs, edges))
        for e, x in zip(edges, phi(np.array(edges))[0].tolist()):
            assert x == e if e in toward else abs(x - e) <= 2 * math.ulp(scale)
        for lo, hi in zip(edges, edges[1:]):
            x = phi(np.linspace(lo, hi, 101)[:-1])[0]
            assert np.all(np.diff(x) >= 0.0)

    @pytest.mark.parametrize("lo,k,hi", [(-1.0, 0.3, 2.0), (0.0, 0.5, 1.0), (-2.5, -0.7, 0.1)])
    def test_power_of_the_distance_to_an_interior_edge(self, lo, k, hi):
        # graded, |x - k|^1.5 dx is 2 |H|^2.5 w^4 du on each side of k
        mpmath = pytest.importorskip("mpmath")
        phi = graded_map((lo, k, hi), (k,))

        def g(u):
            x, dx = phi(u)
            return np.abs(x - k) ** 1.5 * dx

        res = integrate_1d(g, Interval(lo, hi), breakpoints=(k,))
        with mpmath.workdps(50):
            exact = float(((mpmath.mpf(k) - lo) ** 2.5 + (hi - mpmath.mpf(k)) ** 2.5) / 2.5)
        assert res.converged and res.subdivisions == 0
        # the 15-digit Kronrod weights bias every result by about 3e-15 relative
        assert abs(res.value - exact) <= min(res.error_estimate, 32 * 2.0**-52 * exact)


def test_degenerate_interval_is_zero():
    res = integrate_1d(np.exp, Interval(2.0, 2.0))
    assert res == QuadratureResult(0.0, 0.0, 0, True)


def test_breakpoints_at_endpoints_are_dropped():
    res = integrate_1d(np.exp, Interval(0.0, 1.0), breakpoints=(0.0, 1.0))
    assert res.converged
    assert abs(res.value - (math.e - 1.0)) <= 1e-10


def test_breakpoint_outside_interval_rejected():
    with pytest.raises(ValueError):
        integrate_1d(np.exp, Interval(0.0, 1.0), breakpoints=(1.5,))


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
def test_bad_tol_rejected(tol):
    with pytest.raises(ValueError):
        integrate_1d(np.exp, Interval(0.0, 1.0), tol=tol)


_ERANGE = (errno.ERANGE, os.strerror(errno.ERANGE))
_XK = quadrature._XK  # the nodes of the one panel [-1, 1]; odd indices are Gauss nodes


@pytest.mark.parametrize(
    "g,iv,error,args",
    [
        pytest.param(lambda x: 1.0 / x, Interval(-1.0, 1.0), NonFiniteEvaluation,
                     ("integrand not finite at x=0.0",), id="inf-at-the-centre"),
        pytest.param(lambda x: np.where(x == _XK[2], np.nan, x), Interval(-1.0, 1.0),
                     NonFiniteEvaluation, ("integrand not finite at x=-0.864864423359769",),
                     id="nan-at-a-kronrod-node"),
        pytest.param(lambda x: np.where(x == _XK[5], np.nan, x), Interval(-1.0, 1.0),
                     NonFiniteEvaluation, ("integrand not finite at x=-0.405845151377397",),
                     id="nan-at-a-gauss-node"),
        # the first non-finite node in row order is named, here the -inf
        pytest.param(lambda x: np.where(x > 0.5, np.inf, np.where(x < -0.5, -np.inf, x)),
                     Interval(-1.0, 1.0), NonFiniteEvaluation,
                     ("integrand not finite at x=-0.991455371120813",), id="plus-and-minus-inf"),
        # every value is finite, the panel's Kronrod sum of them is not
        pytest.param(lambda x: np.full_like(x, 1.7e308), Interval(0.0, 4.0), OverflowError,
                     _ERANGE, id="panel-estimate-overflows"),
    ],
)
def test_non_finite_evaluation_raises(g, iv, error, args):
    with pytest.raises(error) as exc:
        integrate_1d(g, iv)
    assert type(exc.value) is error and exc.value.args == args


def test_panels_past_half_the_float_maximum():
    # 0.5 * (a + b) overflowed here, so every node was inf; the mean of ln
    # over [a, b] lies between ln a and ln b
    a, b = 1.2e308, 1.7e308
    res = integrate_1d(lambda x: np.log(x) / (b - a), Interval(a, b), tol=1e-10)
    assert res.converged
    assert math.log(a) <= res.value <= math.log(b)


def test_integral_beyond_the_float_range_raises():
    # every node is finite, but the integral, about 3.5e310, is not
    with pytest.raises(OverflowError):
        integrate_1d(np.log, Interval(1.2e308, 1.7e308), tol=1e-10)


def test_sum_beyond_the_float_range_raises():
    # each panel's estimate is finite (1e308), their sum is not
    with pytest.raises(OverflowError):
        integrate_1d(lambda x: np.full_like(x, 1e308), Interval(0.0, 2.0), breakpoints=(1.0,))


def test_panel_wider_than_the_float_maximum():
    # b - a and 0.5 * (b - a) overflowed; int exp(-(x/c)^2) dx / c = sqrt(pi)
    c = 1e307
    res = integrate_1d(lambda x: np.exp(-((x / c) ** 2)) / c, Interval(-1.7e308, 1e308), tol=1e-10)
    assert res.converged
    assert abs(res.value - math.sqrt(math.pi)) <= res.error_estimate


def test_budget_exhaustion_returns_best_estimate():
    # integrable endpoint singularity: refinement near 0 cannot meet 1e-14
    res = integrate_1d(lambda x: x**-0.5, Interval(0.0, 1.0), tol=1e-14)
    assert not res.converged
    assert res.error_estimate > 1e-14
    assert res.value == pytest.approx(2.0, abs=1e-6)


def test_converged_error_estimate_is_within_tol():
    for g, iv in [
        (np.exp, Interval(-2.0, 2.0)),
        (np.log, Interval(0.5, 3.0)),
        (lambda x: np.abs(x) ** 1.5, Interval(-1.0, 2.0)),
    ]:
        res = integrate_1d(g, iv, tol=1e-10)
        assert res.converged
        assert res.error_estimate <= 1e-10


def test_log_matches_scipy():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    ours = integrate_1d(np.log, Interval(0.5, 3.0), tol=1e-12)
    ref, _ = scipy_integrate.quad(math.log, 0.5, 3.0, epsabs=1e-13, epsrel=1e-13)
    assert ours.value == pytest.approx(ref, abs=1e-11)


def test_additivity_across_a_split():
    whole = integrate_1d(np.exp, Interval(0.0, 2.0), tol=1e-11)
    left = integrate_1d(np.exp, Interval(0.0, 0.7), tol=1e-11)
    right = integrate_1d(np.exp, Interval(0.7, 2.0), tol=1e-11)
    assert whole.value == pytest.approx(left.value + right.value, abs=5e-11)


@settings(deadline=None, max_examples=25)
@given(
    c3=st.floats(-5.0, 5.0),
    c2=st.floats(-5.0, 5.0),
    c1=st.floats(-5.0, 5.0),
    c0=st.floats(-5.0, 5.0),
)
def test_cubic_exactness_property(c3, c2, c1, c0):
    a, b = -1.0, 2.0
    res = integrate_1d(lambda x: ((c3 * x + c2) * x + c1) * x + c0, Interval(a, b))
    anti = lambda x: ((c3 * x / 4.0 + c2 / 3.0) * x + c1 / 2.0) * x**2 + c0 * x
    assert res.converged
    assert res.value == pytest.approx(anti(b) - anti(a), abs=1e-11)


@settings(deadline=None, max_examples=20)
@given(alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0))
def test_linearity_property(alpha, beta):
    iv = Interval(0.2, 1.7)
    mixed = integrate_1d(lambda x: alpha * np.exp(x) + beta * np.log(x), iv, tol=1e-11)
    ex = integrate_1d(np.exp, iv, tol=1e-11)
    ln = integrate_1d(np.log, iv, tol=1e-11)
    assert mixed.value == pytest.approx(alpha * ex.value + beta * ln.value, abs=1e-9)


def _scalar_only(t, s):
    # (m(t) - m(s))^2 through Python comparisons, so arrays raise
    mt = t if t <= 0.5 else t - 1.0
    ms = s if s <= 0.5 else s - 1.0
    return (mt - ms) ** 2


class _Refused(Exception):
    """An integrand's own error, not a sign that it is scalar-only."""


def test_integrand_error_propagates_from_the_array_call():
    # only TypeError or ValueError (an array-unaware integrand) starts the
    # point-by-point retry; any other error is raised by the one array call
    calls = []

    def refuses_above_half(x):
        calls.append(np.shape(x))
        if np.any(np.asarray(x) > 0.5):
            raise _Refused
        return x

    with pytest.raises(_Refused):
        integrate_1d(refuses_above_half, Interval(0.0, 1.0))
    assert len(calls) == 1


def _one_node_at_a_time(g):
    """g made scalar-only: float() of an array of nodes raises TypeError."""
    return lambda *xs: g(*map(float, xs))


def _spied(g, calls):
    def spy(*xs):
        calls.append(len(xs))
        return g(*xs)
    return spy


@pytest.mark.parametrize("breakpoints", [(), (0.5,), (0.3, 0.7)])
@pytest.mark.parametrize(
    "g",
    [lambda t, s: np.exp(t), lambda t, s: np.sin(7.0 * s) ** 2, lambda t, s: np.sqrt(t),
     lambda t, s: 2.5],
    ids=["exp-t", "sin-s", "sqrt-t", "constant"],
)
def test_one_axis_and_constant_2d_results_are_broadcast(g, breakpoints):
    # a result of one node vector's shape, or a scalar, is one call a level,
    # and the same integral bit for bit as the node-by-node evaluation
    calls = []
    got = integrate_2d(_spied(g, calls), 1e-10, breakpoints)
    want = integrate_2d(_one_node_at_a_time(g), 1e-10, breakpoints)
    assert len(calls) == got.subdivisions + 1
    assert (repr(got.value), repr(got.error_estimate), got.subdivisions, got.converged) == (
        repr(want.value), repr(want.error_estimate), want.subdivisions, want.converged)


@pytest.mark.parametrize("c", [2.5, -1e-3])
def test_constant_1d_result_is_broadcast(c):
    calls = []
    iv = Interval(-3.0, 7.5)
    got = integrate_1d(_spied(lambda x: c, calls), iv, 1e-10, (iv.midpoint,))
    want = integrate_1d(_one_node_at_a_time(lambda x: c), iv, 1e-10, (iv.midpoint,))
    assert len(calls) == got.subdivisions + 1 == 1
    assert (repr(got.value), repr(got.error_estimate)) == (
        repr(want.value), repr(want.error_estimate))


class TestIterated2D:
    def test_separable_product(self):
        res = integrate_2d(lambda t, s: t * s, tol=1e-10)
        assert res.converged
        assert res.value == pytest.approx(0.25, abs=1e-12)

    def test_constant(self):
        res = integrate_2d(lambda t, s: 1.0, tol=1e-10)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_abs_difference(self):
        # int_0^1 int_0^1 |t - s| dt ds = 1/3; the crease at t = s is a
        # diagonal, which no box edge can follow, so the embedded estimate
        # under-reports there (documented); the value still lands within ~1e-7
        res = integrate_2d(lambda t, s: abs(t - s), tol=1e-9)
        assert res.converged
        assert res.value == pytest.approx(1.0 / 3.0, abs=5e-7)

    def test_breakpoints_forwarded(self):
        res = integrate_2d(_scalar_only, tol=1e-10, breakpoints=(0.5,))
        assert res.converged
        assert res.error_estimate <= 1e-10
        assert res.value == pytest.approx(1.0 / 6.0, abs=1e-10)

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            integrate_2d(lambda t, s: t + s, tol=-1.0)


def _recording(g, shapes):
    """g, appending the broadcast shape of each array call's nodes to shapes."""
    def recorded(t, s):
        shapes.append(np.broadcast_shapes(np.shape(t), np.shape(s)))
        return g(t, s)

    return recorded


def _levels_of(monkeypatch, module):
    """The (result, node shapes of each level) of every integrate_2d call made
    through module."""
    calls = []

    def recorded(g, *args, **kwargs):
        shapes = []
        calls.append((integrate_2d(_recording(g, shapes), *args, **kwargs), shapes))
        return calls[-1][0]

    monkeypatch.setattr(module, "integrate_2d", recorded)
    return calls


def _lemma2_double_integral(monkeypatch, fn, a, b):
    """verify_identity's Lemma 2 double integral of fn on [a, b], and the shape
    of the nodes of each of its levels."""
    calls = _levels_of(monkeypatch, bounds)
    verify_identity("L2", parse_function_id(fn), Interval(a, b))
    return calls[0]


_UNIT = 0.5 + 0.5 * _XK  # the nodes of the one box's axes


def _not_finite_at(t, s):
    return (NonFiniteEvaluation, (f"integrand not finite at (t, s)=({t!r}, {s!r})",))


class TestAdaptiveCubature:
    @pytest.mark.parametrize(
        "g,raised",
        [
            pytest.param(lambda t, s: np.where((t == 0.5) & (s == 0.5), np.nan, np.sqrt(t) + s),
                         _not_finite_at(0.5, 0.5), id="nan-at-the-centre"),
            pytest.param(lambda t, s: np.where((t == _UNIT[2]) & (s == _UNIT[12]), np.nan, t + s),
                         _not_finite_at(0.06756778832011551, 0.9324322116798844),
                         id="nan-at-a-kronrod-node"),
            pytest.param(lambda t, s: np.where((t == _UNIT[9]) & (s == _UNIT[3]), np.nan, t + s),
                         _not_finite_at(0.7029225756886985, 0.129234407200303),
                         id="nan-at-a-gauss-node"),
            # the first non-finite node in row order (t, then s) is named, here a +inf
            pytest.param(lambda t, s: np.where(s > 0.9, np.inf, np.where(t > 0.9, -np.inf, t + s)),
                         _not_finite_at(0.0042723144395935275, 0.9324322116798844),
                         id="plus-and-minus-inf"),
            # every value is finite, a box's Kronrod sum of them is not
            pytest.param(lambda t, s: np.where(s > 0.5, 1.7e308, np.sqrt(t) + s),
                         (OverflowError, _ERANGE), id="box-estimate-overflows"),
        ],
    )
    def test_nonfinite_value_names_its_node(self, g, raised):
        error, args = raised
        with pytest.raises(error) as exc:
            integrate_2d(g, tol=1e-10)
        assert type(exc.value) is error and exc.value.args == args

    def test_integrand_exception_propagates_unchanged(self):
        class Boom(Exception):
            pass

        def g(t, s):
            raise Boom("no value here")

        with pytest.raises(Boom, match="no value here"):
            integrate_2d(g, tol=1e-10)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"tol": 0.0}, "tol must be positive and finite"),
            ({"tol": math.inf}, "tol must be positive and finite"),
            ({"breakpoints": (0.5, -1.0)}, r"breakpoint -1\.0 outside"),
            ({"breakpoints": (math.nan,)}, "breakpoint nan outside"),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            integrate_2d(lambda t, s: t * s, **kwargs)

    def test_tolerance_below_the_rounding_floor_is_not_converged(self):
        # a tol far below rounding is a valid request: the boxes stop at the
        # rounding floor and the result says it missed tol
        res = integrate_2d(lambda t, s: t * s, tol=1e-323)
        assert not res.converged
        # the 15-digit Kronrod weights bias every result by about 3e-15 relative
        assert res.value == pytest.approx(0.25, abs=32 * 2.0**-52)

    def test_node_cap_stops_a_rough_integrand(self, monkeypatch):
        # every box wider than the wiggles is rejected and split in four, so
        # the levels grow until the next would pass _MAX_PANELS * 15 nodes
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 960)
        shapes = []
        g = _recording(lambda t, s: np.abs(np.sin(1e6 * t)) + np.abs(np.sin(1e6 * s)), shapes)
        res = integrate_2d(g, tol=1e-12)
        assert not res.converged
        assert max(math.prod(shape) for shape in shapes) <= 960 * 15
        assert shapes[-1] == (64, 15, 15)

    def test_depth_cap_returns_the_best_estimate(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 4)
        res = integrate_2d(lambda t, s: np.abs(t - s), tol=1e-12)
        assert not res.converged
        assert res.subdivisions == 4
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_each_axis_comes_as_one_node_vector_per_box(self):
        # t varies along axis 1 and s along axis 2, and g broadcasts them to
        # the 15 x 15 tensor nodes of each box
        seen = []

        def g(t, s):
            seen.append((np.shape(t), np.shape(s)))
            return np.sqrt(t) * (1.0 + s * s)

        integrate_2d(g, 1e-10, breakpoints=(0.5,))
        assert len(seen) > 1
        assert all(ts == ((ts[0][0], 15, 1), (ts[0][0], 1, 15)) for ts in seen)

    def test_a_smooth_axis_is_not_split(self):
        # sqrt(t) needs refinement toward t = 0, and the polynomial in s none:
        # each level halves the one open box along t only, which leaves two
        shapes = []
        res = integrate_2d(_recording(lambda t, s: np.sqrt(t) * (1.0 + s * s), shapes), 1e-10)
        assert res.converged
        assert res.value == pytest.approx(8.0 / 9.0, abs=1e-10)
        assert len(shapes) > 2 and [shape[0] for shape in shapes[1:]] == [2] * (len(shapes) - 1)

    def test_abs_pow_lemma2_levels_stay_small(self, monkeypatch):
        # splitting every open box in four made a 1,532-box level here
        res, shapes = _lemma2_double_integral(
            monkeypatch, "abs_pow:2.5", -1.5945141722860678, 1.5942221222674915)
        assert res.converged
        assert max(shape[0] for shape in shapes) <= 64


def _iterated_integral(g, tol=1e-10, breakpoints=()):
    """The integral of g over the unit square as an integral over s of one
    integrate_1d over t per outer node: a reference that shares no code path
    with integrate_2d's boxes.  Its error estimate adds the outer estimate to
    the largest inner one."""
    inner = []

    def outer_integrand(s):
        if np.ndim(s) != 0:
            raise TypeError("outer integrand is scalar-only")
        res = integrate_1d(lambda t: g(t, float(s)), Interval(0.0, 1.0), tol / 10.0, breakpoints)
        inner.append(res)
        return res.value

    outer = integrate_1d(outer_integrand, Interval(0.0, 1.0), 0.9 * tol, breakpoints)
    error = outer.error_estimate + max(res.error_estimate for res in inner)
    converged = outer.converged and all(res.converged for res in inner) and error <= tol
    return QuadratureResult(outer.value, error, outer.subdivisions, converged)


def _kernel_integrand(p):
    return lambda t, s: abs(kernel_m(t) - kernel_m(s)) ** p


def _lemma2(fn, a, b, graded_t=()):
    phi = graded_map((0.0, 0.5, *graded_t, 1.0), graded_t) if graded_t else None
    return bounds._lemma2_integrand(parse_function_id(fn), lambda u: u * a + (1.0 - u) * b, phi)


_SPLIT_AT_HALF = {"tol": 1e-10, "breakpoints": (0.5,)}


class TestAgainstIteratedIntegrals:
    """integrate_2d's boxes against one 1D integral per outer node."""

    @pytest.mark.parametrize(
        "g,kwargs",
        [
            # the unmapped kernel's crease t = s is a diagonal: at p = 1.1 the
            # boxes reach the node cap, and the estimate still covers the gap
            pytest.param(_kernel_integrand(1.1), _SPLIT_AT_HALF, id="kernel-p1.1"),
            pytest.param(_kernel_integrand(1.5), _SPLIT_AT_HALF, id="kernel-p1.5"),
            pytest.param(_kernel_integrand(2.0), _SPLIT_AT_HALF, id="kernel-p2"),
            pytest.param(_kernel_integrand(3.0), _SPLIT_AT_HALF, id="kernel-p3"),
            pytest.param(_lemma2("abs_pow:2.5", -2.0, 0.7), _SPLIT_AT_HALF, id="L2-abs_pow"),
            pytest.param(_lemma2("abs_pow:2.5", -2.0, 0.7, (0.7 / 2.7,)),
                         {"tol": 1e-10, "breakpoints": (0.5, 0.7 / 2.7)}, id="L2-abs_pow-graded"),
            pytest.param(_lemma2("recip", 0.15, 0.9), _SPLIT_AT_HALF, id="L2-recip"),
            pytest.param(_lemma2("pow:3", -1.0, 2.0), _SPLIT_AT_HALF, id="L2-pow3"),
            pytest.param(_lemma2("exp", -1.0, 2.0), _SPLIT_AT_HALF, id="L2-exp"),
            pytest.param(_lemma2("pow:-1", 0.5, 3.0), _SPLIT_AT_HALF, id="L2-pow-1"),
            pytest.param(_lemma2("pow:-2", 1.0, 3.0), _SPLIT_AT_HALF, id="L2-pow-2"),
            pytest.param(lambda t, s: t * s, {"tol": 1e-10}, id="t*s"),
            pytest.param(lambda t, s: 1.0, {"tol": 1e-10}, id="constant"),
            pytest.param(lambda t, s: abs(t - s), {"tol": 1e-7}, id="abs-diff"),
            pytest.param(_scalar_only, _SPLIT_AT_HALF, id="scalar-only"),
            # graded at its y edge, as for every non-integer p below 4
            pytest.param(_moment_integrand(1.1), {"tol": 1e-10}, id="mapped-kernel-p1.1"),
            pytest.param(_moment_integrand(2.0), {"tol": 1e-10}, id="mapped-kernel-p2"),
            pytest.param(_moment_integrand(4.5), {"tol": 1e-10}, id="mapped-kernel-p4.5"),
            pytest.param(lambda t, s: np.sqrt(t) + math.sin(s), {"tol": 1e-10},
                         id="array-t-float-s"),
            # an array of t's shape, not of the nodes', broadcast to them
            pytest.param(lambda t, s: np.exp(t), {"tol": 1e-10}, id="t-only"),
        ],
    )
    def test_matches_the_iterated_integral(self, g, kwargs):
        boxes, iterated = integrate_2d(g, **kwargs), _iterated_integral(g, **kwargs)
        assert iterated.converged
        assert abs(boxes.value - iterated.value) <= (
            boxes.error_estimate + iterated.error_estimate + 4 * 2.0**-52 * abs(iterated.value))


# the L2 goldens, a graded abs_pow case, and one interval for every other
# catalog entry
_SHIPPED_L2 = [
    ("abs_pow:2.5", -1.0, 2.0), ("abs_pow:2.5", -2.0, 0.7), ("recip", 0.5, 3.0),
    ("pow:3", -1.0, 2.0), ("exp", -1.0, 2.0), ("ln", 0.5, 3.0), ("neg_ln", 0.5, 3.0),
    ("pow:1", 0.0, 2.0), ("pow:-1", 0.5, 3.0), ("pow:-2", 1.0, 3.0),
]


@pytest.mark.parametrize("fn,a,b", _SHIPPED_L2)
def test_lemma2_double_integral_against_a_single_one(monkeypatch, fn, a, b):
    # by Fubini and int m = 0 the double integral is -2 int_0^1 m(t) f'(x(t)) dt,
    # so Lemma 2 is Lemma 1 rewritten; the 1D integral is an independent oracle
    fd = parse_function_id(fn)
    double, _ = _lemma2_double_integral(monkeypatch, fn, a, b)
    edges = (0.5, *((b - k) / (b - a) for k in fd.kinks_inside(a, b)))
    single = integrate_1d(lambda t: kernel_m(t) * fd.deriv(t * a + (1.0 - t) * b),
                          Interval(0.0, 1.0), 1e-12, breakpoints=edges)
    assert double.converged and single.converged
    assert abs(double.value + 2.0 * single.value) <= (
        double.error_estimate + 2.0 * single.error_estimate + 4 * 2.0**-52 * abs(double.value))


def test_lemma2_takes_f_prime_on_each_axis_node_once(monkeypatch):
    # a box has 15 distinct t and 15 distinct s: f' runs on 30 values of it a
    # level, not on all 15 x 15 nodes twice
    fd = parse_function_id("recip")
    sizes = []

    def deriv(x):
        if np.ndim(x) == 3:  # a level of integrate_2d's nodes
            sizes.append(np.size(x))
        return fd.deriv(x)

    calls = _levels_of(monkeypatch, bounds)
    verify_identity("L2", dataclasses.replace(fd, deriv=deriv), Interval(0.5, 3.0))
    [(_, shapes)] = calls
    assert sizes == [15 * shape[0] for shape in shapes for _axis in "ts"]


@pytest.mark.parametrize("p", [1.0, 1.1, 1.5, 2.0, 3.0, 3.7, 4.0, 7.5, 100.5])
def test_kernel_moment_against_the_triangular_density(p):
    # m(t) is uniform on [-1/2, 1/2], so m(t) - m(s) has density 1 - |d| on
    # [-1, 1] and the moment is 2 int_0^1 d^p (1 - d) dd, a 1D oracle
    moment = kernel_p_numeric(p)
    oracle = integrate_1d(lambda d: 2.0 * d**p * (1.0 - d), Interval(0.0, 1.0), 1e-13)
    assert moment.converged and oracle.converged
    assert abs(moment.value - oracle.value) <= (moment.error_estimate + oracle.error_estimate
                                                + 4 * 2.0**-52 * oracle.value)


@pytest.mark.parametrize(
    "module,certify",
    [pytest.param(kernel, lambda p=p: kernel_p_numeric(p), id=f"kernel-p{p}")
     for p in (1.0, 1.1, 1.5, 2.0, 3.0, 3.7, 4.0)]
    + [pytest.param(bounds,
                    lambda c=c: verify_identity("L2", parse_function_id(c[0]), Interval(*c[1:])),
                    id=f"L2-{c[0]}[{c[1]}, {c[2]}]") for c in _SHIPPED_L2],
)
def test_shipped_integrands_stay_far_from_the_caps(monkeypatch, module, certify):
    # each shipped certificate converges in a few levels of a few boxes, far
    # below the caps (MAX_DEPTH = 60 levels, 4369 boxes of 15 x 15 nodes a
    # level), where a result comes back as a best estimate, not converged
    calls = _levels_of(monkeypatch, module)
    certify()
    [(res, shapes)] = calls
    assert res.converged
    assert res.subdivisions <= 4
    assert max(shape[0] for shape in shapes) <= 64
