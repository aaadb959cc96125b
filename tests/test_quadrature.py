"""Adaptive Gauss-Kronrod integration, 1D and iterated 2D."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhcert import quadrature
from hhcert.bounds import _lemma2_integrand, verify_identity
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


def test_non_finite_evaluation_raises():
    with pytest.raises(NonFiniteEvaluation):
        integrate_1d(lambda x: 1.0 / x, Interval(-1.0, 1.0))


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
        # int_0^1 int_0^1 |t - s| dt ds = 1/3; the crease at t = s moves with
        # the outer node, which the fixed breakpoint grid cannot express, so
        # the embedded estimate under-reports there (documented); the value
        # still lands within ~1e-7
        res = integrate_2d(lambda t, s: abs(t - s), tol=1e-9)
        assert res.converged
        assert res.value == pytest.approx(1.0 / 3.0, abs=5e-7)

    def test_breakpoints_forwarded(self):
        res = integrate_2d(_scalar_only, tol=1e-10, breakpoints_t=(0.5,), breakpoints_s=(0.5,))
        assert res.converged
        assert res.error_estimate <= 1e-10
        assert res.value == pytest.approx(1.0 / 6.0, abs=1e-10)

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            integrate_2d(lambda t, s: t + s, tol=-1.0)


def _sequential_integrate_2d(g, tol=1e-10, breakpoints_t=(), breakpoints_s=()):
    """integrate_2d one outer node at a time: a full integrate_1d per node, in order.

    This is the iterated integral the batched inner integrals must repeat
    bit for bit, kept as the reference.
    """
    inner_tol = tol / 10.0
    state = {"max_err": 0.0, "max_sub": 0, "converged": True}

    def outer_integrand(s):
        if np.ndim(s) != 0:
            raise TypeError("outer integrand is scalar-only")
        s = float(s)
        res = integrate_1d(lambda t: g(t, s), Interval(0.0, 1.0), inner_tol, breakpoints_t)
        state["max_err"] = max(state["max_err"], res.error_estimate)
        state["max_sub"] = max(state["max_sub"], res.subdivisions)
        state["converged"] = state["converged"] and res.converged
        return res.value

    outer = integrate_1d(outer_integrand, Interval(0.0, 1.0), 0.9 * tol, breakpoints_s)
    error = outer.error_estimate + state["max_err"]
    return QuadratureResult(
        value=outer.value,
        error_estimate=error,
        subdivisions=max(outer.subdivisions, state["max_sub"]),
        converged=outer.converged and state["converged"] and error <= tol,
    )


def _bits(res):
    return (float.hex(res.value), float.hex(res.error_estimate), res.subdivisions, res.converged)


def _kernel_integrand(p):
    return lambda t, s: abs(kernel_m(t) - kernel_m(s)) ** p


def _lemma2(fn, a, b, graded_t=()):
    phi = graded_map((0.0, 0.5, *graded_t, 1.0), graded_t) if graded_t else None
    return _lemma2_integrand(parse_function_id(fn), lambda u: u * a + (1.0 - u) * b, phi)


def _count_reruns(monkeypatch):
    """A list that gets one entry per integrate_1d call made by integrate_2d.

    integrate_2d calls integrate_1d only to rerun an outer level one node at
    a time; the reference above keeps the unpatched function.
    """
    reruns = []

    def counting(*args, **kwargs):
        reruns.append(args)
        return integrate_1d(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_1d", counting)
    return reruns


_SPLIT_AT_HALF = {"tol": 1e-10, "breakpoints_t": (0.5,), "breakpoints_s": (0.5,)}


class TestBatchedInnerIntegrals:
    """integrate_2d against the one-node-at-a-time reference, bit for bit."""

    @pytest.mark.parametrize(
        "g,kwargs",
        [
            pytest.param(_kernel_integrand(1.1), _SPLIT_AT_HALF, id="kernel-p1.1"),
            pytest.param(_kernel_integrand(1.5), _SPLIT_AT_HALF, id="kernel-p1.5"),
            pytest.param(_kernel_integrand(2.0), _SPLIT_AT_HALF, id="kernel-p2"),
            pytest.param(_kernel_integrand(3.0), _SPLIT_AT_HALF, id="kernel-p3"),
            pytest.param(_lemma2("abs_pow:2.5", -2.0, 0.7), _SPLIT_AT_HALF, id="L2-abs_pow"),
            pytest.param(_lemma2("abs_pow:2.5", -2.0, 0.7, (0.7 / 2.7,)),
                         {"tol": 1e-10, "breakpoints_t": (0.5, 0.7 / 2.7),
                          "breakpoints_s": (0.5, 0.7 / 2.7)}, id="L2-abs_pow-graded"),
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
        ],
    )
    def test_matches_one_node_at_a_time(self, g, kwargs):
        assert _bits(integrate_2d(g, **kwargs)) == _bits(_sequential_integrate_2d(g, **kwargs))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 1e-323},  # tol/10 of the inner integrals rounds to 0
            {"tol": 1e-10, "breakpoints_t": (2.0,), "breakpoints_s": (-1.0,)},
            {"tol": 1e-10, "breakpoints_t": (2.0,)},
        ],
    )
    def test_rejects_arguments_as_one_node_at_a_time(self, kwargs):
        with pytest.raises(ValueError) as batched:
            integrate_2d(lambda t, s: t * s, **kwargs)
        with pytest.raises(ValueError) as sequential:
            _sequential_integrate_2d(lambda t, s: t * s, **kwargs)
        assert str(batched.value) == str(sequential.value)

    @pytest.mark.parametrize(
        "cap,value,g,kwargs,converged",
        [
            # a batch of 30 inner integrals outgrows 64 panels after its first level
            pytest.param("_MAX_PANELS", 64, _kernel_integrand(1.5), _SPLIT_AT_HALF, True,
                         id="panels-64"),
            # at 4 levels most inner integrals of |t - s| are not converged
            pytest.param("MAX_DEPTH", 4, lambda t, s: abs(t - s), {"tol": 1e-12}, False,
                         id="depth-4"),
        ],
    )
    def test_matches_when_a_batch_reaches_a_cap(self, monkeypatch, cap, value, g, kwargs,
                                                converged):
        # such a batch raises, and its outer level reruns one node at a time
        monkeypatch.setattr(quadrature, cap, value)
        reruns = _count_reruns(monkeypatch)
        batched = integrate_2d(g, **kwargs)
        assert len(reruns) > 0
        reference = _sequential_integrate_2d(g, **kwargs)
        assert reference.converged is converged
        assert _bits(batched) == _bits(reference)

    def test_nonfinite_reports_the_lowest_failing_outer_node(self):
        # outer node 2 hits NaN at t = 1/16, reached only in round 3 of its
        # inner integral; outer node 10 hits NaN at t = 1/2 in round 0
        s_nodes = 0.5 + 0.5 * quadrature._XK

        def g(t, s):
            bad = ((s == s_nodes[2]) & (t == 0.0625)) | ((s == s_nodes[10]) & (t == 0.5))
            return np.where(bad, np.nan, np.sqrt(t) + s)

        with pytest.raises(NonFiniteEvaluation) as batched:
            integrate_2d(g, tol=1e-10)
        with pytest.raises(NonFiniteEvaluation) as sequential:
            _sequential_integrate_2d(g, tol=1e-10)
        assert str(batched.value) == str(sequential.value)
        assert "x=0.0625" in str(batched.value)

    @pytest.mark.parametrize(
        "overflow_at,nan_at,error",
        [(2, 10, OverflowError), (10, 2, NonFiniteEvaluation)],
    )
    def test_range_error_keeps_the_order_of_outer_nodes(self, overflow_at, nan_at, error):
        # one outer node's inner estimate overflows in round 0, another's
        # integrand is NaN at t = 1/2 in round 0: the lower node's error wins
        s_nodes = 0.5 + 0.5 * quadrature._XK

        def g(t, s):
            y = np.where(s == s_nodes[overflow_at], 1.7e308, np.sqrt(t) + s)
            return np.where((s == s_nodes[nan_at]) & (t == 0.5), np.nan, y)

        with pytest.raises(error) as batched:
            integrate_2d(g, tol=1e-10)
        with pytest.raises(error) as sequential:
            _sequential_integrate_2d(g, tol=1e-10)
        assert str(batched.value) == str(sequential.value)

    def test_integrand_exception_propagates_unchanged(self):
        class Boom(Exception):
            pass

        def g(t, s):
            if np.any(np.asarray(s) > 0.6):
                raise Boom(f"no value beyond s=0.6, asked for {float(np.max(s))!r}")
            return np.sqrt(t) + s

        with pytest.raises(Boom) as batched:
            integrate_2d(g, tol=1e-10)
        with pytest.raises(Boom) as sequential:
            _sequential_integrate_2d(g, tol=1e-10)
        assert str(batched.value) == str(sequential.value)

    def test_peak_memory_near_sequential_on_a_rough_integrand(self, monkeypatch):
        # every panel wider than the wiggles is rejected, so each inner
        # integral refines until its next level would exceed _MAX_PANELS
        # (lowered from 65536 to keep the test fast; the peaks scale with it)
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 4096)

        def g(t, s):
            return np.abs(np.sin(1e6 * t)) + 0.0 * s

        peaks = []
        for integrate in (_sequential_integrate_2d, integrate_2d):
            tracemalloc.start()
            res = integrate(g, tol=1e-12)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert not res.converged
            assert res.subdivisions == 12
        assert peaks[1] <= 2.0 * peaks[0]


# the L2 goldens, TestBatchedInnerIntegrals' graded abs_pow case, and one
# interval for every other catalog entry
_SHIPPED_L2 = [
    ("abs_pow:2.5", -1.0, 2.0), ("abs_pow:2.5", -2.0, 0.7), ("recip", 0.5, 3.0),
    ("pow:3", -1.0, 2.0), ("exp", -1.0, 2.0), ("ln", 0.5, 3.0), ("neg_ln", 0.5, 3.0),
    ("pow:1", 0.0, 2.0), ("pow:-1", 0.5, 3.0), ("pow:-2", 1.0, 3.0),
]


@pytest.mark.parametrize(
    "certify",
    [pytest.param(lambda p=p: kernel_p_numeric(p), id=f"kernel-p{p}")
     for p in (1.0, 1.1, 1.5, 2.0, 3.0, 3.7, 4.0)]
    + [pytest.param(lambda c=c: verify_identity("L2", parse_function_id(c[0]), Interval(*c[1:])),
                    id=f"L2-{c[0]}[{c[1]}, {c[2]}]") for c in _SHIPPED_L2],
)
def test_shipped_integrands_never_take_the_one_node_rerun(monkeypatch, certify):
    # the rerun keeps every bit, so only a count shows the batching was lost
    reruns = _count_reruns(monkeypatch)
    certify()
    assert len(reruns) == 0
