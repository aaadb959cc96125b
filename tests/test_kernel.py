"""Kernel values, closed-form p-moments, the numeric moment, and the p-norm used by the bounds."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhcert import cli
from hhcert.errors import OutOfRange
from hhcert.kernel import kernel_m, kernel_p_moment, kernel_p_norm, kernel_p_numeric
from hhcert.quadrature import integrate_2d


@pytest.mark.parametrize(
    "t,expected",
    [
        (0.0, 0.0),
        (0.25, 0.25),
        (0.5, 0.5),
        (0.5 + 1e-12, 0.5 + 1e-12 - 1.0),
        (0.75, -0.25),
        (1.0, 0.0),
    ],
)
def test_kernel_values(t, expected):
    out = kernel_m(t)
    assert isinstance(out, float)
    assert out == expected


def test_kernel_array_input():
    out = kernel_m(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    np.testing.assert_array_equal(out, [0.0, 0.25, 0.5, -0.25, 0.0])


@pytest.mark.parametrize("t", [-0.1, 1.1, math.nan])
def test_kernel_rejects_outside_unit_interval(t):
    with pytest.raises(OutOfRange):
        kernel_m(t)


def test_kernel_rejects_array_with_outlier():
    with pytest.raises(OutOfRange):
        kernel_m(np.array([0.2, 1.3]))


@given(st.floats(0.0, 1.0))
def test_kernel_odd_about_half(t):
    # m(1-t) = -m(t) away from the jump at t = 1/2
    if t == 0.5:
        return
    assert kernel_m(1.0 - t) == pytest.approx(-kernel_m(t), abs=1e-15)


class TestPMoment:
    def test_p2_closed_form_and_pieces(self):
        mom = kernel_p_moment(2.0)
        assert mom.closed_form == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert mom.pieces == pytest.approx(
            (1.0 / 96.0, 7.0 / 96.0, 7.0 / 96.0, 1.0 / 96.0), rel=1e-14
        )

    def test_p1_closed_form_and_pieces(self):
        mom = kernel_p_moment(1.0)
        assert mom.closed_form == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert mom.pieces == pytest.approx(
            (1.0 / 24.0, 1.0 / 8.0, 1.0 / 8.0, 1.0 / 24.0), rel=1e-14
        )

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 5.0, 10.0])
    def test_pieces_sum_to_closed_form(self, p):
        mom = kernel_p_moment(p)
        assert sum(mom.pieces) == pytest.approx(mom.closed_form, rel=1e-14)

    def test_corner_pieces_equal_and_cross_pieces_equal(self):
        mom = kernel_p_moment(3.0)
        j1, j2, j3, j4 = mom.pieces
        assert j1 == j4
        assert j2 == j3
        assert j2 > j1 > 0.0

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, math.nan, math.inf])
    def test_invalid_exponent(self, p):
        from hhcert.errors import InvalidExponent

        with pytest.raises(InvalidExponent):
            kernel_p_moment(p)

    def test_p2_against_numeric_double_integral(self):
        res = integrate_2d(
            lambda t, s: (kernel_m(t) - kernel_m(s)) ** 2,
            tol=1e-10,
            breakpoints=(0.5,),
        )
        assert res.converged
        assert abs(res.value - kernel_p_moment(2.0).closed_form) <= 1e-10


class TestNumericMoment:
    """kernel_p_numeric against the closed form at 50 digits: with every
    crease on a panel edge, the printed estimate must cover the true error."""

    @pytest.mark.parametrize(
        "p,tol",
        [(1.0, 1e-9), (1.0, 1e-10)]
        + [(p, 1e-10) for p in (1.01, 1.05, 1.1, 1.25, 1.5, 1.9, 2.0, 2.5, 3.0, 3.3, 7.0, 7.5,
                                20.0, 1000.0)],
    )
    def test_error_estimate_covers_the_true_error(self, p, tol):
        mpmath = pytest.importorskip("mpmath")
        res = kernel_p_numeric(p, tol)
        assert res.converged
        assert res.error_estimate <= tol
        with mpmath.workdps(50):
            exact = 2 / ((mpmath.mpf(p) + 1) * (mpmath.mpf(p) + 2))
            actual = float(abs(mpmath.mpf(res.value) - exact))
        # a few ulp of the value are rounding, not quadrature error
        assert actual <= res.error_estimate + 4 * 2.0**-52 * float(exact)

    def test_cli_prints_the_numeric_moment(self, capsys):
        assert cli.main(["kernel", "--p", "1.5", "--tol", "1e-9", "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        res = kernel_p_numeric(1.5, 1e-9)
        assert (rec["numeric"], rec["numeric_error_estimate"]) == (res.value, res.error_estimate)
        assert rec["discrepancy"] == abs(rec["closed_form"] - res.value)

    @pytest.mark.parametrize("p", [0.5, math.nan])
    def test_invalid_exponent(self, p):
        from hhcert.errors import InvalidExponent

        with pytest.raises(InvalidExponent):
            kernel_p_numeric(p)


class TestPNorm:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (1.0, 1.0 / 3.0),
            (2.0, 0.408248290463863),
            (3.0, 0.4641588833612779),
        ],
    )
    def test_values(self, p, expected):
        assert kernel_p_norm(p) == pytest.approx(expected, rel=1e-14)

    def test_invalid_exponent(self):
        from hhcert.errors import InvalidExponent

        with pytest.raises(InvalidExponent):
            kernel_p_norm(0.9)

    @settings(max_examples=50)
    @given(st.floats(1.0, 12.0))
    def test_norm_is_moment_root(self, p):
        assert kernel_p_norm(p) == pytest.approx(
            kernel_p_moment(p).closed_form ** (1.0 / p), rel=1e-14
        )
