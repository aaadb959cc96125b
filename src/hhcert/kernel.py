"""Sawtooth weight kernel of the midpoint identity and its p-moments.

The kernel is m(t) = t on [0, 1/2] and t - 1 on (1/2, 1], so m(1/2) = 1/2
and m ranges over [-1/2, 1/2].  Its p-th absolute difference moment over the
unit square has the closed form

    integral of |m(t) - m(s)|^p over [0,1]^2  =  2 / ((p+1)(p+2)),

which splits into four quarter-square pieces:

    J1: t, s in [0,1/2],          integrand |t - s|^p
    J2: t in [0,1/2], s in [1/2,1], integrand |t - s + 1|^p
    J3: t in [1/2,1], s in [0,1/2], integrand |t - s - 1|^p
    J4: t, s in [1/2,1],          integrand |t - s|^p

with J1 = J4 = 1 / (2^(p+1) (p+1)(p+2)) and J2 = J3 the complement to the
total.  At p = 2 the pieces are (1/96, 7/96, 7/96, 1/96) and the total 1/6.

kernel_p_numeric checks the closed form by 2D quadrature of the kernel
itself.  The crease of |m(t) - m(s)|^p along t = s is a diagonal, which
integrate_2d's axis-aligned boxes cannot have as an edge, and there the
embedded error estimate of a generic integrand under-reports (integrate_2d's
docstring).  A change of variables instead puts every crease on a fixed
edge of the unit square: the Duffy map (Duffy, SIAM J. Numer. Anal. 19,
1982) of each quarter about the corner where |m(t) - m(s)| vanishes, graded
toward the diagonal edge in the manner of Sidi's transformations (ISNM 112,
1993).  No box then holds a crease, so the embedded estimate covers the
true error.  The mapped pieces
carry a factor r^(p+1), which is not smooth at the edge y = 0 for a
non-integer p; the integrand grades that edge as well (y = z^2) for the p
where that saves refinement levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidExponent, OutOfRange
from .quadrature import QuadratureResult, integrate_2d


def kernel_m(t):
    """Evaluate the kernel at t in [0, 1]; accepts scalars or arrays.

    The left branch is used at the break, so kernel_m(0.5) = 0.5.  Raises
    OutOfRange for arguments outside [0, 1].
    """
    import numpy as np

    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
        raise OutOfRange(f"kernel argument outside [0, 1]: {t!r}")
    out = np.where(arr <= 0.5, arr, arr - 1.0)
    if np.ndim(t) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class KernelMoment:
    """Closed-form p-moment of the kernel with its quarter-square pieces."""

    p: float
    closed_form: float
    pieces: tuple[float, float, float, float]


def _validate_p(p: float) -> float:
    if not (math.isfinite(p) and p >= 1.0):
        raise InvalidExponent(f"kernel moment requires p >= 1, got p={p}")
    return float(p)


def _closed_form(p: float) -> float:
    # Kept apart from the pieces, whose 2^(p+1) overflows for p > 1023.
    return 2.0 / ((p + 1.0) * (p + 2.0))


def kernel_p_moment(p: float) -> KernelMoment:
    """Closed-form value of the kernel's p-th difference moment and pieces."""
    p = _validate_p(p)
    total = _closed_form(p)
    corner = 1.0 / (2.0 ** (p + 1.0) * (p + 1.0) * (p + 2.0))
    cross = 1.0 / ((p + 1.0) * (p + 2.0)) - corner
    return KernelMoment(p=p, closed_form=total, pieces=(corner, cross, cross, corner))


def kernel_p_norm(p: float) -> float:
    """L^p-style constant (2 / ((p+1)(p+2)))^(1/p) of the kernel moment."""
    p = _validate_p(p)
    return _closed_form(p) ** (1.0 / p)


def _moment_integrand(p: float):
    """The integrand over (x, y) in the unit square whose integral is the p-moment.

    It sums the four quarter pieces at r = y/2, each mapped so that the
    crease of |m(t) - m(s)|^p lies on a box edge, not inside a box:

    - J1 and J4 are folded onto their triangle t <= s (|m(t) - m(s)| is
      symmetric bit for bit, as |-d| = |d|) and Duffy-mapped about the corners
      (0, 0) and (1, 1): t = r*u, s = r and t = 1 - r, s = 1 - r*u, so the
      crease t = s is the edge u = 1.  Grading it with u = 1 - (1 - x)^2
      turns (1 - u)^p into (1 - x)^(2p) times the Jacobian 2(1 - x).
    - J2 and J3 are equal by the same symmetry, and |m(t) - m(s)|^p vanishes
      only at their corners (0, 1) and (1, 0).  Each splits into two equal
      triangles about its corner, so J2 + J3 is twice one triangle of each,
      Duffy-mapped about the corner with u = x: t = r*u, s = 1 - r and
      t = 1 - r*u, s = r.

    Each piece is then r^(p+1) times a function of x that is smooth on
    [0, 1), so the only non-smooth points lie on the edges y = 0 and x = 1.
    For a non-integer p below 4 the edge y = 0 is graded as well: the
    integrand takes z with y = z^2 and carries the Jacobian 2z.  All eight
    coordinate arrays go through one kernel_m call.
    """
    # An integer p leaves r^(p+1) a polynomial, which grading only raises in
    # degree.  Below p = 4 grading y saves levels (on a 2-core Xeon, p = 1.1:
    # 1.9 -> 1.1 ms, p = 3.7: 0.59 -> 0.26 ms); from there on the plain edge
    # is as fast (p = 4.5: 0.23 -> 0.22 ms), and past p = 5 the graded
    # 2 z^(2p+3) outgrows the degree 13 that the 7-point Gauss rule integrates
    # exactly and costs levels (p = 7.5: 0.53 -> 0.96 ms, p = 100.5: 1.8 -> 2.4 ms).
    graded = p != math.floor(p) and p < 4.0
    import numpy as np

    def integrand(x, z):
        y = z * z if graded else z
        r = 0.5 * y
        w = 1.0 - x
        ru_diag = r * (1.0 - w * w)
        ru_cross = r * x
        one_minus_r = 1.0 - r
        coords = np.empty((8,) + np.broadcast_shapes(np.shape(x), np.shape(y)))
        coords[0], coords[1] = ru_diag, r                  # J1
        coords[2], coords[3] = one_minus_r, 1.0 - ru_diag  # J4
        coords[4], coords[5] = ru_cross, one_minus_r       # J2
        coords[6], coords[7] = 1.0 - ru_cross, r           # J3
        m = kernel_m(coords)
        d = np.abs(m[0::2] - m[1::2]) ** p
        pieces = r * ((2.0 * w) * (d[0] + d[1]) + (d[2] + d[3]))
        return pieces * (2.0 * z) if graded else pieces

    return integrand


def kernel_p_numeric(p: float, tol: float = 1e-10) -> QuadratureResult:
    """The kernel's p-th difference moment by one integrate_2d call, to absolute tol.

    The integrand is the quarter pieces mapped so that no crease lies inside
    a box (see _moment_integrand), so the embedded error estimate covers
    the true error, and every evaluation goes through kernel_m.
    """
    return integrate_2d(_moment_integrand(_validate_p(p)), tol)
