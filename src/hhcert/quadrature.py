"""Adaptive quadrature used as the numeric oracle throughout the toolkit.

The scheme is an embedded Gauss-Kronrod pair (7-point Gauss inside a 15-point
Kronrod extension) with bisection refinement.  The returned value is the
Kronrod estimate; the error estimate per panel is the absolute difference of
the pair, which is conservative for smooth integrands.  The 7-point base rule
is exact on cubics, so low-degree polynomials integrate to rounding error on
a single panel.

Panels are refined level by level and all node evaluations for one level are
batched into a single call, so integrands vectorized over numpy arrays are
cheap.  Scalar-only integrands work too, via an elementwise fallback.
integrate_2d applies the tensor product of the same pair to boxes of the
unit square and refines them level by level in the same way, halving a box
along the axis whose rule difference dominates, or in four; it passes one
node vector per axis, which the integrand broadcasts to the tensor nodes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Callable, Sequence

from ._ufunc import eval_elementwise
from .catalog import Interval
from .errors import NonFiniteEvaluation, range_error

if TYPE_CHECKING:
    import numpy as np

MAX_DEPTH = 60          # refinement levels before giving up
_MAX_PANELS = 65536     # panels of a 1D level; a 2D level gets their 15x as many nodes
_EPS = sys.float_info.epsilon

# 15-point Kronrod nodes on [-1, 1] and weights; the odd-index nodes form the
# embedded 7-point Gauss rule.  _rule() makes them arrays.
_XK = (
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
)
_WK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
)
_WG = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
)


@cache
def _rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_XK, _WK and _WG as numpy arrays, built once, on first use."""
    import numpy as np

    return np.array(_XK), np.array(_WK), np.array(_WG)


@dataclass(frozen=True)
class QuadratureResult:
    """Integral estimate with its accumulated error estimate.

    ``converged`` is true only when the error estimate met the requested
    tolerance within the subdivision budget; a non-converged result still
    carries the best available estimate.
    """

    value: float
    error_estimate: float
    subdivisions: int
    converged: bool


def _clean_breakpoints(pts: Sequence[float], a: float, b: float) -> list[float]:
    out = []
    for p in pts:
        p = float(p)
        if not math.isfinite(p) or p < a or p > b:
            raise ValueError(f"breakpoint {p} outside [{a}, {b}]")
        if a < p < b:
            out.append(p)
    return sorted(set(out))


def check_tol(tol: float) -> None:
    """Raise ValueError unless tol is a positive, finite absolute tolerance."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _halves(lows: np.ndarray, highs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Panel centres and half-widths, under the caller's np.errstate(over="ignore").

    Each is formed from the halved endpoints only where the plain
    0.5 * (lows + highs) or 0.5 * (highs - lows) overflows, so every finite
    one is bit for bit the plain formula's; halving first everywhere would
    round subnormal endpoints differently.
    """
    import numpy as np

    centers, halfw = 0.5 * (lows + highs), 0.5 * (highs - lows)
    over = np.isinf(centers)
    if over.any():
        centers[over] = 0.5 * lows[over] + 0.5 * highs[over]
    over = np.isinf(halfw)
    if over.any():
        halfw[over] = 0.5 * highs[over] - 0.5 * lows[over]
    return centers, halfw


def _accepted(err: np.ndarray, est: np.ndarray, budget: np.ndarray) -> np.ndarray:
    """Which panels or boxes stop refining: their error is within budget or noise.

    Proportional budgets keep the sum of accepted errors below tol; the
    rounding floor stops pointless splitting once the pair difference is at
    machine-noise scale for the panel.
    """
    return (err <= budget) | (err <= 50.0 * _EPS * abs(est))


def _first_non_finite(y: np.ndarray) -> int:
    """The flat index of y's first non-finite value, at a level whose errors
    are not all finite; raises OverflowError(ERANGE) where y has none.

    Every Kronrod weight is positive, so a non-finite value makes its panel's
    or box's error non-finite; with none, an estimate left the float range.
    """
    import numpy as np

    finite = np.isfinite(y)
    if finite.all():
        raise range_error()
    return int(np.argmin(finite))


def integrate_1d(
    g: Callable[[float], float],
    iv: Interval,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate g over [iv.a, iv.b] to absolute tolerance tol.

    The interval is pre-split at the given interior breakpoints so known
    kinks or jumps land on panel boundaries.  Each level calls g once on the
    (panels, 15) nodes of every open panel.  A degenerate interval yields
    exactly zero.  Raises NonFiniteEvaluation if g returns NaN or infinity
    at a quadrature node, and OverflowError(ERANGE) if a panel estimate, the
    integral or its error estimate leaves the float range.  Where the next
    level would pass MAX_DEPTH or hold more than _MAX_PANELS panels, the
    open panels are added as they are: an integrand too rough for that
    budget comes back with converged=False instead.
    """
    check_tol(tol)
    if iv.is_degenerate:
        return QuadratureResult(0.0, 0.0, 0, True)
    import numpy as np

    xk, wk, wg = _rule()
    edges = [iv.a, *_clean_breakpoints(breakpoints, iv.a, iv.b), iv.b]
    # a panel estimate or running sum past the float range is caught below
    # as a value, not as a numpy warning; eval_elementwise silences g's own
    with np.errstate(over="ignore", invalid="ignore"):
        lows, highs = np.array(edges[:-1]), np.array(edges[1:])
        half_width = 0.5 * iv.b - 0.5 * iv.a  # finite however wide
        value = error = 0.0
        depth = 0
        while True:
            centers, halfw = _halves(lows, highs)
            nodes = centers[:, None] + halfw[:, None] * xk[None, :]
            y = eval_elementwise(g, nodes)
            ik = halfw * (y @ wk)
            ig = halfw * (y[:, 1::2] @ wg)
            err = np.abs(ik - ig)
            if not np.isfinite(err).all():
                x = float(nodes.flat[_first_non_finite(y)])
                raise NonFiniteEvaluation(f"integrand not finite at x={x!r}")
            accept = _accepted(err, ik, tol * halfw / half_width)
            rejected = ~accept
            value += ik[accept].sum()
            error += err[accept].sum()
            n_rej = np.count_nonzero(rejected)
            if n_rej and depth < MAX_DEPTH and 2 * n_rej <= _MAX_PANELS:
                lo_r, hi_r, mid_r = lows[rejected], highs[rejected], centers[rejected]
                lows = np.concatenate([lo_r, mid_r])
                highs = np.concatenate([mid_r, hi_r])
                depth += 1
                continue
            if n_rej:
                value += ik[rejected].sum()
                error += err[rejected].sum()
            break
        if not (np.isfinite(value) and np.isfinite(error)):
            raise range_error()
    return QuadratureResult(float(value), float(error), depth, bool(n_rej == 0 and error <= tol))


def graded_map(edges: Sequence[float], toward: Sequence[float]):
    """A change of variables that grades the panels ending at the points ``toward``.

    ``edges`` are the panel edges of an integral over [min(edges),
    max(edges)], in any order.  Returns phi, a vectorized map u -> (x(u),
    dx/du) of that interval onto itself, to be composed into an integrand as
    g(x(u)) dx/du over the same panels; it looks up the panel of each u, one
    path for any number of panels.  phi is the identity on a panel with
    no end in ``toward``.  On a panel that ends at such a point k, with H the
    signed width from k to the panel's other end, it is x = k + H w^2 with
    w = (u - k)/H, so dx/du = 2w: an integrand like |x - k|^c near k becomes
    one like w^(2c+1), and |x - k|^1.5 a polynomial.  A panel with such a
    point at both ends is split at its midpoint 0.5 * (lo + hi), each half
    graded toward its own end.  There phi is C1 but not C2; integrate_1d and
    integrate_2d bisect a panel at that same point, and a caller passes it as
    a breakpoint to have it as an edge from the start.

    phi is monotone on each panel and maps each k onto itself exactly; it
    maps a panel's other end to k + (end - k), which is that end unless the
    sum rounds.
    """
    import numpy as np

    edges = sorted({float(e) for e in edges})
    marks = {float(k) for k in toward}
    starts, anchors, widths, graded = [], [], [], []
    for lo, hi in zip(edges, edges[1:]):
        if lo in marks and hi in marks:
            mid = 0.5 * (lo + hi)
            pieces = ((lo, lo, mid), (mid, hi, mid))
        elif lo in marks or hi in marks:
            pieces = ((lo, lo, hi),) if lo in marks else ((lo, hi, lo),)
        else:
            pieces = ((lo, None, None),)
        for start, k, end in pieces:
            starts.append(start)
            graded.append(k is not None)
            anchors.append(0.0 if k is None else k)
            widths.append(1.0 if k is None else end - k)

    inner = np.array(starts[1:])
    anchors, widths, graded = np.array(anchors), np.array(widths), np.array(graded)

    def phi(u):
        i = np.searchsorted(inner, u, side="right")
        k, h, on = anchors[i], widths[i], graded[i]
        w = (u - k) / h
        return np.where(on, k + h * (w * w), u), np.where(on, 2.0 * w, 1.0)

    return phi


def _bisect(lo: np.ndarray, hi: np.ndarray, cut: np.ndarray, *rest: np.ndarray):
    """Halve [lo, hi] where cut and keep it whole elsewhere; each of rest follows its box.

    The halves of a cut box are the kept row's lower half and an appended
    upper half.
    """
    import numpy as np

    mid = 0.5 * (lo + hi)
    return (np.concatenate([lo, mid[cut]]), np.concatenate([np.where(cut, mid, hi), hi[cut]]),
            *(np.concatenate([r, r[cut]]) for r in rest))


def integrate_2d(
    g: Callable[[float, float], float],
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate g(t, s) over the unit square to absolute tolerance tol.

    An adaptive cubature over boxes (Genz and Malik, J. Comput. Appl. Math.
    6, 1980; Berntsen, Espelid and Genz, ACM TOMS 17, 1991).  The first boxes
    are the products of the panels between the breakpoints, the same on
    both axes.  Each level calls g(t, s) once, with t of shape (boxes, 15, 1)
    and s of shape (boxes, 1, 15): the Kronrod nodes of each open box's t
    and s sides, which broadcast to its 15 x 15 tensor nodes.  g returns
    its values there, in the broadcast shape; a scalar, or an array of t's
    or of s's own shape, is broadcast to it.  An integrand that raises
    TypeError or ValueError on arrays, or returns another shape, is
    evaluated one node at a time.  A box's value is the tensor Kronrod rule
    K x K and its error estimate |K x K - G x G|.

    A box is accepted as a panel of integrate_1d is: its error is within tol
    times its area, or within 50 eps of its value.  A level also ends the
    integral, converged, once the accepted errors and the errors of the open
    boxes add up to at most tol (QUADPACK's global test).  Otherwise each
    open box is split: along t where its t difference |K x K - G x K|
    exceeds 4 times its s difference |K x K - K x G|, along s in the
    converse case, and in four where neither axis dominates.  Where the next
    level would pass MAX_DEPTH levels or hold more than _MAX_PANELS * 15
    tensor nodes, the open boxes are added as they are and the result is not
    converged.  ``subdivisions`` counts the levels.

    It raises as integrate_1d does: NonFiniteEvaluation where g is NaN or
    infinite at a node, OverflowError(ERANGE) where a box estimate, the
    integral or its error estimate leaves the float range, ValueError for a
    bad tol or a breakpoint outside [0, 1]; any other error of g propagates.

    Breakpoints are constants, so a C0 crease whose t-location moves
    with s (such as |t - s| along the diagonal) cannot be pre-split; on such
    creases both embedded rules err the same way and the reported estimate
    can understate the true error by orders of magnitude.  Supply integrands
    that are at least C1 across moving creases, or, where full accuracy
    matters, change variables so that the crease lies on a fixed panel edge,
    as kernel.kernel_p_numeric does for the kernel's |m(t) - m(s)|^p.
    """
    check_tol(tol)
    import numpy as np

    xk, wk, wg = _rule()
    edges = np.array([0.0, *_clean_breakpoints(breakpoints, 0.0, 1.0), 1.0])
    # every t panel against every s panel
    panels = edges.size - 1
    t_lo, t_hi = np.tile(edges[:-1], panels), np.tile(edges[1:], panels)
    s_lo, s_hi = np.repeat(edges[:-1], panels), np.repeat(edges[1:], panels)
    value = error = 0.0
    depth = 0
    # as in integrate_1d, estimates past the float range are caught as values
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            th, sh = 0.5 * (t_hi - t_lo), 0.5 * (s_hi - s_lo)
            # t varies along axis 1 and s along axis 2 of the (boxes, 15, 15)
            # tensor nodes, which g broadcasts from these two
            t = (0.5 * (t_lo + t_hi)[:, None] + th[:, None] * xk)[:, :, None]
            s = (0.5 * (s_lo + s_hi)[:, None] + sh[:, None] * xk)[:, None, :]
            y = eval_elementwise(g, t, s)
            # Kronrod and Gauss sums over s, then each of them over t, times
            # the rule's Jacobian th * sh, a quarter of the box's area
            jac = th * sh
            y_k, y_g = y @ wk, y[:, :, 1::2] @ wg
            kk = jac * (y_k @ wk)
            err = np.abs(kk - jac * (y_g[:, 1::2] @ wg))
            if not np.isfinite(err).all():
                i = _first_non_finite(y)
                t, s = np.broadcast_arrays(t, s)
                raise NonFiniteEvaluation(
                    f"integrand not finite at (t, s)=({float(t.flat[i])!r}, {float(s.flat[i])!r})")
            accept = _accepted(err, kk, tol * (4.0 * jac))
            value += kk[accept].sum()
            error += err[accept].sum()
            rejected = ~accept
            open_err = err[rejected].sum()
            converged = error + open_err <= tol
            if not converged and rejected.any() and depth < MAX_DEPTH:
                # the t and s differences: Gauss on one axis, Kronrod on the other
                kk_r, jac_r = kk[rejected], jac[rejected]
                d_t = np.abs(kk_r - jac_r * (y_k[rejected, 1::2] @ wg))
                d_s = np.abs(kk_r - jac_r * (y_g[rejected] @ wk))
                cut_t, cut_s = ~(d_s > 4.0 * d_t), ~(d_t > 4.0 * d_s)
                # the next level's boxes have 15 * 15 nodes each, of _MAX_PANELS * 15
                if np.sum((1 + cut_t) * (1 + cut_s)) * len(_XK) <= _MAX_PANELS:
                    t_lo, t_hi, s_lo, s_hi, cut_s = _bisect(
                        t_lo[rejected], t_hi[rejected], cut_t, s_lo[rejected], s_hi[rejected],
                        cut_s)
                    s_lo, s_hi, t_lo, t_hi = _bisect(s_lo, s_hi, cut_s, t_lo, t_hi)
                    depth += 1
                    continue
            value += kk[rejected].sum()
            error += open_err
            break
        if not (np.isfinite(value) and np.isfinite(error)):
            raise range_error()
    return QuadratureResult(float(value), float(error), depth, bool(converged))
