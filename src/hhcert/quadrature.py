"""Adaptive quadrature used as the numeric oracle throughout the toolkit.

The scheme is an embedded Gauss-Kronrod pair (7-point Gauss inside a 15-point
Kronrod extension) with bisection refinement.  The returned value is the
Kronrod estimate; the error estimate per panel is the absolute difference of
the pair, which is conservative for smooth integrands.  The 7-point base rule
is exact on cubics, so low-degree polynomials integrate to rounding error on
a single panel.

Panels are refined level by level and all node evaluations for one level are
batched into a single call, so integrands vectorized over numpy arrays are
cheap.  Scalar-only integrands work too, via an elementwise fallback.  One
refinement loop serves both entry points: it runs K independent integrals over
the same breakpoints in lockstep, one integrand call per level for all of
them, while each integral keeps the arithmetic it would have on its own.
The batch is only an evaluation order: it finishes only when every integral
in it converges, and integrate_2d reruns an outer level's inner integrals one
at a time whenever its batch fails or would stop early, so an error or a
non-converged result comes from the same run that serves as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._ufunc import eval_elementwise
from .catalog import Interval
from .errors import NonFiniteEvaluation, range_error

MAX_DEPTH = 60          # bisection levels per axis before giving up
_MAX_PANELS = 65536     # safety valve against worklist blowup
_EPS = np.finfo(float).eps

# 15-point Kronrod nodes on [-1, 1] and weights; the odd-index nodes form the
# embedded 7-point Gauss rule.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


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


def _block_products(y: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod and Gauss sums of every row, each integral's block on its own.

    A BLAS matrix-vector product can round a row differently depending on
    the block's height and the row's position in it, so each integral's
    rows go through a product of their own height, as they would alone.
    Integrals with equally many rows share one stacked product, which
    repeats the single-block result row for row.
    """
    if counts.size == 1:
        return y @ _WK, y[:, 1::2] @ _WG
    row_height = np.repeat(counts, counts)
    sums_k, sums_g = np.empty(y.shape[0]), np.empty(y.shape[0])
    for h in np.unique(counts).tolist():
        rows = row_height == h
        blocks = y[rows].reshape(-1, h, _XK.size)
        sums_k[rows] = (blocks @ _WK).ravel()
        sums_g[rows] = (blocks[:, :, 1::2] @ _WG).ravel()
    return sums_k, sums_g


def _segment_sums(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """float(np.sum(segment)) for consecutive segments of x of the given lengths.

    Segments of at most two floats have one possible sum, so they are
    added in one vector step; longer ones go through np.sum, whose pairwise
    order is numpy's own.  Only the sign of a zero sum may differ from
    np.sum's, which no running total (never -0.0 itself) can tell apart.
    """
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = np.zeros(lengths.size)
    some = lengths > 0
    out[some] = x[starts[some]]
    two = lengths == 2
    out[two] += x[starts[two] + 1]
    for j in np.flatnonzero(lengths > 2).tolist():
        out[j] = x[starts[j]:ends[j]].sum()
    return out


def _halves(lows: np.ndarray, highs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Panel centres and half-widths, under the caller's np.errstate(over="ignore").

    Each is formed from the halved endpoints only where the plain
    0.5 * (lows + highs) or 0.5 * (highs - lows) overflows, so every finite
    one is bit for bit the plain formula's; halving first everywhere would
    round subnormal endpoints differently.
    """
    centers, halfw = 0.5 * (lows + highs), 0.5 * (highs - lows)
    over = np.isinf(centers)
    if over.any():
        centers[over] = 0.5 * lows[over] + 0.5 * highs[over]
    over = np.isinf(halfw)
    if over.any():
        halfw[over] = 0.5 * highs[over] - 0.5 * lows[over]
    return centers, halfw


class _Unfinished(Exception):
    """A batch of integrals would stop before each one converged."""


def _refine(evaluate, edges: list[float], n: int, tol: float):
    """Run n independent adaptive integrals over [edges[0], edges[-1]].

    Every integral starts from the panels between consecutive edges and is
    refined as if it ran alone: its panels form one contiguous block of rows
    in its own panel order, its Kronrod and Gauss sums come from a product
    over that block alone, and its value and error add up the same partial
    sums in the same order.  All integrals share one evaluate call per level.

    ``evaluate(nodes, owners, counts)`` gets the (rows, 15) nodes of the
    integrals ``owners`` (ascending, ``counts`` rows each) and returns the
    integrand values there.  A non-finite value raises NonFiniteEvaluation
    and a panel estimate beyond the float range OverflowError(ERANGE), at
    the first level that meets one, whichever integral it belongs to; a
    value or error estimate beyond the float range raises the latter once
    all are done.  With n = 1, an integral whose next level would pass
    MAX_DEPTH or hold more than _MAX_PANELS panels stops, adds its rejected
    panels as they are and is reported as not converged.  With more, the
    batch finishes only when every integral converges: where one would stop
    early, or a level would hold more than _MAX_PANELS panels in all, it
    raises _Unfinished.  A caller of a batch that needs the error of the
    lowest failing integral, or the results of one that stops early, reruns
    them one at a time, as integrate_2d does.

    Returns arrays of the n values, error estimates, depths and converged
    flags.
    """
    # a panel estimate or running sum past the float range is caught below
    # as a value, not as a numpy warning; evaluate silences the integrand's own
    with np.errstate(over="ignore", invalid="ignore"):
        lows, highs = np.array(edges[:-1]), np.array(edges[1:])
        half_width = 0.5 * edges[-1] - 0.5 * edges[0]  # finite however wide
        sums = np.zeros((2, n))  # one finiteness check at the end covers both rows
        value, error = sums
        depth_of, converged = np.zeros(n, dtype=int), np.zeros(n, dtype=bool)
        owners, counts, depth = np.arange(n), np.full(n, lows.size), 0
        if n > 1:
            lows, highs = np.tile(lows, n), np.tile(highs, n)
        while True:
            if n > 1 and lows.size > _MAX_PANELS:
                raise _Unfinished
            centers, halfw = _halves(lows, highs)
            nodes = centers[:, None] + halfw[:, None] * _XK[None, :]
            y = evaluate(nodes, owners, counts)
            finite = np.isfinite(y)
            if not finite.all():
                x = float(nodes.ravel()[np.argmin(finite)])
                raise NonFiniteEvaluation(f"integrand not finite at x={x!r}")
            sums_k, sums_g = _block_products(y, counts)
            ik = halfw * sums_k
            ig = halfw * sums_g
            err = np.abs(ik - ig)
            if not np.isfinite(err).all():
                raise range_error()

            # Proportional budgets keep the sum of accepted errors below
            # tol; the rounding floor stops pointless splitting once the
            # pair difference is at machine-noise scale for the panel.
            budget = tol * halfw / half_width
            floor = 50.0 * _EPS * np.abs(ik)
            accept = (err <= budget) | (err <= floor)
            rejected = ~accept

            if owners.size == 1:
                # one integral (every integrate_1d call): scalar bookkeeping,
                # as the per-owner array version below made such calls 70 % slower
                k = owners[0]
                value[k] += ik[accept].sum()
                error[k] += err[accept].sum()
                n_rej = np.count_nonzero(rejected)
                if n_rej and depth < MAX_DEPTH and 2 * n_rej <= _MAX_PANELS:
                    lo_r, hi_r, mid_r = lows[rejected], highs[rejected], centers[rejected]
                    lows = np.concatenate([lo_r, mid_r])
                    highs = np.concatenate([mid_r, hi_r])
                    counts = np.array([lows.size])
                    depth += 1
                    continue
                if n_rej:
                    if n > 1:
                        raise _Unfinished
                    value[k] += ik[rejected].sum()
                    error[k] += err[rejected].sum()
                depth_of[k], converged[k] = depth, n_rej == 0 and error[k] <= tol
                break

            n_rej = np.diff(np.cumsum(rejected)[np.cumsum(counts) - 1], prepend=0)
            value[owners] += _segment_sums(ik[accept], counts - n_rej)
            error[owners] += _segment_sums(err[accept], counts - n_rej)
            done = n_rej == 0
            finished = owners[done]
            depth_of[finished], converged[finished] = depth, error[finished] <= tol
            if finished.size == owners.size:
                break
            if depth >= MAX_DEPTH:
                raise _Unfinished

            # each continuing integral's next block is the lower halves
            # of its rejected panels, then their upper halves, as alone
            idx = np.flatnonzero(rejected)
            n_keep = n_rej[~done]
            lower = np.repeat(np.cumsum(n_keep) - n_keep, n_keep) + np.arange(idx.size)
            upper = lower + np.repeat(n_keep, n_keep)
            lo_r, hi_r, mid_r = lows[idx], highs[idx], centers[idx]
            lows, highs = np.empty(2 * idx.size), np.empty(2 * idx.size)
            lows[lower], lows[upper] = lo_r, mid_r
            highs[lower], highs[upper] = mid_r, hi_r
            owners, counts = owners[~done], 2 * n_keep
            depth += 1

        if not np.isfinite(sums).all():
            raise range_error()
        return value, error, depth_of, converged


def integrate_1d(
    g: Callable[[float], float],
    iv: Interval,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate g over [iv.a, iv.b] to absolute tolerance tol.

    The interval is pre-split at the given interior breakpoints so known
    kinks or jumps land on panel boundaries.  A degenerate interval yields
    exactly zero.  Raises NonFiniteEvaluation if g returns NaN or infinity
    at a quadrature node, and OverflowError(ERANGE) if a panel estimate, the
    integral or its error estimate leaves the float range; an integrand too
    rough for the depth budget comes back with converged=False instead.
    """
    check_tol(tol)
    if iv.is_degenerate:
        return QuadratureResult(0.0, 0.0, 0, True)
    edges = [iv.a, *_clean_breakpoints(breakpoints, iv.a, iv.b), iv.b]
    value, error, depth, converged = _refine(
        lambda nodes, owners, counts: eval_elementwise(g, nodes), edges, 1, tol
    )
    return QuadratureResult(float(value[0]), float(error[0]), int(depth[0]), bool(converged[0]))


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


def integrate_2d(
    g: Callable[[float, float], float],
    tol: float = 1e-10,
    breakpoints_t: Sequence[float] = (),
    breakpoints_s: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate g(t, s) over the unit square as an iterated integral.

    The inner integral runs over t at tolerance tol/10 for each outer node s;
    the outer integral over s gets the remaining budget, so a converged result
    keeps the combined error estimate below tol.  Breakpoints pre-split the
    respective axis.

    The inner integrals of all outer nodes of one outer level run together:
    each refinement level calls g once as g(t, s) with a (rows, 15) array t
    and a (rows, 1) column s holding each row's outer node, and every row of
    the result must equal g(t_row, float(s_row)) bit for bit; elementwise
    numpy arithmetic does, but a function that rounds differently on arrays
    than on Python floats (as some catalog derivatives do) must evaluate its
    s-dependent part one float at a time.  The result is bit for bit that of
    integrating one outer node at a time, as integrate_1d(lambda t: g(t, s))
    with a Python float s.  If the batched call raises or returns another
    shape, or an inner integral fails or would stop before it converges, the
    outer level's inner integrals are rerun that way, in order: scalar-only
    integrands get their values from the rerun, a non-converged inner
    integral its estimate, and the error raised is that of the lowest outer
    node that fails.

    Breakpoints are per-axis constants, so a C0 crease whose t-location moves
    with s (such as |t - s| along the diagonal) cannot be pre-split; on such
    creases both embedded rules err the same way and the reported estimate
    can understate the true error by orders of magnitude.  Supply integrands
    that are at least C1 across moving creases, or, where full accuracy
    matters, change variables so that the crease lies on a fixed panel edge,
    as kernel.kernel_p_numeric does for the kernel's |m(t) - m(s)|^p.
    """
    # checks in the order the outer, then the first inner, integral meets them
    check_tol(tol)
    s_edges = [0.0, *_clean_breakpoints(breakpoints_s, 0.0, 1.0), 1.0]
    inner_tol = tol / 10.0
    check_tol(inner_tol)
    t_edges = [0.0, *_clean_breakpoints(breakpoints_t, 0.0, 1.0), 1.0]
    levels = []

    def outer_level(s_nodes, owners, counts):
        s_all = s_nodes.ravel()

        def evaluate(t, owners, counts):
            with np.errstate(all="ignore"):
                y = np.asarray(g(t, np.repeat(s_all[owners], counts)[:, None]), dtype=float)
            if y.shape != t.shape:
                raise ValueError(f"integrand gave shape {y.shape} for nodes of shape {t.shape}")
            return y

        try:
            level = _refine(evaluate, t_edges, s_all.size, inner_tol)
        except Exception:
            # one outer node at a time: the values of an integrand the batched
            # call does not suit, or the error of the lowest failing node
            runs = [integrate_1d(lambda t: g(t, s), Interval(0.0, 1.0), inner_tol, breakpoints_t)
                    for s in s_all.tolist()]
            level = [np.array(field) for field in zip(*(
                (r.value, r.error_estimate, r.subdivisions, r.converged) for r in runs))]
        levels.append(level)
        return level[0].reshape(s_nodes.shape)

    value, error, depth, converged = _refine(outer_level, s_edges, 1, 0.9 * tol)
    _, inner_err, inner_depth, inner_conv = (np.concatenate(a) for a in zip(*levels))
    error = float(error[0]) + float(inner_err.max())
    return QuadratureResult(
        value=float(value[0]),
        error_estimate=error,
        subdivisions=max(int(depth[0]), int(inner_depth.max())),
        converged=bool(converged[0]) and bool(inner_conv.all()) and error <= tol,
    )
