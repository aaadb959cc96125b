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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._ufunc import eval_elementwise
from .catalog import Interval
from .errors import NonFiniteEvaluation

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


def _refine(evaluate, edges: list[float], n: int, tol: float):
    """Run n independent adaptive integrals over [edges[0], edges[-1]].

    Every integral starts from the panels between consecutive edges and is
    refined as if it ran alone: its panels form one contiguous block of rows
    in its own panel order, its Kronrod and Gauss sums come from a product
    over that block alone, and its value and error add up the same partial
    sums in the same order.  All integrals in a group share one evaluate
    call per level.  Integrals are taken in chunks, and a group is split
    whenever its next level would hold more than _MAX_PANELS panels, so no
    more than that are in flight at once.

    ``evaluate(nodes, owners, counts)`` gets the (rows, 15) nodes of the
    integrals ``owners`` (ascending, ``counts`` rows each) and returns
    ``(y, failed)``: the integrand values, and None or ``(j, exc)`` when
    integral ``owners[j]`` raised exc, in which case only the rows of the
    integrals before it are valid.  When integrals fail, the error of the
    lowest-numbered one is raised, once every integral below it is done:
    what running them one at a time would raise.

    Returns arrays of the n values, error estimates, depths and converged
    flags.
    """
    lows0, highs0 = np.array(edges[:-1]), np.array(edges[1:])
    total_width = edges[-1] - edges[0]
    value, error = np.zeros(n), np.zeros(n)
    depth_of, converged = np.zeros(n, dtype=int), np.zeros(n, dtype=bool)
    fail_at, fail_exc = n, None
    chunk = max(1, _MAX_PANELS // lows0.size)

    for first in range(0, n, chunk):
        if first >= fail_at:
            break
        owners = np.arange(first, min(first + chunk, n))
        m = owners.size
        lows, highs = (lows0, highs0) if m == 1 else (np.tile(lows0, m), np.tile(highs0, m))
        stack = [(owners, np.full(m, lows0.size), lows, highs, 0)]
        while stack:
            owners, counts, lows, highs, depth = stack.pop()
            if owners[-1] >= fail_at:
                m = int(owners.searchsorted(fail_at))
                rows = int(counts[:m].sum())
                owners, counts, lows, highs = owners[:m], counts[:m], lows[:rows], highs[:rows]
            while owners.size:
                centers = 0.5 * (lows + highs)
                halfw = 0.5 * (highs - lows)
                nodes = centers[:, None] + halfw[:, None] * _XK[None, :]
                y, failed = evaluate(nodes, owners, counts)

                # the first integral that cannot go on: the one evaluate
                # reports, or the owner of an earlier non-finite value; the
                # integrals before it go on with this level's values
                m, exc = (owners.size, None) if failed is None else failed
                rows = int(counts[:m].sum()) if m < owners.size else lows.size
                finite = np.isfinite(y[:rows])
                if not finite.all():
                    flat = int(np.argmin(finite))
                    m = int(np.cumsum(counts).searchsorted(flat // _XK.size, side="right"))
                    x = float(nodes.ravel()[flat])
                    exc = NonFiniteEvaluation(f"integrand not finite at x={x!r}")
                    rows = int(counts[:m].sum())
                if exc is not None:
                    fail_at, fail_exc = int(owners[m]), exc
                    if m == 0:
                        break
                    owners, counts, lows, highs = owners[:m], counts[:m], lows[:rows], highs[:rows]
                    centers, halfw, y = centers[:rows], halfw[:rows], y[:rows]

                sums_k, sums_g = _block_products(y, counts)
                ik = halfw * sums_k
                ig = halfw * sums_g
                err = np.abs(ik - ig)

                # Proportional budgets keep the sum of accepted errors below
                # tol; the rounding floor stops pointless splitting once the
                # pair difference is at machine-noise scale for the panel.
                budget = tol * (2.0 * halfw) / total_width
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
                        value[k] += ik[rejected].sum()
                        error[k] += err[rejected].sum()
                    depth_of[k], converged[k] = depth, n_rej == 0 and error[k] <= tol
                    break

                n_rej = np.diff(np.cumsum(rejected)[np.cumsum(counts) - 1], prepend=0)
                value[owners] += _segment_sums(ik[accept], counts - n_rej)
                error[owners] += _segment_sums(err[accept], counts - n_rej)
                stop = (n_rej == 0) | (depth >= MAX_DEPTH) | (2 * n_rej > _MAX_PANELS)
                gave_up = stop & (n_rej > 0)
                if gave_up.any():
                    rows = rejected & np.repeat(gave_up, counts)
                    value[owners[gave_up]] += _segment_sums(ik[rows], n_rej[gave_up])
                    error[owners[gave_up]] += _segment_sums(err[rows], n_rej[gave_up])
                done = owners[stop]
                depth_of[done] = depth
                converged[done] = (n_rej[stop] == 0) & (error[done] <= tol)
                if stop.all():
                    break

                # each continuing integral's next block is the lower halves
                # of its rejected panels, then their upper halves, as alone
                going = ~stop
                idx = np.flatnonzero(rejected & np.repeat(going, counts))
                n_keep = n_rej[going]
                lower = np.repeat(np.cumsum(n_keep) - n_keep, n_keep) + np.arange(idx.size)
                upper = lower + np.repeat(n_keep, n_keep)
                lo_r, hi_r, mid_r = lows[idx], highs[idx], centers[idx]
                lows, highs = np.empty(2 * idx.size), np.empty(2 * idx.size)
                lows[lower], lows[upper] = lo_r, mid_r
                highs[lower], highs[upper] = mid_r, hi_r
                owners, counts = owners[going], 2 * n_rej[going]
                depth += 1
                if lows.size > _MAX_PANELS:
                    cut = max(1, int(np.cumsum(counts).searchsorted(_MAX_PANELS, side="right")))
                    rows = int(counts[:cut].sum())
                    stack.append((owners[cut:], counts[cut:], lows[rows:], highs[rows:], depth))
                    owners, counts = owners[:cut], counts[:cut]
                    lows, highs = lows[:rows], highs[:rows]

    if fail_exc is not None:
        raise fail_exc
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
    at a quadrature node; an integrand too rough for the depth budget comes
    back with converged=False instead.
    """
    check_tol(tol)
    if iv.is_degenerate:
        return QuadratureResult(0.0, 0.0, 0, True)
    edges = [iv.a, *_clean_breakpoints(breakpoints, iv.a, iv.b), iv.b]
    value, error, depth, converged = _refine(
        lambda nodes, owners, counts: (eval_elementwise(g, nodes), None), edges, 1, tol
    )
    return QuadratureResult(float(value[0]), float(error[0]), int(depth[0]), bool(converged[0]))


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
    s-dependent part one float at a time.  If that call raises or returns
    another shape, g is called per outer node as g(t, s) with a Python float
    s, and one scalar t at a time where that array call fails too, so
    scalar-only integrands keep working.  The result is bit for bit that of
    integrating one outer node at a time, and so is the error raised: that
    of the lowest outer node that fails.

    Breakpoints are per-axis constants, so a C0 crease whose t-location moves
    with s (such as |t - s| along the diagonal) cannot be pre-split; on such
    creases both embedded rules err the same way and the reported estimate
    can understate the true error by orders of magnitude.  Supply integrands
    that are at least C1 across moving creases, or iterate integrate_1d by
    hand with per-node breakpoints when full accuracy matters there.
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
            s = s_all[owners]
            try:
                with np.errstate(all="ignore"):
                    y = np.asarray(g(t, np.repeat(s, counts)[:, None]), dtype=float)
                if y.shape == t.shape:
                    return y, None
            except Exception:
                pass
            y = np.empty_like(t)
            row = 0
            for j, (s_j, c) in enumerate(zip(s.tolist(), counts.tolist())):
                try:
                    y[row:row + c] = eval_elementwise(lambda t_j: g(t_j, s_j), t[row:row + c])
                except Exception as exc:
                    return y, (j, exc)
                row += c
            return y, None

        levels.append(_refine(evaluate, t_edges, s_all.size, inner_tol))
        return levels[-1][0].reshape(s_nodes.shape), None

    value, error, depth, converged = _refine(outer_level, s_edges, 1, 0.9 * tol)
    _, inner_err, inner_depth, inner_conv = (np.concatenate(a) for a in zip(*levels))
    # an inner estimate that is NaN never becomes the maximum
    error = float(error[0]) + float(np.fmax.reduce(inner_err, initial=0.0))
    return QuadratureResult(
        value=float(value[0]),
        error_estimate=error,
        subdivisions=max(int(depth[0]), int(inner_depth.max())),
        converged=bool(converged[0]) and bool(inner_conv.all()) and error <= tol,
    )
