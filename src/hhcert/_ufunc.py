"""Internal helper: evaluate a scalar map elementwise over floats or arrays."""

from __future__ import annotations

from typing import Callable

import numpy as np


def eval_elementwise(g: Callable, *xs: float | np.ndarray) -> np.ndarray:
    """Evaluate g on floats or ndarrays, with numpy's floating-point warnings
    silenced; floats give a 0-d array.  Several xs broadcast together, and
    g's result should have their broadcast shape.  A result of shape (), as
    from a constant g, or of one x's own shape, as from a g that reads only
    that x, is broadcast to it.  Falls back to a scalar loop over the
    broadcast points only for a g that is not array-aware: one that raises
    TypeError or ValueError on xs, or returns another shape."""
    shape = np.shape(xs[0]) if len(xs) == 1 else np.broadcast_shapes(*map(np.shape, xs))
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(g(*xs), dtype=float)
            if out.shape == shape:
                return out
            if out.shape == () or any(out.shape == np.shape(x) for x in xs):
                return np.broadcast_to(out, shape).copy()
        except (TypeError, ValueError):
            pass
        flat = np.array([float(g(*v)) for v in zip(*map(np.ravel, np.broadcast_arrays(*xs)))])
    return flat.reshape(shape)
