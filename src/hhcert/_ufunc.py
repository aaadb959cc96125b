"""Internal helper: evaluate a scalar map elementwise over floats or arrays."""

from __future__ import annotations

from typing import Callable

import numpy as np


def eval_elementwise(g: Callable, *xs: float | np.ndarray) -> np.ndarray:
    """Evaluate g on floats or on ndarrays of one shape, with numpy's
    floating-point warnings silenced; floats give a 0-d array.  Falls back to
    a scalar loop only for a g that is not array-aware: one that raises
    TypeError or ValueError on xs, or returns another shape."""
    shape = np.shape(xs[0])
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(g(*xs), dtype=float)
            if out.shape == shape:
                return out
        except (TypeError, ValueError):
            pass
        flat = np.array([float(g(*v)) for v in zip(*map(np.ravel, xs))])
    return flat.reshape(shape)
