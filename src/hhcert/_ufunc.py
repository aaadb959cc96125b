"""Internal helper: evaluate a scalar map elementwise over a float or an array."""

from __future__ import annotations

from typing import Callable

import numpy as np


def eval_elementwise(g: Callable, x: float | np.ndarray) -> np.ndarray:
    """Evaluate g on a float or an ndarray with numpy's floating-point warnings
    silenced; a float gives a 0-d array.  Falls back to a scalar loop only for
    a g that is not array-aware: one that raises TypeError or ValueError on x."""
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(g(x), dtype=float)
            if out.shape == np.shape(x):
                return out
        except (TypeError, ValueError):
            pass
        flat = np.array([float(g(v)) for v in np.ravel(x)])
    return flat.reshape(np.shape(x))
