"""Internal helper: evaluate a scalar map elementwise over a numpy array."""

from __future__ import annotations

from typing import Callable

import numpy as np


def eval_elementwise(g: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate g on an ndarray, falling back to a scalar loop only for a g
    that is not array-aware: one that raises TypeError or ValueError on it."""
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(g(x), dtype=float)
            if out.shape == x.shape:
                return out
        except (TypeError, ValueError):
            pass
        flat = np.array([float(g(v)) for v in x.ravel()])
    return flat.reshape(x.shape)
