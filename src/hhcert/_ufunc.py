"""Internal helpers: evaluate a map over floats or numpy arrays.

numpy is imported on first use, by the code that builds an array, so a
process that only evaluates floats (a sweep of catalog functions, the
special means) never loads it.  A catalog f or f' is one formula written
against an operations namespace (pointwise): math's for a float, numpy's for
an array.
"""

from __future__ import annotations

import math
import operator
from functools import cache
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

from .errors import range_error

if TYPE_CHECKING:
    import numpy as np


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log(x: float) -> float:
    try:
        return math.log(x)
    except ValueError:  # numpy's log is -inf at 0 and nan below it
        return -math.inf if x == 0.0 else math.nan


def _sign(x: float) -> float:
    # numpy's sign: 0.0 at either zero, and nan at nan
    return 1.0 if x > 0.0 else -1.0 if x < 0.0 else 0.0 if x == 0.0 else x


def _power(x: float, y: float) -> float:
    """x ** y for x >= 0 and y > 0, inf where the float power raises the range error."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def _reciprocal(x: float) -> float:
    try:
        return 1.0 / x
    except ZeroDivisionError:  # numpy's 1/x is inf at 0.0 and -inf at -0.0
        return math.copysign(math.inf, x)


def _inverse_square(x: float) -> float:
    """1 / (x * x); where a nonzero x's square underflows to 0, the finite
    1/x^2 leaves the float range, and this raises the range error, as the
    float power x ** -2 does."""
    xx = x * x
    if xx == 0.0 and x != 0.0:
        raise range_error()
    return _reciprocal(xx)


# The operations a catalog formula takes, on a float: each returns the float
# that numpy's returns on it (exp to within an ulp), inf, nan and 0 included,
# and warns of nothing; only inverse_square raises, as documented there.
FLOAT_OPS = SimpleNamespace(exp=_exp, log=_log, abs=abs, sign=_sign, power=_power,
                            reciprocal=_reciprocal, inverse_square=_inverse_square)


@cache
def array_ops() -> SimpleNamespace:
    """FLOAT_OPS's operations on numpy arrays, imported on first use; power,
    reciprocal and inverse_square are the operators **, 1/x and 1/(x*x)."""
    import numpy as np

    return SimpleNamespace(exp=np.exp, log=np.log, abs=np.abs, sign=np.sign, power=operator.pow,
                           reciprocal=lambda x: 1.0 / x, inverse_square=lambda x: 1.0 / (x * x))


def pointwise(formula: Callable) -> Callable:
    """f(x) = formula(ops, x): one formula for a float and for an array.

    A float or int x is evaluated as a float with ops = FLOAT_OPS, in math,
    and anything else with ops = array_ops().  On a float, f gives what the
    numpy formula gives on that float, bit for bit but for e^x, which may
    differ in its last bit.  Where numpy returns inf, an operator of
    formula's own, such as pow's x ** n, raises as Python's float arithmetic
    does, and so does FLOAT_OPS.inverse_square.  f.float_path is True, which
    tells a caller that f evaluates a float without numpy.
    """

    def f(x):
        if isinstance(x, (float, int)):
            return formula(FLOAT_OPS, float(x))
        return formula(array_ops(), x)

    f.float_path = True
    return f


def eval_elementwise(g: Callable, *xs: float | np.ndarray) -> np.ndarray:
    """Evaluate g on floats or ndarrays, with numpy's floating-point warnings
    silenced; floats give a 0-d array.  Several xs broadcast together, and
    g's result should have their broadcast shape.  A result of shape (), as
    from a constant g, or of one x's own shape, as from a g that reads only
    that x, is broadcast to it.  Falls back to a scalar loop over the
    broadcast points only for a g that is not array-aware: one that raises
    TypeError or ValueError on xs, or returns another shape."""
    import numpy as np

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
