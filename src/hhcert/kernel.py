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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent, OutOfRange


def kernel_m(t):
    """Evaluate the kernel at t in [0, 1]; accepts scalars or arrays.

    The left branch is used at the break, so kernel_m(0.5) = 0.5.  Raises
    OutOfRange for arguments outside [0, 1].
    """
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
