"""Deterministic 64-bit generator for reproducible sweeps.

The generator is splitmix64: state advances by the golden-gamma constant and
each output is a three-round xor-shift-multiply mix of the new state.  The
algorithm is fully specified here so a reimplementation in another language
reproduces every sweep bit for bit; outputs map to doubles by taking the top
53 bits.
"""

from __future__ import annotations

import math

from .catalog import Domain, Interval

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

ALGORITHM = "splitmix64"


class SplitMix64:
    """splitmix64 stream seeded from a 64-bit integer."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()


MIN_WIDTH = 1e-6


def sampling_range(lo: float, hi: float, domain: Domain) -> tuple[float, float]:
    """[lo, hi] intersected with the open domain.

    Raises ValueError unless the intersection is finite and at least
    2 * MIN_WIDTH wide, so that each draw of draw_interval is accepted with
    probability at least 1/4 and its loop ends.
    """
    lo = max(lo, domain.lower)
    hi = min(hi, domain.upper)
    if not lo < hi:
        raise ValueError(f"empty sampling range [{lo}, {hi}]")
    if not 2.0 * MIN_WIDTH <= hi - lo < math.inf:
        raise ValueError(
            f"sampling range [{lo}, {hi}] must be finite and at least {2.0 * MIN_WIDTH:g} wide"
        )
    return lo, hi


def draw_interval(rng: SplitMix64, lo: float, hi: float, domain: Domain) -> Interval:
    """Draw an interval with endpoints uniform in [lo, hi), ordered.

    The range is intersected with the open function domain by sampling_range;
    draws narrower than MIN_WIDTH or touching a domain boundary are rejected
    and redrawn so every returned interval is usable as-is.
    """
    lo, hi = sampling_range(lo, hi, domain)
    while True:
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        iv = Interval(x, y) if x <= y else Interval(y, x)
        if iv.width >= MIN_WIDTH and domain.contains_interval(iv):
            return iv
