"""Seeded operation streams for the three benchmark workloads.

Each workload is an endless sequence of rotation cycles.  A cycle is a fixed
list of op kinds in a fixed order; only the numeric inputs (sweep seeds,
intervals, mean pairs, exponents) are drawn from the workload seed.  Runs
always execute whole cycles, so a latency percentile lands on the same op
kinds in every run, and the same seed yields the same argv lists.

Why these workloads (each puts one layer at the centre and others at the edge):

* ``sweep-scan``: default-grid sweeps, where the |f'|^q convexity scan is
  almost all of the wall time.  At q=2 the three theorems scan the same
  function, at q=3 two distinct scans remain, so deduplicating scans and
  speeding up one scan act unequally on the two halves of the cycle.
* ``certify-coarse``: coarse-grid, tight-tolerance certification, where 1D
  quadrature dominates, the scan is small, and many ops are short enough
  that argument parsing, formatting and the special means show up.  It also
  carries the inputs whose contract is exit status 2.
* ``quad-2d``: kernel moments and the L2 identity, where iterated 2D
  quadrature is nearly all of the wall time and no scan runs.  The kernel at
  p <= 1.5 has a moving diagonal crease; p = 1 runs at tol 1e-9 because at
  the default tolerance one op takes tens of seconds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterator

# Enough ops per run that ten of them lie beyond the 90th percentile.
MIN_OPS = 100


@dataclass(frozen=True)
class Op:
    """One CLI invocation with the exit status its contract requires."""

    kind: str
    argv: tuple[str, ...]
    expect: int


def _num(x: float) -> str:
    # Positional notation with the shortest round-trip digits: argparse takes
    # "-5e-05" for an option flag, so exponent notation cannot carry negatives.
    return format(Decimal(repr(float(x))), "f")


def _interval(rng: random.Random, lo: float, hi: float, min_width: float) -> tuple[float, float]:
    while True:
        a, b = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
        if b - a >= min_width:
            return a, b


# ---------------------------------------------------------------- sweep-scan

_SCAN_FUNCTIONS = (
    ("pow:3", ("0", "2")),
    ("exp", None),
    ("ln", None),
    ("recip", None),
    ("abs_pow:2.5", ("-2", "2")),
    ("pow:-2", None),
)


def _sweep_scan_cycle(rng: random.Random) -> list[Op]:
    ops = []
    for q in ("2", "3"):
        for fn, rng_range in _SCAN_FUNCTIONS:
            argv = ["sweep", "--fn", fn, "--cases", "4", "--format", "csv",
                    "--q", q, "--seed", str(rng.getrandbits(63))]
            if rng_range:
                argv += ["--interval-range", *rng_range]
            ops.append(Op(f"sweep/q{q}", tuple(argv), 0))
    return ops


# ------------------------------------------------------------ certify-coarse

# (function, sampling range) for the coarse certification ops.
_COARSE_FUNCTIONS = (
    ("abs_pow:2.5", (-2.0, 2.0)),
    ("recip", (1e-3, 2.0)),
    ("ln", (1e-4, 2.0)),
)
_COARSE = ("--grid-points", "9", "--tol", "1e-13")
FORMATS = ("text", "json", "csv")

# Inputs that raise OverflowError today although their contract is exit 2.
OVERFLOW_INPUTS = (
    ("means", "--a", "1", "--b", "1e10", "--p", "400"),
    ("means", "--a", "1", "--b", "1e200", "--n", "5"),
    ("verify", "--fn", "pow:-1", "--interval", "1e-300", "1"),
    ("kernel", "--p", "1e6"),
)
_UNKNOWN_NAMES = ("nosuch", "sinh", "pow3", "exp2", "log")


def _means_op(rng: random.Random, fmt: str) -> Op:
    a, b = _interval(rng, 0.1, 10.0, 1e-3)
    n = rng.choice((-3, -2, -1, 1, 2, 3))
    q = rng.choice(("1.5", "2", "3"))
    p = rng.choice(("-3", "-2", "-0.5", "0.5", "2", "3"))
    argv = ("means", "--a", _num(a), "--b", _num(b), "--n", str(n), "--q", q,
            "--p", p, "--format", fmt)
    return Op("means", argv, 0)


def _certify_coarse_cycle(rng: random.Random) -> list[Op]:
    ops = []
    for fmt in FORMATS:
        for fn, (lo, hi) in _COARSE_FUNCTIONS:
            ops.append(Op("sweep/coarse", (
                "sweep", "--fn", fn, "--cases", "20", *_COARSE,
                "--interval-range", _num(lo), _num(hi),
                "--seed", str(rng.getrandbits(63)), "--format", fmt), 0))
            a, b = _interval(rng, lo, hi, 1e-3)
            ops.append(Op("verify", (
                "verify", "--fn", fn, "--interval", _num(a), _num(b), *_COARSE,
                "--format", fmt), 0))
            a, b = _interval(rng, lo, hi, 1e-3)
            ops.append(Op("identity/L1", (
                "identity", "--lemma", "1", "--fn", fn, "--interval", _num(a), _num(b),
                "--format", fmt), 0))
        for _ in range(3):
            ops.append(_means_op(rng, fmt))
        ops.append(Op("error/unknown-fn", (
            "sweep", "--fn", rng.choice(_UNKNOWN_NAMES), "--cases", "1", "--format", fmt), 2))
        lo, hi = sorted((-rng.uniform(0.5, 5.0), -rng.uniform(0.5, 5.0)))
        ops.append(Op("error/empty-range", (
            "sweep", "--fn", "ln", "--cases", "1", "--interval-range", _num(lo), _num(hi),
            "--format", fmt), 2))
    for argv in OVERFLOW_INPUTS:
        ops.append(Op("error/overflow", argv, 2))
    return ops


# ------------------------------------------------------------------- quad-2d

def _identity_l2(rng: random.Random, fn: str) -> Op:
    if fn == "abs_pow:2.5":  # an interval spanning the kink at 0
        a, b = -rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0)
    else:
        a, b = _interval(rng, *{"recip": (0.1, 4.0), "exp": (-2.0, 2.0), "ln": (0.1, 4.0)}[fn],
                         0.05)
    return Op(f"identity/L2/{fn}", (
        "identity", "--lemma", "2", "--fn", fn, "--interval", _num(a), _num(b)), 0)


def _kernel(p: str) -> Op:
    return Op(f"kernel/p{p}", ("kernel", "--p", p, "--format", "json"), 0)


def _quad_2d_cycle(rng: random.Random) -> list[Op]:
    # Op weights are set by cost tier so that each percentile lands inside a
    # block of like ops, not on the edge between two tiers: the two slowest
    # ops (p=1 kernel, abs_pow identity) make up under 5 % of a cycle, so the
    # 90th percentile falls in the middle of the four p=1.1 kernels of each
    # cycle, and the median falls among the ~5 ms ops (p=2 and p=4 kernels,
    # recip, exp and ln identities) that make up almost three quarters of it.
    ops = [Op("kernel/p1", ("kernel", "--p", "1", "--tol", "1e-9", "--format", "json"), 0),
           _identity_l2(rng, "abs_pow:2.5")]
    for _ in range(4):
        ops += [_kernel("1.1"), _kernel("1.5"), _identity_l2(rng, "recip")]
    ops += [_kernel("3"), _kernel("3")]
    for _ in range(7):
        ops += [_kernel("2"), _kernel("4"), _identity_l2(rng, "exp"), _identity_l2(rng, "ln")]
    return ops


_CYCLES = {
    "sweep-scan": _sweep_scan_cycle,
    "certify-coarse": _certify_coarse_cycle,
    "quad-2d": _quad_2d_cycle,
}
WORKLOADS = tuple(_CYCLES)

# Whole cycles measured by a traced run (a fixed op set, so counts repeat).
TRACE_CYCLES = {"sweep-scan": 6, "certify-coarse": 30, "quad-2d": 1}

# Warm-up ops run once before timing, so lazy set-up is not timed.
WARMUP = (
    ("means", "--a", "1", "--b", "2"),
    ("kernel", "--p", "2", "--format", "json"),
    ("sweep", "--fn", "exp", "--cases", "1", "--grid-points", "9", "--format", "csv"),
)


def cycles(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless stream of rotation cycles for a workload, fixed by its seed."""
    make = _CYCLES[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng)


def digest_cycles(workload: str) -> int:
    """Number of leading cycles every run executes; the stdout digest covers them."""
    return math.ceil(MIN_OPS / len(next(cycles(workload, 0))))
