"""Independent reference checks for every op the benchmark runs.

Nothing here imports hhcert.  Gaps are recomputed with scipy's QUADPACK
``quad``, split at the midpoint and at 0; bounds and kernel constants come
from their closed forms; the special means from mpmath at 50 digits; sweep
intervals from a separate implementation of the documented splitmix64
sampler.  Each op gets one verdict:

* ``ok``: every printed claim agrees with its reference.
* ``defect``: the op trips a certificate-honesty gap of a known kind, on
  the input where the baseline shows it, and misses by at most DEFECT_SLACK
  times its allowance: an input whose contract is exit 2 raising
  OverflowError (ROADMAP item 3), the p = 1 kernel whose 2D error estimate
  is below its actual error (item 2), or a gap or identity residual off by
  more than its tolerance on an interval that holds a kink the quadrature
  does not split at (the error-estimate blind spot of item 2, at a fixed
  kink).  Defects are reported and counted apart from failures, so they stay
  visible without making the workload fail.
* ``failed``: anything else that disagrees: a value beyond its reference
  tolerance, an exit status the contract does not allow, an unexpected
  exception, or output that does not parse.
"""

from __future__ import annotations

import functools
import json
import math
import re
import warnings
from dataclasses import dataclass

import mpmath
from scipy import integrate

OK, DEFECT, FAILED = "ok", "defect", "failed"
EPS = 2.0**-52
HOLDS_SLACK = 1e-12  # the CLI's slack in gap <= bound
ORDER_SLACK = 1e-10  # the CLI's slack in the Hermite-Hadamard ordering
NO_VIOLATION = "no-violation-found"
HYPOTHESIS_VERDICTS = (NO_VIOLATION, "violated")
# A known-kind miss counts as a defect only up to this multiple of its
# allowance; beyond it the value is wrong.  The largest misses at baseline are
# 15x tol (kernel p = 1) and 20x the allowance (an unsplit kink, the worst of
# 60000 seeded abs_pow:2.5 sweep cases; all but three stay below 2x).
DEFECT_SLACK = 100.0
# The one kernel exponent whose 2D error estimate under-reports at baseline.
UNDERREPORT_2D_P = 1.0
# Defect classes.
EXIT_CONTRACT = "exit-contract"
UNDERREPORT_2D = "underreport-2d"
UNDERREPORT_KINK = "underreport-kink"


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str = ""
    defect: str | None = None  # defect class when status is DEFECT
    # Actual error over reported error estimate, for kernel ops.
    underreport: float | None = None


class Mismatch(Exception):
    """A printed claim disagrees with its reference."""


class Defect(Exception):
    """A printed claim misses its tolerance in a known, classified way."""

    def __init__(self, defect: str, reason: str) -> None:
        super().__init__(reason)
        self.defect = defect


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _options(argv) -> dict[str, list[str]]:
    opts: dict[str, list[str]] = {}
    key = None
    for tok in argv[1:]:
        if tok.startswith("--"):
            key = tok[2:]
            opts[key] = []
        else:
            opts[key].append(tok)
    return opts


def _bool(text) -> bool:
    if isinstance(text, bool):
        return text
    _require(text in ("true", "false"), f"not a boolean: {text!r}")
    return text == "true"


# ----------------------------------------------------------------- functions

@dataclass(frozen=True)
class Function:
    f: object
    df: object
    lower: float  # open domain (lower, upper)
    upper: float
    kinks: tuple[float, ...]


def function(label: str) -> Function:
    """Scalar evaluator, derivative and domain of a catalog function id."""
    name, _, param = label.partition(":")
    inf = math.inf
    if name == "pow":
        n = int(float(param))
        return Function(lambda x: float(x) ** n, lambda x: n * float(x) ** (n - 1),
                        0.0 if n < 0 else -inf, inf, ())
    if name == "abs_pow":
        r = float(param)
        return Function(lambda x: abs(x) ** r,
                        lambda x: r * math.copysign(1.0, x) * abs(x) ** (r - 1.0) if x else 0.0,
                        -inf, inf, (0.0,))
    simple = {
        "exp": (math.exp, math.exp, -inf),
        "ln": (math.log, lambda x: 1.0 / x, 0.0),
        "recip": (lambda x: 1.0 / x, lambda x: -1.0 / x**2, 0.0),
        "neg_ln": (lambda x: -math.log(x), lambda x: -1.0 / x, 0.0),
    }
    f, df, lower = simple[name]
    return Function(f, df, lower, inf, ())


# ------------------------------------------------------------------ sampling

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64 as documented by the CLI, reimplemented for reference."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def uniform(self, lo: float, hi: float) -> float:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        z ^= z >> 31
        return lo + (hi - lo) * ((z >> 11) * 2.0**-53)


def sweep_intervals(seed: int, cases: int, lo: float, hi: float, fn: Function):
    """The intervals a sweep must draw: uniform endpoints, ordered, redrawn
    when narrower than 1e-6 or touching the open domain."""
    lo, hi = max(lo, fn.lower), min(hi, fn.upper)
    rng = SplitMix64(seed)
    out = []
    while len(out) < cases:
        x, y = rng.uniform(lo, hi), rng.uniform(lo, hi)
        a, b = min(x, y), max(x, y)
        if b - a >= 1e-6 and fn.lower < a and b < fn.upper:
            out.append((a, b))
    return out


# ---------------------------------------------------------------- references

@functools.lru_cache(maxsize=64)
def integral_mean(fn: Function, a: float, b: float) -> float:
    """Mean of f over [a, b] by QUADPACK, split at the midpoint and kinks."""
    points = [0.5 * (a + b)] + [k for k in fn.kinks if a < k < b]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(fn.f, a, b, points=points, epsabs=0.0,
                                  epsrel=2e-14, limit=500)
    return value / (b - a)


def gap_scale(fn: Function, a: float, b: float) -> float:
    return max(abs(fn.f(a)), abs(fn.f(b)), abs(fn.f(0.5 * (a + b))))


def gap_allowance(fn: Function, a: float, b: float, tol: float) -> float:
    """What a gap may differ from the reference: the integral's tolerance per
    unit width plus 1e-13 of the function's scale on the interval."""
    return tol / (b - a) + 1e-13 * gap_scale(fn, a, b)


def bound_reference(theorem: str, width: float, da: float, db: float, q: float) -> float:
    if theorem == "T2":
        return width / math.sqrt(6.0) * math.sqrt((da * da + db * db) / 2.0)
    if theorem == "T3":
        p = q / (q - 1.0)
        return width * (2.0 / ((p + 1.0) * (p + 2.0))) ** (1.0 / p) \
            * ((da**q + db**q) / 2.0) ** (1.0 / q)
    return 3.0 ** (1.0 - 1.0 / q) / 8.0 * width * (da + db)


def _close(x: float, ref: float, rel: float, what: str) -> None:
    _require(abs(x - ref) <= rel * abs(ref), f"{what}={x!r} reference={ref!r}")


# ------------------------------------------------------------------ parsing

_TEXT_ROW = re.compile(r"^  (T2|T3|KO|HH)\s+(.*)$")


def parse_bound_records(fmt: str, out: str) -> list[dict]:
    """Records of a sweep or verify output as dicts of typed values."""
    rows = []
    if fmt == "json":
        for rec in json.loads(out)["records"]:
            rows.append({
                "theorem": rec["theorem"], "case_id": rec["case_id"],
                "a": rec["a"], "b": rec["b"], "q": rec["q"],
                "gap": float(rec["gap"]), "bound": float(rec["bound"]),
                "ratio": math.nan if rec["ratio"] is None else float(rec["ratio"]),
                "hypothesis": rec["hypothesis_verdict"], "holds": _bool(rec["holds"]),
            })
    elif fmt == "csv":
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        for line in lines[1:]:
            rec = dict(zip(header, line.split(",")))
            rows.append({
                "theorem": rec["theorem"], "case_id": int(rec["case_id"]),
                "a": float(rec["a"]), "b": float(rec["b"]),
                "q": float(rec["q"]) if rec["q"] else None,
                "gap": float(rec["gap"]), "bound": float(rec["bound"]),
                "ratio": float(rec["ratio"]),
                "hypothesis": rec["hypothesis"], "holds": _bool(rec["holds"]),
            })
    else:
        for line in out.splitlines()[1:]:
            m = _TEXT_ROW.match(line)
            _require(m is not None, f"unparsable text row {line!r}")
            kv = dict(part.split("=", 1) for part in m.group(2).split())
            rows.append({
                "theorem": m.group(1), "case_id": int(kv["case_id"]),
                "gap": float(kv["gap"]), "bound": float(kv["bound"]),
                "ratio": float(kv["ratio"]),
                "hypothesis": kv["hypothesis"], "holds": _bool(kv["holds"]),
            })
    return rows


# ------------------------------------------------------------------- checks

def _check_bound_record(rec: dict, fn: Function, a: float, b: float, q: float,
                        tol: float) -> str | None:
    """Check one T2/T3/KO/HH record; returns the reason of a kink defect."""
    theorem = rec["theorem"]
    _require(rec["hypothesis"] in HYPOTHESIS_VERDICTS, f"verdict {rec['hypothesis']!r}")
    if "a" in rec:
        _require((rec["a"], rec["b"]) == (a, b), f"interval {rec['a']!r}, {rec['b']!r}")
    mean = integral_mean(fn, a, b)
    mid = fn.f(0.5 * (a + b))
    allow = gap_allowance(fn, a, b, tol)
    if theorem == "HH":
        upper = 0.5 * (fn.f(a) + fn.f(b))
        gap_ref = max(mid - mean, mean - upper, 0.0)
        _require(rec["bound"] == ORDER_SLACK, f"HH bound {rec['bound']!r}")
        _require(rec["holds"] == (rec["gap"] <= ORDER_SLACK), "HH holds inconsistent")
    else:
        if "q" in rec:
            _require(rec["q"] == (2.0 if theorem == "T2" else q), f"{theorem} q={rec['q']!r}")
        gap_ref = abs(mid - mean)
        bound_ref = bound_reference(theorem, b - a, abs(fn.df(a)), abs(fn.df(b)),
                                    2.0 if theorem == "T2" else q)
        _close(rec["bound"], bound_ref, 1e-13, f"{theorem} bound")
        _require(rec["holds"] == (rec["gap"] <= rec["bound"] + HOLDS_SLACK),
                 f"{theorem} holds inconsistent")
        ratio = rec["gap"] / rec["bound"] if rec["bound"] > 0 else math.inf
        _require(rec["ratio"] == ratio or (math.isnan(rec["ratio"]) and rec["gap"] == 0.0),
                 f"{theorem} ratio={rec['ratio']!r}")
    error = abs(rec["gap"] - gap_ref)
    if error > allow:
        reason = f"{theorem} gap={rec['gap']!r} reference={gap_ref!r} allowance={allow:.3g}"
        kinks = [k for k in fn.kinks if a < k < b]
        if kinks and error <= DEFECT_SLACK * allow:
            return f"{reason}; kink at {kinks[0]:g} is not a breakpoint"
        raise Mismatch(reason)
    return None


def _bound_records_checked(records, intervals, fn, q, tol, rc) -> None:
    """Check every record and the exit status, then raise the first defect."""
    defects = [_check_bound_record(rec, fn, *iv, q, tol) for rec, iv in zip(records, intervals)]
    _require(rc == _contract_exit(records), f"exit {rc} for these records")
    defects = [d for d in defects if d]
    if defects:
        raise Defect(UNDERREPORT_KINK, defects[0])


def _contract_exit(records: list[dict]) -> int:
    return int(any(r["hypothesis"] == NO_VIOLATION and not r["holds"] for r in records))


def check_sweep(argv, out: str, rc: int) -> None:
    opts = _options(argv)
    fn = function(opts["fn"][0])
    q = float(opts.get("q", ["2"])[0])
    tol = float(opts.get("tol", ["1e-10"])[0])
    lo, hi = map(float, opts.get("interval-range", ["0.1", "10"]))
    cases = int(opts["cases"][0])
    intervals = sweep_intervals(int(opts["seed"][0]), cases, lo, hi, fn)
    records = parse_bound_records(opts.get("format", ["text"])[0], out)
    _require(len(records) == 3 * cases, f"{len(records)} records for {cases} cases")
    for i, rec in enumerate(records):
        case, theorem = divmod(i, 3)
        _require(rec["case_id"] == case and rec["theorem"] == ("T2", "T3", "KO")[theorem],
                 f"record {i} is {rec['theorem']} of case {rec['case_id']}")
    _bound_records_checked(records, [iv for iv in intervals for _ in range(3)], fn, q, tol, rc)


def check_verify(argv, out: str, rc: int) -> None:
    opts = _options(argv)
    fn = function(opts["fn"][0])
    q = float(opts.get("q", ["2"])[0])
    tol = float(opts.get("tol", ["1e-10"])[0])
    a, b = map(float, opts["interval"])
    records = parse_bound_records(opts.get("format", ["text"])[0], out)
    _require([r["theorem"] for r in records] == ["T2", "T3", "KO", "HH"],
             f"records {[r['theorem'] for r in records]}")
    _bound_records_checked(records, [(a, b)] * len(records), fn, q, tol, rc)


def check_identity(argv, out: str, rc: int) -> None:
    opts = _options(argv)
    fmt = opts.get("format", ["text"])[0]
    tol = float(opts.get("tol", ["1e-10"])[0])
    if fmt == "json":
        residual = json.loads(out)["residual"]
    elif fmt == "csv":
        residual = float(out.splitlines()[1].rsplit(",", 1)[1])
    else:
        m = re.search(r"residual=(\S+)$", out.strip())
        _require(m is not None, f"no residual in {out!r}")
        residual = float(m.group(1))
    _require(rc == 0, f"exit {rc}")
    _require(residual >= 0.0, f"residual={residual!r}")
    if residual > tol:
        fn = function(opts["fn"][0])
        a, b = map(float, opts["interval"])
        reason = f"residual={residual!r} above tol={tol!r}"
        kinks = [k for k in fn.kinks if a < k < b]
        if kinks and residual <= DEFECT_SLACK * tol:
            raise Defect(UNDERREPORT_KINK, f"{reason}; kink at {kinks[0]:g} is not a breakpoint")
        raise Mismatch(reason)


@mpmath.workdps(50)
def _mean_references(a: float, b: float, p: float | None) -> dict[str, tuple]:
    """Each mean at 50 digits with a relative tolerance from its conditioning
    in double precision (rounding of the logs and powers it subtracts)."""
    ma, mb = mpmath.mpf(a), mpmath.mpf(b)
    la, lb = math.log(a), math.log(b)
    refs = {
        "A": ((ma + mb) / 2, 4 * EPS),
        "L": ((mb - ma) / (mpmath.log(mb) - mpmath.log(ma)),
              16 * EPS * (1.0 + (abs(la) + abs(lb)) / abs(lb - la))),
        "I": (mpmath.exp((mb * mpmath.log(mb) - ma * mpmath.log(ma)) / (mb - ma) - 1),
              16 * EPS * (1.0 + (abs(b * lb) + abs(a * la)) / (b - a))),
    }
    if p is not None:
        mp1 = mpmath.mpf(p) + 1
        value = ((mb**mp1 - ma**mp1) / (mp1 * (mb - ma))) ** (1 / mpmath.mpf(p))
        cond = (b ** (p + 1) + a ** (p + 1)) / abs(b ** (p + 1) - a ** (p + 1)) / abs(p)
        refs[f"L_{p:.17g}"] = (value, 16 * EPS * (1.0 + cond))
    return refs


def check_means(argv, out: str, rc: int) -> None:
    opts = _options(argv)
    fmt = opts.get("format", ["text"])[0]
    a, b = float(opts["a"][0]), float(opts["b"][0])
    p = float(opts["p"][0]) if "p" in opts else None
    values: dict[str, float] = {}
    props: dict[str, tuple[float, float, bool]] = {}
    if fmt == "json":
        for rec in json.loads(out)["records"]:
            if "value" in rec:
                values[rec["item"]] = rec["value"]
            else:
                props[rec["item"]] = (rec["lhs"], rec["rhs"], rec["holds"])
    elif fmt == "csv":
        for line in out.splitlines()[1:]:
            item, value, lhs, rhs, _, holds = line.split(",")
            if value:
                values[item] = float(value)
            else:
                props[item] = (float(lhs), float(rhs), _bool(holds))
    else:
        for line in out.splitlines()[1:]:
            fields = line.split()
            if len(fields) == 2:
                values[fields[0]] = float(fields[1])
            else:
                kv = dict(f.split("=", 1) for f in fields[1:])
                props[fields[0]] = (float(kv["lhs"]), float(kv["rhs"]), _bool(kv["holds"]))
    refs = _mean_references(a, b, p)
    _require(sorted(values) == sorted(refs), f"means {sorted(values)}")
    for item, (ref, rel) in refs.items():
        _close(values[item], float(ref), rel, f"mean {item}")
    _require(sorted(props) == ["P1", "P2", "P3", "P4"], f"propositions {sorted(props)}")
    for item, (lhs, rhs, holds) in props.items():
        _require(holds == (lhs <= rhs + HOLDS_SLACK), f"{item} holds inconsistent")
    _require(rc == int(not all(h for _, _, h in props.values())), f"exit {rc}")


@mpmath.workdps(50)
def check_kernel(argv, out: str, rc: int) -> Verdict:
    opts = _options(argv)
    p = float(opts["p"][0])
    tol = float(opts.get("tol", ["1e-10"])[0])
    rec = json.loads(out)
    mp = mpmath.mpf(p)
    exact = 2 / ((mp + 1) * (mp + 2))
    corner = 1 / (2 ** (mp + 1) * (mp + 1) * (mp + 2))
    _require(rec["p"] == p, f"p={rec['p']!r}")
    _close(rec["closed_form"], float(exact), 4 * EPS, "closed_form")
    for key, ref in (("J1", corner), ("J2", exact / 2 - corner),
                     ("J3", exact / 2 - corner), ("J4", corner)):
        _close(rec[key], float(ref), 16 * EPS, key)
    _close(rec["p_norm"], float(exact ** (1 / mp)), 8 * EPS, "p_norm")
    _require(rec["discrepancy"] == abs(rec["closed_form"] - rec["numeric"]), "discrepancy")
    _require(rc == 0, f"exit {rc}")
    actual = float(abs(mpmath.mpf(rec["numeric"]) - exact))
    estimate = rec["numeric_error_estimate"]
    underreport = actual / estimate if estimate > 0 else math.inf
    # A few ulp of the value are rounding, not quadrature error.
    floor = 4 * EPS * float(exact)
    if actual <= tol and actual <= estimate + floor:
        return Verdict(OK, underreport=underreport)
    reason = (f"numeric={rec['numeric']!r} off the closed form by {actual:.3g}, "
              f"2D error estimate {estimate:.3g}, tol {tol:g}")
    if p == UNDERREPORT_2D_P and actual <= DEFECT_SLACK * tol:
        return Verdict(DEFECT, reason, UNDERREPORT_2D, underreport)
    return Verdict(FAILED, reason, underreport=underreport)


def check_usage_error(out: str, err: str, rc: int) -> None:
    _require(rc == 2, f"exit {rc}, expected 2")
    _require(out == "", "usage error wrote to stdout")
    lines = err.splitlines()
    _require(len(lines) == 1 and lines[0].startswith("error: "), f"stderr {err!r}")


_CHECKS = {"sweep": check_sweep, "verify": check_verify, "identity": check_identity,
           "means": check_means}


def check(rec: dict) -> Verdict:
    """Verdict for one op record (kind, argv, expect, rc, exc, out, err)."""
    argv, exc, rc = rec["argv"], rec["exc"], rec["rc"]
    if exc is not None:
        if rec["kind"] == "error/overflow" and exc.startswith("OverflowError"):
            return Verdict(DEFECT, f"{exc} escaped instead of exit 2", EXIT_CONTRACT)
        return Verdict(FAILED, f"exception {exc}")
    if rc != rec["expect"]:
        return Verdict(FAILED, f"exit {rc}, contract requires {rec['expect']}")
    try:
        if rec["expect"] == 2:
            check_usage_error(rec["out"], rec["err"], rc)
        elif argv[0] == "kernel":
            return check_kernel(argv, rec["out"], rc)
        else:
            _CHECKS[argv[0]](argv, rec["out"], rc)
    except Mismatch as exc_:
        return Verdict(FAILED, str(exc_))
    except Defect as exc_:
        return Verdict(DEFECT, str(exc_), exc_.defect)
    except (ValueError, KeyError, IndexError, TypeError) as exc_:
        return Verdict(FAILED, f"unparsable output: {type(exc_).__name__}: {exc_}")
    return Verdict(OK)
