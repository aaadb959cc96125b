"""Command-line interface for bound verification, identities, and sweeps.

Exit status is 0 when every evaluated check with a satisfied hypothesis
holds, 1 when some bound with a satisfied hypothesis fails, and 2 for
configuration errors (unknown function, invalid parameters or exponents,
malformed intervals, evaluation outside a domain) and for inputs whose
arithmetic leaves the float range (a division by zero or an overflow).

Machine formats emit every number with 17 significant digits and a '.'
decimal point regardless of locale.  Sweep output is byte-identical across
runs for a fixed configuration; the RNG algorithm identifier and seed are
recorded in the output header so sweeps can be reproduced elsewhere.

Every result goes through one writer, _emit.  Each printed value takes one
formatter call, _fmt for text and CSV and _json_scalar for JSON, whose first
branch is the float; a table's column-to-key map and the function label are
resolved once per command, not once per cell or row.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii

from . import sampling
from .bounds import evaluate_case, verify_case, verify_identity
from .catalog import (
    MAX_CASES,
    NO_VIOLATION,
    Interval,
    check_grid_points,
    parse_function_id,
)
from .errors import HHCertError
from .kernel import kernel_p_moment, kernel_p_norm, kernel_p_numeric
from .means import (
    MeanPair,
    check_proposition,
    mean_arithmetic,
    mean_identric,
    mean_logarithmic,
    mean_p_logarithmic,
)
from .quadrature import check_tol
from .sampling import SplitMix64, draw_interval, sampling_range

EXIT_OK = 0
EXIT_BOUND_FAILURE = 1
EXIT_CONFIG = 2

CSV_COLUMNS = ("case_id", "a", "b", "q", "theorem", "gap", "bound", "ratio", "hypothesis", "holds")
_BOUND_TEXT = ("case_id", "gap", "bound", "ratio", "holds", "hypothesis")
_MEANS_COLUMNS = ("item", "value", "lhs", "rhs", "variant", "holds")


def _fmt(v) -> str:
    """Render one value for text/CSV output; floats get 17 significant digits,
    which print nan, inf and -inf as such."""
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, bool):
        return "true" if v else "false"
    return "" if v is None else str(v)


def _json_scalar(v) -> str:
    """Render one value as JSON: as _fmt, but nan is null and infinities are
    strings; a str is what json.dumps gives it."""
    if isinstance(v, float):
        if math.isfinite(v):
            return f"{v:.17g}"
        return "null" if math.isnan(v) else f'"{v:.17g}"'
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_scalar(x) for x in v) + "]"
    return "null" if v is None else _fmt(v)


def _keyed(columns) -> list[tuple[str, str]]:
    """(column, record key) for each CSV/text column, resolved once per table;
    the "hypothesis" column reads hypothesis_verdict."""
    return [(c, "hypothesis_verdict" if c == "hypothesis" else c) for c in columns]


def _line(rec: dict, label: str, keyed) -> str:
    """One text line: rec[label], then name=value for each of keyed = _keyed(columns)."""
    return "  ".join([f"{rec[label]:2s}", *[f"{c}={_fmt(rec.get(k))}" for c, k in keyed]])


def _emit(args, meta: dict, records, columns, headline: str, lines) -> None:
    """Write one result to stdout in args.format.

    JSON is ``meta`` plus a "records" list unless records is None.  CSV is a
    header of ``columns`` and one row per record, a missing key printing
    empty; a bound table (CSV_COLUMNS) is preceded by ``meta`` as a "# k=v"
    comment, and a result without records is one row of meta minus
    "command".  Text is the headline followed by each of ``lines`` indented.
    """
    if args.format == "json":
        fields = [f'  "{k}": {_json_scalar(v)}' for k, v in meta.items()]
        if records is not None:
            rows = ",\n".join(
                "    {" + ", ".join(f'"{k}": {_json_scalar(v)}' for k, v in rec.items()) + "}"
                for rec in records
            )
            fields.append('  "records": [\n' + (rows + "\n" if rows else "") + "  ]")
        sys.stdout.write("{\n" + ",\n".join(fields) + "\n}\n")
    elif args.format == "csv":
        if records is None:
            records = [{k: v for k, v in meta.items() if k != "command"}]
            columns = tuple(records[0])
        elif columns == CSV_COLUMNS:
            sys.stdout.write("# " + " ".join(f"{k}={_fmt(v)}" for k, v in meta.items()) + "\n")
        keys = [k for _, k in _keyed(columns)]
        sys.stdout.write(",".join(columns) + "\n")
        for rec in records:
            sys.stdout.write(",".join([_fmt(rec.get(k)) for k in keys]) + "\n")
    else:
        sys.stdout.write(headline + "\n" + "".join(f"  {line}\n" for line in lines))


def _bound_records(case_id: int, label: str, iv: Interval, reports) -> list[dict]:
    return [{
        "case_id": case_id,
        "function": label,
        "a": iv.a,
        "b": iv.b,
        "q": report.q,
        "theorem": report.theorem,
        "gap": report.gap,
        "bound": report.bound,
        "ratio": report.ratio,
        "hypothesis_verdict": report.hypothesis.verdict,
        "holds": report.holds,
    } for report in reports]


def _bound_lines(records: list[dict]):
    keyed = _keyed(_BOUND_TEXT)
    return (_line(rec, "theorem", keyed) for rec in records)


def _exit_from_records(records: list[dict]) -> int:
    for rec in records:
        if rec["hypothesis_verdict"] == NO_VIOLATION and not rec["holds"]:
            return EXIT_BOUND_FAILURE
    return EXIT_OK


def cmd_verify(args) -> int:
    fd = parse_function_id(args.fn)
    label = fd.label
    iv = Interval(args.interval[0], args.interval[1])
    sandwich, reports = verify_case(fd, iv, args.q, args.tol, args.grid_points)
    records = _bound_records(0, label, iv, reports)
    meta = {
        "command": "verify",
        "function": label,
        "interval": [iv.a, iv.b],
        "q": args.q,
        "tol": args.tol,
    }
    headline = (
        f"verify {label} on [{_fmt(iv.a)}, {_fmt(iv.b)}] q={_fmt(args.q)} "
        f"(sandwich: lower={_fmt(sandwich.lower)} middle={_fmt(sandwich.middle)} "
        f"upper={_fmt(sandwich.upper)} ordered={_fmt(sandwich.ordered)})"
    )
    _emit(args, meta, records, CSV_COLUMNS, headline, _bound_lines(records))
    return _exit_from_records(records)


def cmd_sweep(args) -> int:
    fd = parse_function_id(args.fn)
    if args.cases < 0:
        raise ValueError(f"cases must be >= 0, got {args.cases}")
    if args.cases > MAX_CASES:
        raise ValueError(f"cases must be <= {MAX_CASES}, got {args.cases}")
    lo, hi = args.interval_range
    # checked here too, since --cases 0 evaluates no case that would check them
    sampling_range(lo, hi, fd.domain)
    check_tol(args.tol)
    check_grid_points(args.grid_points)
    label = fd.label
    rng = SplitMix64(args.seed)
    records: list[dict] = []
    for case_id in range(args.cases):
        iv = draw_interval(rng, lo, hi, fd.domain)
        records += _bound_records(
            case_id, label, iv, evaluate_case(fd, iv, args.q, args.tol, args.grid_points))
    meta = {
        "command": "sweep",
        "rng": sampling.ALGORITHM,
        "seed": args.seed,
        "function": label,
        "cases": args.cases,
        "q": args.q,
        "interval_range": [lo, hi],
        "tol": args.tol,
    }
    headline = f"sweep {label} cases={args.cases} seed={args.seed} rng={sampling.ALGORITHM}"
    _emit(args, meta, records, CSV_COLUMNS, headline, _bound_lines(records))
    return _exit_from_records(records)


def cmd_identity(args) -> int:
    fd = parse_function_id(args.fn)
    iv = Interval(args.interval[0], args.interval[1])
    lemma = f"L{args.lemma}"
    residual = verify_identity(lemma, fd, iv, args.tol)
    meta = {
        "command": "identity",
        "lemma": lemma,
        "function": fd.label,
        "a": iv.a,
        "b": iv.b,
        "tol": args.tol,
        "residual": residual,
    }
    headline = (
        f"identity {lemma} {fd.label} on [{_fmt(iv.a)}, {_fmt(iv.b)}]: "
        f"residual={_fmt(residual)}"
    )
    _emit(args, meta, None, None, headline, ())
    return EXIT_OK


def cmd_kernel(args) -> int:
    moment = kernel_p_moment(args.p)
    norm = kernel_p_norm(args.p)
    numeric = kernel_p_numeric(args.p, args.tol)
    discrepancy = abs(moment.closed_form - numeric.value)
    meta = {
        "command": "kernel",
        "p": moment.p,
        "closed_form": moment.closed_form,
        "J1": moment.pieces[0],
        "J2": moment.pieces[1],
        "J3": moment.pieces[2],
        "J4": moment.pieces[3],
        "p_norm": norm,
        "numeric": numeric.value,
        "numeric_error_estimate": numeric.error_estimate,
        "discrepancy": discrepancy,
    }
    headline = (
        f"kernel p={_fmt(moment.p)}: closed_form={_fmt(moment.closed_form)} "
        f"pieces=({', '.join(_fmt(j) for j in moment.pieces)}) p_norm={_fmt(norm)}"
    )
    lines = [f"numeric={_fmt(numeric.value)} discrepancy={_fmt(discrepancy)}"]
    _emit(args, meta, None, None, headline, lines)
    return EXIT_OK


def cmd_means(args) -> int:
    mp = MeanPair(args.a, args.b)
    records = [
        {"item": "A", "value": mean_arithmetic(mp)},
        {"item": "L", "value": mean_logarithmic(mp)},
        {"item": "I", "value": mean_identric(mp)},
    ]
    if args.p is not None:
        records.append({"item": f"L_{_fmt(args.p)}", "value": mean_p_logarithmic(mp, args.p)})
    props = [
        check_proposition("P1", mp, n=args.n, variant=args.variant),
        check_proposition("P2", mp, n=args.n, q=args.q, variant=args.variant),
        check_proposition("P3", mp, q=args.q, variant=args.variant),
        check_proposition("P4", mp, q=args.q, variant=args.variant),
    ]
    records += [
        {"item": rep.proposition, "lhs": rep.lhs, "rhs": rep.rhs,
         "variant": rep.variant, "holds": rep.holds}
        for rep in props
    ]
    meta = {
        "command": "means",
        "a": mp.a,
        "b": mp.b,
        "n": args.n,
        "q": args.q,
        "variant": args.variant,
    }
    keyed = _keyed(("lhs", "rhs", "variant", "holds"))
    lines = (
        f"{rec['item']:<6s} {_fmt(rec['value'])}" if "value" in rec
        else _line(rec, "item", keyed)
        for rec in records
    )
    _emit(args, meta, records, _MEANS_COLUMNS, f"means a={_fmt(mp.a)} b={_fmt(mp.b)}", lines)
    if any(not rep.holds for rep in props):
        return EXIT_BOUND_FAILURE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhcert",
        description="Certify midpoint-rule error bounds, integral identities, "
                    "kernel constants, and special-means inequalities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    verify = subs.add_parser("verify", help="evaluate the three bounds and the sandwich")
    verify.add_argument("--fn", required=True, help="function id, e.g. exp, pow:3, abs_pow:2.5")
    verify.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"), required=True)
    verify.add_argument("--q", type=float, default=2.0, help="hypothesis exponent q > 1 (default 2)")
    verify.add_argument("--grid-points", type=int, default=257,
                        help="convexity sampling density per axis (default 257)")
    verify.set_defaults(func=cmd_verify)

    sweep = subs.add_parser("sweep", help="seeded randomized bound sweep")
    sweep.add_argument("--fn", required=True)
    sweep.add_argument("--cases", type=int, default=10,
                       help=f"number of intervals (default 10, at most {MAX_CASES}: every "
                            "record is held until output, about 5 KB a case)")
    sweep.add_argument("--seed", type=int, default=0, help="64-bit sweep seed (default 0)")
    sweep.add_argument("--q", type=float, default=2.0)
    sweep.add_argument("--interval-range", nargs=2, type=float, metavar=("LO", "HI"),
                       default=(0.1, 10.0),
                       help="endpoint sampling range, intersected with the "
                            "function domain (default 0.1 10)")
    sweep.add_argument("--grid-points", type=int, default=257)
    sweep.set_defaults(func=cmd_sweep)

    identity = subs.add_parser("identity", help="residual of an exact integral identity")
    identity.add_argument("--lemma", type=int, choices=(1, 2), required=True)
    identity.add_argument("--fn", required=True)
    identity.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"), required=True)
    identity.set_defaults(func=cmd_identity)

    kernel = subs.add_parser("kernel", help="kernel moment constants and numeric cross-check")
    kernel.add_argument("--p", type=float, required=True, help="moment exponent p >= 1")
    kernel.set_defaults(func=cmd_kernel)

    means = subs.add_parser("means", help="special means and proposition checks")
    means.add_argument("--a", type=float, required=True)
    means.add_argument("--b", type=float, required=True)
    means.add_argument("--p", type=float, default=None, help="p-logarithmic mean exponent")
    means.add_argument("--n", type=int, default=2, help="power-mean exponent for P1/P2 (default 2)")
    means.add_argument("--q", type=float, default=2.0, help="hypothesis exponent (default 2)")
    means.add_argument("--variant", choices=("as-printed", "as-derived"), default="as-derived",
                       help="formula variant where two exist (default as-derived)")
    means.set_defaults(func=cmd_means)

    for sub in (verify, sweep):
        sub.add_argument("--tol", type=float, default=1e-10,
                         help="absolute quadrature tolerance (default 1e-10); checked, "
                              "but catalog gaps are closed-form, so it changes no output")
    for sub in (identity, kernel):
        sub.add_argument("--tol", type=float, default=1e-10,
                         help="absolute quadrature tolerance (default 1e-10)")
    for sub in (verify, sweep, identity, kernel, means):
        sub.add_argument("--format", choices=("text", "json", "csv"), default="text",
                         help="output format (default text)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parse_args leaves it
    unchanged, so every call parses as a freshly built parser would."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (HHCertError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
