"""Byte-for-byte CLI output of every subcommand against checked-in goldens.

Each case's stdout is stored in ``tests/golden/<name>.<format>`` and its exit
status in ``_CASES``; every JSON output must parse, and every CSV row must
have as many fields as the header.  A change that alters any printed byte
must say so in CHANGES.md and regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from hhcert import cli

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
FORMATS = {"text": "txt", "json": "json", "csv": "csv"}

# name -> (argv without --format, exit status)
_CASES = {
    "verify_pow3_q2": (["verify", "--fn", "pow:3", "--interval", "0", "2"], 0),
    "verify_pow3_q3": (["verify", "--fn", "pow:3", "--interval", "0", "2", "--q", "3"], 0),
    "verify_abs_pow_q2": (["verify", "--fn", "abs_pow:2.5", "--interval", "-2", "2"], 0),
    "verify_abs_pow_q3": (
        ["verify", "--fn", "abs_pow:2.5", "--interval", "-2", "2", "--q", "3"], 0),
    "verify_ln_q2": (["verify", "--fn", "ln", "--interval", "0.5", "3"], 0),
    "verify_ln_q3": (["verify", "--fn", "ln", "--interval", "0.5", "3", "--q", "3"], 0),
    "verify_degenerate_q3": (["verify", "--fn", "pow:3", "--interval", "1", "1", "--q", "3"], 0),
    "sweep_pow3_q2": (
        ["sweep", "--fn", "pow:3", "--cases", "4", "--seed", "11",
         "--interval-range", "0", "2"], 0),
    "sweep_pow3_q3": (
        ["sweep", "--fn", "pow:3", "--cases", "4", "--seed", "11",
         "--interval-range", "0", "2", "--q", "3"], 0),
    "sweep_abs_pow_q2": (
        ["sweep", "--fn", "abs_pow:2.5", "--cases", "4", "--seed", "12",
         "--interval-range", "-2", "2"], 0),
    "sweep_abs_pow_q3_grid9": (
        ["sweep", "--fn", "abs_pow:2.5", "--cases", "6", "--seed", "12",
         "--interval-range", "-2", "2", "--q", "3", "--grid-points", "9"], 0),
    "sweep_ln_q2": (["sweep", "--fn", "ln", "--cases", "4", "--seed", "13"], 0),
    "sweep_ln_q3": (["sweep", "--fn", "ln", "--cases", "4", "--seed", "13", "--q", "3"], 0),
    "sweep_exp_no_cases": (["sweep", "--fn", "exp", "--cases", "0"], 0),
    "kernel_p1.1": (["kernel", "--p", "1.1"], 0),
    "kernel_p1.5": (["kernel", "--p", "1.5"], 0),
    "kernel_p2": (["kernel", "--p", "2"], 0),
    "kernel_p3": (["kernel", "--p", "3"], 0),
    "identity_L1_abs_pow": (
        ["identity", "--lemma", "1", "--fn", "abs_pow:2.5", "--interval", "-1", "2"], 0),
    "identity_L2_abs_pow": (
        ["identity", "--lemma", "2", "--fn", "abs_pow:2.5", "--interval", "-1", "2"], 0),
    "identity_L1_recip": (
        ["identity", "--lemma", "1", "--fn", "recip", "--interval", "0.5", "3"], 0),
    "identity_L2_recip": (
        ["identity", "--lemma", "2", "--fn", "recip", "--interval", "0.5", "3"], 0),
    "identity_L1_pow3": (
        ["identity", "--lemma", "1", "--fn", "pow:3", "--interval", "-1", "2"], 0),
    "identity_L2_pow3": (
        ["identity", "--lemma", "2", "--fn", "pow:3", "--interval", "-1", "2"], 0),
    "identity_L1_exp": (["identity", "--lemma", "1", "--fn", "exp", "--interval", "-1", "2"], 0),
    "identity_L2_exp": (["identity", "--lemma", "2", "--fn", "exp", "--interval", "-1", "2"], 0),
    "means_1_2": (["means", "--a", "1", "--b", "2"], 0),
    "means_half_4_p3_n-1": (
        ["means", "--a", "0.5", "--b", "4", "--p", "3", "--n", "-1", "--q", "3"], 0),
    "means_3_6_n-1_as_printed": (
        ["means", "--a", "3", "--b", "6", "--n", "-1", "--variant", "as-printed"], 1),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(_CASES))
def test_output_matches_golden(name, fmt):
    argv, status = _CASES[name]
    code, out = _run(argv + ["--format", fmt])
    golden = (GOLDEN_DIR / f"{name}.{FORMATS[fmt]}").read_bytes()
    assert code == status
    assert out.encode() == golden
    if fmt == "json":
        json.loads(out)
    elif fmt == "csv":
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        width = len(rows[0].split(","))
        assert all(len(row.split(",")) == width for row in rows)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, _) in sorted(_CASES.items()):
        for fmt, ext in FORMATS.items():
            code, out = _run(argv + ["--format", fmt])
            (GOLDEN_DIR / f"{name}.{ext}").write_bytes(out.encode())
            print(f"{name}.{ext}: exit {code}")
