"""Byte-for-byte CLI output of every subcommand against checked-in goldens.

Each case's stdout is stored in ``tests/golden/<name>.<format>`` and its exit
status in ``_CASES``; every JSON output must parse, and every CSV row must
have as many fields as the header.  A change that alters any printed byte
must say so in CHANGES.md and regenerate the files with

    python tests/test_golden.py

Every golden command line runs in one subprocess under PINNED_ENV, which
selects numpy's AVX2 kernels and OpenBLAS's Haswell kernels on any x86 CPU
that has them.  Quadrature sums go through those kernels, so without the pin
the last printed digit of some integrals depends on the machine.  The test
and the regeneration share that subprocess, so they compare like with like.
As under pytest's filterwarnings, a RuntimeWarning there is an error, and any
output on stderr fails the test.
"""

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

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
    "kernel_p1": (["kernel", "--p", "1"], 0),
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


PINNED_ENV = {
    "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
    "OPENBLAS_CORETYPE": "Haswell",
}
_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Reads [[key, argv], ...] on stdin and writes {key: [exit status, stdout]}.
_CAPTURE = """
import contextlib, io, json, sys
from hhcert import cli
runs = {}
for key, argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs[key] = [code, out.getvalue()]
json.dump(runs, sys.stdout)
"""


def run_pinned(runs: list) -> dict:
    """{key: (exit status, stdout)} of the [key, argv] runs, all in one pinned subprocess."""
    path = os.pathsep.join(p for p in (str(_SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _CAPTURE],
        input=json.dumps(runs),
        env={**os.environ, **PINNED_ENV, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return {key: tuple(result) for key, result in json.loads(proc.stdout).items()}


@functools.cache
def _outputs() -> dict:
    """(exit status, stdout) of every case and format."""
    return run_pinned([[f"{name}.{fmt}", argv + ["--format", fmt]]
                       for name, (argv, _) in sorted(_CASES.items()) for fmt in FORMATS])


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(_CASES))
def test_output_matches_golden(name, fmt):
    code, out = _outputs()[f"{name}.{fmt}"]
    status = _CASES[name][1]
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
    for key, (code, out) in _outputs().items():
        name, fmt = key.rsplit(".", 1)
        (GOLDEN_DIR / f"{name}.{FORMATS[fmt]}").write_bytes(out.encode())
        print(f"{name}.{FORMATS[fmt]}: exit {code}")
