"""README.md against the code: its Python examples run, the command-line
output it shows is the CLI's byte for byte, and hhcert.__all__ resolves."""

import contextlib
import io
import pathlib
import re
import shlex

import hhcert
from test_golden import run_pinned

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()

# a ```sh block of one hhcert command followed by a ``` block of its output,
# shown up to a line "..." if there is one
_SHOWN = re.compile(r"```sh\nhhcert ([^\n]+)\n```\n\n```\n(.*?)```", re.S)
# a command line whose output's first line is the comment under it
_COMMENTED = re.compile(r"\nhhcert (identity [^\n]+)\n# ([^\n]+)\n")


def test_python_examples_run():
    namespace: dict = {}
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 2
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
    assert out.getvalue().splitlines()[-1] == "[2.0, 3.0, 3.0, None]"


def test_shown_cli_output_matches():
    shown = {}
    for cmd, text in _SHOWN.findall(README):
        lines = text.splitlines(keepends=True)
        shown[cmd] = lines[:lines.index("...\n")] if "...\n" in lines else lines
    for cmd, first in _COMMENTED.findall(README):
        shown[cmd] = [first + "\n"]
    assert sorted(shown) == [
        "identity --lemma 2 --fn recip --interval 1 3",
        "sweep --fn pow:3 --cases 3 --seed 42 --interval-range 0 2 --format csv",
        "verify --fn exp --interval 0 1 --q 3",
    ]
    outputs = run_pinned([[cmd, shlex.split(cmd)] for cmd in shown])
    for cmd, lines in shown.items():
        code, out = outputs[cmd]
        assert code == 0
        got = out.splitlines(keepends=True)
        # the verify block is whole; the others show a head of the output
        assert got[:len(lines)] == lines, cmd
        if cmd.startswith("verify"):
            assert got == lines


def test_every_exported_name_resolves():
    assert len(set(hhcert.__all__)) == len(hhcert.__all__)
    for name in hhcert.__all__:
        assert getattr(hhcert, name) is not None, name
