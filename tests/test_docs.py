"""The documentation's console samples are what the CLI prints.

docs/ANALYSIS.md shows each lint sweep with the summary line it ends
on.  Each ``$ repro lint ...`` line of that block runs here through
:func:`repro.cli.main`; it must exit 0, and where the block shows an
output line, the command's last line of output must equal it.
"""

import shlex
from pathlib import Path

import pytest

from repro.cli import main

ANALYSIS = Path(__file__).resolve().parents[1] / "docs" / "ANALYSIS.md"


def _lint_sweeps():
    """``(argv, expected last line or None)`` per ``$ repro lint`` line
    of a console block; output lines belong to the command above them."""
    sweeps = []
    in_console = False
    command = None
    for line in ANALYSIS.read_text().splitlines():
        if line.startswith("```"):
            in_console = line == "```console"
            command = None
        elif not in_console:
            continue
        elif line.startswith("$ "):
            command = None
            if line.startswith("$ repro lint"):
                command = [shlex.split(line[2:], comments=True)[1:], None]
                sweeps.append(command)
        elif command is not None and line:
            command[1] = line
    return [tuple(s) for s in sweeps]


SWEEPS = _lint_sweeps()


def test_block_lists_the_sweeps():
    assert len(SWEEPS) >= 8
    assert all(argv[0] == "lint" for argv, _ in SWEEPS)


@pytest.mark.parametrize(
    "argv,expected", SWEEPS, ids=[" ".join(argv) for argv, _ in SWEEPS]
)
def test_lint_sweep_prints_the_documented_line(argv, expected, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out.rstrip("\n").splitlines()
    if expected is not None:
        assert out[-1] == expected
