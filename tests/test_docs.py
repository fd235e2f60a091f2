"""The documentation's samples are what the code does.

docs/ANALYSIS.md shows each lint sweep with the summary line it ends
on.  Each ``$ repro lint ...`` line of that block runs here through
:func:`repro.cli.main`; it must exit 0, and where the block shows an
output line, the command's last line of output must equal it.

The ```` ```python ```` blocks of the guides and the README run too, in
file order and in one fresh namespace per file, so a later block may use
what an earlier one defined.  A block that leaves code out on purpose is
fenced ```` ```python fragment ````; it is skipped, and each file's
fragment count is pinned.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]
ANALYSIS = ROOT / "docs" / "ANALYSIS.md"

#: Documents whose python blocks run -> how many are fragments.
RUNNABLE_DOCS = {
    "docs/ANALYSIS.md": 1,
    "docs/RUNTIME.md": 0,
    "docs/TUTORIAL.md": 0,
    "README.md": 0,
}

_PYTHON_BLOCK = re.compile(r"^```python(.*)\n((?:.*\n)*?)```$", re.MULTILINE)


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


def _python_blocks(doc):
    """``(info string, first line number, code)`` per python block."""
    text = (ROOT / doc).read_text()
    return [
        (m.group(1).strip(), text.count("\n", 0, m.start(2)) + 1, m.group(2))
        for m in _PYTHON_BLOCK.finditer(text)
    ]


@pytest.mark.parametrize("doc", sorted(RUNNABLE_DOCS))
def test_python_blocks_run(doc, capsys):
    blocks = _python_blocks(doc)
    fragments = [line for info, line, _ in blocks if info == "fragment"]
    assert len(fragments) == RUNNABLE_DOCS[doc], f"fragments at {fragments}"
    namespace = {"__name__": "__doc__"}
    for info, line, code in blocks:
        if info != "fragment":
            # Padding keeps traceback line numbers those of the file.
            exec(compile("\n" * (line - 1) + code, doc, "exec"), namespace)
    assert len(blocks) > len(fragments)
