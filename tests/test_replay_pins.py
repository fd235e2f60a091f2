"""Content pins on the ``--json`` replays and on ``results/REPORT.md``.

Each replay case runs a ``repro ... --json`` command through
:func:`repro.cli.main` and checks the sha256 of its stdout (without the
trailing newline), so a replay that changes by one byte, or stops being
deterministic, fails by name.

The reproduction report is pinned by its bytes, one test per ``## ``
section, against a fresh rendering of the session's registry run, so a
failure names the experiment whose numbers moved and shows the diff.

A change that moves a modelled number on purpose updates the digest
here, or regenerates REPORT.md with ``repro report``, and says why.
"""

import difflib
import hashlib
import re
from pathlib import Path

import pytest

from repro.bench.report import EXPERIMENTS, render_report
from repro.cli import main

#: ``repro <command> --json`` -> sha256 of its stdout.
REPLAYS = {
    "fleet --quick":
        "3a5a42d730829ece76187814f319e85b47c9324a7599429962b4ea16d7187fa3",
    "fleet --quick --seed 1 --plan chaos-mix":
        "25da9663316ad268638ad155347793be3e78b7f883ff9664c08c4a8e7dba6c23",
    "server --quick":
        "9b3de3174cac033d709aaa7e1d2080ee7062a843026b88519f30342117f0946b",
    "server --quick --plan gpu-crash":
        "4e6516e4967f0249edcc524147222a9ad0a9051ef29b65b39dcd9453888f144f",
    "chaos --quick --plan gpu-crash":
        "bd05df17f71aa47610e84562238612468e24c9f8f20987f17e13001c475ef13d",
    "chaos --quick --plan flaky-link":
        "484b8772f893bdc5a4009fafef7b9fd02408ef3eb758b148a84e5c2708535bf7",
    "integrity --quick":
        "8a1d4490c8f9d95651da8271af7785790e3670eea6486bad44216656fa7ace5f",
    "integrity --quick --plans sdc-replica":
        "18212918a926945ec366379b110a9c93546fa4eae66a6c937b088d2e5798fe99",
    "serve":
        "bd684eb267469192d8f0cc9b0b06b6ecd9e16eeeae09e3c3a79f76dedb6044e4",
}


@pytest.mark.parametrize("command", sorted(REPLAYS))
def test_replay_digest_is_pinned(command, capsys):
    assert main([*command.split(), "--json"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.endswith("\n")
    assert hashlib.sha256(stdout[:-1].encode()).hexdigest() == REPLAYS[command]


REPORT = Path(__file__).resolve().parents[1] / "results" / "REPORT.md"
HEADLINE = "Headline comparison"


def _sections(report):
    """Split a report at its ``## `` headings: section name -> text.

    A section is named by its heading up to the first colon (the
    registry id); the title block above the first heading belongs to
    the first section.
    """
    title, *chunks = re.split(r"(?m)^(?=## )", report)
    sections = {}
    for chunk in chunks:
        name = chunk[len("## "):].split("\n", 1)[0].split(":", 1)[0]
        sections[name] = chunk
    first = next(iter(sections))
    sections[first] = title + sections[first]
    return sections


@pytest.fixture(scope="module")
def committed_sections():
    return _sections(REPORT.read_bytes().decode("utf-8"))


@pytest.fixture(scope="module")
def fresh_sections(experiments):
    return _sections(render_report(experiments))


def test_report_sections_are_the_registry(committed_sections, fresh_sections):
    expected = [HEADLINE, *sorted(EXPERIMENTS)]
    assert list(fresh_sections) == expected
    assert list(committed_sections) == expected


@pytest.mark.parametrize("section", [HEADLINE, *sorted(EXPERIMENTS)])
def test_report_section_is_pinned(section, committed_sections, fresh_sections):
    committed = committed_sections.get(section, "")
    fresh = fresh_sections[section]
    if committed != fresh:
        diff = "".join(difflib.unified_diff(
            committed.splitlines(keepends=True),
            fresh.splitlines(keepends=True),
            "results/REPORT.md", "repro report",
        ))
        pytest.fail(
            f"REPORT.md section {section!r} differs from a fresh run "
            f"(regenerate with `repro report` if the change is "
            f"intended):\n{diff}",
            pytrace=False,
        )
