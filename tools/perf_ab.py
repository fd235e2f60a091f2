#!/usr/bin/env python3
"""A/B the end-to-end benchmark between two revisions (10 pairs of runs).

Usage, from anywhere inside the repository::

    python3 tools/perf_ab.py BASE HEAD [--workload W ...] [--out FILE]

Each revision is ``git archive``d into its own fresh scratch directory
(``tempfile`` picks the parent; set ``TMPDIR`` to move it).  For each
workload (default: every workload in BENCHMARK.json) and each seed 1-10,
the two trees run BENCHMARK.json's ``command`` with ``--trace 0`` for its
``run_seconds``, back to back, with ``PYTHONDONTWRITEBYTECODE=1``.  The
side that runs first alternates from one pair to the next.  A run that
exits non-zero or reports ``correct: false`` stops the script with exit
status 2, naming the run.

For each workload and end-to-end metric the script prints both medians
with their quartiles, the change, the base's IQR/median, the pairs HEAD
won (ties count for neither side) and a verdict:

``better``
    HEAD won at least 9 of every 10 pairs, and its median beats the
    base's by more than the base's interquartile range;
``worse``
    HEAD's median is worse than the base's by more than the metric's
    bound in BENCHMARK.json;
``unresolved``
    neither, and the base's IQR/median exceeds the bound, so the runs
    spread too widely to tell (unless every HEAD run beats every base
    run);
``within bound``
    otherwise.

The same table is written as JSON to ``--out`` (default
``perf_ab.json``).  Exit status: 0, 1 when any row is ``worse``, 2 when
a run failed.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = tuple(range(1, 11))
#: A gain needs HEAD to win at least this share of the pairs.
WIN_SHARE = 0.9


class RunRefused(Exception):
    """A benchmark run failed, so no comparison can be made."""


def export(rev: str, dest: Path) -> str:
    """Write revision ``rev``'s committed files into ``dest``; returns
    the commit id."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_side(tree: Path, command, workload: str, seed: int, seconds):
    """One benchmark run in ``tree``: ``(returncode, stdout, stderr)``."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    return proc.returncode, proc.stdout, proc.stderr


def read_run(label: str, returncode: int, stdout: str, stderr: str = "") -> dict:
    """A run's metric values by name, or :class:`RunRefused`."""
    if returncode != 0:
        last = stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RunRefused(f"{label}: exit status {returncode}: {last[0]}")
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunRefused(f"{label}: no JSON report on its last line") from None
    if report.get("correct") is not True:
        raise RunRefused(
            f"{label}: correct: {report.get('correct')} "
            f"({report.get('failed')} of {report.get('attempted')} "
            "operations failed)"
        )
    return {name: m["value"] for name, m in report["metrics"].items()}


def collect(trees: dict, bench: dict, workloads) -> dict:
    """``{workload: {side: [metrics of seed 1, ..., seed 10]}}``."""
    samples = {w: {"base": [], "head": []} for w in workloads}
    for workload in workloads:
        for i, seed in enumerate(SEEDS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                label = f"{side} {workload} seed {seed}"
                print(f"perf_ab: {label}", file=sys.stderr, flush=True)
                result = run_side(
                    trees[side], bench["command"], workload, seed,
                    bench["run_seconds"],
                )
                samples[workload][side].append(read_run(label, *result))
    return samples


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "runs": list(values),
    }


def verdict(base, head, bound: float, better: str = "lower") -> dict:
    """Compare paired samples (``base[i]`` ran beside ``head[i]``)."""
    sign = 1.0 if better == "lower" else -1.0
    b, h = spread(base), spread(head)
    gain = sign * (b["median"] - h["median"])  # > 0: HEAD is better
    iqr = b["q3"] - b["q1"]
    won = sum(1 for x, y in zip(base, head) if sign * (x - y) > 0)
    if won >= WIN_SHARE * len(base) and gain > iqr:
        call = "better"
    elif -gain > bound * b["median"]:
        call = "worse"
    elif iqr > bound * b["median"] and not all(
        sign * (x - y) > 0 for x in base for y in head
    ):
        call = "unresolved"
    else:
        call = "within bound"
    return {
        "base": b,
        "head": h,
        "change_pct": 100.0 * (h["median"] - b["median"]) / b["median"],
        "base_iqr_pct": 100.0 * iqr / b["median"],
        "won": won,
        "pairs": len(base),
        "verdict": call,
    }


def summarize(samples: dict, end_to_end) -> list:
    rows = []
    for workload, sides in samples.items():
        for metric in end_to_end:
            name = metric["name"]
            row = verdict(
                [run[name] for run in sides["base"]],
                [run[name] for run in sides["head"]],
                metric["bound"], metric["better"],
            )
            rows.append({
                "workload": workload, "metric": name,
                "unit": metric["unit"], "bound": metric["bound"], **row,
            })
    return rows


def render(rows) -> str:
    def cell(s):
        fmt = "{:.3f}" if s["median"] < 10 else "{:.2f}"
        return (
            f"{fmt.format(s['median'])} "
            f"[{fmt.format(s['q1'])}, {fmt.format(s['q3'])}]"
        )

    lines = [
        "| workload | metric | base | head | change % | base IQR/median "
        "| won | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['workload']} | `{r['metric']}` | {cell(r['base'])} "
            f"| {cell(r['head'])} | {r['change_pct']:+.1f}% "
            f"| {r['base_iqr_pct']:.1f}% | {r['won']}/{r['pairs']} "
            f"| {r['verdict']} |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base", help="base revision (the parent)")
    parser.add_argument("head", help="revision under test")
    parser.add_argument(
        "--workload", action="append", dest="workloads", metavar="W",
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--out", default="perf_ab.json", help="JSON table (default: %(default)s)"
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="perf_ab-") as scratch:
        trees, commits = {}, {}
        for side, rev in (("base", args.base), ("head", args.head)):
            trees[side] = Path(scratch) / side
            trees[side].mkdir()
            commits[side] = export(rev, trees[side])
        bench = json.loads((trees["base"] / "BENCHMARK.json").read_text())
        known = [w["name"] for w in bench["workloads"]]
        workloads = args.workloads or known
        unknown = sorted(set(workloads) - set(known))
        if unknown:
            parser.error(f"unknown workload(s) {unknown}; choose from {known}")
        try:
            samples = collect(trees, bench, workloads)
        except RunRefused as err:
            print(f"perf_ab: refused: {err}", file=sys.stderr)
            return 2

    rows = summarize(samples, bench["end_to_end"])
    print(f"base {commits['base']}  head {commits['head']}  "
          f"{len(SEEDS)} pairs of {bench['run_seconds']} s runs")
    print(render(rows))
    Path(args.out).write_text(json.dumps(
        {"base": commits["base"], "head": commits["head"], "rows": rows},
        indent=2,
    ) + "\n")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
