"""Experiment harness: tables, series and headline metrics.

Every reproduced table/figure is computed by a function in this package
returning an :class:`Experiment` — a set of labelled rows (tables) or
series (figures) plus headline metrics.  ``repro report`` renders every
registered experiment into ``results/REPORT.md``, the one record that
EXPERIMENTS.md quotes and the tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

__all__ = ["Experiment", "format_table", "geomean"]

Number = Union[int, float]


def geomean(values: Sequence[float]) -> float:
    """Geometric mean, the conventional aggregate for speedup ratios."""
    vals = list(values)
    if not vals:
        raise ValueError("geomean of an empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_fmt: str = "{:.3f}",
) -> str:
    """Render an aligned fixed-width text table."""
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    str_rows = [[render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)


@dataclass
class Experiment:
    """One reproduced table or figure."""

    exp_id: str  # e.g. "fig10", "tab01"
    title: str
    headers: List[str]
    rows: List[List[object]]
    #: Headline scalars (e.g. {"avg_speedup_vs_cublas": 1.79}).
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        parts = [f"# {self.exp_id}: {self.title}", ""]
        parts.append(format_table(self.headers, self.rows))
        if self.metrics:
            parts.append("")
            for key in sorted(self.metrics):
                parts.append(f"{key} = {self.metrics[key]:.4g}")
        if self.notes:
            parts.append("")
            parts.append(self.notes)
        return "\n".join(parts) + "\n"

    def metric(self, name: str) -> float:
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(
                f"experiment {self.exp_id} has no metric {name!r}; "
                f"available: {sorted(self.metrics)}"
            ) from None
