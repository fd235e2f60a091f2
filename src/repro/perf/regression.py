"""Baseline comparison: the ``repro bench --check`` regression gate.

Two kinds of regressions are gated:

* **Wall-clock** — a case's fresh ``median_s`` exceeds the baseline's by
  more than ``tolerance`` (relative; 0.25 means "fail if >25 % slower").
  Speed-ups never fail and are reported as improvements.
* **Functional** — a case marked ``bit_exact`` reports a different
  checksum than the baseline.  These checksums cover pure bit-level
  encodes/scatters and integer scheduler counters, so they must match on
  any platform regardless of how fast it is.

A case present in the baseline but missing from the fresh run also
fails (a silently dropped benchmark is how perf coverage rots).  Cases
new in the fresh run pass — they become part of the baseline on the
next refresh.

Only like is compared with like.  A case whose ``shape`` differs from
its baseline's is a **shape** regression, with no checksum or
wall-clock verdict: neither means anything across problem sizes.  Two
documents whose ``quick`` flags differ are refused outright
(``ValueError``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["Regression", "compare_documents", "render_regressions"]


@dataclass(frozen=True)
class Regression:
    """One gating failure found while comparing against a baseline."""

    suite: str
    case: str
    kind: str  # "perf" | "checksum" | "missing" | "shape"
    detail: str


def _index(doc: dict) -> Dict[Tuple[str, str], dict]:
    return {(r["suite"], r["case"]): r for r in doc.get("cases", [])}


def compare_documents(
    baseline: dict, fresh: dict, *, tolerance: float = 0.25
) -> Tuple[List[Regression], List[str]]:
    """Compare a fresh results document against a baseline.

    Returns ``(regressions, notes)``: the gating failures plus
    informational lines (improvements, new cases).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if baseline.get("quick") != fresh.get("quick"):
        raise ValueError(
            f"refusing to compare a quick={baseline.get('quick')} baseline "
            f"with a quick={fresh.get('quick')} run: shapes and timings differ"
        )
    base_idx = _index(baseline)
    fresh_idx = _index(fresh)

    regressions: List[Regression] = []
    notes: List[str] = []

    for key in sorted(base_idx):
        suite, case = key
        base = base_idx[key]
        cur = fresh_idx.get(key)
        if cur is None:
            regressions.append(
                Regression(suite, case, "missing", "case absent from fresh run")
            )
            continue
        if base["shape"] != cur["shape"]:
            regressions.append(
                Regression(
                    suite,
                    case,
                    "shape",
                    f"baseline shape {base['shape']} != fresh {cur['shape']}",
                )
            )
            continue
        if (
            base.get("bit_exact")
            and cur.get("bit_exact")
            and base["checksum"] != cur["checksum"]
        ):
            regressions.append(
                Regression(
                    suite,
                    case,
                    "checksum",
                    f"baseline {base['checksum']} != fresh {cur['checksum']}",
                )
            )
        base_t, cur_t = base["median_s"], cur["median_s"]
        if base_t > 0 and cur_t > base_t * (1.0 + tolerance):
            regressions.append(
                Regression(
                    suite,
                    case,
                    "perf",
                    f"median {cur_t:.6f}s vs baseline {base_t:.6f}s "
                    f"({cur_t / base_t:.2f}x, tolerance {1.0 + tolerance:.2f}x)",
                )
            )
        elif base_t > 0 and cur_t < base_t:
            notes.append(
                f"{suite}/{case}: improved {base_t / max(cur_t, 1e-12):.2f}x "
                f"({base_t:.6f}s -> {cur_t:.6f}s)"
            )

    for key in sorted(set(fresh_idx) - set(base_idx)):
        notes.append(f"{key[0]}/{key[1]}: new case (not in baseline)")
    return regressions, notes


def render_regressions(
    regressions: List[Regression], notes: List[str]
) -> str:
    """Human-readable comparison summary."""
    lines: List[str] = []
    for reg in regressions:
        lines.append(f"REGRESSION [{reg.kind}] {reg.suite}/{reg.case}: {reg.detail}")
    for note in notes:
        lines.append(f"note: {note}")
    if not regressions:
        lines.append("bench check OK: no regressions")
    return "\n".join(lines)
