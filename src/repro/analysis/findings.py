"""Finding/report machinery shared by all static checkers.

Every rule has a stable ID (``W...`` warp-IR, ``P...`` pipeline,
``F...`` format, the deployment families ``M...`` memory, ``T...``
tensor-parallel, ``K...`` KV-cache, ``O...`` offload, ``D...``
disaggregation, ``R...`` recovery/fault-tolerance, ``C...``
integrity, ``A...`` autoscaling, ``Q...`` server admission, and the
determinism families ``S...`` source hazards and ``H...``
happens-before schedule races) so CI gates, docs and tests can refer
to findings without string-matching messages.

The catalogue itself is a *registration table*: each lint module owns
its family's :class:`Rule` definitions and registers them here at
import time via :func:`register_rules`, so there is exactly one place a
rule's ID, severity and summary live — next to the code that implements
it.  :func:`rule_table` (``repro lint --list-rules``) renders the whole
registry; :func:`ensure_all_registered` imports every lint module so
the table is complete regardless of which modules the caller touched.

A :class:`Report` aggregates findings across many checked objects;
``Report.ok`` is the CI gate (no error-severity findings) and
``Report.families`` records which rule families actually ran, so CI can
assert none was silently skipped.
"""

from __future__ import annotations

import enum
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Severity",
    "Rule",
    "RuleFamily",
    "RULES",
    "FAMILIES",
    "Finding",
    "Report",
    "ensure_all_registered",
    "reconcile_expected",
    "register_rules",
    "rule_table",
]


class Severity(enum.IntEnum):
    """Finding severity; only ``ERROR`` fails the lint gate."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # render as lowercase word in reports
        return self.name.lower()


@dataclass(frozen=True)
class Rule:
    """A registered check with a stable identifier."""

    rule_id: str
    name: str
    default_severity: Severity
    summary: str


@dataclass(frozen=True)
class RuleFamily:
    """One registered rule family (a leading rule-ID letter)."""

    letter: str
    title: str
    #: Module that owns (implements and registered) the family.
    module: str
    #: ``repro lint`` flag whose sweep exercises the family.
    gate: str
    rule_ids: Tuple[str, ...]


#: The rule catalogue, populated by :func:`register_rules` calls at the
#: bottom of each lint module.  docs/ANALYSIS.md documents each entry
#: with a minimal failing example; tests assert the IDs stay stable.
RULES: Dict[str, Rule] = {}

#: Family letter -> :class:`RuleFamily`, in registration order.
FAMILIES: Dict[str, RuleFamily] = {}

#: Every module that registers rules; imported on demand so the
#: catalogue is complete even when the caller only touched one checker.
_LINT_MODULES: Tuple[str, ...] = (
    "repro.analysis.warp_lint",
    "repro.analysis.pipeline_lint",
    "repro.analysis.format_lint",
    "repro.analysis.plan_lint",
    "repro.analysis.fault_lint",
    "repro.analysis.integrity_lint",
    "repro.analysis.fleet_lint",
    "repro.analysis.server_lint",
    "repro.analysis.source_lint",
    "repro.analysis.schedule_lint",
)


def register_rules(
    letter: str,
    title: str,
    module: str,
    gate: str,
    rules: Sequence[Rule],
) -> None:
    """Register one rule family (idempotent for identical re-imports).

    Every rule ID must start with ``letter``; a conflicting
    re-registration (same ID, different definition, different module)
    is a programming error and raises.
    """
    if not rules:
        raise ValueError(f"family {letter!r} registered no rules")
    for rule in rules:
        if not rule.rule_id.startswith(letter):
            raise ValueError(
                f"rule {rule.rule_id!r} registered under family {letter!r}"
            )
        existing = RULES.get(rule.rule_id)
        if existing is not None and existing != rule:
            raise ValueError(
                f"rule {rule.rule_id!r} already registered with a "
                "different definition"
            )
    prior = FAMILIES.get(letter)
    family = RuleFamily(
        letter=letter,
        title=title,
        module=module,
        gate=gate,
        rule_ids=tuple(r.rule_id for r in rules),
    )
    if prior is not None and prior != family:
        raise ValueError(
            f"family {letter!r} already registered by {prior.module}"
        )
    FAMILIES[letter] = family
    for rule in rules:
        RULES[rule.rule_id] = rule


def ensure_all_registered() -> None:
    """Import every lint module so the registry is complete."""
    for mod in _LINT_MODULES:
        importlib.import_module(mod)


def rule_table() -> List[Dict[str, Any]]:
    """The full catalogue as JSON-ready rows (``lint --list-rules``)."""
    ensure_all_registered()
    rows: List[Dict[str, Any]] = []
    for letter in sorted(FAMILIES):
        fam = FAMILIES[letter]
        for rule_id in fam.rule_ids:
            rule = RULES[rule_id]
            rows.append(
                {
                    "rule_id": rule.rule_id,
                    "name": rule.name,
                    "severity": str(rule.default_severity),
                    "family": fam.letter,
                    "family_title": fam.title,
                    "gate": fam.gate,
                    "summary": rule.summary,
                }
            )
    return rows


@dataclass(frozen=True)
class Finding:
    """One rule violation (or observation) at one location."""

    rule_id: str
    message: str
    #: What was checked, e.g. ``warp:smbd-two-phase`` or ``format:csr``.
    subject: str = ""
    #: Instruction index / iteration / GroupTile id, when applicable.
    location: Optional[int] = None
    severity: Optional[Severity] = None

    def __post_init__(self) -> None:
        if self.rule_id not in RULES:
            # A consumer may construct findings (e.g. from a JSON
            # artifact) before the owning lint module was imported.
            ensure_all_registered()
        if self.rule_id not in RULES:
            raise KeyError(f"unregistered rule id {self.rule_id!r}")
        if self.severity is None:
            object.__setattr__(
                self, "severity", RULES[self.rule_id].default_severity
            )

    @property
    def rule(self) -> Rule:
        return RULES[self.rule_id]

    def render(self) -> str:
        where = f"@{self.location}" if self.location is not None else ""
        subject = f" [{self.subject}{where}]" if self.subject else ""
        return (
            f"{self.rule_id} {self.rule.name} ({self.severity})"
            f"{subject}: {self.message}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (``repro lint --json``)."""
        return {
            "rule_id": self.rule_id,
            "rule": self.rule.name,
            "severity": str(self.severity),
            "subject": self.subject,
            "location": self.location,
            "message": self.message,
        }


def reconcile_expected(
    findings: Sequence[Finding],
    expected_rules: Sequence[str],
    subject: str,
    context: str = "builtin broken artifact",
) -> List[Finding]:
    """Reconcile a deliberately-broken artifact against its manifest.

    Expected findings are demoted to INFO (the sweep is regression-
    testing the checker, not judging the artifact); an expected rule
    that did NOT fire is promoted to a fresh ERROR — the checker
    regressed and its CI gate must fail.  Unexpected findings pass
    through at their native severity.
    """
    out: List[Finding] = []
    seen = set()
    for f in findings:
        seen.add(f.rule_id)
        if f.rule_id in expected_rules:
            out.append(
                Finding(
                    f.rule_id,
                    f"expected ({context}): {f.message}",
                    subject=f.subject,
                    location=f.location,
                    severity=Severity.INFO,
                )
            )
        else:
            out.append(f)
    for rule_id in expected_rules:
        if rule_id not in seen:
            out.append(
                Finding(
                    rule_id,
                    f"documented broken artifact did not trip this rule — "
                    f"the {rule_id} check regressed",
                    subject=subject,
                    severity=Severity.ERROR,
                )
            )
    return out


@dataclass
class Report:
    """Findings aggregated over a sweep of checked objects."""

    findings: List[Finding] = field(default_factory=list)
    #: Number of objects checked (programs + traces + formats).
    checked: int = 0
    #: Rule families (leading rule-ID letters, e.g. ``["S", "H"]``) the
    #: sweep actually RAN — independent of whether anything fired.  CI
    #: asserts against this so a silently-skipped family fails loudly.
    families: List[str] = field(default_factory=list)

    def add_family(self, *letters: str) -> None:
        for letter in letters:
            if letter not in self.families:
                self.families.append(letter)

    def merge(self, other: "Report") -> None:
        """Fold another report into this one (sweep composition)."""
        self.findings.extend(other.findings)
        self.checked += other.checked
        self.add_family(*other.families)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def by_rule(self, rule_id: str) -> List[Finding]:
        return [f for f in self.findings if f.rule_id == rule_id]

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == Severity.ERROR]

    @property
    def ok(self) -> bool:
        """True iff no error-severity finding (the CI gate)."""
        return not self.errors

    def render(self, min_severity: Severity = Severity.WARNING) -> str:
        lines = [
            f.render()
            for f in sorted(self.findings, key=lambda f: -int(f.severity))
            if f.severity >= min_severity
        ]
        lines.append(
            f"checked {self.checked} object(s): "
            f"{self.count(Severity.ERROR)} error(s), "
            f"{self.count(Severity.WARNING)} warning(s), "
            f"{self.count(Severity.INFO)} note(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (``repro lint --json``)."""
        return {
            "checked": self.checked,
            "ok": self.ok,
            "families": sorted(self.families),
            "errors": self.count(Severity.ERROR),
            "warnings": self.count(Severity.WARNING),
            "notes": self.count(Severity.INFO),
            "findings": [
                f.to_dict()
                for f in sorted(self.findings, key=lambda f: -int(f.severity))
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
