"""Checks on session-server runs (Q rules).

The streaming server adds a way to be quietly wrong that no other
family covers: a session prefix whose blocks outlive their session.

* **Q002 prefix-block-leak** — after a session ends (or the run
  finishes), KV blocks are still tagged with a session owner: the
  teardown proof failed.

The admission policy needs no linter:
:class:`~repro.server.admission.ServerPolicy` refuses, when it is built,
bucket bounds that are not positive and strictly increasing, zero
priority tiers, and a quota below the smallest bucket.

``check_builtin_server_artifacts`` is the ``repro lint --server``
sweep: a quick server run, fault-free and under ``gpu-crash``, must
pass the leak audit.  (The token stream needs no audit:
``ContinuousBatchingScheduler._finish_iteration`` is its only writer,
and ``tests/test_server.py`` checks its order.)
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .findings import Finding, Report, Rule, Severity, register_rules

__all__ = [
    "lint_prefix_ownership",
    "check_builtin_server_artifacts",
]

register_rules(
    "Q", "session lifecycle", __name__, "--server",
    [
        Rule("Q002", "prefix-block-leak", Severity.ERROR,
             "KV blocks still carry a session owner after the session "
             "ended — the refcounted prefix teardown leaked"),
    ],
)


def lint_prefix_ownership(
    allocators: Sequence[Tuple[str, object]],
    leaks: Dict = (),
    subject: str = "server",
) -> List[Finding]:
    """Q002: no block may carry a ``session:`` owner after the run.

    ``allocators`` is ``(pool_name, KVBlockAllocator)`` pairs; ``leaks``
    is the server's recorded per-session audit failures (each already a
    list of ``(pool, block)`` pairs).
    """
    findings: List[Finding] = []
    for session_id in sorted(dict(leaks)):
        blocks = dict(leaks)[session_id]
        findings.append(
            Finding(
                "Q002",
                f"session {session_id} teardown left {len(blocks)} "
                f"block(s) alive: {sorted(blocks)[:8]}",
                subject=subject,
                location=session_id,
            )
        )
    for pool_name, alloc in allocators:
        stranded = [
            (owner, seq_id)
            for seq_id in getattr(alloc, "_sequences", {})
            for owner in [alloc.sequence(seq_id).owner]
            if owner.startswith("session:")
        ]
        for owner, seq_id in sorted(stranded):
            findings.append(
                Finding(
                    "Q002",
                    f"pool {pool_name}: sequence {seq_id} ({owner}) still "
                    f"holds {len(alloc.owned_blocks(owner))} block(s) "
                    "after the run",
                    subject=subject,
                    location=seq_id,
                )
            )
    return findings


def check_builtin_server_artifacts() -> Report:
    """The ``repro lint --server`` sweep: a quick multi-turn run,
    fault-free and under ``gpu-crash`` (crash invalidation must not leak
    either), must pass the Q002 ownership audit."""
    from dataclasses import replace

    from ..server.streaming import ServerConfig
    from ..server.streaming import run_server as _run

    report = Report()
    report.add_family("Q")
    for plan, subject in (
        (None, "server:quick"), ("gpu-crash", "server:crash")
    ):
        server, _stats = _run(
            replace(ServerConfig().quick(), fault_plan=plan)
        )
        report.extend(
            lint_prefix_ownership(
                [
                    (s.pool.name, s.pool.allocator)
                    for s in server.runtime.schedulers
                ],
                server.prefix_leaks,
                subject=subject,
            )
        )
        report.checked += 1
    return report
