"""Static checks on server policies and session-server runs (Q rules).

The streaming server adds two new ways to be quietly wrong that no
existing family covers: an admission policy that parks work forever,
and a session prefix whose blocks outlive their session.  Three rules:

* **Q001 quota-starvation** — the per-tenant quota cannot admit a
  request the bucketing itself declares admissible (or there are no
  priority tiers to order parked work), so parked requests starve.
* **Q002 prefix-block-leak** — after a session ends (or the run
  finishes), KV blocks are still tagged with a session owner: the
  teardown proof failed.
* **Q004 bucket-boundary-misrouting** — bucket bounds are unsorted,
  duplicated or non-positive, or probing boundary-adjacent prompt
  lengths routes to a bucket that cannot hold them.

``check_builtin_server_artifacts`` is the ``repro lint --server``
sweep: shipped policies must lint clean, each deliberately broken
policy in :data:`~repro.server.admission.BROKEN_SERVER_POLICIES` must
trip exactly its documented rules, and a quick server run, fault-free
and under ``gpu-crash``, must pass the leak audit.  (The token stream
needs no audit: ``ContinuousBatchingScheduler._finish_iteration`` is
its only writer, and ``tests/test_server.py`` checks its order.)
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .findings import (
    Finding,
    Report,
    Rule,
    Severity,
    reconcile_expected,
    register_rules,
)

__all__ = [
    "lint_server_policy",
    "lint_prefix_ownership",
    "check_builtin_server_artifacts",
]

register_rules(
    "Q", "server admission and session lifecycle", __name__, "--server",
    [
        Rule("Q001", "quota-starvation", Severity.ERROR,
             "per-tenant quota below the smallest bucket bound (or no "
             "priority tiers at all): requests the bucketing admits can "
             "never clear the gate and park forever"),
        Rule("Q002", "prefix-block-leak", Severity.ERROR,
             "KV blocks still carry a session owner after the session "
             "ended — the refcounted prefix teardown leaked"),
        Rule("Q004", "bucket-boundary-misrouting", Severity.ERROR,
             "bucket bounds unsorted/duplicated/non-positive, or a "
             "boundary-length prompt routes to a bucket that cannot "
             "hold it"),
    ],
)


def lint_server_policy(policy) -> List[Finding]:
    """Q001 + Q004 over one :class:`~repro.server.admission.ServerPolicy`."""
    findings: List[Finding] = []
    subject = f"server-policy:{policy.name}"
    bounds = tuple(policy.bucket_bounds)

    if not bounds:
        findings.append(
            Finding(
                "Q004",
                "no prompt-length buckets configured — every request is "
                "refused at the door",
                subject=subject,
            )
        )
    if any(b <= 0 for b in bounds):
        findings.append(
            Finding(
                "Q004",
                f"non-positive bucket bound in {bounds} — no prompt can "
                "route there",
                subject=subject,
            )
        )
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        findings.append(
            Finding(
                "Q004",
                f"bucket bounds {bounds} are not strictly increasing — "
                "bisect routing skips buckets and misroutes boundary "
                "prompts",
                subject=subject,
            )
        )
    else:
        # Behavioral probe: each bound and its successor length must
        # land in a bucket that actually holds them.
        for idx, bound in enumerate(bounds):
            routed = policy.route_input_to_bucket(bound)
            if routed is None or bounds[routed] < bound:
                findings.append(
                    Finding(
                        "Q004",
                        f"prompt of exactly {bound} tokens routes to "
                        f"bucket {routed} instead of bucket {idx}",
                        subject=subject,
                        location=idx,
                    )
                )
            over = policy.route_input_to_bucket(bound + 1)
            if over is not None and bounds[over] <= bound:
                findings.append(
                    Finding(
                        "Q004",
                        f"prompt of {bound + 1} tokens routes to a bucket "
                        f"bounded at {bounds[over]} — it does not fit",
                        subject=subject,
                        location=idx,
                    )
                )

    if policy.priority_tiers < 1:
        findings.append(
            Finding(
                "Q001",
                f"priority_tiers={policy.priority_tiers}: parked requests "
                "have no release order, so quota release starves them "
                "nondeterministically",
                subject=subject,
            )
        )
    quota = policy.tenant_quota_tokens
    if quota is not None and bounds:
        smallest = min(b for b in bounds if b > 0) if any(
            b > 0 for b in bounds
        ) else None
        if smallest is not None and quota < smallest:
            findings.append(
                Finding(
                    "Q001",
                    f"tenant quota {quota} tokens is below the smallest "
                    f"bucket bound ({smallest}): prompts the bucketing "
                    "admits can exceed the quota outright and park "
                    "forever",
                    subject=subject,
                )
            )
    return findings


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


def check_builtin_server_artifacts(run_server: bool = True) -> Report:
    """The ``repro lint --server`` sweep.

    Policies: shipped ones clean, broken ones tripping their manifest.
    Behavior (``run_server``): a quick multi-turn run, fault-free and
    under ``gpu-crash`` (crash invalidation must not leak either), must
    pass the Q002 ownership audit.
    """
    from ..server.admission import BROKEN_SERVER_POLICIES, SERVER_POLICIES

    report = Report()
    report.add_family("Q")
    for name in sorted(SERVER_POLICIES):
        report.extend(lint_server_policy(SERVER_POLICIES[name]))
        report.checked += 1
    for name in sorted(BROKEN_SERVER_POLICIES):
        policy, expected = BROKEN_SERVER_POLICIES[name]
        report.extend(
            reconcile_expected(
                lint_server_policy(policy),
                expected,
                subject=f"server-policy:{policy.name}",
                context="builtin broken policy",
            )
        )
        report.checked += 1
    if run_server:
        from dataclasses import replace

        from ..server.streaming import ServerConfig
        from ..server.streaming import run_server as _run

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
