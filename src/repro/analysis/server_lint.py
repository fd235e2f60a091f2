"""Static checks on server policies and session-server runs (Q rules).

The streaming server adds three new ways to be quietly wrong that no
existing family covers: an admission policy that parks work forever, a
session prefix whose blocks outlive their session, and a token stream
whose per-request ordering broke.  Four rules:

* **Q001 quota-starvation** — the per-tenant quota cannot admit a
  request the bucketing itself declares admissible (or there are no
  priority tiers to order parked work), so parked requests starve.
* **Q002 prefix-block-leak** — after a session ends (or the run
  finishes), KV blocks are still tagged with a session owner: the
  teardown proof failed.
* **Q003 stream-event-reordering** — a request's token events are not
  contiguous from index 0, run backwards in time, or continue past the
  ``final`` event.
* **Q004 bucket-boundary-misrouting** — bucket bounds are unsorted,
  duplicated or non-positive, or probing boundary-adjacent prompt
  lengths routes to a bucket that cannot hold them.

``check_builtin_server_artifacts`` is the ``repro lint --server``
sweep: shipped policies must lint clean, each deliberately broken
policy in :data:`~repro.server.admission.BROKEN_SERVER_POLICIES` must
trip exactly its documented rules, a quick server run must pass the
leak and stream audits, and corrupted copies of that run's stream must
trip Q003 — so the checker itself is regression-tested by its gate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

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
    "lint_token_stream",
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
        Rule("Q003", "stream-event-reordering", Severity.ERROR,
             "a request's token events are non-contiguous, non-monotone "
             "in time, or continue after the final event"),
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


def lint_token_stream(events: Iterable, subject: str = "stream") -> List[Finding]:
    """Q003 over a token stream (any iterable of objects with ``t``,
    ``request_id``, ``index`` and ``final`` — duck-typed so corrupted
    artifacts from tests exercise the same path as live streams)."""
    findings: List[Finding] = []
    per_request: Dict[int, List] = {}
    last_t = None
    for ev in events:
        if last_t is not None and ev.t < last_t:
            findings.append(
                Finding(
                    "Q003",
                    f"stream time went backwards at request "
                    f"{ev.request_id} token {ev.index}: {ev.t} after "
                    f"{last_t}",
                    subject=subject,
                    location=ev.request_id,
                )
            )
        last_t = ev.t
        per_request.setdefault(ev.request_id, []).append(ev)
    for rid in sorted(per_request):
        seq = per_request[rid]
        for pos, ev in enumerate(seq):
            if ev.index != pos:
                findings.append(
                    Finding(
                        "Q003",
                        f"request {rid}: token event #{pos} carries index "
                        f"{ev.index} — the stream is reordered or gapped",
                        subject=subject,
                        location=rid,
                    )
                )
                break
        finals = [pos for pos, ev in enumerate(seq) if ev.final]
        if len(finals) > 1:
            findings.append(
                Finding(
                    "Q003",
                    f"request {rid} streamed {len(finals)} final events",
                    subject=subject,
                    location=rid,
                )
            )
        elif finals and finals[0] != len(seq) - 1:
            findings.append(
                Finding(
                    "Q003",
                    f"request {rid} streamed {len(seq) - 1 - finals[0]} "
                    "token(s) AFTER its final event",
                    subject=subject,
                    location=rid,
                )
            )
    return findings


def check_builtin_server_artifacts(run_server: bool = True) -> Report:
    """The ``repro lint --server`` sweep.

    Policies: shipped ones clean, broken ones tripping their manifest.
    Behavior (``run_server``): a quick multi-turn run must pass the
    Q002 ownership audit and the Q003 stream audit, and deliberately
    corrupted copies of its stream must trip Q003 — regression-testing
    the stream checker against known-bad orderings.
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

        server, _stats = _run(ServerConfig().quick())
        allocators = [
            (s.pool.name, s.pool.allocator) for s in server.runtime.schedulers
        ]
        report.extend(
            lint_prefix_ownership(
                allocators, server.prefix_leaks, subject="server:quick"
            )
        )
        report.extend(
            lint_token_stream(server.stream.events, subject="server:quick")
        )
        report.checked += 1
        # Known-bad streams: each corruption must trip Q003.
        events = list(server.stream.events)
        if len(events) >= 2:
            swapped = list(events)
            swapped[0], swapped[-1] = swapped[-1], swapped[0]
            report.extend(
                reconcile_expected(
                    lint_token_stream(swapped, subject="stream:swapped"),
                    ("Q003",),
                    subject="stream:swapped",
                    context="builtin broken policy",
                )
            )
            report.checked += 1
            # One request's stream with its final event moved first:
            # tokens then continue after final AND indexes break.
            rid = next(ev.request_id for ev in events if ev.final)
            mine = [ev for ev in events if ev.request_id == rid]
            post_final = [mine[-1]] + mine[:-1]
            report.extend(
                reconcile_expected(
                    lint_token_stream(
                        post_final, subject="stream:post-final"
                    ),
                    ("Q003",),
                    subject="stream:post-final",
                    context="builtin broken policy",
                )
            )
            report.checked += 1
        # A crash arm proves invalidation does not leak either.
        crashed, _ = _run(
            replace(ServerConfig().quick(), fault_plan="gpu-crash")
        )
        report.extend(
            lint_prefix_ownership(
                [
                    (s.pool.name, s.pool.allocator)
                    for s in crashed.runtime.schedulers
                ],
                crashed.prefix_leaks,
                subject="server:crash",
            )
        )
        report.extend(
            lint_token_stream(crashed.stream.events, subject="server:crash")
        )
        report.checked += 1
    return report
