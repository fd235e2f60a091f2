"""Server-side admission control: buckets, priority tiers, quotas.

This is the SLO-aware front door layered *above* the runtime's own
shed/deadline machinery (:class:`~repro.runtime.faults.RecoveryPolicy`
still owns queue-depth shedding and per-request deadlines inside the
router).  Three mechanisms, modelled on production serving stacks
(DeepSparse's ``route_input_to_bucket``, vLLM's priority queues):

* **Prompt-length buckets** — requests route to the smallest configured
  bucket that holds their prompt; a prompt longer than the largest
  bucket is refused at the door.
* **Priority tiers** — pending work releases in ``(priority, arrival,
  request_id)`` order; tier 0 is most urgent.
* **Per-tenant token quotas** — a tenant may hold at most
  ``tenant_quota_tokens`` worst-case in-flight tokens; requests over
  quota *park* (deterministically) until a terminal event releases
  quota, rather than being dropped.

A :class:`ServerPolicy` refuses at construction the shapes that would
misroute or starve requests: bucket bounds that are not positive and
strictly increasing, no priority tier, or a quota below the smallest
bucket.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ServerPolicy",
    "SERVER_POLICIES",
    "AdmissionGate",
    "get_server_policy",
]


@dataclass(frozen=True)
class ServerPolicy:
    """Front-door admission configuration."""

    name: str
    #: Ascending prompt-length bucket upper bounds (tokens).  A request
    #: routes to the first bucket whose bound >= its prompt length.
    bucket_bounds: Tuple[int, ...] = (128, 512, 2048)
    #: Number of priority tiers (requests carry ``priority`` in
    #: ``[0, tiers)``; out-of-range priorities clamp to the last tier).
    priority_tiers: int = 3
    #: Max worst-case in-flight tokens per tenant; None = unlimited.
    tenant_quota_tokens: Optional[int] = None

    def __post_init__(self) -> None:
        bounds = self.bucket_bounds
        increasing = all(b1 < b2 for b1, b2 in zip(bounds, bounds[1:]))
        if not (bounds and bounds[0] > 0 and increasing):
            raise ValueError(
                f"bucket bounds {bounds} must be positive and strictly "
                "increasing: bisect routing would refuse or misroute "
                "prompts"
            )
        if self.priority_tiers < 1:
            raise ValueError(
                f"priority_tiers={self.priority_tiers}: parked requests "
                "need at least one tier to be released in order"
            )
        quota = self.tenant_quota_tokens
        if quota is not None and quota < bounds[0]:
            raise ValueError(
                f"tenant quota {quota} tokens is below the smallest "
                f"bucket bound ({bounds[0]}): prompts the buckets admit "
                "could exceed it outright and park forever"
            )

    def route_input_to_bucket(self, prompt_len: int) -> Optional[int]:
        """Index of the smallest bucket holding ``prompt_len``, or None
        when the prompt exceeds every bucket (refused at the door)."""
        idx = bisect.bisect_left(self.bucket_bounds, prompt_len)
        return idx if idx < len(self.bucket_bounds) else None

    def clamp_priority(self, priority: int) -> int:
        return max(0, min(priority, self.priority_tiers - 1))


#: Sane builtin policies (the ``repro server`` CLI default first).
SERVER_POLICIES: Dict[str, ServerPolicy] = {
    "standard": ServerPolicy(
        name="standard",
        bucket_bounds=(128, 512, 2048),
        priority_tiers=3,
        tenant_quota_tokens=8192,
    ),
    "open-door": ServerPolicy(
        name="open-door",
        bucket_bounds=(4096,),
        priority_tiers=1,
        tenant_quota_tokens=None,
    ),
}


def get_server_policy(name: str) -> ServerPolicy:
    try:
        return SERVER_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown server policy {name!r}; "
            f"available: {sorted(SERVER_POLICIES)}"
        ) from None


class AdmissionGate:
    """Stateful front door applying a :class:`ServerPolicy`.

    ``offer(req, now)`` either clears the request for submission (and
    charges its tenant's quota) or parks it; terminal notifications
    release quota and pop the highest-priority parked request(s) whose
    tenants now fit.  All ordering is ``(priority, arrival_s,
    request_id)`` — no wall clock, no iteration over unordered
    collections — so the gate replays bit-identically.
    """

    def __init__(self, policy: ServerPolicy) -> None:
        self.policy = policy
        self._in_flight: Dict[str, int] = {}
        self._parked: List[Tuple[int, float, int, object]] = []
        self.refused: List[object] = []
        #: Counters for the server report.
        self.parked_total = 0
        self.bucket_counts: Dict[int, int] = {}

    # ---- accounting -----------------------------------------------------------------

    def _cost(self, req) -> int:
        return req.total_tokens

    def tenant_in_flight(self, tenant: str) -> int:
        return self._in_flight.get(tenant, 0)

    def _fits_quota(self, req) -> bool:
        quota = self.policy.tenant_quota_tokens
        if quota is None:
            return True
        return self.tenant_in_flight(req.tenant) + self._cost(req) <= quota

    # ---- the gate -------------------------------------------------------------------

    def offer(self, req) -> str:
        """Gate one arrival; returns ``"admit"``, ``"park"`` or
        ``"refuse"`` (prompt fits no bucket)."""
        bucket = self.policy.route_input_to_bucket(req.prompt_len)
        if bucket is None:
            self.refused.append(req)
            return "refuse"
        self.bucket_counts[bucket] = self.bucket_counts.get(bucket, 0) + 1
        if not self._fits_quota(req):
            priority = self.policy.clamp_priority(req.priority)
            bisect.insort(
                self._parked,
                (priority, req.arrival_s, req.request_id, req),
            )
            self.parked_total += 1
            return "park"
        self._charge(req)
        return "admit"

    def _charge(self, req) -> None:
        self._in_flight[req.tenant] = (
            self.tenant_in_flight(req.tenant) + self._cost(req)
        )

    def release(self, req) -> List[object]:
        """A request reached a terminal bucket: release its quota and
        return every parked request that now clears the gate, in
        priority order."""
        held = self.tenant_in_flight(req.tenant)
        self._in_flight[req.tenant] = max(0, held - self._cost(req))
        released: List[object] = []
        remaining: List[Tuple[int, float, int, object]] = []
        for entry in self._parked:
            parked_req = entry[3]
            if self._fits_quota(parked_req):
                self._charge(parked_req)
                released.append(parked_req)
            else:
                remaining.append(entry)
        self._parked = remaining
        return released

    @property
    def parked(self) -> List[object]:
        return [entry[3] for entry in self._parked]
