"""Integrity policies: what gets checksummed, verified, and quarantined.

A policy is the single switchboard the runtime consults (duck-typed —
the runtime never imports this package): which verification passes run
each decode iteration, what they cost, and whether repeated detections
quarantine a replica.  ``None`` — no policy at all — is the hard OFF
switch: the runtime is bit-identical to one built before the integrity
layer existed, which is what the bench's control arm and the CI
baseline gate pin down.

The broken policies are lint fixtures: each misconfigures the layer in
a way one C-rule catches, and ``check_builtin_integrity_artifacts``
reconciles the expected findings exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

__all__ = [
    "IntegrityPolicy",
    "INTEGRITY_POLICIES",
    "BROKEN_INTEGRITY_POLICIES",
    "get_integrity_policy",
]


@dataclass(frozen=True)
class IntegrityPolicy:
    """One integrity configuration.

    Verification is modelled, not free: each enabled pass adds its cost
    fraction to every decode iteration (ABFT is ``O((K+M)N)`` against
    the SpMM's ``O(MKN)``, KV tag checks are a hash over resident
    sequences), and a detected weight corruption pays a reload.  The
    costs are class constants: every policy pays the same.
    """

    name: str
    # Verify flags stay settable: ABFT misses are measured without the digest.
    #: Check resident/migrated KV content tags every decode iteration
    #: and on every migration receive.
    verify_kv: bool = False
    #: Run the ABFT column-sum check on every decode iteration's SpMM.
    verify_kernels: bool = False
    #: Check weight tile digests (catches persistent bit flips).
    verify_weights: bool = False
    #: Quarantine a replica after this many detected corruptions
    #: (None = never).  1 is a hair trigger — a single transient flip
    #: permanently removes capacity (rule C003).
    quarantine_after: Optional[int] = None
    #: Per-iteration cost of the kernel ABFT pass, as a fraction of the
    #: iteration's decode time.
    kernel_check_cost_frac: ClassVar[float] = 0.02
    #: Per-iteration cost of KV tag verification, same units.
    kv_check_cost_frac: ClassVar[float] = 0.005
    #: Seconds to reload a weight shard after a digest mismatch.
    weight_reload_s: ClassVar[float] = 0.05

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("policy needs a name")
        if self.quarantine_after is not None and self.quarantine_after <= 0:
            raise ValueError(
                "quarantine_after must be positive (or None to disable)"
            )

    @property
    def verifies_anything(self) -> bool:
        return self.verify_kv or self.verify_kernels or self.verify_weights


#: The shipped policies.  Passing ``integrity=None`` is the OFF switch
#: (the harness's verify-off arm and the bit-identity gate).
INTEGRITY_POLICIES: Dict[str, IntegrityPolicy] = {
    "verify": IntegrityPolicy(
        name="verify",
        verify_kv=True,
        verify_kernels=True,
        verify_weights=True,
    ),
    "quarantine": IntegrityPolicy(
        name="quarantine",
        verify_kv=True,
        verify_kernels=True,
        verify_weights=True,
        quarantine_after=3,
    ),
}

#: Deliberately broken policies -> the C-rule ids each must trip.
BROKEN_INTEGRITY_POLICIES: Dict[str, Tuple[IntegrityPolicy, Tuple[str, ...]]] = {
    # One detection permanently removes a replica: a single transient
    # flip halves the fleet.
    "hair-trigger-quarantine": (
        IntegrityPolicy(
            name="hair-trigger-quarantine",
            verify_kv=True,
            verify_kernels=True,
            verify_weights=True,
            quarantine_after=1,
        ),
        ("C003",),
    ),
    # Quarantine threshold configured, but no verification pass can
    # ever produce a detection — the trigger is unreachable.
    "quarantine-without-eyes": (
        IntegrityPolicy(name="quarantine-without-eyes", quarantine_after=3),
        ("C003",),
    ),
}


def get_integrity_policy(name: str) -> IntegrityPolicy:
    try:
        return INTEGRITY_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown integrity policy {name!r}; "
            f"available: {sorted(INTEGRITY_POLICIES)}"
        ) from None
