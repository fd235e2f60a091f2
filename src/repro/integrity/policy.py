"""Integrity policies: what gets checksummed, verified, and quarantined.

A policy is the single switchboard the runtime consults (duck-typed —
the runtime never imports this package): which verification passes run
each decode iteration, what they cost, and whether repeated detections
quarantine a replica.  ``None`` — no policy at all — is the hard OFF
switch: the runtime is bit-identical to one built before the integrity
layer existed, which is what the bench's control arm and the CI
baseline gate pin down.

A quarantine threshold needs a verification pass to count detections;
the constructor refuses one without.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional

__all__ = [
    "IntegrityPolicy",
    "INTEGRITY_POLICIES",
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
    #: (None = never).  Needs a verification pass to detect anything.
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
        if self.quarantine_after is not None and not self.verifies_anything:
            raise ValueError(
                f"quarantine_after={self.quarantine_after} with no "
                "verification pass enabled: no detection can ever occur, "
                "so the quarantine could never trigger"
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


def get_integrity_policy(name: str) -> IntegrityPolicy:
    try:
        return INTEGRITY_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown integrity policy {name!r}; "
            f"available: {sorted(INTEGRITY_POLICIES)}"
        ) from None
