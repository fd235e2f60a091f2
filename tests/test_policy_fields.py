"""Policies hold only what a shipped policy varies.

A value that every shipped policy sets the same way is a class
constant, not a field.  So each dataclass field of the four policy
classes, ``name`` aside, must take at least two values across the
shipped policies; the few kept anyway are listed with their reason.
"""

from dataclasses import fields

from repro.fleet.autoscaler import AUTOSCALER_POLICIES, AutoscalerPolicy
from repro.fleet.simulator import ADMIT_ALL
from repro.integrity.policy import INTEGRITY_POLICIES, IntegrityPolicy
from repro.runtime.faults import RECOVERY_POLICIES, RecoveryPolicy
from repro.server.admission import SERVER_POLICIES, ServerPolicy

#: Policy class -> every instance the repo ships.
SHIPPED = {
    RecoveryPolicy: list(RECOVERY_POLICIES.values()),
    AutoscalerPolicy: list(AUTOSCALER_POLICIES.values()),
    IntegrityPolicy: list(INTEGRITY_POLICIES.values()),
    ServerPolicy: [*SERVER_POLICIES.values(), ADMIT_ALL],
}

_VERIFY = (
    "measuring the ABFT check's false negatives against real weight "
    "flips needs kernel checks without the weight digest"
)

#: Single-valued fields that stay fields, with the reason.
KEPT = {
    "AutoscalerPolicy.kill_in_flight": (
        "deleting it removes the fleet report's `kills` key, which moves "
        "the two `fleet --quick` replay pins"
    ),
    "IntegrityPolicy.verify_kv": _VERIFY,
    "IntegrityPolicy.verify_kernels": _VERIFY,
    "IntegrityPolicy.verify_weights": _VERIFY,
}


def test_every_policy_field_is_varied_by_a_shipped_policy():
    names = set()
    single = []
    for cls, policies in SHIPPED.items():
        for field in fields(cls):
            key = f"{cls.__name__}.{field.name}"
            names.add(key)
            if field.name == "name" or key in KEPT:
                continue
            values = {getattr(p, field.name) for p in policies}
            if len(values) < 2:
                single.append(f"{key} is always {values.pop()!r}")
    assert not single, "make these class constants: " + "; ".join(single)
    assert set(KEPT) <= names, set(KEPT) - names
