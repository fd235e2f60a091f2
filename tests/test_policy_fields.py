"""Policies hold only what a shipped policy varies.

A value that every shipped policy sets the same way is a class
constant, not a field.  So each dataclass field of the four policy
classes, ``name`` aside, must take at least two values across the
shipped policies; the few kept anyway are listed with their reason.
Each class checks its own fields when it is built, so every shipped
policy must pass its constructor again, and every mis-configured shape
the policy lint rules used to flag must fail it.
"""

from dataclasses import fields, replace

import pytest

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


@pytest.mark.parametrize(
    "policy",
    [p for policies in SHIPPED.values() for p in policies],
    ids=lambda p: f"{type(p).__name__}:{p.name}",
)
def test_shipped_policy_passes_its_constructor(policy):
    assert replace(policy) == policy


#: The fixtures the deleted ``BROKEN_*_POLICIES`` tables shipped whose
#: rule is now a constructor check, with the refusal each must meet.
FORMER_LINT_FIXTURES = [
    (RecoveryPolicy, dict(name="spin-retry", mode="retry", backoff_base_s=0.0),
     "tight loop"),
    (AutoscalerPolicy, dict(name="flappy", target=0.2), "no hysteresis band"),
    (AutoscalerPolicy, dict(name="land-grab", max_replicas=None),
     "max_replicas is required"),
    (ServerPolicy, dict(name="starved-quota", bucket_bounds=(128, 512),
                        priority_tiers=2, tenant_quota_tokens=64),
     "below the smallest bucket"),
    (ServerPolicy, dict(name="shuffled-buckets", bucket_bounds=(512, 128, 2048),
                        priority_tiers=2, tenant_quota_tokens=8192),
     "strictly increasing"),
    # Zero tiers and a duplicated bound: the bounds are checked first.
    (ServerPolicy, dict(name="no-tiers", bucket_bounds=(128, 128, 512),
                        priority_tiers=0, tenant_quota_tokens=8192),
     "strictly increasing"),
    (IntegrityPolicy, dict(name="quarantine-without-eyes", quarantine_after=3),
     "no verification pass"),
]


@pytest.mark.parametrize(
    "cls, kwargs, refusal",
    FORMER_LINT_FIXTURES,
    ids=[f"{c.__name__}:{kw['name']}" for c, kw, _ in FORMER_LINT_FIXTURES],
)
def test_former_lint_fixture_refused(cls, kwargs, refusal):
    with pytest.raises(ValueError, match=refusal):
        cls(**kwargs)
