"""Property tests: conservation laws hold under ANY seeded fault plan.

Whatever faults a plan throws at the fleet, every submitted request
must land in exactly one terminal bucket, no completed request may be
short of its decode tokens, and the run must replay bit-identically
from the same seeds.  These are the invariants the R005 auditor
enforces on real chaos runs; here hypothesis searches for a fault
schedule that breaks them.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.fault_lint import lint_fault_outcome
from repro.llm.serving import ServingConfig, ServingSimulator, poisson_workload
from repro.runtime.faults import (
    ALL_FAULT_KINDS,
    RECOVERY_POLICIES,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultTolerantRuntime,
)

NUM_REQUESTS = 8
POOLS = ("gpu0", "gpu1")

fault_mix = st.fixed_dictionaries({
    "crashes": st.integers(min_value=0, max_value=2),
    "transients": st.integers(min_value=0, max_value=3),
    "slowdowns": st.integers(min_value=0, max_value=2),
    "cancellations": st.integers(min_value=0, max_value=2),
})


def run_fleet(policy_name: str, plan: FaultPlan):
    sim = ServingSimulator(ServingConfig(
        model="opt-13b", framework="spinfer", max_batch=8,
        chunked_prefill=True, preemption=True, kv_cap_tokens=8000,
    ))
    rt = FaultTolerantRuntime(
        [sim.build_pool(name=name) for name in POOLS],
        RECOVERY_POLICIES[policy_name],
        fault_plan=plan,
    )
    reqs = poisson_workload(
        NUM_REQUESTS, arrival_rate=4.0, prompt_len=48, output_len=32,
        seed=plan.seed,
    )
    return rt.run(reqs)


def make_plan(seed: int, mix: dict) -> FaultPlan:
    return FaultPlan.generate(
        name="prop", seed=seed, horizon_s=4.0, pools=POOLS,
        request_ids=tuple(range(NUM_REQUESTS)), **mix,
    )


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    mix=fault_mix,
    policy=st.sampled_from(sorted(RECOVERY_POLICIES)),
)
def test_every_request_lands_in_exactly_one_bucket(seed, mix, policy):
    stats = run_fleet(policy, make_plan(seed, mix))
    buckets = (
        stats.completed, stats.rejected, stats.failed,
        stats.shed, stats.timed_out, stats.cancelled,
    )
    ids = [r.request_id for bucket in buckets for r in bucket]
    assert sorted(ids) == list(range(NUM_REQUESTS))
    assert len(set(ids)) == len(ids)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    mix=fault_mix,
    policy=st.sampled_from(sorted(RECOVERY_POLICIES)),
)
def test_no_lost_or_duplicated_decode_tokens(seed, mix, policy):
    stats = run_fleet(policy, make_plan(seed, mix))
    for req in stats.completed:
        assert req.generated == req.output_len
        assert req.finish_s is not None
    assert stats.wasted_recompute_tokens >= 0
    # the R005 auditor agrees the outcome conserves requests and tokens
    assert lint_fault_outcome(stats) == []


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    mix=fault_mix,
    policy=st.sampled_from(sorted(RECOVERY_POLICIES)),
)
def test_replay_is_bit_identical(seed, mix, policy):
    plan = make_plan(seed, mix)
    a = run_fleet(policy, plan)
    b = run_fleet(policy, plan)
    assert a.trace.event_log() == b.trace.event_log()
    assert a.makespan_s == b.makespan_s
    assert a.wasted_recompute_tokens == b.wasted_recompute_tokens


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000), mix=fault_mix)
def test_goodput_never_negative_and_bounded(seed, mix):
    stats = run_fleet("reroute", make_plan(seed, mix))
    assert stats.goodput_tokens_per_s >= 0
    assert 0.0 <= stats.availability <= 1.0
    assert stats.retries_per_request >= 0


# --- serialisation round trip over EVERY fault kind ------------------------

def _event_strategy(kind: str) -> st.SearchStrategy:
    times = st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False)
    durations = st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)
    targets = st.sampled_from(POOLS + ("prefill", "decode"))
    # sdc_replica constrains factor to (0, 1] (corrupted fraction);
    # everything else just needs it positive.
    factors = (
        st.floats(min_value=0.01, max_value=1.0,
                  allow_nan=False, allow_infinity=False)
        if kind == FaultKind.SDC_REPLICA
        else st.floats(min_value=0.5, max_value=8.0,
                       allow_nan=False, allow_infinity=False)
    )
    request_ids = (
        st.integers(min_value=0, max_value=64)
        if kind == FaultKind.CANCEL
        else st.none()
    )
    return st.builds(
        FaultEvent, t=times, kind=st.just(kind), target=targets,
        duration_s=durations, factor=factors, request_id=request_ids,
    )


any_fault_event = st.one_of(*[_event_strategy(k) for k in ALL_FAULT_KINDS])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    events=st.lists(any_fault_event, max_size=12),
)
def test_plan_dict_round_trip_all_kinds(seed, events):
    plan = FaultPlan(name="round-trip", seed=seed, events=tuple(events))
    assert FaultPlan.from_dict(plan.to_dict()) == plan


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
