"""Tests for fault injection and the fault-tolerant serving layer."""

import copy

import pytest

from repro.llm.chaos import ChaosConfig, build_chaos_runtime, run_chaos
from repro.llm.disaggregation import (
    DisaggregatedConfig,
    build_disaggregated_runtime,
)
from repro.llm.serving import ServingConfig, ServingSimulator, poisson_workload
from repro.runtime.core import det_hash01
from repro.runtime.events import EventKind
from repro.runtime.faults import (
    RECOVERY_POLICIES,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultTolerantRuntime,
    RecoveryPolicy,
    builtin_fault_plans,
    get_recovery_policy,
)
from repro.runtime.request import SessionRequest


def fleet(recovery, plan=None, replicas=2, **cfg_kw):
    defaults = dict(
        model="opt-13b", framework="spinfer", max_batch=16,
        chunked_prefill=True, preemption=True, kv_cap_tokens=20000,
    )
    defaults.update(cfg_kw)
    sim = ServingSimulator(ServingConfig(**defaults))
    pools = [sim.build_pool(name=f"gpu{i}") for i in range(replicas)]
    return FaultTolerantRuntime(pools, recovery, fault_plan=plan)


def workload(n=24, seed=3):
    return poisson_workload(
        n, arrival_rate=4.0, prompt_len=64, output_len=96, seed=seed
    )


CRASH = builtin_fault_plans()["gpu-crash"]


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(1.0, "meteor")

    def test_cancel_needs_request_id(self):
        with pytest.raises(ValueError, match="request_id"):
            FaultEvent(1.0, FaultKind.CANCEL)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-0.5, FaultKind.TRANSIENT)

    def test_generate_is_deterministic(self):
        kw = dict(
            name="p", seed=42, horizon_s=5.0, pools=("gpu0", "gpu1"),
            crashes=1, transients=2, slowdowns=2, cancellations=2,
            request_ids=(3, 5, 9),
        )
        assert FaultPlan.generate(**kw) == FaultPlan.generate(**kw)

    def test_generate_sorted_by_time(self):
        plan = FaultPlan.generate(
            name="p", seed=1, horizon_s=4.0, pools=("gpu0",),
            transients=5, slowdowns=3,
        )
        times = [e.t for e in plan.events]
        assert times == sorted(times)

    def test_dict_round_trip(self):
        plan = builtin_fault_plans()["chaos-mix"]
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_scaled_rescales_times(self):
        plan = CRASH.scaled(2.0)
        assert plan.events[0].t == pytest.approx(3.0)


class TestBackoff:
    def test_jitter_is_pure_hash(self):
        assert det_hash01(7, 2) == det_hash01(7, 2)
        assert 0.0 <= det_hash01(7, 2) < 1.0
        assert det_hash01(7, 2) != det_hash01(7, 3)

    def test_backoff_grows_exponentially(self):
        p = RecoveryPolicy(name="p", mode="retry", max_retries=5,
                           backoff_base_s=0.1, backoff_factor=2.0,
                           jitter_frac=0.0)
        assert p.backoff_s(1, key=0) == pytest.approx(0.1)
        assert p.backoff_s(3, key=0) == pytest.approx(0.4)

    def test_jitter_bounded_by_fraction(self):
        p = RecoveryPolicy(name="p", mode="retry", backoff_base_s=1.0,
                           backoff_factor=1.0, jitter_frac=0.25)
        for key in range(20):
            assert 0.75 <= p.backoff_s(1, key=key) <= 1.25

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown recovery mode"):
            RecoveryPolicy(name="p", mode="pray")

    def test_registry_lookup(self):
        assert get_recovery_policy("retry").mode == "retry"
        with pytest.raises(ValueError, match="unknown recovery policy"):
            get_recovery_policy("nope")


class TestInjectorValidation:
    def test_unknown_pool_rejected_before_scheduling(self):
        plan = FaultPlan(
            name="bad", seed=0,
            events=(FaultEvent(1.0, FaultKind.GPU_CRASH, "gpu9"),),
        )
        rt = fleet(RECOVERY_POLICIES["reroute"])
        with pytest.raises(ValueError, match="unknown pool"):
            FaultInjector(plan).arm(rt)
        assert rt.loop.pending_events == 0  # nothing half-armed

    def test_migration_fault_rejected_on_router(self):
        plan = FaultPlan(
            name="bad", seed=0,
            events=(FaultEvent(1.0, FaultKind.MIGRATION_FAIL, "gpu0"),),
        )
        with pytest.raises(ValueError, match="DisaggregatedRuntime"):
            FaultInjector(plan).arm(fleet(RECOVERY_POLICIES["retry"]))

    def test_arbitrary_target_rejected(self):
        with pytest.raises(TypeError, match="cannot inject"):
            FaultInjector(CRASH).arm(object())

    def test_bare_scheduler_rejected(self):
        # Deadlines and crash recovery belong to the router, so a
        # scheduler outside one is not an injection target.
        sim = ServingSimulator(ServingConfig(model="opt-13b", framework="spinfer"))
        sched = sim.build_scheduler()
        with pytest.raises(TypeError, match="ContinuousBatchingScheduler"):
            FaultInjector(CRASH).arm(sched)


class TestGPUCrash:
    def test_fail_fast_loses_resident_requests(self):
        stats = fleet(RECOVERY_POLICIES["fail-fast"], plan=CRASH).run(
            workload()
        )
        assert stats.failed  # the crash took requests down
        assert stats.availability < 1.0
        assert stats.retries == 0
        assert stats.trace.of_kind(EventKind.FAULT)

    def test_reroute_recovers_everything(self):
        stats = fleet(RECOVERY_POLICIES["reroute"], plan=CRASH).run(
            workload()
        )
        assert len(stats.completed) == 24
        assert stats.availability == 1.0
        assert stats.retries > 0
        assert stats.trace.of_kind(EventKind.REROUTE)
        # recompute-from-prompt is charged as wasted work
        assert stats.wasted_recompute_tokens > 0

    def test_retry_to_dead_pool_exhausts_budget(self):
        stats = fleet(RECOVERY_POLICIES["retry"], plan=CRASH).run(workload())
        crashed = [
            e for e in stats.trace.of_kind(EventKind.FAIL)
            if "exhausted" in e.info.get("reason", "")
        ]
        assert crashed  # same-pool retry cannot survive a dead pool
        assert stats.retries > 0

    def test_reroute_beats_fail_fast_on_goodput(self):
        ff = fleet(RECOVERY_POLICIES["fail-fast"], plan=CRASH).run(workload())
        rr = fleet(RECOVERY_POLICIES["reroute"], plan=CRASH).run(workload())
        assert rr.goodput_tokens_per_s > ff.goodput_tokens_per_s

    def test_all_pools_dead_sheds_arrivals(self):
        plan = FaultPlan(
            name="apocalypse", seed=0,
            events=(
                FaultEvent(0.1, FaultKind.GPU_CRASH, "gpu0"),
                FaultEvent(0.1, FaultKind.GPU_CRASH, "gpu1"),
            ),
        )
        stats = fleet(RECOVERY_POLICIES["reroute"], plan=plan).run(workload())
        assert stats.shed  # late arrivals have nowhere to go
        sheds = stats.trace.of_kind(EventKind.SHED)
        assert any(e.info.get("reason") == "no alive pools" for e in sheds)


class TestReplayDeterminism:
    @pytest.mark.parametrize("plan_name", sorted(builtin_fault_plans()))
    @pytest.mark.parametrize("policy", sorted(RECOVERY_POLICIES))
    def test_same_seed_same_event_log(self, plan_name, policy):
        cfg = ChaosConfig(plan=plan_name).quick()
        a = run_chaos(cfg, policy)
        b = run_chaos(cfg, policy)
        assert a.trace.event_log() == b.trace.event_log()
        assert a.makespan_s == b.makespan_s

    def test_faults_off_bit_identical_to_no_recovery(self):
        reqs = workload(12)
        sim = ServingSimulator(ServingConfig(
            model="opt-13b", framework="spinfer", max_batch=16,
            chunked_prefill=True, preemption=True, kv_cap_tokens=20000,
        ))
        base = sim.build_scheduler().run(copy.deepcopy(reqs))
        rt = fleet(RECOVERY_POLICIES["reroute"], replicas=1)
        faulty = rt.run(copy.deepcopy(reqs))
        base_keys = [k for k in base.trace.event_log()]
        fleet_keys = [k for k in faulty.trace.event_log()]
        assert base_keys == fleet_keys


class TestTimeoutsAndCancellation:
    def test_deadline_times_out_straggling_request(self):
        recovery = RecoveryPolicy(
            name="tight", mode="reroute", max_retries=3,
            backoff_base_s=0.02, deadline_s=1.0,
        )
        stats = fleet(recovery).run(workload())
        assert stats.timed_out
        assert stats.trace.of_kind(EventKind.TIMEOUT)
        assert len(stats.completed) + len(stats.timed_out) == 24

    def test_client_cancellation(self):
        plan = FaultPlan(
            name="abort", seed=0,
            events=(
                FaultEvent(
                    0.5, FaultKind.CANCEL, "gpu0", request_id=2
                ),
            ),
        )
        stats = fleet(RECOVERY_POLICIES["reroute"], plan=plan).run(workload())
        assert [r.request_id for r in stats.cancelled] == [2]
        assert len(stats.completed) == 23

    def test_cancel_unknown_request_is_noop(self):
        rt = fleet(RECOVERY_POLICIES["reroute"])
        assert rt.cancel_request(999) is False

    def test_shed_on_queue_depth(self):
        recovery = RecoveryPolicy(
            name="picky", mode="reroute", max_retries=2,
            backoff_base_s=0.02, shed_queue_depth=1,
        )
        stats = fleet(recovery, replicas=1).run(workload(seed=0))
        assert stats.shed
        assert all(
            e.info.get("reason")
            for e in stats.trace.of_kind(EventKind.SHED)
        )
        assert len(stats.completed) + len(stats.shed) == 24


class TestTransientsAndStragglers:
    def test_transient_reruns_iteration(self):
        plan = FaultPlan(
            name="ecc", seed=0,
            events=(FaultEvent(0.5, FaultKind.TRANSIENT, "gpu0"),),
        )
        stats = fleet(
            RECOVERY_POLICIES["retry"], plan=plan, replicas=1
        ).run(workload())
        assert len(stats.completed) == 24  # nothing lost, only time
        retries = stats.trace.of_kind(EventKind.RETRY)
        assert any(
            e.info.get("scope") == "iteration" for e in retries
        )
        assert stats.faults == 1

    def test_slowdown_recovers(self):
        plan = FaultPlan(
            name="straggle", seed=0,
            events=(
                FaultEvent(
                    0.2, FaultKind.SLOWDOWN, "gpu0",
                    duration_s=1.0, factor=3.0,
                ),
            ),
        )
        rt = fleet(RECOVERY_POLICIES["retry"], plan=plan, replicas=1)
        stats = rt.run(workload())
        assert len(stats.completed) == 24
        assert stats.trace.of_kind(EventKind.RECOVER)
        assert rt.schedulers[0].pool.slowdown == 1.0

    def test_slowdown_slows_the_run(self):
        reqs = workload()
        clean = fleet(RECOVERY_POLICIES["retry"], replicas=1).run(
            copy.deepcopy(reqs)
        )
        plan = FaultPlan(
            name="straggle", seed=0,
            events=(
                FaultEvent(
                    0.2, FaultKind.SLOWDOWN, "gpu0",
                    duration_s=2.0, factor=4.0,
                ),
            ),
        )
        slowed = fleet(
            RECOVERY_POLICIES["retry"], plan=plan, replicas=1
        ).run(copy.deepcopy(reqs))
        assert slowed.makespan_s > clean.makespan_s


class TestDisaggregatedFaults:
    CFG = DisaggregatedConfig(
        model="opt-13b",
        prefill_framework="fastertransformer",
        decode_framework="spinfer",
        batch_size=8,
        prompt_len=256,
        output_len=64,
    )

    def reqs(self):
        return [
            SessionRequest(i, 0.0, self.CFG.prompt_len, self.CFG.output_len)
            for i in range(self.CFG.batch_size)
        ]

    def test_fail_fast_loses_the_batch(self):
        rt = build_disaggregated_runtime(
            self.CFG,
            recovery=RECOVERY_POLICIES["fail-fast"],
            fault_plan=builtin_fault_plans()["flaky-link"],
        )
        stats = rt.run(self.reqs())
        assert not stats.completed
        assert len(stats.failed) == 8
        assert stats.wasted_recompute_tokens == 8 * 256

    def test_retry_resends_and_completes(self):
        rt = build_disaggregated_runtime(
            self.CFG,
            recovery=RECOVERY_POLICIES["retry"],
            fault_plan=builtin_fault_plans()["flaky-link"],
        )
        stats = rt.run(self.reqs())
        assert len(stats.completed) == 8
        assert stats.retries == 2  # one resend per lost transfer
        retries = stats.trace.of_kind(EventKind.RETRY)
        assert all(e.info.get("scope") == "migration" for e in retries)

    def test_retry_pays_for_resends(self):
        clean = build_disaggregated_runtime(
            self.CFG, recovery=RECOVERY_POLICIES["retry"]
        ).run(self.reqs())
        flaky = build_disaggregated_runtime(
            self.CFG,
            recovery=RECOVERY_POLICIES["retry"],
            fault_plan=builtin_fault_plans()["flaky-link"],
        ).run(self.reqs())
        assert flaky.makespan_s > clean.makespan_s
        assert len(flaky.completed) == len(clean.completed)


class TestChaosHarness:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            ChaosConfig(plan="volcano")
        with pytest.raises(ValueError, match="replica"):
            ChaosConfig(replicas=0)

    def test_router_plan_builds_runtime(self):
        rt = build_chaos_runtime(ChaosConfig().quick(), "reroute")
        assert len(rt.schedulers) == 2

    def test_disagg_plan_refused_by_router_builder(self):
        with pytest.raises(ValueError, match="disaggregated"):
            build_chaos_runtime(ChaosConfig(plan="flaky-link"), "retry")
