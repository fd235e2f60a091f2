"""Tests for the fleet package: traffic, policies, simulator, planner."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    AUTOSCALER_POLICIES,
    BROKEN_AUTOSCALER_POLICIES,
    AutoscalerPolicy,
    FleetConfig,
    FleetSpec,
    GPU_COST_PER_HOUR,
    ReplicaClass,
    TrafficProfile,
    builtin_fleet_specs,
    builtin_traffic_profiles,
    fleet_report,
    fleet_report_json,
    generate_sessions,
    get_autoscaler_policy,
    pareto_frontier,
    run_fleet_policy,
    static_policy,
)
from repro.fleet.simulator import FleetSimulator, ReplicaInfo
from repro.runtime import get_recovery_policy
from repro.server import StreamingServer


class TestTrafficProfile:
    def test_builtin_profiles_cover_all_shapes(self):
        profiles = builtin_traffic_profiles()
        assert {p.shape for p in profiles.values()} == {
            "steady", "diurnal", "bursty",
        }

    def test_rate_bounded_by_base_and_peak(self):
        for profile in builtin_traffic_profiles().values():
            for k in range(64):
                t = profile.horizon_s * k / 64
                rate = profile.rate_at(t)
                assert profile.base_rate - 1e-9 <= rate
                assert rate <= profile.peak_rate + 1e-9

    def test_rate_zero_outside_horizon(self):
        p = builtin_traffic_profiles()["diurnal"]
        assert p.rate_at(-0.1) == 0.0
        assert p.rate_at(p.horizon_s) == 0.0

    def test_diurnal_trough_at_edges_crest_mid(self):
        p = builtin_traffic_profiles()["diurnal"]
        assert p.rate_at(0.0) == pytest.approx(p.base_rate)
        assert p.rate_at(p.horizon_s / 2) == pytest.approx(p.peak_rate)

    def test_bursty_square_wave(self):
        p = builtin_traffic_profiles()["bursty"]
        assert p.rate_at(0.0) == p.peak_rate  # inside the first burst
        assert p.rate_at(p.burst_len_s + 0.01) == p.base_rate

    def test_mean_rate_between_bounds(self):
        p = builtin_traffic_profiles()["diurnal"]
        assert p.base_rate < p.mean_rate() < p.peak_rate

    def test_scale_factor_maps_population_to_sample(self):
        p = builtin_traffic_profiles()["diurnal"]
        modeled = p.modeled_users * p.requests_per_user_per_day / 86400.0
        assert p.scale_factor() == pytest.approx(modeled / p.mean_rate())

    def test_quick_halves_horizon(self):
        p = builtin_traffic_profiles()["diurnal"]
        assert p.quick().horizon_s == pytest.approx(p.horizon_s / 2)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            TrafficProfile(name="x", shape="lunar")

    def test_inverted_rates_rejected(self):
        with pytest.raises(ValueError):
            TrafficProfile(name="x", base_rate=5.0, peak_rate=1.0)


class TestGenerateSessions:
    def test_same_seed_identical_workload(self):
        p = builtin_traffic_profiles()["diurnal"]
        assert generate_sessions(p) == generate_sessions(p)

    def test_different_seed_different_workload(self):
        from dataclasses import replace

        p = builtin_traffic_profiles()["diurnal"]
        assert generate_sessions(p) != generate_sessions(
            replace(p, seed=p.seed + 1)
        )

    def test_arrivals_sorted_within_horizon(self):
        p = builtin_traffic_profiles()["bursty"]
        specs = generate_sessions(p)
        starts = [s.start_s for s in specs]
        assert starts == sorted(starts)
        assert all(0 <= t < p.horizon_s for t in starts)

    def test_session_ids_dense(self):
        specs = generate_sessions(builtin_traffic_profiles()["steady"])
        assert [s.session_id for s in specs] == list(range(len(specs)))

    def test_turn_shape_floors(self):
        for spec in generate_sessions(builtin_traffic_profiles()["diurnal"]):
            assert spec.turns
            assert spec.turns[0].think_s == 0.0
            for turn in spec.turns:
                assert turn.new_tokens >= 8 and turn.output_len >= 8

    def test_empty_workload_rejected(self):
        p = TrafficProfile(
            name="tiny", shape="steady", horizon_s=1e-6,
            base_rate=0.01, peak_rate=0.01,
        )
        with pytest.raises(ValueError, match="no sessions"):
            generate_sessions(p)


class TestAutoscalerPolicy:
    def test_static_returns_min(self):
        p = static_policy(3)
        assert p.desired_replicas(5, 1.0, 100) == 3
        assert p.desired_replicas(1, 0.0, 0) == 3

    def test_static_requires_equal_bounds(self):
        with pytest.raises(ValueError, match="static"):
            AutoscalerPolicy(name="p", mode="static",
                             min_replicas=2, max_replicas=3)

    def test_target_util_scales_up_above_target(self):
        p = AUTOSCALER_POLICIES["target-util"]
        assert p.desired_replicas(2, p.target + 0.1, 0) == 3

    def test_target_util_scales_down_only_with_empty_queue(self):
        p = AUTOSCALER_POLICIES["target-util"]
        assert p.desired_replicas(3, 0.0, 0) == 2
        assert p.desired_replicas(3, 0.0, 5) == 3  # queued work: hold

    def test_dead_band_holds(self):
        p = AUTOSCALER_POLICIES["target-util"]
        mid = (p.down_target + p.target) / 2
        assert p.desired_replicas(3, mid, 0) == 3

    def test_queue_depth_scales_on_backlog_per_replica(self):
        p = AUTOSCALER_POLICIES["queue-depth"]
        assert p.desired_replicas(2, 0.5, int(2 * p.target) + 1) == 3
        assert p.desired_replicas(2, 0.5, 1) == 2

    def test_bounds_clamp(self):
        p = AUTOSCALER_POLICIES["target-util"]
        assert p.desired_replicas(p.max_replicas, 1.0, 50) == p.max_replicas
        assert p.desired_replicas(p.min_replicas, 0.0, 0) == p.min_replicas

    def test_crash_healing_rebuilds_to_floor(self):
        p = AUTOSCALER_POLICIES["target-util"]
        assert p.desired_replicas(0, 1.0, 0) == p.min_replicas
        assert p.desired_replicas(1, 0.0, 0) == p.min_replicas

    def test_unbounded_policy_constructible(self):
        p = BROKEN_AUTOSCALER_POLICIES["land-grab"][0]
        assert p.desired_replicas(10, 1.0, 0) == 11

    def test_get_policy_unknown_name(self):
        with pytest.raises(KeyError, match="unknown autoscaler"):
            get_autoscaler_policy("nope")


class TestFleetSpec:
    def test_hourly_cost_from_pinned_table(self):
        cls = ReplicaClass(name="r", gpu="RTX4090")
        assert cls.hourly_cost == GPU_COST_PER_HOUR["RTX4090"]

    def test_hourly_cost_override(self):
        cls = ReplicaClass(name="r", gpu="RTX4090", cost_per_hour=0.1)
        assert cls.hourly_cost == 0.1

    def test_unpriced_gpu_needs_explicit_cost(self):
        with pytest.raises(KeyError, match="no pinned price"):
            ReplicaClass(name="r", gpu="B200")

    def test_by_cost_cheapest_first(self):
        fleet = builtin_fleet_specs()["consumer-mix"]
        costs = [c.hourly_cost for c in fleet.by_cost()]
        assert costs == sorted(costs)

    def test_duplicate_class_names_rejected(self):
        cls = ReplicaClass(name="r")
        with pytest.raises(ValueError, match="unique"):
            FleetSpec(name="f", classes=(cls, cls))

    def test_deployment_spec_lowering(self):
        cls = ReplicaClass(name="r", gpu="A6000", max_batch=8)
        spec = cls.deployment_spec()
        assert spec.gpu == "A6000"
        assert spec.batch_size == 8
        assert spec.num_gpus == 1


class TestReplicaCostModel:
    CLS = ReplicaClass(name="r", gpu="RTX4090")

    def test_live_replica_bills_to_makespan(self):
        r = ReplicaInfo(name="g", cls=self.CLS, up_s=0.0, ready_s=0.0)
        assert r.cost_usd(3600.0) == pytest.approx(self.CLS.hourly_cost)

    def test_retired_replica_bills_to_down(self):
        r = ReplicaInfo(name="g", cls=self.CLS, up_s=0.0, ready_s=0.0,
                        state="retired", down_s=1800.0)
        assert r.cost_usd(3600.0) == pytest.approx(
            self.CLS.hourly_cost / 2
        )

    def test_boot_time_bills(self):
        r = ReplicaInfo(name="g", cls=self.CLS, up_s=1000.0, ready_s=1800.0,
                        state="retired", down_s=2800.0)
        assert r.cost_usd(3600.0) == pytest.approx(
            self.CLS.hourly_cost / 2
        )


class TestParetoFrontier:
    def test_single_point_is_frontier(self):
        assert pareto_frontier({"a": (1.0, 1.0)}) == ["a"]

    def test_dominated_point_excluded(self):
        points = {"cheap-good": (1.0, 10.0), "pricey-bad": (2.0, 5.0)}
        assert pareto_frontier(points) == ["cheap-good"]

    def test_tradeoff_keeps_both(self):
        points = {"cheap-slow": (1.0, 5.0), "pricey-fast": (2.0, 10.0)}
        assert pareto_frontier(points) == ["cheap-slow", "pricey-fast"]

    def test_duplicate_points_both_survive(self):
        points = {"a": (1.0, 5.0), "b": (1.0, 5.0)}
        assert pareto_frontier(points) == ["a", "b"]


QUICK = FleetConfig(quick=True)
CHAOS = FleetConfig(quick=True, fault_plan="chaos-mix")


class TestFleetSimulator:
    def test_autoscaler_tracks_the_diurnal_swing(self):
        out = run_fleet_policy(QUICK, AUTOSCALER_POLICIES["target-util"])
        assert out.scale_ups > 0 and out.scale_downs > 0
        peak, trough = out.replica_extremes()
        assert peak > trough
        assert peak <= out.policy.max_replicas

    def test_static_policy_never_scales(self):
        out = run_fleet_policy(QUICK, AUTOSCALER_POLICIES["static-3"])
        assert out.scale_ups == 0 and out.scale_downs == 0
        assert out.replica_extremes() == (3, 3)

    def test_no_prefix_leaks_across_scale_events(self):
        for policy in ("target-util", "queue-depth"):
            out = run_fleet_policy(QUICK, AUTOSCALER_POLICIES[policy])
            assert out.prefix_leaked_blocks == 0

    def test_drain_migrates_session_kv(self):
        out = run_fleet_policy(QUICK, AUTOSCALER_POLICIES["queue-depth"])
        assert out.scale_downs > 0
        assert out.kv_migrations > 0
        assert out.kv_migrated_tokens > 0

    def test_amnesiac_drops_instead_of_migrating(self):
        amnesiac = BROKEN_AUTOSCALER_POLICIES["amnesiac"][0]
        out = run_fleet_policy(QUICK, amnesiac)
        assert out.kv_migrations == 0
        assert out.prefix_leaked_blocks == 0

    def test_kill_in_flight_sheds_resident_work(self):
        # A hair-trigger hysteresis floor forces a scale-down while the
        # victim still holds work, so the A002 kill path actually fires
        # (the builtin reaper's victims are idle by the time utilization
        # crosses its floor).
        hot_reaper = AutoscalerPolicy(
            name="hot-reaper", kill_in_flight=True,
            target=0.5, down_target=0.45, cooldown_s=0.5,
        )
        out = run_fleet_policy(
            FleetConfig(quick=True, profile="bursty"), hot_reaper
        )
        assert out.kills > 0
        assert len(out.stats.shed) >= out.kills
        assert out.prefix_leaked_blocks == 0

    def test_chaos_arm_heals_crashed_replicas(self):
        out = run_fleet_policy(CHAOS, AUTOSCALER_POLICIES["target-util"])
        assert out.stats.faults > 0
        crashed = [r for r in out.replicas if r.state == "crashed"]
        assert crashed
        assert all(r.down_s is not None for r in crashed)
        clean = run_fleet_policy(
            QUICK, AUTOSCALER_POLICIES["target-util"]
        )
        assert out.scale_ups > clean.scale_ups  # healing replacements

    def test_cost_is_sum_of_replica_integrals(self):
        out = run_fleet_policy(QUICK, AUTOSCALER_POLICIES["target-util"])
        assert out.cost_usd == pytest.approx(
            sum(r.cost_usd(out.makespan_s) for r in out.replicas)
        )
        assert out.cost_usd > 0

    def test_slo_attainment_within_unit_interval(self):
        out = run_fleet_policy(QUICK, AUTOSCALER_POLICIES["static-2"])
        assert 0.0 <= out.slo_attainment <= 1.0
        assert out.slo_attained <= len(out.stats.completed)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        policy=st.sampled_from(
            ["target-util", "queue-depth", "static-2"]
        ),
        chaos=st.booleans(),
    )
    def test_turn_conservation_across_scale_events(
        self, seed, policy, chaos
    ):
        """Requests in == completed + rejected + failed + shed +
        timed_out + cancelled, for any seed, policy and fault arm."""
        cfg = FleetConfig(
            quick=True,
            seed=seed,
            fault_plan="chaos-mix" if chaos else None,
        )
        out = run_fleet_policy(cfg, AUTOSCALER_POLICIES[policy])
        stats = out.stats
        buckets = (
            stats.completed, stats.rejected, stats.failed,
            stats.shed, stats.timed_out, stats.cancelled,
        )
        terminal_ids = [r.request_id for b in buckets for r in b]
        assert len(terminal_ids) == len(set(terminal_ids))
        assert len(terminal_ids) == out.turns_submitted
        assert out.prefix_leaked_blocks == 0


class TestFleetOnServer:
    """The fleet is the streaming server with an elastic replica set."""

    def test_fleet_is_a_streaming_server(self):
        assert issubclass(FleetSimulator, StreamingServer)

    def test_quick_run_admits_every_turn_and_streams_nothing(self):
        profile = QUICK.traffic()
        sim = FleetSimulator(
            QUICK.fleet_spec(),
            AUTOSCALER_POLICIES["target-util"],
            get_recovery_policy(QUICK.recovery),
            horizon_s=profile.horizon_s,
        )
        out = sim.run(generate_sessions(profile))
        assert out.turns_submitted == len(sim.requests) > 0
        assert sim.gate.parked_total == 0
        assert sim.gate.refused == []
        assert sim.stream is None
        assert all(s.stream is None for s in sim.runtime.schedulers)


class TestFleetPlanner:
    def test_report_replays_byte_identically(self):
        assert fleet_report_json(QUICK) == fleet_report_json(QUICK)

    def test_fault_arm_replays_byte_identically(self):
        assert fleet_report_json(CHAOS) == fleet_report_json(CHAOS)

    def test_report_schema_and_trace_digests(self):
        doc = json.loads(fleet_report_json(QUICK))
        assert doc["schema"] == "repro-fleet/v1"
        report = doc["report"]
        assert set(report["policies"]) == set(QUICK.policies)
        digests = {
            p["trace_sha256"] for p in report["policies"].values()
        }
        assert len(digests) == len(report["policies"])  # all distinct

    def test_autoscaler_dominates_a_static_baseline(self):
        for cfg in (QUICK, CHAOS):
            report = fleet_report(cfg)
            beaten = report["dominates"]["target-util"]
            assert beaten, "autoscaler must beat >= 1 static baseline"
            for name in beaten:
                tu = report["policies"]["target-util"]
                st_ = report["policies"][name]
                assert tu["cost"]["usd"] < st_["cost"]["usd"]
                assert (tu["service"]["slo_attainment"]
                        >= st_["service"]["slo_attainment"])

    def test_frontier_points_exist_in_sweep(self):
        report = fleet_report(QUICK)
        assert report["pareto_frontier"]
        assert set(report["pareto_frontier"]) <= set(report["policies"])

    def test_fleet_scale_extrapolation(self):
        report = fleet_report(QUICK)
        for entry in report["fleet_scale"].values():
            assert entry["peak_replicas"] > 0
            assert entry["usd_per_hour_at_peak"] > 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError, match="unknown autoscaler"):
            FleetConfig(policies=("nope",))

    def test_empty_policy_set_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetConfig(policies=())
