"""Tests for the session-aware streaming server (``repro.server``)."""

from dataclasses import replace

import pytest

from repro.runtime.core import EventLoop
from repro.runtime.request import SessionRequest, TokenEvent, TokenStream
from repro.server.admission import SERVER_POLICIES, AdmissionGate, ServerPolicy
from repro.server.sessions import SessionSpec, TurnSpec, session_workload
from repro.server.streaming import (
    ServerConfig,
    run_server,
    server_report,
    server_report_json,
)


def quick_cfg(**kw):
    return replace(ServerConfig().quick(), **kw)


def make_req(request_id=0, arrival_s=0.0, prompt_len=64, output_len=16, **kw):
    return SessionRequest(request_id, arrival_s, prompt_len, output_len, **kw)


class TestSessionRequest:
    def test_legacy_positional_construction(self):
        # The legacy positional field order must keep working.
        req = SessionRequest(3, 1.5, 96, 32)
        assert req is not None and isinstance(req, SessionRequest)
        assert (req.request_id, req.arrival_s) == (3, 1.5)
        assert req.session_id is None and req.cached_tokens == 0

    def test_token_arithmetic(self):
        req = make_req(prompt_len=100, output_len=40)
        assert req.total_tokens == 140
        assert req.prefill_target == 100
        req.generated = 7
        assert req.prefill_target == 107
        assert req.remaining_output == 33

    def test_cached_tokens_bounds(self):
        make_req(prompt_len=64, cached_tokens=64)  # boundary ok
        with pytest.raises(ValueError, match="cached_tokens"):
            make_req(prompt_len=64, cached_tokens=65)
        with pytest.raises(ValueError, match="cached_tokens"):
            make_req(cached_tokens=-1)

    @pytest.mark.parametrize("field, value", [
        ("arrival_s", -0.5), ("prompt_len", -5), ("output_len", 0),
    ])
    def test_negative_times_and_lengths_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}={value} must be"):
            make_req(**{field: value})

    def test_negative_priority_rejected(self):
        with pytest.raises(ValueError, match="priority"):
            make_req(priority=-1)

    def test_ttft_requires_first_token(self):
        req = make_req(arrival_s=1.0)
        assert req.ttft_s is None
        req.first_token_s = 1.25
        assert req.ttft_s == pytest.approx(0.25)


class TestTokenStream:
    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_flush_order_is_canonical_not_push_order(self, tie_break):
        """Events pushed out of order within one instant flush sorted by
        (request_id, index) — the stream commutes under dual replay."""
        loop = EventLoop(tie_break=tie_break)
        stream = TokenStream()

        def iteration_a():
            stream.push(loop, TokenEvent(1.0, 5, 0, "gpu1"))

        def iteration_b():
            stream.push(loop, TokenEvent(1.0, 2, 0, "gpu0"))
            stream.push(loop, TokenEvent(1.0, 2, 1, "gpu0", final=True))

        loop.schedule_at(1.0, iteration_a)
        loop.schedule_at(1.0, iteration_b)
        loop.run()
        assert stream.flushes == 1
        assert [e.key() for e in stream.events] == [
            (1.0, 2, 0, "gpu0", None, False),
            (1.0, 2, 1, "gpu0", None, True),
            (1.0, 5, 0, "gpu1", None, False),
        ]

    def test_one_flush_per_instant(self):
        loop = EventLoop()
        stream = TokenStream()
        loop.schedule_at(
            1.0, lambda: stream.push(loop, TokenEvent(1.0, 0, 0, "gpu0"))
        )
        loop.schedule_at(
            2.0, lambda: stream.push(loop, TokenEvent(2.0, 0, 1, "gpu0"))
        )
        loop.run()
        assert stream.flushes == 2
        assert [e.index for e in stream.events if e.request_id == 0] == [0, 1]


class TestServerPolicy:
    def test_bucket_routing_boundaries(self):
        policy = SERVER_POLICIES["standard"]
        assert policy.route_input_to_bucket(1) == 0
        assert policy.route_input_to_bucket(128) == 0  # bound inclusive
        assert policy.route_input_to_bucket(129) == 1
        assert policy.route_input_to_bucket(2048) == 2
        assert policy.route_input_to_bucket(2049) is None

    def test_clamp_priority(self):
        policy = SERVER_POLICIES["standard"]
        assert policy.clamp_priority(-3) == 0
        assert policy.clamp_priority(1) == 1
        assert policy.clamp_priority(99) == policy.priority_tiers - 1

    def test_unknown_policy_name(self):
        from repro.server.admission import get_server_policy

        with pytest.raises(ValueError, match="unknown server policy"):
            get_server_policy("nope")

    def test_starved_quota_refused(self):
        # A quota below the smallest bucket: prompts the buckets admit
        # could exceed it outright and park forever.
        with pytest.raises(ValueError, match="below the smallest bucket"):
            ServerPolicy(name="p", bucket_bounds=(128, 512),
                         tenant_quota_tokens=127)
        at_bound = ServerPolicy(name="p", bucket_bounds=(128, 512),
                                tenant_quota_tokens=128)
        assert at_bound.tenant_quota_tokens == 128

    def test_shuffled_buckets_refused(self):
        # Unsorted bounds: bisect routing sends boundary prompts to the
        # wrong bucket.
        with pytest.raises(ValueError, match="strictly increasing"):
            ServerPolicy(name="p", bucket_bounds=(512, 128, 2048))

    def test_no_tiers_refused(self):
        # Parked requests need a tier to be released in order.
        with pytest.raises(ValueError, match="priority_tiers=0"):
            ServerPolicy(name="p", priority_tiers=0)

    @pytest.mark.parametrize("bounds", [
        pytest.param((), id="no-buckets"),
        pytest.param((0, 128), id="zero-bound"),
        # The second 128-bucket would be unreachable.
        pytest.param((128, 128, 512), id="duplicate-bound"),
    ])
    def test_bad_bucket_bounds_refused(self, bounds):
        with pytest.raises(ValueError, match="positive and strictly increasing"):
            ServerPolicy(name="p", bucket_bounds=bounds)


class TestAdmissionGate:
    def make_gate(self, quota=200):
        return AdmissionGate(
            ServerPolicy(
                name="t",
                bucket_bounds=(128, 512),
                priority_tiers=3,
                tenant_quota_tokens=quota,
            )
        )

    def test_refuses_prompt_beyond_all_buckets(self):
        gate = self.make_gate()
        req = make_req(prompt_len=513)
        assert gate.offer(req) == "refuse"
        assert gate.refused == [req]

    def test_admit_charges_tenant_quota(self):
        gate = self.make_gate(quota=200)
        req = make_req(prompt_len=100, output_len=50, tenant="acme")
        assert gate.offer(req) == "admit"
        assert gate.tenant_in_flight("acme") == 150
        assert gate.tenant_in_flight("globex") == 0

    def test_over_quota_parks_until_release(self):
        gate = self.make_gate(quota=200)
        first = make_req(0, 0.0, 100, 50, tenant="acme")
        second = make_req(1, 1.0, 100, 50, tenant="acme")
        assert gate.offer(first) == "admit"
        assert gate.offer(second) == "park"
        assert gate.parked == [second]
        released = gate.release(first)
        assert released == [second]
        assert gate.parked == []
        assert gate.tenant_in_flight("acme") == 150

    def test_release_order_is_priority_then_arrival(self):
        gate = self.make_gate(quota=150)
        blocker = make_req(0, 0.0, 100, 50, tenant="acme")
        low = make_req(1, 1.0, 60, 40, tenant="acme", priority=2)
        high = make_req(2, 2.0, 60, 40, tenant="acme", priority=0)
        assert gate.offer(blocker) == "admit"
        assert gate.offer(low) == "park"
        assert gate.offer(high) == "park"
        # high arrived later but outranks low; only one fits the quota.
        released = gate.release(blocker)
        assert released == [high]
        assert gate.parked == [low]

    def test_bucket_counts_accumulate(self):
        gate = self.make_gate()
        gate.offer(make_req(0, prompt_len=64))
        gate.offer(make_req(1, prompt_len=64))
        gate.offer(make_req(2, prompt_len=300))
        assert gate.bucket_counts == {0: 2, 1: 1}


class TestSessionWorkload:
    def test_pinned_seed_replays_identically(self):
        assert session_workload(seed=7) == session_workload(seed=7)
        assert session_workload(seed=7) != session_workload(seed=8)

    def test_turn_zero_has_no_think_time(self):
        for spec in session_workload(sessions=4, seed=1):
            assert spec.turns[0].think_s == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            session_workload(sessions=0)
        with pytest.raises(ValueError):
            TurnSpec(new_tokens=0, output_len=8)
        with pytest.raises(ValueError):
            TurnSpec(new_tokens=8, output_len=8, think_s=-0.1)
        with pytest.raises(ValueError):
            SessionSpec(session_id=0, start_s=0.0, turns=())


class TestPrefixReuse:
    def test_reuse_arm_hits_and_charges_less_prefill(self):
        cfg = quick_cfg()
        on_server, on_stats = run_server(cfg)
        off_server, off_stats = run_server(replace(cfg, reuse_prefix=False))
        # Identical workloads: same turns submitted either way.
        assert len(on_server.requests) == len(off_server.requests)
        assert on_server.sessions.hits > 0
        assert on_server.sessions.retained > 0
        assert on_stats.cached_prefill_tokens > 0
        # The control arm never consults the cache.
        assert off_server.sessions.hits == 0
        assert off_stats.cached_prefill_tokens == 0
        # The whole point: reuse prefills strictly fewer tokens.
        assert on_stats.prefill_tokens < off_stats.prefill_tokens

    def test_teardown_is_provably_leak_free(self):
        server, _ = run_server(quick_cfg())
        assert server.prefix_leaks == {}
        for sched in server.runtime.schedulers:
            alloc = sched.pool.allocator
            for sid in range(4):
                assert alloc.owned_blocks(f"session:{sid}") == []

    def test_crash_invalidates_lazily_without_leaks(self):
        server, stats = run_server(quick_cfg(fault_plan="gpu-crash"))
        assert stats.faults >= 1
        assert server.prefix_leaks == {}
        # Sessions still make it through: reroute + recompute.
        assert server.sessions_completed > 0

    def test_session_affinity_prefers_prefix_pool(self):
        server, _ = run_server(quick_cfg())
        # After the run all prefixes are torn down.
        assert server.sessions.pool_for(0) is None


class TestStreamingServerDeterminism:
    def test_report_json_replays_byte_identically(self):
        cfg = quick_cfg()
        assert server_report_json(cfg) == server_report_json(cfg)

    def test_report_schema_and_shape(self):
        import json

        payload = json.loads(server_report_json(quick_cfg()))
        assert payload["schema"] == "repro-server/v1"
        report = payload["report"]
        assert report["sessions"]["submitted"] == 4
        assert report["prefix_cache"]["leaked_blocks"] == 0
        assert report["stream"]["events"] > 0
        assert len(report["stream"]["sha256"]) == 64

    def test_stream_passes_its_own_lint(self):
        """Per request, token indexes run 0..n-1 in time order, and a
        completed turn streams one ``final`` token, its last, fault-free
        and under a crash.  ``ContinuousBatchingScheduler.
        _finish_iteration`` is the only writer of the stream, so this
        checks that writer."""
        for plan in (None, "gpu-crash"):
            server, stats = run_server(quick_cfg(fault_plan=plan))
            per_request = {}
            for e in server.stream.events:
                per_request.setdefault(e.request_id, []).append(e)
            done = {r.request_id: r.output_len for r in stats.completed}
            assert set(done) <= set(per_request)
            for rid, events in per_request.items():
                n = len(events)
                assert [e.index for e in events] == list(range(n))
                assert [e.t for e in events] == sorted(e.t for e in events)
                finals = [False] * (n - 1) + [rid in done]
                assert [e.final for e in events] == finals
                assert n == done.get(rid, n)

    def test_reuse_improves_p99_ttft(self):
        cfg = quick_cfg()
        on = server_report(cfg)
        off = server_report(replace(cfg, reuse_prefix=False))
        assert on["latency"]["p99_ttft_s"] < off["latency"]["p99_ttft_s"]

    def test_empty_workload_rejected(self):
        from repro.server.streaming import build_server

        server = build_server(quick_cfg())
        with pytest.raises(ValueError, match="empty"):
            server.run([])
        server = build_server(quick_cfg())
        dup = SessionSpec(0, 0.0, (TurnSpec(8, 8),))
        with pytest.raises(ValueError, match="unique"):
            server.run([dup, dup])


class TestExtServerBench:
    def test_bench_shows_savings(self, experiments):
        exp = experiments["ext_server"]
        assert exp.exp_id == "ext_server"
        scenarios = ("steady", "long-history", "gpu-crash")
        for label in scenarios:
            assert exp.metric(f"{label}_prefill_tokens_saved_frac") > 0
            assert exp.metric(f"{label}_p99_ttft_speedup") > 1.0
        arms = {(row[0], row[1]) for row in exp.rows}
        assert arms == {
            (label, arm) for label in scenarios for arm in ("reuse", "no-reuse")
        }
