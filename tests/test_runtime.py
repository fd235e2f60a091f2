"""Tests for the discrete-event runtime core and its schedulers."""

import copy

import pytest

from repro.analysis.plan_lint import lint_kv_allocator
from repro.llm.serving import ServingConfig, ServingSimulator, mixed_workload
from repro.runtime.core import EventLoop, GPUPool
from repro.runtime.events import EventKind
from repro.runtime.policies import FCFSPolicy, SJFPolicy, get_policy
from repro.runtime.request import SessionRequest
from repro.runtime.scheduler import ContinuousBatchingScheduler, RuntimeStats
from repro.runtime.trace import RuntimeTrace


def make_sim(**kw):
    defaults = dict(
        model="opt-13b", framework="spinfer", gpu="RTX4090",
        num_gpus=1, max_batch=16,
    )
    defaults.update(kw)
    return ServingSimulator(ServingConfig(**defaults))


def tight_workload(n=12, seed=3):
    """Bursty mixed-length trace used with a capped KV pool."""
    return mixed_workload(
        n, arrival_rate=4.0, output_lens=(32, 128, 384),
        prompt_len=96, seed=seed,
    )


class TestEventLoop:
    def test_past_scheduling_rejected(self):
        loop = EventLoop()
        loop.now = 5.0
        with pytest.raises(ValueError, match="before now"):
            loop.schedule_at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule_after(-1.0, lambda: None)

    def test_ties_fire_in_insertion_order(self):
        loop = EventLoop()
        fired = []
        for tag in ("a", "b", "c"):
            loop.schedule_at(1.0, lambda t=tag: fired.append(t))
        loop.run()
        assert fired == ["a", "b", "c"]
        assert loop.now == 1.0

    @pytest.mark.parametrize("respawn_with", ["schedule_at", "defer"])
    def test_event_budget_backstop(self, respawn_with):
        """A same-instant spin, through ordinary or deferred events,
        exhausts the event budget instead of hanging."""
        loop = EventLoop()
        reschedule = {
            "schedule_at": lambda cb: loop.schedule_at(loop.now, cb),
            "defer": loop.defer,
        }[respawn_with]

        def respawn():
            reschedule(respawn)

        loop.schedule_at(1.0, respawn)
        with pytest.raises(RuntimeError, match="not making progress"):
            loop.run(max_events=100)
        assert loop.dispatched == 100
        assert loop.now == 1.0

    def test_cancel_prevents_firing(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule_at(1.0, lambda: fired.append("cancelled"))
        loop.schedule_at(2.0, lambda: fired.append("kept"))
        assert loop.cancel(handle) is True
        loop.run()
        assert fired == ["kept"]
        assert loop.cancelled == 1

    def test_cancel_is_idempotent(self):
        loop = EventLoop()
        handle = loop.schedule_at(1.0, lambda: None)
        assert loop.cancel(handle) is True
        assert loop.cancel(handle) is False
        assert loop.cancel(12345) is False
        assert loop.cancelled == 1
        # A handle that already fired, cancelled from inside the loop
        # and after it: False, not counted, and nothing fires again.
        fired, stale = [], []
        done = loop.schedule_at(2.0, lambda: fired.append("done"))
        loop.schedule_at(3.0, lambda: stale.append(loop.cancel(done)))
        loop.run()
        assert stale == [False]
        assert loop.cancel(done) is False
        assert loop.cancelled == 1
        loop.run()
        assert fired == ["done"]
        assert loop.dispatched == 2

    def test_cancelled_event_never_advances_clock(self):
        loop = EventLoop()
        handle = loop.schedule_at(9.0, lambda: None)
        loop.schedule_at(1.0, lambda: None)
        loop.cancel(handle)
        loop.run()
        assert loop.now == 1.0  # the cancelled 9.0 event left no mark

    def test_pending_events_tracks_cancellation(self):
        loop = EventLoop()
        h1 = loop.schedule_at(1.0, lambda: None)
        loop.schedule_at(2.0, lambda: None)
        assert loop.pending_events == 2
        loop.cancel(h1)
        assert loop.pending_events == 1

    def test_cancelled_run_replays_like_never_scheduled(self):
        """Determinism contract: cancelling an event reproduces the
        schedule of a run where it was never scheduled at all."""

        def drive(with_cancelled: bool):
            loop = EventLoop()
            order = []
            loop.schedule_at(1.0, lambda: order.append(("a", loop.now)))
            if with_cancelled:
                handle = loop.schedule_at(
                    1.0, lambda: order.append(("ghost", loop.now))
                )
            loop.schedule_at(1.0, lambda: order.append(("b", loop.now)))
            loop.schedule_at(3.0, lambda: order.append(("c", loop.now)))
            if with_cancelled:
                loop.cancel(handle)
            loop.run()
            return order, loop.now

        assert drive(True) == drive(False)


class TestPolicies:
    def reqs(self):
        return [
            SessionRequest(request_id=0, arrival_s=0.0, prompt_len=8, output_len=64),
            SessionRequest(request_id=1, arrival_s=1.0, prompt_len=8, output_len=8),
            SessionRequest(request_id=2, arrival_s=2.0, prompt_len=8, output_len=32),
        ]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            get_policy("lifo")

    def test_fcfs_pops_by_arrival(self):
        policy = FCFSPolicy()
        for r in reversed(self.reqs()):  # push out of order
            policy.push(r)
        popped = [policy.pop_ready(10.0).request_id for _ in range(3)]
        assert popped == [0, 1, 2]

    def test_sjf_pops_shortest_remaining(self):
        policy = SJFPolicy()
        for r in self.reqs():
            policy.push(r)
        popped = [policy.pop_ready(10.0).request_id for _ in range(3)]
        assert popped == [1, 2, 0]

    def test_future_arrivals_gated(self):
        policy = FCFSPolicy()
        for r in self.reqs():
            policy.push(r)
        assert policy.peek_ready(0.5).request_id == 0
        policy.pop_ready(0.5)
        assert policy.peek_ready(0.5) is None  # 1 and 2 not arrived yet
        assert policy.next_arrival() == 1.0
        assert len(policy) == 2
        assert policy.pop_ready(1.5).request_id == 1


class TestDeterminism:
    def test_identical_event_logs_across_runs(self):
        """Same trace + seed must replay the exact same schedule."""
        logs = []
        for _ in range(2):
            sim = make_sim(
                max_batch=4, kv_cap_tokens=2048, chunked_prefill=True,
                preemption=True,
            )
            stats = sim.run(copy.deepcopy(tight_workload()))
            logs.append(stats.trace.event_log())
        assert logs[0] == logs[1]
        assert len(logs[0]) > 0


class TestRejection:
    def test_oversized_request_rejected_not_spun(self):
        """A request whose KV can never fit is rejected loudly; the
        legacy loop parked it and spun forever."""
        sim = make_sim(max_batch=4, kv_cap_tokens=512)
        workload = [
            SessionRequest(request_id=0, arrival_s=0.0, prompt_len=32, output_len=32),
            SessionRequest(request_id=1, arrival_s=0.1, prompt_len=400,
                    output_len=400),  # 800 tokens > 512-token pool
            SessionRequest(request_id=2, arrival_s=0.2, prompt_len=32, output_len=32),
        ]
        stats = sim.run(copy.deepcopy(workload))
        assert [r.request_id for r in stats.rejected] == [1]
        assert sorted(r.request_id for r in stats.completed) == [0, 2]
        assert stats.trace.count(EventKind.REJECT) == 1

    def test_legacy_loop_also_rejects(self):
        sim = make_sim(max_batch=4)
        budget_tokens = sim.kv_budget / sim._kv_bytes_per_token()
        huge = int(budget_tokens)  # prompt+output far past the budget
        workload = [
            SessionRequest(request_id=0, arrival_s=0.0, prompt_len=32, output_len=32),
            SessionRequest(request_id=1, arrival_s=0.1, prompt_len=huge,
                    output_len=huge),
        ]
        stats = sim.run_legacy(copy.deepcopy(workload))
        assert [r.request_id for r in stats.rejected] == [1]
        assert [r.request_id for r in stats.completed] == [0]


class TestPreemption:
    def tight_scheduler(self):
        # 1024-token pool vs 4 x (96+384)-token worst case: on-demand
        # admission overcommits and must preempt to finish long outputs.
        return make_sim(
            max_batch=4, kv_cap_tokens=1024, chunked_prefill=True,
            preemption=True,
        ).build_scheduler()

    def run_tight(self):
        return self.tight_scheduler().run(copy.deepcopy(tight_workload()))

    def test_preempts_and_still_completes_everything(self):
        stats = self.run_tight()
        assert stats.preemptions > 0
        assert len(stats.completed) == 12
        assert stats.trace.count(EventKind.PREEMPT) == stats.preemptions

    def test_k_rules_hold_after_every_iteration(self):
        """Refcount conservation and table validity hold across
        admissions, chunked prefills, preemptions and completions."""
        sched = self.tight_scheduler()
        finish = sched._finish_iteration
        audits = []

        def audited(decoders):
            finish(decoders)
            audits.append(lint_kv_allocator(sched.pool.allocator))

        sched._finish_iteration = audited
        stats = sched.run(copy.deepcopy(tight_workload()))
        assert stats.preemptions > 0
        assert len(audits) == stats.iterations
        assert all(findings == [] for findings in audits)

    def test_allocator_fully_freed_after_the_run(self):
        """After a drained trace every block is back on the free list."""
        sched = self.tight_scheduler()
        sched.run(copy.deepcopy(tight_workload()))
        alloc = sched.pool.allocator
        assert alloc.used_blocks == 0
        assert len(alloc.free_block_ids()) == alloc.total_blocks

    def test_preempted_requests_recompute(self):
        """Preemption-by-recompute still yields full outputs."""
        for r in self.run_tight().completed:
            assert r.generated == r.output_len

    def test_trace_is_pinned(self):
        """About a fifth of this run's decode passes find fewer free
        blocks than decoders, so they scan and preempt.  Any change to
        which sequence a pass sheds, or when, moves the digest."""
        stats = self.run_tight()
        assert (stats.preemptions, stats.iterations) == (258, 1038)
        assert stats.trace.digest() == (
            "b2a3c9d42af2c9c50090a901943d13fd0ab0bf84338137bed3bb04472bce75b9"
        )

    def test_pool_one_block_short_preempts_the_latest_admitted(self):
        """Three decoders whose tail blocks are full need a block each
        and find two free.  One iteration must scan, shed exactly one
        sequence — the one ``_victim`` picks, under FCFS the latest
        admitted — and decode the other two."""
        sim = make_sim()
        pool = GPUPool(
            engine=sim.engine, kv_budget_bytes=sim.kv_budget,
            block_size=16, total_blocks=5,
        )
        sched = ContinuousBatchingScheduler(pool, preemption=True)
        sched.attach(EventLoop())
        ensure = sched._ensure_decode_capacity
        alloc = pool.allocator
        entry = []

        def observed(decoders):
            needed = alloc.next_token_blocks(s.seq_id for s in decoders)
            entry.append((len(decoders), alloc.free_blocks, needed))
            return ensure(decoders)

        sched._ensure_decode_capacity = observed
        for rid in range(3):
            sched.submit(SessionRequest(rid, 0.0, 16, 8))
        sched._start_iteration()
        assert entry == [(3, 2, 3)]
        assert [e.seq_id for e in sched.trace.of_kind(EventKind.PREEMPT)] == [2]
        (step,) = sched.trace.of_kind(EventKind.DECODE_STEP)
        assert step.info["batch"] == 2
        assert sorted(sched._running) == [0, 1]
        assert alloc.free_blocks == 1


class TestChunkedPrefill:
    def test_chunk_events_emitted(self):
        sim = make_sim(max_batch=4, chunked_prefill=True, chunk_tokens=32)
        stats = sim.run(copy.deepcopy(tight_workload()))
        assert stats.trace.count(EventKind.PREFILL_CHUNK) > 0
        assert len(stats.completed) == 12

    def test_tail_latency_beats_blocking_on_tight_pool(self):
        """On a KV-constrained bursty trace, chunked prefill with
        on-demand admission strictly improves p99 TTFT and p99 latency
        over worst-case reservation + blocking prefill."""
        workload = mixed_workload(
            48, arrival_rate=6.0, output_lens=(64, 256, 768),
            prompt_len=128, seed=7,
        )
        base = dict(max_batch=16, kv_cap_tokens=4096)
        blocking = make_sim(**base).run(copy.deepcopy(workload))
        chunked = make_sim(
            **base, chunked_prefill=True, chunk_tokens=256, preemption=True,
        ).run(copy.deepcopy(workload))
        assert len(blocking.completed) == len(chunked.completed) == 48
        assert chunked.ttft_percentile(99) < blocking.ttft_percentile(99)
        assert chunked.latency_percentile(99) < blocking.latency_percentile(99)

    def test_prefix_fork_counts_its_copy_on_write_block(self):
        """A forked session prefix whose partial tail block is shared
        needs one extra block for the copy-on-write on its first append.
        Chunk sizing and decode capacity must count it, or the scheduler
        decides tokens fit and ``append_token`` runs out of blocks."""
        sim = make_sim(max_batch=8)
        pool = GPUPool(
            engine=sim.engine, kv_budget_bytes=sim.kv_budget,
            block_size=16, total_blocks=6,
        )
        sched = ContinuousBatchingScheduler(
            pool, prefill_mode="chunked", chunk_tokens=32, preemption=True,
        )
        prefix = 100
        pool.allocator.allocate(prefix, 40, owner="session:0")
        sched.prefix_source = (
            lambda req: (prefix, 40) if req.session_id == 0 else None
        )
        stats = sched.run([
            SessionRequest(0, 0.0, 16, 8),
            SessionRequest(1, 0.0, 60, 4, session_id=0, turn=1),
        ])
        assert sorted(r.request_id for r in stats.completed) == [0, 1]
        assert stats.cached_prefill_tokens >= 40
        # Only the session prefix is still resident.
        assert pool.allocator.used_blocks == 3


class TestTranslationValidation:
    @pytest.mark.parametrize("policy", ["fcfs", "sjf"])
    def test_runtime_reproduces_legacy_loop(self, policy):
        """FCFS/SJF + blocking prefill + no preemption on the event
        runtime must match the legacy hand-rolled loop within 1%."""
        workload = mixed_workload(40, arrival_rate=4.0, seed=11)
        sim_a = make_sim(max_batch=8, policy=policy)
        sim_b = make_sim(max_batch=8, policy=policy)
        runtime = sim_a.run(copy.deepcopy(workload))
        legacy = sim_b.run_legacy(copy.deepcopy(workload))
        assert len(runtime.completed) == len(legacy.completed) == 40
        assert runtime.makespan_s == pytest.approx(
            legacy.makespan_s, rel=0.01
        )
        assert runtime.goodput_tokens_per_s == pytest.approx(
            legacy.goodput_tokens_per_s, rel=0.01
        )


class TestTTFT:
    def test_first_token_between_start_and_finish(self):
        stats = make_sim(max_batch=4).run(copy.deepcopy(tight_workload()))
        for r in stats.completed:
            assert r.start_s <= r.first_token_s <= r.finish_s
            assert r.ttft_s >= 0

    def test_ttft_percentiles_ordered(self):
        stats = make_sim(max_batch=4).run(copy.deepcopy(tight_workload()))
        assert stats.mean_ttft_s > 0
        assert stats.ttft_percentile(50) <= stats.ttft_percentile(99)
        assert stats.ttft_percentile(99) <= stats.latency_percentile(100)


class TestVerdictLedger:
    """``RuntimeStats.terminate`` is the only way into a terminal bucket
    and refuses a verdict that breaks conservation as it is written."""

    @staticmethod
    def stats():
        return RuntimeStats(trace=RuntimeTrace())

    @staticmethod
    def done(rid, out=4):
        r = SessionRequest(rid, 0.0, prompt_len=8, output_len=out)
        r.generated = out
        r.finish_s = 1.0
        return r

    def test_clean_verdicts_pass(self):
        s = self.stats()
        a, b = self.done(0), self.done(1)
        s.terminate(1.0, EventKind.FINISH, a, "gpu0")
        s.terminate(1.0, EventKind.SHED, b, "router", reason="full")
        assert s.completed == [a] and s.shed == [b]
        assert [e.key()[:3] for e in s.trace.events] == [
            (1.0, EventKind.FINISH, 0), (1.0, EventKind.SHED, 1),
        ]

    def test_second_verdict_refused(self):
        s = self.stats()
        r = self.done(0)
        s.terminate(1.0, EventKind.FINISH, r, "gpu0")
        with pytest.raises(RuntimeError, match="already has verdict"):
            s.terminate(2.0, EventKind.FAIL, r, "gpu0")
        assert s.failed == [] and len(s.trace.events) == 1

    def test_short_finish_refused(self):
        r = self.done(0)
        r.generated = 2
        s = self.stats()
        with pytest.raises(RuntimeError, match="2/4 decode tokens"):
            s.terminate(1.0, EventKind.FINISH, r, "gpu0")
        assert s.completed == [] and s.trace.events == []

    def test_finish_without_timestamp_refused(self):
        r = self.done(0)
        r.finish_s = None
        with pytest.raises(RuntimeError, match="finish_s=None"):
            self.stats().terminate(1.0, EventKind.FINISH, r, "gpu0")

    def test_traced_counts_are_read_only(self):
        s = self.stats()
        s.trace.record(0.5, EventKind.PREEMPT, 3)
        assert s.preemptions == 1
        with pytest.raises(AttributeError):
            s.preemptions = 0


class TestDisaggregatedRuntime:
    def config(self):
        from repro.llm.disaggregation import DisaggregatedConfig

        return DisaggregatedConfig(
            model="opt-13b",
            prefill_framework="fastertransformer",
            decode_framework="spinfer",
            batch_size=4,
            prompt_len=256,
            output_len=64,
        )

    def test_reproduces_closed_form(self):
        """For a single whole-batch run the event schedule must price
        exactly what the old closed-form three-term sum did."""
        from repro.llm.disaggregation import (
            _engine,
            kv_migration_seconds,
            simulate_disaggregated,
        )

        cfg = self.config()
        result = simulate_disaggregated(cfg)
        prefill_engine = _engine(cfg, cfg.prefill_framework, cfg.prefill_gpus)
        decode_engine = _engine(cfg, cfg.decode_framework, cfg.decode_gpus)
        assert result.prefill.total_s == pytest.approx(
            prefill_engine._prefill().total_s, rel=1e-9
        )
        assert result.kv_migration_s == pytest.approx(
            kv_migration_seconds(cfg), rel=1e-9
        )
        assert result.decode.total_s == pytest.approx(
            decode_engine._decode().total_s, rel=1e-9
        )

    def test_migration_events_and_kv_lifecycle(self):
        from repro.llm.disaggregation import build_disaggregated_runtime

        cfg = self.config()
        rt = build_disaggregated_runtime(cfg)
        stats = rt.run([
            SessionRequest(i, 0.0, cfg.prompt_len, cfg.output_len)
            for i in range(cfg.batch_size)
        ])
        assert stats.trace.count(EventKind.MIGRATE_START) == 1
        assert stats.trace.count(EventKind.MIGRATE_END) == 1
        assert len(stats.completed) == 4
        # Both pools drained completely, with consistent bookkeeping.
        for pool in (rt.prefill_pool, rt.decode_pool):
            assert lint_kv_allocator(pool.allocator) == []
            assert pool.allocator.used_blocks == 0

    def test_migration_ordering(self):
        """Decode cannot start before the KV lands: every decode step
        on the decode pool happens after MIGRATE_END."""
        from repro.llm.disaggregation import simulate_disaggregated

        trace = simulate_disaggregated(self.config()).stats.trace
        migrate_end = next(
            e.t for e in trace.events if e.kind == EventKind.MIGRATE_END
        )
        decode_steps = [
            e for e in trace.events
            if e.kind == EventKind.DECODE_STEP and e.pool == "decode"
        ]
        assert decode_steps
        assert all(e.t >= migrate_end for e in decode_steps)


class TestGPUPool:
    def pool(self, **kw):
        sim = make_sim(**kw)
        return sim.build_pool()

    def test_fits_at_all_boundary(self):
        pool = self.pool(kv_cap_tokens=512)
        assert pool.fits_at_all(512)
        assert not pool.fits_at_all(
            pool.allocator.total_blocks * pool.block_size + 1
        )

    def test_budget_sized_pool_not_oversubscribed(self):
        pool = self.pool()
        assert (
            pool.allocator.total_blocks * pool.block_size * pool.kv_per_token
            <= pool.kv_budget_bytes
        )

    def test_capped_pool_shrinks(self):
        assert (
            self.pool(kv_cap_tokens=512).allocator.total_blocks
            < self.pool().allocator.total_blocks
        )


class TestEventLoopTieBreak:
    def test_non_finite_time_rejected(self):
        loop = EventLoop()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-finite"):
                loop.schedule_at(bad, lambda: None)
        with pytest.raises(ValueError, match="non-finite"):
            loop.schedule_after(float("nan"), lambda: None)
        # Nothing leaked into the heap: the loop still drains instantly.
        loop.run()
        assert loop.dispatched == 0

    def test_unknown_tie_break_rejected(self):
        with pytest.raises(ValueError, match="tie_break"):
            EventLoop(tie_break="random")

    def test_lifo_reverses_same_time_order(self):
        loop = EventLoop(tie_break="lifo")
        fired = []
        for tag in ("a", "b", "c"):
            loop.schedule_at(1.0, lambda t=tag: fired.append(t))
        loop.run()
        assert fired == ["c", "b", "a"]

    def test_lifo_still_respects_time_order(self):
        loop = EventLoop(tie_break="lifo")
        fired = []
        loop.schedule_at(2.0, lambda: fired.append("late"))
        loop.schedule_at(1.0, lambda: fired.append("early"))
        loop.run()
        assert fired == ["early", "late"]

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_defer_runs_after_all_same_instant_events(self, tie_break):
        """The admission-kick idiom: a deferred callback lands behind
        every phase-0 event at the same instant, under EITHER tie-break
        — that is what makes the idiom dual-replay safe."""
        loop = EventLoop(tie_break=tie_break)
        fired = []

        def first():
            loop.defer(lambda: fired.append("deferred"))

        loop.schedule_at(1.0, first)
        loop.schedule_at(1.0, lambda: fired.append("second"))
        loop.run()
        assert fired == ["second", "deferred"]

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_defer_then_cancel_same_instant(self, tie_break):
        """A deferred callback cancelled before the instant's phase-1
        sweep never fires — under either tie-break."""
        loop = EventLoop(tie_break=tie_break)
        fired = []

        def arm_and_disarm():
            handle = loop.defer(lambda: fired.append("deferred"))
            assert loop.cancel(handle) is True

        loop.schedule_at(1.0, arm_and_disarm)
        loop.schedule_at(1.0, lambda: fired.append("peer"))
        loop.run()
        assert fired == ["peer"]
        assert loop.cancelled == 1
        assert loop.now == 1.0

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    def test_cancel_then_defer_same_instant(self, tie_break):
        """Cancelling a future event and deferring replacement work in
        the same instant: the deferred work still lands behind every
        phase-0 event of the instant, and the cancelled event leaves no
        trace — the deadline-rearm idiom of the fault router."""
        loop = EventLoop(tie_break=tie_break)
        fired = []
        deadline = loop.schedule_at(5.0, lambda: fired.append("deadline"))

        def rearm():
            assert loop.cancel(deadline) is True
            loop.defer(lambda: fired.append("deferred"))

        loop.schedule_at(1.0, rearm)
        loop.schedule_at(1.0, lambda: fired.append("peer"))
        loop.run()
        assert fired[-1] == "deferred"
        assert "deadline" not in fired
        assert loop.now == 1.0  # the cancelled 5.0 event left no mark

    def test_defer_cancel_same_instant_replays_identically(self):
        """The satellite contract: defer-then-cancel and cancel-then-
        defer at one instant produce the same observable run under both
        insertion tie-breaks (the H002 dual-replay property)."""

        def drive(tie_break):
            loop = EventLoop(tie_break=tie_break)
            phase0 = set()  # phase-0 peers may commute freely
            phase1 = []     # deferred order is the observable contract
            deadline = loop.schedule_at(9.0, lambda: phase1.append("late"))

            def cancel_then_defer():
                loop.cancel(deadline)
                loop.defer(lambda: phase1.append("rearmed"))

            def defer_then_cancel():
                handle = loop.defer(lambda: phase1.append("never"))
                loop.cancel(handle)

            loop.schedule_at(1.0, cancel_then_defer)
            loop.schedule_at(1.0, defer_then_cancel)
            loop.schedule_at(1.0, lambda: phase0.add("peer"))
            loop.run()
            return phase0, phase1, loop.now, loop.cancelled, loop.dispatched

        assert drive("fifo") == drive("lifo")
        assert drive("fifo") == ({"peer"}, ["rearmed"], 1.0, 2, 4)
