"""Schedulers: policies layered on the event loop and GPU pools.

:class:`ContinuousBatchingScheduler` is the Orca/vLLM-style iteration
scheduler: requests are admitted into a running batch under a live KV
budget (the pool's :class:`~repro.llm.kv_cache.KVBlockAllocator` is the
single source of truth — no token arithmetic on the side), prefill runs
either *blocking* (charged serially at admission, the legacy behaviour)
or *chunked* (interleaved with decode steps, killing head-of-line
blocking), and when the pool runs dry the scheduler preempts by
recompute exactly like vLLM: the victim's blocks are freed, the request
re-queues, and on re-admission it re-prefills ``prompt + generated``
tokens.

Admission safety comes in two modes:

* **reserve** (preemption off) — worst-case ``prompt + output`` blocks
  are committed at admission, so ``append_token`` can never fail; this
  is the legacy simulator's discipline, done in block units.
* **on-demand** (preemption on) — only the immediately needed blocks
  gate admission; the batch grows past the worst-case wall and
  preemption pays for the overcommit when it is actually hit.

:class:`DisaggregatedRuntime` composes two pools with KV-migration
events: prefill batches on pool A, the produced cache crosses the
inter-pool link as an explicit timed event, and decode continues on
pool B through a ``preloaded``-mode batching scheduler.
"""

from __future__ import annotations

import heapq
import math
import zlib
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..llm.inference import PhaseBreakdown
from ..llm.kv_cache import SequenceAllocation
from .core import EventLoop, GPUPool, det_hash01
from .events import EventKind
from .policies import AdmissionPolicy, get_policy
from .request import TokenEvent
from .trace import RuntimeTrace

__all__ = [
    "PREFILL_MODES",
    "SeqState",
    "RuntimeStats",
    "ContinuousBatchingScheduler",
    "DisaggregatedRuntime",
]

PREFILL_MODES = ("blocking", "chunked", "preloaded")


@dataclass(eq=False)
class SeqState:
    """One admitted sequence's runtime state.

    The request object carries the externally visible fields
    (``generated``, ``start_s``, ``first_token_s``, ``finish_s``); this
    wrapper tracks what the scheduler needs between iterations.
    """

    req: object
    seq_id: int
    prefill_target: int
    #: The allocator's block table for ``seq_id``, as ``allocate`` or
    #: ``fork`` returned it.  The scheduler reads it; only the
    #: allocator's methods write it.
    kv: SequenceAllocation
    prefill_done: int = 0
    reserved_blocks: int = 0
    admit_order: int = 0
    #: Prefix tokens materialised by a session-cache fork at admission
    #: (never re-prefilled; 0 for one-shot requests).
    cached: int = 0


def _traced(kind: str) -> property:
    """A count read from the trace, which records one ``kind`` event
    per increment."""
    return property(
        lambda self: self.trace.count(kind) if self.trace is not None else 0
    )


@dataclass
class RuntimeStats:
    """Aggregate outcome of one scheduler run.

    Every submitted request lands in exactly ONE terminal bucket:
    ``completed``, ``rejected`` (impossible at arrival — would never
    fit), ``shed`` (load-shedding under degraded capacity), ``failed``
    (recovery exhausted after faults), ``timed_out`` (deadline missed)
    or ``cancelled``, through :meth:`terminate`, the only writer.

    A count is a field only when no trace event records it one for one
    (``iterations``, ``retries``, ``faults``, the token and time sums);
    ``preemptions`` and the SDC counts are read from the trace.
    """

    #: Terminal trace event kind -> the bucket it files a request in,
    #: in report order.
    BUCKETS: ClassVar[Dict[str, str]] = {
        EventKind.FINISH: "completed",
        EventKind.REJECT: "rejected",
        EventKind.FAIL: "failed",
        EventKind.SHED: "shed",
        EventKind.TIMEOUT: "timed_out",
        EventKind.CANCEL: "cancelled",
    }

    completed: List = field(default_factory=list)
    rejected: List = field(default_factory=list)
    failed: List = field(default_factory=list)
    shed: List = field(default_factory=list)
    timed_out: List = field(default_factory=list)
    cancelled: List = field(default_factory=list)
    makespan_s: float = 0.0
    peak_batch: int = 0
    peak_concurrency: int = 0
    iterations: int = 0
    retries: int = 0
    faults: int = 0
    wasted_recompute_tokens: int = 0
    #: Modelled seconds of integrity verification (:mod:`repro.integrity`).
    verification_s: float = 0.0
    #: Prompt tokens actually prefilled vs. skipped via a shared
    #: session prefix — the pair the multi-turn bench compares.
    prefill_tokens: int = 0
    cached_prefill_tokens: int = 0
    prefill_s: float = 0.0
    decode_breakdown: PhaseBreakdown = field(default_factory=PhaseBreakdown)
    kv_budget_bytes: float = 0.0
    total_blocks: int = 0
    trace: Optional[RuntimeTrace] = None
    #: request id -> terminal kind, for refusing a second verdict.
    _verdicts: Dict[int, str] = field(default_factory=dict, init=False)

    preemptions = _traced(EventKind.PREEMPT)
    #: Silent corruptions injected, and caught by verification (a forked
    #: corrupted prefix can be caught more than once).
    sdc_injected = _traced(EventKind.CORRUPT)
    sdc_detected = _traced(EventKind.CORRUPT_DETECTED)
    quarantines = _traced(EventKind.QUARANTINE)

    def terminate(self, t: float, kind: str, req, pool: str, **info) -> None:
        """Record ``req``'s terminal ``kind`` event and file it in that
        kind's bucket; refuse a second verdict or a short FINISH."""
        rid = req.request_id
        if rid in self._verdicts:
            raise RuntimeError(
                f"request {rid} already has verdict {self._verdicts[rid]!r}"
            )
        if kind == EventKind.FINISH and (
            req.generated != req.output_len or req.finish_s is None
        ):
            raise RuntimeError(
                f"request {rid} finishing with {req.generated}/"
                f"{req.output_len} decode tokens, finish_s={req.finish_s}"
            )
        bucket = getattr(self, self.BUCKETS[kind])
        self.trace.record(t, kind, rid, pool, **info)
        bucket.append(req)
        self._verdicts[rid] = kind

    @property
    def corrupted_completed(self) -> int:
        """Corrupted requests that nevertheless completed (possible only
        with verification off)."""
        return sum(1 for r in self.completed if getattr(r, "corrupted", False))

    # ---- SLO metrics ----------------------------------------------------------------

    @property
    def offered(self) -> int:
        """Requests the service accepted responsibility for: everything
        terminal except arrival-time rejections (those could never fit
        and are a sizing error, not a service failure)."""
        return (
            len(self.completed)
            + len(self.failed)
            + len(self.shed)
            + len(self.timed_out)
            + len(self.cancelled)
        )

    @property
    def goodput_tokens_per_s(self) -> float:
        """Output tokens of COMPLETED requests per second of makespan —
        work burned on requests that later failed or timed out does not
        count (that is the whole point of the metric under faults)."""
        if self.makespan_s <= 0:
            return 0.0
        tokens = sum(r.output_len for r in self.completed)
        return tokens / self.makespan_s

    @property
    def availability(self) -> float:
        """Fraction of offered requests that completed."""
        return len(self.completed) / self.offered if self.offered else 1.0

    @property
    def retries_per_request(self) -> float:
        return self.retries / self.offered if self.offered else 0.0

    # ---- latency of completed requests ----------------------------------------------

    def _ttfts(self) -> List[float]:
        return [r.ttft_s for r in self.completed if r.ttft_s is not None]

    @staticmethod
    def _nearest_rank(values: List[float], pct: float) -> float:
        """The ``ceil(pct/100 * n)``-th smallest value, so p50 of a small
        sample is a real sample rather than an interpolation."""
        if not values:
            raise ValueError("no completed requests")
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        ordered = sorted(values)
        rank = math.ceil(pct / 100.0 * len(ordered))
        return ordered[max(0, rank - 1)]

    def latency_percentile(self, pct: float) -> float:
        return self._nearest_rank([r.latency_s for r in self.completed], pct)

    def ttft_percentile(self, pct: float) -> float:
        return self._nearest_rank(self._ttfts(), pct)

    @property
    def mean_latency_s(self) -> float:
        lats = [r.latency_s for r in self.completed]
        return sum(lats) / len(lats) if lats else 0.0

    @property
    def mean_ttft_s(self) -> float:
        ttfts = self._ttfts()
        return sum(ttfts) / len(ttfts) if ttfts else 0.0


class ContinuousBatchingScheduler:
    """Iteration-level continuous batching over one :class:`GPUPool`."""

    def __init__(
        self,
        pool: GPUPool,
        policy: str = "fcfs",
        prefill_mode: str = "blocking",
        chunk_tokens: int = 128,
        preemption: bool = False,
    ) -> None:
        if prefill_mode not in PREFILL_MODES:
            raise ValueError(
                f"unknown prefill mode {prefill_mode!r}; "
                f"use one of {PREFILL_MODES}"
            )
        if chunk_tokens <= 0:
            raise ValueError("chunk_tokens must be positive")
        self.pool = pool
        self.prefill_mode = prefill_mode
        self.chunk_tokens = chunk_tokens
        self.preemption = preemption
        #: Set by :class:`~repro.runtime.faults.FaultTolerantRuntime`
        #: when this scheduler is one replica behind a router.  The
        #: router owns deadlines and crash rerouting, and its recovery
        #: policy's ``shed_queue_depth`` bounds this queue; a scheduler
        #: without one never sheds and never crashes (the fault injector
        #: only targets routers and the disaggregated runtime).
        self.router = None
        #: Optional :class:`~repro.runtime.request.TokenStream`: every
        #: decode token is pushed as a :class:`TokenEvent` and flushed
        #: end-of-instant via ``loop.defer``.  None = no streaming and
        #: a bit-identical event schedule.
        self.stream = None
        #: Optional session prefix hook: ``prefix_source(req)`` returns
        #: ``(parent_seq_id, cached_tokens)`` when a shared prefix for
        #: the request lives in this pool's allocator, else None.  At
        #: admission the scheduler forks it copy-on-write instead of
        #: re-prefilling those tokens.
        self.prefix_source = None
        #: Optional retention hook called as ``retain_kv(seq_id, req)``
        #: just before a finished request's blocks are freed — the
        #: session manager forks the sequence into a session-owned
        #: prefix there, so the blocks survive under refcount.
        self.retain_kv = None
        #: Optional :class:`repro.integrity.policy.IntegrityPolicy` (duck-
        #: typed — the runtime layer never imports the integrity
        #: package).  None ⇒ no tagging, no verification, no modelled
        #: check cost: bit-identical to the pre-integrity scheduler.
        self.integrity = None
        #: Silent-fault state (set by the injector's SDC adapters).
        self._weights_corrupted = False
        self._sdc_frac = 0.0
        self._sdc_draws = 0
        self._iter_corrupt = False
        self._pool_salt = zlib.crc32(pool.name.encode()) & 0x7FFFFFFF
        self.failed = False
        self._policy: AdmissionPolicy = get_policy(policy)
        #: Admitted sequences by seq id, in admission order.
        self._running: Dict[int, SeqState] = {}
        self._committed_blocks = 0  # reserve-mode worst-case accounting
        self._busy = False
        self._admit_counter = 0
        self._pending_transients = 0
        self._iter_handle: Optional[int] = None
        self._iter_cost = 0.0
        self._loop: Optional[EventLoop] = None
        self.trace = RuntimeTrace()
        self.stats = RuntimeStats(
            kv_budget_bytes=pool.kv_budget_bytes,
            total_blocks=pool.allocator.total_blocks,
            trace=self.trace,
        )

    # ---- wiring ----------------------------------------------------------------------

    def attach(
        self,
        loop: EventLoop,
        trace: Optional[RuntimeTrace] = None,
        stats: Optional[RuntimeStats] = None,
    ) -> "ContinuousBatchingScheduler":
        """Bind to an external loop (multi-pool compositions share one
        loop, one trace and — for fleet-level SLO metrics — one stats
        object)."""
        self._loop = loop
        if trace is not None:
            self.trace = trace
            self.stats.trace = trace
        if stats is not None:
            self.stats = stats
        return self

    def run(
        self, requests: Sequence, loop: Optional[EventLoop] = None
    ) -> RuntimeStats:
        """Simulate a whole trace on a private loop (or a supplied one —
        the H002 dual replay hands in a loop with a reversed tie-break)."""
        if not requests:
            raise ValueError("empty workload")
        if loop is None:
            loop = EventLoop()
        self.attach(loop)
        for req in sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        ):
            loop.schedule_at(req.arrival_s, self._make_arrival(req))
        loop.run()
        return self.finalize()

    def _make_arrival(self, req) -> Callable[[], None]:
        return lambda: self.submit(req)

    def finalize(self) -> RuntimeStats:
        if self._running or self._policy:
            raise RuntimeError(
                f"finalize with {len(self._running)} running and "
                f"{len(self._policy)} queued sequences — the loop did "
                "not drain"
            )
        self.stats.makespan_s = self._loop.now if self._loop else 0.0
        return self.stats

    # ---- arrivals --------------------------------------------------------------------

    def submit(self, req) -> None:
        """A request reaches this pool now (arrival, KV hand-off, or a
        post-fault resubmission)."""
        now = self._loop.now
        if not self.pool.alive:
            # A resubmission raced a crash (the naive same-pool retry
            # discipline does exactly this): the router counts it as
            # another failure attempt.
            self.router.on_pool_failure(req, self)
            return
        total_tokens = req.total_tokens
        self.trace.record(
            now, EventKind.ARRIVE, req.request_id, self.pool.name,
            prompt=req.prompt_len, output=req.output_len,
        )
        if not self.pool.fits_at_all(total_tokens):
            # The legacy simulator parked such requests forever (the
            # admission loop never advanced the clock).  Reject loudly.
            self.stats.terminate(
                now, EventKind.REJECT, req, self.pool.name,
                reason=(
                    f"needs {self.pool.blocks_for(total_tokens)} KV blocks "
                    f"for {total_tokens} tokens; the pool has "
                    f"{self.pool.allocator.total_blocks}"
                ),
            )
            self._resolve(req)
            return
        if (
            self.router is not None
            and len(self._policy) >= self.router.recovery.shed_queue_depth
        ):
            # Load shedding: reject-with-reason at admission instead of
            # letting a degraded fleet's queue collapse into timeouts.
            self.stats.terminate(
                now, EventKind.SHED, req, self.pool.name,
                reason=(
                    f"queue depth {len(self._policy)} at limit "
                    f"{self.router.recovery.shed_queue_depth}"
                ),
            )
            self._resolve(req)
            return
        self._policy.push(req)
        # Defer behind every other event queued at this instant so
        # simultaneous submissions (a burst, a migrated batch) are all
        # visible to the same admission pass — the legacy loop admitted
        # everything arrived at-or-before `now` in one iteration.  The
        # phase-1 guarantee (not insertion order) is what makes this
        # commute under the H002 dual replay.
        self._loop.defer(self._kick)

    # ---- the iteration engine --------------------------------------------------------

    def _kick(self) -> None:
        if self._busy or self._loop is None:
            return
        now = self._loop.now
        if self._running or self._policy.peek_ready(now) is not None:
            self._start_iteration()

    def _prefix_hit(self, req):
        """``(parent_seq_id, cached_tokens)`` when the session manager
        has a live prefix for ``req`` in this pool, else None."""
        if self.prefix_source is None:
            return None
        hit = self.prefix_source(req)
        if hit is None:
            return None
        parent, cached = hit
        return parent, min(cached, req.prefill_target)

    def _admissible(self, req) -> bool:
        worst_case = self.pool.blocks_for(req.total_tokens)
        if not self.preemption:
            return (
                self._committed_blocks + worst_case
                <= self.pool.allocator.total_blocks
            )
        target = req.prefill_target
        initial = (
            min(self.chunk_tokens, target)
            if self.prefill_mode == "chunked"
            else target
        )
        hit = self._prefix_hit(req)
        if hit is not None:
            # A prefix fork materialises `cached` tokens for free; only
            # the remainder needs fresh blocks at admission.
            initial = max(0, initial - hit[1])
        return self.pool.allocator.can_allocate(initial)

    def _admit(self, req, t: float) -> Tuple[SeqState, float]:
        """Allocate and (in blocking mode) charge the prefill; returns
        the new sequence and the seconds of prefill charged."""
        alloc = self.pool.allocator
        seq_id = req.request_id
        target = req.prefill_target
        hit = self._prefix_hit(req)
        cached = 0
        cost = 0.0
        if hit is not None:
            # Session prefix reuse: share the prefix blocks copy-on-
            # write instead of re-prefilling them.  The fork starts with
            # the prefix's tokens resident; writes past (or into) a
            # shared tail block pay the COW copy inside append_token.
            parent, cached = hit
            kv = alloc.fork(parent, seq_id)
            done = cached
            self.stats.cached_prefill_tokens += cached
            if self.prefill_mode != "chunked":
                alloc.append_token(seq_id, target - cached)
                done = target
                if self.prefill_mode == "blocking":
                    cost = self.pool.prefill_tokens_seconds(target - cached)
                    self.stats.prefill_s += cost
                self.stats.prefill_tokens += target - cached
        elif self.prefill_mode == "chunked":
            kv = alloc.allocate(seq_id, 0)
            done = 0
        else:
            kv = alloc.allocate(seq_id, target)
            done = target
            if self.prefill_mode == "blocking":
                cost = self.pool.prefill_tokens_seconds(target)
                self.stats.prefill_s += cost
            if self.prefill_mode != "preloaded":
                self.stats.prefill_tokens += target
        seq = SeqState(
            req=req,
            seq_id=seq_id,
            prefill_target=target,
            kv=kv,
            prefill_done=done,
            admit_order=self._admit_counter,
            cached=cached,
        )
        self._admit_counter += 1
        if not self.preemption:
            seq.reserved_blocks = self.pool.blocks_for(req.total_tokens)
            self._committed_blocks += seq.reserved_blocks
        if req.start_s is None:
            req.start_s = t
        self._running[seq.seq_id] = seq
        info = dict(
            prefill_target=target, prefill_s=cost,
            queue_s=t - req.arrival_s,
        )
        if cached:
            info["cached"] = cached
        self.trace.record(
            self._loop.now, EventKind.ADMIT, seq.seq_id, self.pool.name,
            **info,
        )
        return seq, cost

    def _victim(self, exclude: Optional[SeqState] = None) -> Optional[SeqState]:
        """Lowest-priority running sequence (vLLM's preemption order)."""
        candidates = [s for s in self._running.values() if s is not exclude]
        if not candidates:
            return None
        return max(
            candidates,
            key=lambda s: (self._policy._key(s.req), s.admit_order),
        )

    def _preempt(self, seq: SeqState) -> int:
        freed = self.pool.allocator.free(seq.seq_id)
        del self._running[seq.seq_id]
        self._committed_blocks -= seq.reserved_blocks
        self.trace.record(
            self._loop.now, EventKind.PREEMPT, seq.seq_id, self.pool.name,
            freed_blocks=freed, generated=seq.req.generated,
        )
        # Recompute discipline: the request re-queues and, when
        # re-admitted, prefills prompt + already-generated tokens.
        self._policy.push(seq.req)
        return freed

    def _tail_slack(self, seq: SeqState) -> int:
        """Token slots left in the sequence's allocated blocks."""
        return len(seq.kv.block_ids) * self.pool.block_size - seq.kv.tokens

    def _fit_prefill_tokens(self, seq: SeqState, want: int) -> int:
        """How many prefill tokens fit right now, preempting if allowed."""
        alloc = self.pool.allocator
        slack = self._tail_slack(seq)
        free = alloc.free_blocks
        if slack and alloc.next_token_blocks([seq.seq_id]):
            free -= 1  # the first append copies the shared tail block
        capacity = free * self.pool.block_size + slack
        while capacity < want and self.preemption:
            victim = self._victim(exclude=seq)
            if victim is None:
                break
            capacity += self._preempt(victim) * self.pool.block_size
        return min(want, capacity)

    def _ensure_decode_capacity(
        self, decoders: List[SeqState]
    ) -> List[SeqState]:
        """Guarantee one-token appends for the decode batch, shedding
        the lowest-priority sequences when the pool is dry.  One token
        takes at most one block per sequence (a fresh tail or a
        copy-on-write copy), so a pool with a free block per decoder
        needs no scan."""
        alloc = self.pool.allocator
        while alloc.free_blocks < len(decoders):
            needed = alloc.next_token_blocks(s.seq_id for s in decoders)
            if alloc.free_blocks >= needed:
                break
            if not self.preemption:
                raise MemoryError(
                    f"KV pool dry: {needed} blocks needed, "
                    f"{alloc.free_blocks} free, preemption disabled — "
                    "reserve-mode admission should have prevented this"
                )
            victim = self._victim()
            if victim is None or len(self._running) <= 1:
                raise MemoryError(
                    "KV pool dry with a single running sequence — the "
                    "pool cannot hold even one worst-case request"
                )
            self._preempt(victim)
            decoders = [s for s in decoders if s.seq_id in self._running]
        return decoders

    def _start_iteration(self) -> None:
        loop = self._loop
        t0 = loop.now
        t = t0  # modelled start: advances past blocking prefills
        alloc = self.pool.allocator

        # Admission: fill the batch while slots and KV admit.  Each
        # blocking prefill delays the modelled start (``start_s`` and the
        # ADMIT record's ``queue_s``) of the admissions after it, but
        # every trace event is stamped at ``t0``, the decision time.
        # ``submit`` runs at a request's arrival, so a request arriving
        # during these prefills is not queued yet and waits for the next
        # iteration.
        while len(self._running) < self.pool.max_batch:
            head = self._policy.peek_ready(t)
            if head is None or not self._admissible(head):
                break  # head-of-line: later arrivals do not jump the KV wall
            self._policy.pop_ready(t)
            _, cost = self._admit(head, t)
            t += cost
        prefill_time = t - t0

        # Chunked prefill: spend the chunk budget on prefilling
        # sequences in admission order, interleaved with decode below.
        chunk_done = 0
        if self.prefill_mode == "chunked":
            budget = self.chunk_tokens
            for seq in list(self._running.values()):
                if budget <= 0:
                    break
                if seq.seq_id not in self._running:
                    continue  # preempted while an earlier chunk made room
                remaining = seq.prefill_target - seq.prefill_done
                if remaining <= 0:
                    continue
                take = self._fit_prefill_tokens(seq, min(budget, remaining))
                if take <= 0:
                    continue
                alloc.append_token(seq.seq_id, take)
                seq.prefill_done += take
                budget -= take
                chunk_done += take
                self.trace.record(
                    t0, EventKind.PREFILL_CHUNK, seq.seq_id, self.pool.name,
                    tokens=take,
                    remaining=seq.prefill_target - seq.prefill_done,
                )
        chunk_time = (
            self.pool.prefill_tokens_seconds(chunk_done) if chunk_done else 0.0
        )
        if chunk_done:
            self.stats.prefill_s += chunk_time
            self.stats.prefill_tokens += chunk_done

        # Decode step for every sequence past its prefill target.
        decoders = [
            s for s in self._running.values()
            if s.prefill_done >= s.prefill_target
        ]
        decode_time = 0.0
        if decoders:
            decoders = self._ensure_decode_capacity(decoders)
        self._iter_corrupt = self._draw_sdc() if decoders else False
        if decoders:
            # The step reads each cache's length before its token lands.
            context = 0
            for seq in decoders:
                context += seq.kv.tokens
                alloc.append_token(seq.seq_id)
            avg_context = context / len(decoders)
            step = self.pool.decode_step(len(decoders), avg_context)
            decode_time = step.total_s
            check_s = self._verification_cost(decode_time)
            if check_s:
                decode_time += check_s
                self.stats.verification_s += check_s
            self.stats.decode_breakdown.add(step)
            self.trace.record(
                t0, EventKind.DECODE_STEP, None, self.pool.name,
                batch=len(decoders), avg_context=avg_context,
                step_s=decode_time,
            )

        total = prefill_time + chunk_time + decode_time
        if not self._running:
            return  # admission blocked on KV with an empty batch cannot
            # happen (arrival screening guarantees a lone head fits), so
            # this only means: nothing ready yet — wait for arrivals.
        if total <= 0.0:
            raise RuntimeError(
                f"iteration at t={t0:.4f}s made no progress with "
                f"{len(self._running)} running sequence(s) — the KV pool "
                "is too small for the admitted work"
            )

        self.stats.iterations += 1
        self.stats.peak_batch = max(self.stats.peak_batch, len(decoders))
        self.stats.peak_concurrency = max(
            self.stats.peak_concurrency, len(self._running)
        )
        self._busy = True
        self._iter_cost = total
        self._iter_handle = loop.schedule_at(
            t0 + total, lambda: self._finish_iteration(decoders)
        )

    def _finish_iteration(self, decoders: List[SeqState]) -> None:
        loop = self._loop
        now = loop.now
        alloc = self.pool.allocator
        self._iter_handle = None
        if self._pending_transients:
            # A transient kernel/ECC error landed during this iteration
            # and destroyed its output: recharge the full iteration time
            # and redo it.  The KV appends already happened, so the
            # rerun recomputes the same tokens without re-appending — no
            # duplication, just wasted work (which we count).
            self._pending_transients -= 1
            live = sum(1 for s in decoders if s.seq_id in self._running)
            self.stats.wasted_recompute_tokens += live
            self.trace.record(
                now, EventKind.RETRY, None, self.pool.name,
                scope="iteration", lost_s=self._iter_cost, batch=live,
            )
            self._iter_handle = loop.schedule_after(
                self._iter_cost, lambda: self._finish_iteration(decoders)
            )
            return
        iter_corrupt = self._iter_corrupt
        self._iter_corrupt = False
        if (iter_corrupt or self._weights_corrupted) and any(
            s.seq_id in self._running for s in decoders
        ):
            if self._handle_corrupt_iteration(
                decoders, iter_corrupt, self._weights_corrupted
            ):
                return  # detected: the iteration reruns (or the pool
                # was quarantined and the router took the victims)
        pol = self.integrity
        if pol is not None and pol.verify_kv:
            if not self._verify_kv_tags(decoders):
                return  # quarantined mid-scan
        for seq in decoders:
            if seq.seq_id not in self._running:
                continue  # evicted mid-iteration (timeout/cancel/crash)
            req = seq.req
            req.generated += 1
            if req.first_token_s is None:
                req.first_token_s = now
                self.trace.record(
                    now, EventKind.FIRST_TOKEN, seq.seq_id, self.pool.name,
                    ttft_s=now - req.arrival_s,
                )
            if self.stream is not None:
                self.stream.push(loop, TokenEvent(
                    t=now,
                    request_id=req.request_id,
                    index=req.generated - 1,
                    pool=self.pool.name,
                    session_id=getattr(req, "session_id", None),
                    final=req.generated >= req.output_len,
                ))
            if req.generated >= req.output_len:
                if seq.kv.payload_version:
                    # Completed on garbled KV that verification never
                    # looked at — the silently-served-corruption case.
                    req.corrupted = True
                if self.retain_kv is not None:
                    self.retain_kv(seq.seq_id, req)
                alloc.free(seq.seq_id)
                self._committed_blocks -= seq.reserved_blocks
                del self._running[seq.seq_id]
                req.finish_s = now
                self.stats.terminate(
                    now, EventKind.FINISH, req, self.pool.name,
                    latency_s=now - req.arrival_s,
                )
                self._resolve(req)
        self._busy = False
        self._kick()

    # ---- faults and recovery ---------------------------------------------------------
    #
    # The router (FaultTolerantRuntime) drives everything below: its
    # deadlines evict, its injector crashes pools and raises transient
    # errors, and a crash hands every victim back to it.  With no faults
    # armed none of this runs, and the event schedule is bit-identical
    # to the pre-fault runtime.

    def evict(self, req, kind: str, reason: str) -> bool:
        """Terminally remove a live request (running or waiting) with
        verdict ``kind``; returns False when the request is not here
        (e.g. it sits in a router's backoff window)."""
        now = self._loop.now
        seq = self._running.pop(req.request_id, None)
        if seq is not None:
            # Tokens materialised in KV are discarded — wasted work.
            tokens = seq.kv.tokens
            self.pool.allocator.free(seq.seq_id)
            self._committed_blocks -= seq.reserved_blocks
            self.stats.wasted_recompute_tokens += tokens
        elif self._policy.remove(req.request_id) is None:
            return False
        self.stats.terminate(now, kind, req, self.pool.name, reason=reason)
        self._resolve(req)
        return True

    def cancel_request(self, request_id: int) -> bool:
        """Client abort / injected cancellation of a live request."""
        seq = self._running.get(request_id)
        if seq is not None:
            return self.evict(
                seq.req, EventKind.CANCEL, reason="client cancelled"
            )
        removed = self._policy.remove(request_id)
        if removed is None:
            return False
        self.stats.terminate(
            self._loop.now, EventKind.CANCEL, removed, self.pool.name,
            reason="client cancelled",
        )
        self._resolve(removed)
        return True

    def transient_error(self) -> None:
        """A recoverable kernel/ECC error: the in-flight iteration's
        output is lost and the iteration reruns; an idle pool shrugs."""
        self.stats.faults += 1
        if self._busy:
            self._pending_transients += 1
            effect = "rerun_iteration"
        else:
            effect = "noop_idle"
        self.trace.record(
            self._loop.now, EventKind.FAULT, None, self.pool.name,
            fault="transient", effect=effect,
        )

    # ---- silent data corruption --------------------------------------------------------
    #
    # Unlike every fault above, nothing below raises an error signal:
    # outputs are plausible-but-wrong.  With ``integrity`` unset the
    # scheduler serves them (ground truth lands in ``req.corrupted`` /
    # ``stats.corrupted_completed``); with verification on, each is
    # caught at a modelled cost and the work redone.

    def _draw_sdc(self) -> bool:
        """Per-iteration corruption draw while an SDC window is open: a
        pure hash keyed on a monotone draw counter and the pool name —
        never a shared RNG, so the verdict one iteration sees cannot
        depend on what any other pool did (replay determinism)."""
        if self._sdc_frac <= 0.0:
            return False
        self._sdc_draws += 1
        return det_hash01(self._sdc_draws, self._pool_salt) < self._sdc_frac

    def _verification_cost(self, step_s: float) -> float:
        """Modelled per-iteration verification seconds: the ABFT
        checksum over the decode SpMMs plus the KV content-tag scan,
        each a fraction of the step it protects."""
        pol = self.integrity
        if pol is None:
            return 0.0
        frac = 0.0
        if pol.verify_kernels:
            frac += pol.kernel_check_cost_frac
        if pol.verify_kv:
            frac += pol.kv_check_cost_frac
        return step_s * frac

    def _handle_corrupt_iteration(
        self, decoders: List[SeqState],
        iter_corrupt: bool, weights_corrupt: bool,
    ) -> bool:
        """A silent fault garbled this iteration's decode outputs.
        Returns True when verification caught it (the caller must not
        grant the tokens: the iteration reruns, or the pool was
        quarantined out from under us)."""
        loop = self._loop
        now = loop.now
        live = [s for s in decoders if s.seq_id in self._running]
        pol = self.integrity
        if iter_corrupt:
            # One injected corruption event per corrupted iteration;
            # weight flips were counted once at flip time.
            self.trace.record(
                now, EventKind.CORRUPT, None, self.pool.name,
                source="sdc_iteration", batch=len(live),
            )
        detected = pol is not None and (
            (iter_corrupt and pol.verify_kernels)
            or (weights_corrupt and pol.verify_weights)
        )
        if not detected:
            # Silent: the wrong tokens are served as if correct.
            for seq in live:
                seq.req.corrupted = True
            return False
        # ABFT checksum / weight-digest mismatch: discard the output
        # and redo the iteration (reloading the weights first when they
        # are the cause).  While an SDC window is open the rerun draws
        # its own corruption verdict — a flaky replica stays flaky.
        source = "weights" if weights_corrupt else "kernel"
        reload_s = 0.0
        if weights_corrupt:
            self._weights_corrupted = False
            reload_s = pol.weight_reload_s
        self.stats.wasted_recompute_tokens += len(live)
        self.stats.verification_s += reload_s
        self.trace.record(
            now, EventKind.CORRUPT_DETECTED, None, self.pool.name,
            source=source, batch=len(live), reload_s=reload_s,
        )
        if self.router is not None:
            self.router.on_corruption_detected(self)
            if self.failed:
                return True  # quarantined: fail_pool rerouted the batch
        self._iter_corrupt = self._draw_sdc()
        self._iter_handle = loop.schedule_after(
            self._iter_cost + reload_s,
            lambda: self._finish_iteration(decoders),
        )
        return True

    def _verify_kv_tags(self, decoders: List[SeqState]) -> bool:
        """Content-tag check over every sequence this step read.  A
        mismatch means the KV was garbled in place: drop the poisoned
        cache and recompute from the prompt (preemption's recompute
        discipline) instead of serving wrong context.  Returns False
        when a detection quarantined the pool mid-scan."""
        now = self._loop.now
        for seq in decoders:
            if seq.seq_id not in self._running:
                continue
            if seq.kv.payload_version == 0:
                continue
            self.trace.record(
                now, EventKind.CORRUPT_DETECTED, seq.seq_id,
                self.pool.name, source="kv_tag", tokens=seq.kv.tokens,
            )
            self._preempt(seq)
            if self.router is not None:
                self.router.on_corruption_detected(self)
                if self.failed:
                    return False
        return True

    def corrupt_weights(self) -> None:
        """A bit flips in the pool's resident encoded weights: every
        decode from now on is silently wrong, until the per-tile digest
        check (``verify_weights``) catches the mismatch and reloads the
        weights at ``weight_reload_s`` cost."""
        if not self.pool.alive:
            return
        self.stats.faults += 1
        self._weights_corrupted = True
        self.trace.record(
            self._loop.now, EventKind.CORRUPT, None, self.pool.name,
            source="weight_bit_flip",
        )

    def corrupt_resident_kv(self) -> None:
        """Garble the lowest live sequence's KV in place (its content
        tag no longer matches); a no-op when nothing is resident."""
        if not self.pool.alive or not self._running:
            return
        victim = self._running[min(self._running)]
        self.pool.allocator.corrupt_sequence(victim.seq_id)
        self.stats.faults += 1
        self.trace.record(
            self._loop.now, EventKind.CORRUPT, victim.seq_id,
            self.pool.name, source="kv_corruption",
        )

    def begin_sdc_window(self, frac: float, duration_s: float) -> None:
        """The replica goes flaky: each decode iteration is corrupted
        with probability ``frac`` until :meth:`end_sdc_window`."""
        self.stats.faults += 1
        self._sdc_frac = frac
        self.trace.record(
            self._loop.now, EventKind.FAULT, None, self.pool.name,
            fault="sdc_replica", frac=frac, duration_s=duration_s,
        )

    def end_sdc_window(self) -> None:
        if self._sdc_frac == 0.0:
            return
        self._sdc_frac = 0.0
        if not self.pool.alive:
            return
        self.trace.record(
            self._loop.now, EventKind.RECOVER, None, self.pool.name,
        )

    def fail_pool(self, reason: str = "gpu_crash") -> None:
        """The pool's GPUs crash: all resident KV is lost, the in-flight
        iteration never completes, and every live request goes back to
        the router for retry/reroute with recompute-from-prompt."""
        if self.failed:
            return
        now = self._loop.now
        self.failed = True
        self.pool.fail()
        self.stats.faults += 1
        self.trace.record(
            now, EventKind.FAULT, None, self.pool.name,
            fault="gpu_crash", reason=reason,
        )
        if self._iter_handle is not None:
            self._loop.cancel(self._iter_handle)
            self._iter_handle = None
        self._busy = False
        self._pending_transients = 0
        # A crash wipes the silent-fault state with everything else —
        # a healed replica comes back with fresh weights and no KV.
        self._iter_corrupt = False
        self._weights_corrupted = False
        self._sdc_frac = 0.0
        victims = [s.req for s in self._running.values()]
        for seq in self._running.values():
            self.stats.wasted_recompute_tokens += seq.kv.tokens
        self.pool.allocator.free_all()
        self._running.clear()
        self._committed_blocks = 0
        while True:
            queued = self._policy.pop_ready(now)
            if queued is None:
                break
            victims.append(queued)
        for req in victims:
            self.router.on_pool_failure(req, self)

    def _resolve(self, req) -> None:
        """Terminal bookkeeping shared by every exit path: tell the
        router (if any) the request is done."""
        if self.router is not None:
            self.router.on_terminal(req)


class DisaggregatedRuntime:
    """Two pools, one clock: prefill on A, migrate KV, decode on B.

    The prefill pool batches arrived requests FCFS and runs whole-batch
    prefills; each finished batch triggers a timed KV-migration event
    sized by ``migration_seconds(tokens)``; on migration completion the
    requests join the decode pool's scheduler in ``preloaded`` mode
    (their KV materialises at admission with no recompute cost).
    """

    def __init__(
        self,
        prefill_pool: GPUPool,
        decode_pool: GPUPool,
        migration_seconds: Callable[[int], float],
        recovery=None,
        loop: Optional[EventLoop] = None,
        integrity=None,
    ) -> None:
        self.prefill_pool = prefill_pool
        self.decode_pool = decode_pool
        self.migration_seconds = migration_seconds
        self.recovery = recovery
        #: Optional integrity policy (duck-typed); with ``verify_kv``
        #: on, every migration is tag-checked on receive.
        self.integrity = integrity
        self.loop = loop if loop is not None else EventLoop()
        self.trace = RuntimeTrace()
        self.decode_sched = ContinuousBatchingScheduler(
            decode_pool, prefill_mode="preloaded"
        ).attach(self.loop, self.trace)
        self.decode_sched.integrity = integrity
        self.prefill_breakdown = PhaseBreakdown()
        self.kv_migration_s = 0.0
        self._arrived: List[Tuple[float, int, object]] = []
        self._prefill_busy = False
        self._migrations = 0
        self._migration_faults = 0
        self._kv_corruptions = 0

    # ---- prefill pool ----------------------------------------------------------------

    def _on_arrival(self, req) -> None:
        now = self.loop.now
        self.trace.record(
            now, EventKind.ARRIVE, req.request_id, self.prefill_pool.name,
            prompt=req.prompt_len, output=req.output_len,
        )
        heapq.heappush(self._arrived, (req.arrival_s, req.request_id, req))
        # Defer the kick behind every other event queued at this instant
        # so simultaneous arrivals prefill as ONE batch (the closed-form
        # behaviour), not as a 1-request batch plus a remainder.
        self.loop.defer(self._kick_prefill)

    def _kick_prefill(self) -> None:
        if self._prefill_busy or not self._arrived:
            return
        now = self.loop.now
        batch = []
        while self._arrived and len(batch) < self.prefill_pool.max_batch:
            batch.append(heapq.heappop(self._arrived)[2])
        for req in batch:
            self.prefill_pool.allocator.allocate(
                req.request_id, req.prompt_len
            )
            if req.start_s is None:
                req.start_s = now
        mean_prompt = round(
            sum(r.prompt_len for r in batch) / len(batch)
        )
        phase = self.prefill_pool.prefill_breakdown(len(batch), mean_prompt)
        self.prefill_breakdown.add(phase)
        self.trace.record(
            now, EventKind.ADMIT, None, self.prefill_pool.name,
            batch=len(batch), prefill_s=phase.total_s,
        )
        self._prefill_busy = True
        self.loop.schedule_after(
            phase.total_s, lambda: self._finish_prefill(batch)
        )

    def _finish_prefill(self, batch: List) -> None:
        now = self.loop.now
        tokens = sum(r.prompt_len for r in batch)
        duration = self.migration_seconds(tokens)
        self.kv_migration_s += duration
        self.trace.record(
            now, EventKind.MIGRATE_START, None, self.prefill_pool.name,
            tokens=tokens, migration_s=duration, batch=len(batch),
        )
        # The compute pool frees up immediately; the batch's blocks stay
        # pinned until the transfer lands on the decode side.
        self._prefill_busy = False
        self.loop.schedule_after(
            duration, lambda: self._finish_migration(batch)
        )
        self._kick_prefill()

    def migration_fault(self) -> None:
        """Arm one migration failure: the next migration completion is
        lost in flight and must be retried (recovery permitting) or the
        batch fails terminally."""
        self._migration_faults += 1
        self.decode_sched.stats.faults += 1
        self.trace.record(
            self.loop.now, EventKind.FAULT, None, self.decode_pool.name,
            fault="migration",
        )

    def kv_corruption(self) -> None:
        """Arm one in-flight corruption: the next migration completion
        arrives garbled.  Unlike :meth:`migration_fault` nothing is
        LOST — unverified, the poisoned cache silently becomes the
        whole batch's decode context."""
        self._kv_corruptions += 1
        self.decode_sched.stats.faults += 1
        self.trace.record(
            self.loop.now, EventKind.FAULT, None, self.decode_pool.name,
            fault="kv_corruption",
        )

    def _finish_migration(self, batch: List, attempt: int = 1) -> None:
        now = self.loop.now
        stats = self.decode_sched.stats
        if self._migration_faults > 0:
            self._migration_faults -= 1
            self.trace.record(
                now, EventKind.MIGRATE_FAIL, None, self.decode_pool.name,
                batch=len(batch), attempt=attempt,
            )
            tokens = sum(r.prompt_len for r in batch)
            retryable = (
                self.recovery is not None
                and self.recovery.mode != "fail_fast"
                and attempt <= self.recovery.max_retries
            )
            if retryable:
                # Re-send the same cache across the link after backoff;
                # the prefill-side blocks stay pinned for the resend.
                stats.retries += 1
                resend = self.migration_seconds(tokens)
                delay = resend + self.recovery.backoff_s(
                    attempt, batch[0].request_id
                )
                self.kv_migration_s += resend
                self.trace.record(
                    now, EventKind.RETRY, None, self.decode_pool.name,
                    scope="migration", attempt=attempt, delay_s=delay,
                )
                self.loop.schedule_after(
                    delay, lambda: self._finish_migration(batch, attempt + 1)
                )
                return
            # Terminal: the prefilled cache is gone — count it wasted.
            stats.wasted_recompute_tokens += tokens
            for req in batch:
                self.prefill_pool.allocator.free(req.request_id)
                stats.terminate(
                    now, EventKind.FAIL, req, self.decode_pool.name,
                    reason="kv migration lost",
                )
            return
        if self._kv_corruptions > 0:
            self._kv_corruptions -= 1
            self.trace.record(
                now, EventKind.CORRUPT, None, self.decode_pool.name,
                source="kv_migration", batch=len(batch), attempt=attempt,
            )
            pol = self.integrity
            if pol is not None and pol.verify_kv:
                # Content-tag mismatch on receive: the cache arrived
                # garbled.  Drop it and re-send from the still-pinned
                # prefill blocks — recompute-from-source, NOT a retry-
                # budget question (the data is known bad), so this path
                # never fails the batch terminally.
                tokens = sum(r.prompt_len for r in batch)
                resend = self.migration_seconds(tokens)
                check_s = resend * pol.kv_check_cost_frac
                stats.verification_s += check_s
                stats.retries += 1
                self.kv_migration_s += resend
                self.trace.record(
                    now, EventKind.CORRUPT_DETECTED, None,
                    self.decode_pool.name, source="kv_tag",
                    batch=len(batch), resend_s=resend,
                )
                self.loop.schedule_after(
                    resend + check_s,
                    lambda: self._finish_migration(batch, attempt + 1),
                )
                return
            # Silent: the garbled cache becomes the batch's context.
            for req in batch:
                req.corrupted = True
        self._migrations += 1
        for req in batch:
            self.prefill_pool.allocator.free(req.request_id)
        self.trace.record(
            now, EventKind.MIGRATE_END, None, self.decode_pool.name,
            batch=len(batch),
        )
        for req in batch:
            self.decode_sched.submit(req)

    # ---- entry point -----------------------------------------------------------------

    def run(self, requests: Sequence) -> RuntimeStats:
        if not requests:
            raise ValueError("empty workload")
        for req in sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        ):
            self.loop.schedule_at(
                req.arrival_s,
                (lambda r: lambda: self._on_arrival(r))(req),
            )
        self.loop.run()
        stats = self.decode_sched.finalize()
        stats.prefill_s = self.prefill_breakdown.total_s
        return stats
