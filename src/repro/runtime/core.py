"""Discrete-event loop and per-GPU resource model.

The runtime's core is deliberately small: an :class:`EventLoop` with an
explicit clock and a deterministic event queue, plus a :class:`GPUPool`
that bundles what a scheduler may consume on one GPU group — an
:class:`~repro.llm.inference.InferenceEngine` for iteration costs and a
:class:`~repro.llm.kv_cache.KVBlockAllocator` as the *single* source of
KV-memory truth.  Schedulers (:mod:`repro.runtime.scheduler`) are
policies layered on top; they own no clock and no memory arithmetic of
their own.

Determinism contract: events fire in ``(time, phase, insertion order)``
order.  Ties on the clock are broken first by *phase* — :meth:`EventLoop.
defer` schedules at phase 1, guaranteed after every ordinarily-scheduled
(phase 0) event at the same instant — and then by a monotone sequence
number, never by object identity or hash order, so the same inputs
always replay the same schedule.  The phase makes the "defer behind this
instant" idiom (admission kicks that must see every simultaneous
arrival) independent of insertion tie-breaking: the H-family schedule
linter (:mod:`repro.analysis.schedule_lint`) replays loops with the
insertion tie-break reversed (``tie_break="lifo"``) and requires the
observable trace to be unchanged.  Cancellation (``cancel(handle)``)
removes an event's callback without disturbing the sequence numbering,
so a run with cancelled events replays exactly like a run where they
were never scheduled.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Tuple

from ..llm.inference import InferenceEngine, PhaseBreakdown
from ..llm.kv_cache import KVBlockAllocator
from ..llm.memory import kv_bytes_per_token

__all__ = ["EventLoop", "GPUPool", "det_hash01"]

#: Hard ceiling on dispatched events — a runaway-schedule backstop far
#: above any legitimate simulation (the legacy simulator's infinite
#: admission spin is exactly the failure mode this bounds).
MAX_EVENTS = 5_000_000


def det_hash01(key: int, salt: int) -> float:
    """Deterministic pseudo-uniform in [0, 1): an integer hash of
    ``(key, salt)``.  Runtime randomness (backoff jitter, silent-fault
    corruption draws) must NOT consume a shared RNG — the value one
    draw sees would then depend on the order every other draw happened,
    and replays would diverge under refactoring."""
    x = (key * 2654435761 + salt * 40503 + 0x9E3779B9) % (1 << 32)
    x ^= x >> 16
    x = (x * 0x45D9F3B) % (1 << 32)
    x ^= x >> 16
    return x / float(1 << 32)


class EventLoop:
    """Explicit-clock event queue with deterministic tie-breaking.

    ``tie_break`` controls how equal ``(time, phase)`` events order:
    ``"fifo"`` (default, insertion order) or ``"lifo"`` (reverse
    insertion order).  LIFO exists purely for the H002 dual-replay
    check — any schedule whose *observable* behaviour differs between
    the two orderings has a race hiding behind the insertion tie-break.
    """

    def __init__(self, tie_break: str = "fifo") -> None:
        if tie_break not in ("fifo", "lifo"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        self.now = 0.0
        self.tie_break = tie_break
        self._heap: List[Tuple[float, int, int]] = []
        self._callbacks: Dict[int, Callable[[], None]] = {}
        self._seq = 0
        self.dispatched = 0
        self.cancelled = 0

    def _push(
        self, time: float, callback: Callable[[], None], phase: int
    ) -> int:
        handle = self._seq
        key = handle if self.tie_break == "fifo" else -handle
        heapq.heappush(self._heap, (time, phase, key))
        self._callbacks[handle] = callback
        self._seq += 1
        return handle

    def schedule_at(self, time: float, callback: Callable[[], None]) -> int:
        """Run ``callback`` when the clock reaches ``time``.

        Returns a cancellation handle for :meth:`cancel`.
        """
        if not math.isfinite(time):
            raise ValueError(
                f"cannot schedule at non-finite time {time!r} — NaN/inf "
                "silently corrupt heap ordering"
            )
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time} before now={self.now}"
            )
        return self._push(time, callback, phase=0)

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> int:
        if delay < 0:
            raise ValueError("delay cannot be negative")
        return self.schedule_at(self.now + delay, callback)

    def defer(self, callback: Callable[[], None]) -> int:
        """Run ``callback`` at the current instant, *after* every
        ordinarily-scheduled event at this timestamp.

        This is the first-class form of the old ``schedule_at(now, cb)``
        idiom (admission kicks that must observe every simultaneous
        arrival).  Phase 1 ordering makes the guarantee independent of
        insertion tie-breaking, so deferred work commutes under the
        H002 dual replay instead of racing with phase-0 events.
        """
        return self._push(self.now, callback, phase=1)

    def cancel(self, handle: int) -> bool:
        """Cancel a pending event; returns True if it was still pending.

        Cancelling never perturbs the ``(time, phase, seq)`` ordering of
        the surviving events — the heap entry stays in place and is
        skipped at pop time, so determinism is preserved (timeout
        machinery in the fault-tolerant schedulers depends on this).
        Handles come from a monotone sequence and are never reused, so
        cancelling one that already fired or was already cancelled
        returns False and touches no other event.
        """
        if self._callbacks.pop(handle, None) is None:
            return False
        self.cancelled += 1
        return True

    @property
    def pending_events(self) -> int:
        return len(self._callbacks)

    def run(self, max_events: int = MAX_EVENTS) -> None:
        """Dispatch events until the queue drains.

        ``max_events`` bounds the total dispatch count, so a schedule
        that keeps re-enqueueing without advancing the clock (a
        same-instant spin) raises instead of hanging.
        """
        while self._heap:
            if self.dispatched >= max_events:
                raise RuntimeError(
                    f"event budget of {max_events} exhausted at "
                    f"t={self.now:.3f}s — the schedule is not making "
                    "progress (likely a policy that re-enqueues without "
                    "advancing the clock)"
                )
            time, _phase, key = heapq.heappop(self._heap)
            handle = key if self.tie_break == "fifo" else -key
            callback = self._callbacks.pop(handle, None)
            if callback is None:
                continue  # cancelled; never fires, never advances the clock
            self.now = time
            self.dispatched += 1
            callback()


class GPUPool:
    """One GPU group's resources: a cost model plus a paged KV pool.

    The allocator is sized from the DRAM budget left after weights
    (``kv_budget_bytes / (block_size * kv_bytes_per_token)`` blocks)
    unless ``total_blocks`` overrides it — disaggregated simulations use
    the override to model pools whose feasibility is the *linter's*
    verdict (rules D001/D002), not a runtime crash.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        kv_budget_bytes: float,
        block_size: int = 16,
        max_batch: int = 32,
        name: str = "gpu0",
        total_blocks: Optional[int] = None,
    ) -> None:
        if block_size <= 0 or max_batch <= 0:
            raise ValueError("block_size and max_batch must be positive")
        self.engine = engine
        self.name = name
        self.max_batch = max_batch
        self.block_size = block_size
        self.kv_budget_bytes = kv_budget_bytes
        self.kv_per_token = kv_bytes_per_token(
            engine.model, engine.config.num_gpus
        )
        if total_blocks is None:
            total_blocks = int(
                kv_budget_bytes // (block_size * self.kv_per_token)
            )
        if total_blocks <= 0:
            raise ValueError(
                f"pool {name!r} has no KV blocks: budget "
                f"{kv_budget_bytes / 1e9:.2f} GB at "
                f"{self.kv_per_token / 1e6:.2f} MB/token"
            )
        self.allocator = KVBlockAllocator(
            total_blocks=total_blocks, block_size=block_size
        )
        #: Fault state: a crashed pool stops serving; a straggling pool
        #: multiplies every iteration cost until it recovers.
        self.alive = True
        self.slowdown = 1.0

    # ---- fault surface ---------------------------------------------------------------

    def fail(self) -> None:
        """Mark the pool crashed.  The KV it held is gone; the scheduler
        on top is responsible for freeing the bookkeeping and failing or
        re-routing its sequences."""
        self.alive = False

    def set_slowdown(self, factor: float) -> None:
        """Multiply iteration costs by ``factor`` (straggler model).
        ``1.0`` restores nominal speed."""
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        self.slowdown = factor

    # ---- capacity ------------------------------------------------------------------

    def blocks_for(self, tokens: int) -> int:
        return self.allocator.blocks_needed(tokens)

    def fits_at_all(self, tokens: int) -> bool:
        """Whether a sequence of ``tokens`` could EVER hold its KV here.

        The admission-safety rule that kills the legacy infinite loop: a
        request failing this check is rejected at arrival instead of
        parking in the waiting queue forever.
        """
        return self.blocks_for(tokens) <= self.allocator.total_blocks

    # ---- iteration costs -------------------------------------------------------------

    def decode_step(self, batch: int, avg_context: float) -> PhaseBreakdown:
        step = self.engine.decode_step_seconds(batch, avg_context)
        if self.slowdown != 1.0:
            step = step.scaled(self.slowdown)
        return step

    def prefill_tokens_seconds(self, tokens: int) -> float:
        seconds = self.engine.prefill_tokens_seconds(tokens)
        if self.slowdown != 1.0:
            seconds *= self.slowdown
        return seconds

    def prefill_breakdown(self, batch: int, prompt_len: int) -> PhaseBreakdown:
        phase = self.engine.prefill_breakdown(batch, prompt_len)
        if self.slowdown != 1.0:
            phase = phase.scaled(self.slowdown)
        return phase
