"""The unified request lifecycle model.

Historically every layer carried its own slice of the request model:
``llm/serving.py`` owned the dataclass, the scheduler re-derived
``prompt + generated`` prefill targets inline, the fault router tracked
attempts on the side, and disaggregation re-imported the serving class
for what is really a runtime concept.  This module is the single home:

* :class:`SessionRequest` — one generation request, optionally part of
  a multi-turn *session*.  The one-shot fields (and their order) are
  exactly the legacy ``Request``'s, so positional construction and the
  perf suite's field resets keep working.  Session fields default to
  "not a session" and change nothing unless a server layer sets them.
* :class:`TokenEvent` — one streamed decode token, emitted by the
  scheduler and flushed at end-of-instant through
  :meth:`~repro.runtime.core.EventLoop.defer`.
* :class:`TokenStream` — the deterministic per-token event log a
  serving front-end reads.  Buffered events flush once per
  instant in ``(request_id, index)`` order, so the stream is invariant
  under the event loop's insertion tie-break (the H002 contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = ["SessionRequest", "TokenEvent", "TokenStream"]


@dataclass
class SessionRequest:
    """One generation request, one-shot or one turn of a session."""

    request_id: int
    arrival_s: float
    prompt_len: int
    output_len: int
    # Filled by the runtime:
    start_s: Optional[float] = None
    finish_s: Optional[float] = None
    first_token_s: Optional[float] = None
    generated: int = 0
    # ---- session lifecycle (defaults = a plain one-shot request) ------
    #: Session this request belongs to; None = one-shot.
    session_id: Optional[int] = None
    #: Zero-based turn index within the session.
    turn: int = 0
    #: Billing/quota principal for per-tenant admission control.
    tenant: str = "default"
    #: Priority tier: 0 is most urgent; ties broken by arrival order.
    priority: int = 0
    #: Prompt tokens whose KV already lives in a shared session prefix
    #: (set by the session manager when a prefix fork is available) —
    #: the scheduler skips re-prefilling them.
    cached_tokens: int = 0
    #: Ground truth from the fault layer: at least one served token was
    #: produced from silently corrupted weights/results/KV.  Only the
    #: simulator can see this flag — a real server cannot — which is
    #: exactly what makes silent corruption silent; the integrity layer
    #: exists so that no completed request ever carries it.
    corrupted: bool = False

    def __post_init__(self) -> None:
        if not self.arrival_s >= 0:
            raise ValueError(f"arrival_s={self.arrival_s} must be >= 0")
        if self.prompt_len < 0:
            raise ValueError(f"prompt_len={self.prompt_len} must be >= 0")
        if self.output_len < 1:
            raise ValueError(f"output_len={self.output_len} must be >= 1")
        if not 0 <= self.cached_tokens <= self.prompt_len:
            raise ValueError(
                f"cached_tokens={self.cached_tokens} outside "
                f"[0, prompt_len={self.prompt_len}]"
            )
        if self.priority < 0:
            raise ValueError("priority tier cannot be negative")

    # ---- derived token arithmetic (the shared lifecycle math) ---------

    @property
    def total_tokens(self) -> int:
        """Worst-case KV footprint in tokens (admission screening)."""
        return self.prompt_len + self.output_len

    @property
    def prefill_target(self) -> int:
        """Tokens that must be resident before decode: the prompt plus
        anything already generated (vLLM's recompute discipline after
        preemption or crash reroute re-prefills both)."""
        return self.prompt_len + self.generated

    @property
    def remaining_output(self) -> int:
        return self.output_len - self.generated

    # ---- latency metrics ----------------------------------------------

    @property
    def latency_s(self) -> Optional[float]:
        if self.finish_s is None:
            return None
        return self.finish_s - self.arrival_s

    @property
    def queue_s(self) -> Optional[float]:
        if self.start_s is None:
            return None
        return self.start_s - self.arrival_s

    @property
    def ttft_s(self) -> Optional[float]:
        """Time to first token — the interactive-latency metric chunked
        prefill (and session prefix reuse) exist to improve."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s


@dataclass(frozen=True)
class TokenEvent:
    """One streamed decode token."""

    t: float
    request_id: int
    #: Zero-based token index within the request's output.
    index: int
    pool: str
    session_id: Optional[int] = None
    #: True on the request's last output token.
    final: bool = False

    def key(self) -> tuple:
        """Canonical comparison key (replay-identity tests)."""
        return (
            self.t, self.request_id, self.index, self.pool,
            self.session_id, self.final,
        )


class TokenStream:
    """Deterministic end-of-instant token flusher.

    Schedulers :meth:`push` events as decode iterations land; the first
    push of an instant arms one :meth:`~repro.runtime.core.EventLoop.
    defer` flush, which appends the instant's events to :attr:`events`
    sorted by ``(request_id, index)`` — NOT by which pool's iteration
    dispatched first — so the observable stream commutes under the H002
    dual replay even when several replicas finish iterations at the
    same timestamp.
    """

    def __init__(self) -> None:
        #: The flushed, ordered stream (the server's observable output).
        self.events: List[TokenEvent] = []
        self._buffer: List[TokenEvent] = []
        self._armed = False
        self.flushes = 0

    def push(self, loop, event: TokenEvent) -> None:
        self._buffer.append(event)
        if not self._armed:
            self._armed = True
            loop.defer(self._flush)

    def _flush(self) -> None:
        self._armed = False
        self.events.extend(
            sorted(self._buffer, key=lambda e: (e.request_id, e.index))
        )
        self._buffer.clear()
        self.flushes += 1

    def for_request(self, request_id: int) -> List[TokenEvent]:
        return [e for e in self.events if e.request_id == request_id]

    def keys(self) -> List[tuple]:
        """The stream's canonical content (byte-identity comparisons)."""
        return [e.key() for e in self.events]
