"""Wall-clock spans around the program's layer boundaries, from outside.

:class:`Tracer` patches public functions and methods of the program with
thin timing wrappers, records every call as a span (name, start, end,
parent) or as an aggregate only, and restores the originals on
:meth:`Tracer.restore`.  Self time is a call's duration minus the time
its wrapped children took, so nested layers are never counted twice.

The wrappers are transparent: they pass arguments and results through
unchanged, so a traced run must produce the same outputs as an untraced
one (the benchmark checks that).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Union

_MISSING = object()

Name = Union[str, Callable[..., str]]


class Tracer:
    """Span recorder with patch/restore of the wrapped callables."""

    def __init__(self) -> None:
        #: ``[name, start_s, end_s, parent_index]``; parent -1 = root.
        self.spans: List[list] = []
        #: name -> [calls, total_s, self_s]
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: Free-form counters filled by ``observe`` callbacks.
        self.counters: Dict[str, float] = defaultdict(float)
        #: name -> set of argument keys seen (repeat-key fractions).
        self.keys: Dict[str, set] = defaultdict(set)
        self.repeats: Dict[str, int] = defaultdict(int)
        self._open: List[int] = []
        self._child: List[float] = []
        self._patches: List[tuple] = []

    # ---- wrapping ----------------------------------------------------------------

    def wrapper(
        self,
        fn: Callable,
        name: Name,
        span: bool = True,
        observe: Optional[Callable] = None,
    ) -> Callable:
        """A timing wrapper around ``fn``.  ``name`` may be a callable of
        the call's arguments; ``observe(result, *args, **kwargs)`` runs
        after the call, outside its timed interval."""
        spans, totals, open_spans, child = (
            self.spans, self.totals, self._open, self._child
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if span:
                idx = len(spans)
                spans.append([label, 0.0, 0.0, open_spans[-1] if open_spans else -1])
                open_spans.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                inner = child.pop()
                if child:
                    child[-1] += dur
                if span:
                    open_spans.pop()
                    rec = spans[idx]
                    rec[1], rec[2] = t0, t1
                tot = totals[label]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - inner
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(
        self,
        owner,
        attr: str,
        name: Name,
        span: bool = True,
        observe: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a
        traced wrapper; :meth:`restore` puts the original back."""
        original = owner.__dict__.get(attr, _MISSING)
        fn = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrapper(fn, name, span=span, observe=observe))

    def restore(self) -> None:
        """Undo every patch, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ---- observers ----------------------------------------------------------------

    def count_key(self, name: str, key) -> None:
        """Record one call's argument key; repeats feed ``repeat_key_frac``."""
        seen = self.keys[name]
        if key in seen:
            self.repeats[name] += 1
        else:
            seen.add(key)

    def repeat_key_frac(self, name: str) -> float:
        calls = self.totals[name][0] if name in self.totals else 0
        return self.repeats[name] / calls if calls else 0.0

    # ---- results ------------------------------------------------------------------

    def layer(self, name: str) -> Dict[str, float]:
        """``calls``, ``ms`` and ``self_ms`` of one wrapped name."""
        calls, total, self_s = self.totals[name] if name in self.totals else (0, 0.0, 0.0)
        return {"calls": calls, "ms": total * 1e3, "self_ms": self_s * 1e3}

    def write_chrome_trace(self, path) -> None:
        """Write the spans as trace-event JSON (Perfetto, chrome://tracing)."""
        base = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - base) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": idx, "parent": parent},
            }
            for idx, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)
