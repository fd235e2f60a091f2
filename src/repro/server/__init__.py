"""Session-aware streaming server over the fault-tolerant runtime.

The layers, bottom-up:

* :mod:`~repro.server.sessions` — multi-turn session specs, the pinned
  workload generator, and the :class:`SessionManager` that turns
  finished turns into refcounted, copy-on-write KV prefixes (so later
  turns skip re-prefilling shared history) with crash-safe lazy
  invalidation and provable teardown;
* :mod:`~repro.server.admission` — the SLO front door: prompt-length
  buckets, priority tiers, per-tenant token quotas, plus the
  deliberately broken policies the Q-rule lint sweep must flag;
* :mod:`~repro.server.streaming` — :class:`StreamingServer` composing
  gate + router + sessions + one deterministic
  :class:`~repro.runtime.request.TokenStream`, and the byte-stable
  ``repro server --json`` report.

See docs/RUNTIME.md (session lifecycle) and docs/TUTORIAL.md (the
two-turn walkthrough).
"""
