"""End-to-end integrity under silent data corruption.

GPUs flip bits.  At fleet scale, silently: no ECC trap, no error code —
a weight tile, a KV block, or an accumulator is simply wrong, and the
server streams confident tokens computed from garbage.  This package
makes the SpInfer stack *detect* that instead of serving it:

* :mod:`~repro.integrity.abft` — algorithm-based fault tolerance for
  the SpMM kernels: a checksum row sealed into TCA-BME / Tiled-CSL at
  encode time verifies every product in ``O((K+M)N)``; per-tile CRC
  digests catch corrupted weights before a FLOP is spent on them.
* :mod:`~repro.integrity.policy` — what to verify and what it costs;
  ``None`` (no policy) is bit-identical to the pre-integrity runtime.
* :mod:`~repro.integrity.harness` — the detection-rate/goodput
  experiment over the builtin SDC fault plans, byte-stable JSON.

The C-family lint rules (:mod:`repro.analysis.integrity_lint`) audit
run outcomes: corruption detected but served anyway (C002) and an SDC
ledger that does not balance (C005).  A quarantine that could never
trigger is refused when its policy is built.
"""

# perfbench's workloads import this from the package itself.
from .policy import INTEGRITY_POLICIES

__all__ = ["INTEGRITY_POLICIES"]
