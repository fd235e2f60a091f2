"""Performance-regression harness (``repro bench``).

The paper's headline claim is wall-clock speed, so the reproduction keeps
a machine-readable performance trajectory: :mod:`repro.perf.timer` is a
deterministic microbenchmark timer (warmup, repeated runs, median + MAD,
pinned RNG seeds), :mod:`repro.perf.suite` defines the benchmark cases
covering the real hot paths (TCA-BME encode/decode, format conversions,
SMBD decode, functional SpMM, runtime scheduler throughput), and
:mod:`repro.perf.regression` compares a fresh run against a committed
``BENCH_*.json`` baseline, gating both wall-clock regressions (within a
tolerance) and functional regressions (bit-exact checksums).

See docs/PERFORMANCE.md for the JSON schema and the refresh workflow.
"""
