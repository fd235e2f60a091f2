"""End-to-end benchmark of the SpInfer reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload multiturn-prefix --seed 1 \
        --seconds 20 --trace 0

Runs one named workload (see ``perfbench/spec.json``) in this process
with BLAS pinned to one thread: one warm-up repeat, then repeats of
set-up + timed phase until ``--seconds`` have passed.  Every repeat's
output is checked.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced repeats
and reports the per-layer metrics, writing the traced spans to
``perfbench/out/`` as trace-event JSON.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS and OpenMP pools pinned to one thread, before numpy loads.
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def load_spec() -> dict:
    """BENCHMARK.json's metric lists plus the benchmark's own spec."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(HERE / "spec.json") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
        "workload_metrics": {
            name: m["unit"] for name, m in spec["workload_metrics"].items()
        },
    }


#: Fresh interpreters timed importing numpy and the program; set-up time
#: takes their median, since one import per process is too noisy alone.
IMPORT_PROBES = 5
_IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import layers, workloads; print(time.perf_counter() - t0)"
)


def import_seconds() -> float:
    """Median wall time to import numpy and every program layer."""
    times = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
            capture_output=True, text=True, check=True,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Repeat:
    """One set-up + timed phase, optionally traced."""

    def __init__(self, wl, tracer=None) -> None:
        from layers import instrument

        if tracer is not None:
            instrument(tracer)
        try:
            t0 = time.perf_counter()
            state = wl.setup()
            t1 = time.perf_counter()
            result = wl.run(state)
            t2 = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.restore()
        self.setup_s = t1 - t0
        self.wall_s = t2 - t1
        self.tracer = tracer
        self.outcome = wl.outcome(state, result)


def measure(wl, seconds: float, trace: bool):
    """Warm up, then repeat until ``seconds`` pass.  With ``trace``,
    untraced and traced repeats alternate (at least one of each)."""
    from tracer import Tracer

    warm = Repeat(wl)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(Repeat(wl))
        if trace:
            traced.append(Repeat(wl, Tracer()))
        if time.perf_counter() >= deadline:
            return warm, untraced, traced


def median(values):
    return statistics.median(values)


def modelled(outcome) -> dict:
    """The ``sim_*`` metrics: modelled time, so they must repeat exactly."""
    return {k: v for k, v in outcome.e2e.items() if k.startswith("sim_")}


def trace_oracles(wl):
    """Recompute the workload's oracles traced, outside the timed phase."""
    from layers import instrument
    from tracer import Tracer

    tracer = Tracer()
    instrument(tracer)
    try:
        oracles = wl.compute_oracles()
    finally:
        tracer.restore()
    return tracer, oracles


def main(argv=None, scale: float = 1.0) -> int:
    """Run the benchmark; ``scale`` < 1 shrinks the inputs (own tests)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in _THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    import_s = import_seconds()

    spec = load_spec()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, scale)
    wl.prepare()
    warm, untraced, traced = measure(wl, args.seconds, bool(args.trace))

    problems = []
    runs = [warm] + untraced + traced
    attempted = sum(r.outcome.attempted for r in runs)
    failed = 0
    for i, rep in enumerate(runs):
        out = rep.outcome
        problems.extend(f"repeat {i}: {p}" for p in out.problems)
        failed += out.failed
        if out.digest != warm.outcome.digest:
            problems.append(f"repeat {i}: output digest differs from repeat 0")
            failed += out.attempted - out.failed
        if modelled(out) != modelled(warm.outcome):
            problems.append(f"repeat {i}: modelled sim_* metrics differ from repeat 0")

    wall_s = median([r.wall_s for r in untraced])
    e2e = {
        "setup_s": import_s + median([r.setup_s for r in untraced]),
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        name: median([r.outcome.e2e[name] for r in untraced])
        for name in warm.outcome.e2e
    }

    if args.trace:
        from layers import layer_metrics

        oracle = None
        if wl.oracles:
            oracle, oracles = trace_oracles(wl)
            if oracles != wl.oracles:
                problems.append("traced oracle outputs differ from untraced")
        traced_wall = median([r.wall_s for r in traced])
        per_rep = [
            layer_metrics(r.tracer, r.outcome.counts, wall_s, r.wall_s, oracle)
            for r in traced
        ]
        layer = {name: median([m[name] for m in per_rep]) for name in per_rep[0]}
        layer["trace.overhead_frac"] = traced_wall / wall_s - 1.0
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        traced[0].tracer.write_chrome_trace(
            out_dir / f"{args.workload}-seed{args.seed}.trace.json"
        )
        declared = spec["per_layer"]
        if set(layer) != set(declared):
            raise RuntimeError(
                f"per-layer metrics computed {sorted(set(layer) ^ set(declared))} "
                "disagree with BENCHMARK.json"
            )
        metrics = {n: {"value": layer[n], "unit": u} for n, u in declared.items()}
    else:
        declared = spec["end_to_end"]
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in declared.items()}

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} timed "
          f"repeat(s), {len(traced)} traced, {attempted} operations, {failed} failed")
    for name, value in e2e.items():
        print(f"  {name:<34} {value:>16.6f} {spec['end_to_end'][name]}")
    for name, value in extra.items():
        print(f"  {name:<34} {value:>16.6f} {spec['workload_metrics'][name]}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:>16.6f} {m['unit']}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
