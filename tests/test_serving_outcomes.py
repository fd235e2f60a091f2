"""End-to-end pins on the benchmark's three serving workloads.

Each case runs one serving workload of ``perfbench/workloads.py`` at one
seed through ``prepare``/``setup``/``run``/``outcome``, exactly as the
benchmark does, and checks that the run is correct (no problem, no
failed request) and that its observable outcome is byte-for-byte the
pinned one: the sha256 of ``(digest, attempted, failed, e2e, counts)``.
``digest`` hashes the run's token stream or trace, ``e2e`` holds the
modelled latencies and goodput, and ``counts`` the per-layer counters, so
a change that moves any modelled number, block id or trace event on a
benchmark run fails here by workload and seed.

The module is loaded read-only from its path under a private name, so
these tests run the benchmark's own configurations rather than a copy.
A change that moves a serving outcome on purpose updates the hash here
and says why.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

#: (workload, seed) -> sha256 of repr((digest, attempted, failed, e2e, counts)).
OUTCOMES = {
    ("fleet-chaos", 1):
        "a6d593085717f3eebe8cd9983eeceb499f486f0cbe8f9fe4ed1f0677965cd7fb",
    ("fleet-chaos", 2):
        "4d1092b56ce479e064ff8eafdb270585107c076efc3f3ce1aecdbd4f0df6e047",
    ("fleet-chaos", 3):
        "77b26a3136bddf41d3bca99bfdbbd1d38bef6ae0b9d428153e673926c4454999",
    ("multiturn-prefix", 1):
        "c0f5f04c2c7bbd61d6e5262562c88bb4fcd3586c31b42c3768dc5b6283c2aa8d",
    ("multiturn-prefix", 2):
        "2dfe2b9d8ee726af4d1b0c2b574857095a47c447fef4b5016aadefa6fb22103d",
    ("multiturn-prefix", 3):
        "90d3c52ff9b6fe71b7f8acc9587dba52364995ea0bc2362092a24b860ace56da",
    ("oneshot-sdc", 1):
        "66c592e8b724a26a777710c0e2fb9498fd9f71c84b7a45b209808861691b4a9e",
    ("oneshot-sdc", 2):
        "6086cdfe5740015104b01c0368535c8024fc9822be4e111feda0f5927ed290d6",
    ("oneshot-sdc", 3):
        "fc2d318e065c980cb78bee2f8a449dbaf7f66f702b6fd019b1cad97b5287a5cf",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads_under_test", WORKLOADS_PY
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module.WORKLOADS
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name,seed", sorted(OUTCOMES))
def test_serving_outcome_is_pinned(workloads, name, seed):
    workload = workloads[name](seed)
    workload.prepare()
    state = workload.setup()
    out = workload.outcome(state, workload.run(state))
    assert out.problems == []
    assert out.failed == 0
    observed = repr((out.digest, out.attempted, out.failed, out.e2e, out.counts))
    assert hashlib.sha256(observed.encode()).hexdigest() == OUTCOMES[name, seed]
